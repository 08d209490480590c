import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gammaring import (DerivationTable, MapPair, build_matrix_ring, build_table_ring,
                       canonical_frame, document_dict, emit_grdf, parse_grdf)
from gammaring import cli
from gammaring.cli import main
from gammaring.errors import GRDFError, InternalInconsistencyError

from conftest import gidx, midx
from test_cli_pinned import write_documents


@pytest.fixture(scope="module")
def matrix_doc_path(tmp_path_factory, matrix222):
    e11 = midx(matrix222, (1, 0), (0, 0))
    i = gidx(matrix222, (1, 0), (0, 1))
    frame = canonical_frame(matrix222, e11, i, midx(matrix222, (1, 0), (0, 1)))
    ident = MapPair(matrix222, matrix222, np.arange(16), np.arange(16))
    path = tmp_path_factory.mktemp("grdf") / "m222.json"
    path.write_text(emit_grdf(document_dict(matrix222, frames=[frame], maps=[ident])))
    return str(path)


@pytest.fixture(scope="module")
def trivial_doc_path(tmp_path_factory, trivial_z4):
    path = tmp_path_factory.mktemp("grdf") / "trivz4.json"
    path.write_text(emit_grdf(document_dict(trivial_z4)))
    return str(path)


def test_roundtrip_byte_identical(matrix222, trivial_z4, f4ring):
    e11 = midx(matrix222, (1, 0), (0, 0))
    i = gidx(matrix222, (1, 0), (0, 1))
    frame = canonical_frame(matrix222, e11, i, midx(matrix222, (1, 0), (0, 1)))
    ident = MapPair(matrix222, matrix222, np.arange(16), np.arange(16))
    for doc in (document_dict(matrix222, frames=[frame], maps=[ident]),
                document_dict(trivial_z4),
                document_dict(f4ring)):
        text = emit_grdf(doc)
        assert emit_grdf(parse_grdf(text).to_dict()) == text


def test_parse_matrix_rejects_user_groups():
    with pytest.raises(GRDFError):
        parse_grdf(json.dumps({
            "product": {"type": "matrix", "mod": 2, "rows": 2, "cols": 2},
            "m_group": {"invariants": [2]},
        }))


def test_parse_rejects_garbage():
    with pytest.raises(GRDFError):
        parse_grdf("{not json")
    with pytest.raises(GRDFError):
        parse_grdf(json.dumps({"product": {"type": "nonsense"}}))
    with pytest.raises(GRDFError):
        parse_grdf(json.dumps({
            "product": {"type": "table", "entries": [[[0]]]},
            "m_group": {"invariants": [2]},
            "gamma_group": {"invariants": [2]},
        }))


def test_parse_rejects_non_bijective_map(trivial_z4):
    doc = document_dict(trivial_z4)
    doc["maps"] = [{"phi": [0, 0, 1, 2], "psi": [0, 1]}]
    with pytest.raises(GRDFError):
        parse_grdf(json.dumps(doc))


def test_frames_materialize(matrix222):
    e11 = midx(matrix222, (1, 0), (0, 0))
    i = gidx(matrix222, (1, 0), (0, 1))
    frame = canonical_frame(matrix222, e11, i, midx(matrix222, (1, 0), (0, 1)))
    text = emit_grdf(document_dict(matrix222, frames=[frame]))
    doc = parse_grdf(text)
    rebuilt = doc.build_frames()
    assert len(rebuilt) == 1
    assert (rebuilt[0].left_f == frame.left_f).all()


def test_cli_axioms_pass(matrix_doc_path, capsys):
    assert main(["axioms", "--input", matrix_doc_path]) == 0
    out = capsys.readouterr().out
    assert "barnes-iv" in out


def test_cli_axioms_malformed(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["axioms", "--input", str(bad)]) == 2


def test_cli_missing_file():
    assert main(["axioms", "--input", "/nonexistent/x.json"]) == 2


def test_cli_usage_errors(matrix_doc_path, capsys):
    assert main(["axioms"]) == 2
    assert main(["not-a-command", "--input", matrix_doc_path]) == 2
    assert main(["axioms", "--input", matrix_doc_path, "--n", "1"]) == 2
    capsys.readouterr()
    assert main(["verify-iso", "--input", matrix_doc_path, "--n", "1"]) == 2
    assert capsys.readouterr().err == "error: --n must be >= 2\n"


# the options each command reads: 17 of the 50 (command, option) pairs; the
# other 33 are refused
READS = {
    "axioms": set(), "idempotents": set(), "peirce": set(), "conditions": set(),
    "verify-iso": {"n", "budget", "seed"}, "verify-derivation": {"n", "budget", "seed"},
    "search-iso": {"n", "budget", "require_additive"},
    "search-derivations": {"n", "budget", "require_additive"},
    "theorem": {"n", "k", "budget"}, "hunt": {"n", "budget"},
}
OPTION_VALUES = {"n": 3, "k": 2, "budget": 7, "seed": 5, "require_additive": True}


@pytest.mark.parametrize("command, option", [(c, o) for c in cli._COMMANDS for o in cli._OPTIONS],
                         ids=lambda v: v)
def test_cli_command_takes_only_the_options_it_reads(command, option, capsys):
    # no document is loaded: the input path does not exist, and a refused
    # option exits at parse time, before main would read it
    value = OPTION_VALUES[option]
    argv = [command, "--input", "absent.json", "--" + option.replace("_", "-")]
    argv += [] if value is True else [str(value)]
    if option in READS[command]:
        assert getattr(cli.build_parser().parse_args(argv), option) == value
    else:
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments: --" in captured.err


@pytest.fixture(scope="module")
def pinned_docs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("pinned")
    write_documents(directory)
    return directory


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_cli_report_echoes_only_the_options_its_command_takes(command, pinned_docs, capsys):
    path = str(pinned_docs / "m222-good.json")
    argv = [command, "--input", path, "--format", "json"]
    for option in sorted(READS[command]):
        value = OPTION_VALUES[option]
        argv += ["--" + option.replace("_", "-")] + ([] if value is True else [str(value)])
    assert set(vars(cli.build_parser().parse_args(argv))) == {"command", "input", "format"} \
        | READS[command]
    assert main(argv) in (0, 1, 3)
    report = json.loads(capsys.readouterr().out)
    assert report["options"] == {"input": [path] if command == "hunt" else path,
                                 **{option: OPTION_VALUES[option] for option in READS[command]}}


# a value one below each bounded option's least value
BELOW = {"n": 1, "k": 0, "budget": 0, "seed": -1}


@pytest.mark.parametrize("command, option", [(c, o) for c in cli._COMMANDS
                                             for o in sorted(READS[c]) if o in BELOW],
                         ids=lambda v: v)
def test_cli_option_below_its_least_value_is_usage_error(command, option, pinned_docs,
                                                         capsys):
    # at --budget 1000 the verify commands sample, so a bad seed would reach the sampler
    argv = [command, "--input", str(pinned_docs / "m222-bad.json"),
            "--" + option, str(BELOW[option])]
    if option != "budget" and "budget" in READS[command]:
        argv += ["--budget", "1000"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --{option} must be >= {BELOW[option] + 1}\n"


def test_cli_peirce_and_conditions(matrix_doc_path, capsys):
    assert main(["peirce", "--input", matrix_doc_path]) == 0
    assert main(["conditions", "--input", matrix_doc_path]) == 0
    capsys.readouterr()


def test_cli_conditions_fail_without_frames(trivial_doc_path, capsys):
    assert main(["conditions", "--input", trivial_doc_path]) == 1
    out = capsys.readouterr().out
    assert "empty idempotent family" in out


def test_cli_verify_iso(matrix_doc_path, capsys):
    assert main(["verify-iso", "--input", matrix_doc_path]) == 0
    assert main(["verify-iso", "--input", matrix_doc_path, "--budget", "10"]) == 3
    capsys.readouterr()


def test_cli_search_iso_require_additive(trivial_doc_path, capsys):
    code = main(["search-iso", "--input", trivial_doc_path,
                 "--require-additive", "--format", "json"])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert report["found"] == 12 and report["additive"] == 4
    w = report["witness"]
    assert w["additive"] is False and "additivity_witness" in w


def test_cli_search_iso_budget(trivial_doc_path, capsys):
    assert main(["search-iso", "--input", trivial_doc_path, "--budget", "5"]) == 3
    capsys.readouterr()


def test_cli_theorem(matrix_doc_path, capsys):
    assert main(["theorem", "--input", matrix_doc_path]) == 0
    report = capsys.readouterr()
    assert main(["theorem", "--input", matrix_doc_path, "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pipelines"][0]["confirmed"] is True


def test_cli_theorem_fails_on_trivial(trivial_doc_path, tmp_path, trivial_z4, capsys):
    doc = document_dict(trivial_z4, maps=[MapPair(trivial_z4, trivial_z4,
                                                  np.arange(4), np.arange(2))])
    doc["frames"] = []
    path = tmp_path / "triv_maps.json"
    path.write_text(emit_grdf(doc))
    # no frames section at all -> usage error
    assert main(["theorem", "--input", str(path)]) == 2
    capsys.readouterr()


def test_cli_search_derivations(trivial_doc_path, capsys):
    code = main(["search-derivations", "--input", trivial_doc_path,
                 "--require-additive", "--format", "json"])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert report["found"] == 64 and report["additive"] == 4


def test_cli_hunt(trivial_doc_path, matrix_doc_path, capsys):
    code = main(["hunt", "--input", trivial_doc_path, "--input", matrix_doc_path,
                 "--format", "json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["survey"]) == 2
    assert report["survey"][0]["qualifying"] is False
    assert report["survey"][0]["witnesses"]
    assert report["survey"][1]["qualifying"] is True


def test_cli_reports_byte_identical(trivial_doc_path, capsys):
    main(["search-iso", "--input", trivial_doc_path, "--format", "json"])
    first = capsys.readouterr().out
    main(["search-iso", "--input", trivial_doc_path, "--format", "json"])
    second = capsys.readouterr().out
    assert first == second and json.loads(first)["found"]


def test_cli_witness_rendering_includes_matrices(matrix_doc_path, capsys):
    main(["axioms", "--input", matrix_doc_path, "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    strict = next(v for v in report["verdicts"] if v["check"] == "nobusawa-iii-strict")
    assert strict["witness"]["gamma"]["matrix"] is not None
    assert "residues" in strict["witness"]["gamma"]


def test_cli_verify_derivation(tmp_path, trivial_z4, capsys):
    doc = document_dict(trivial_z4, derivations=[
        DerivationTable(trivial_z4, np.array([0, 3, 1, 2])),
        DerivationTable(trivial_z4, np.array([1, 0, 0, 0]))])
    path = tmp_path / "derivs.json"
    path.write_text(emit_grdf(doc))
    assert main(["verify-derivation", "--input", str(path)]) == 1
    report = capsys.readouterr().out
    assert "derivation[0]-2-leibniz" in report


@pytest.mark.parametrize("command, patch, error, message", [
    ("axioms", "handler", InternalInconsistencyError, "internal inconsistency"),
    ("axioms", "handler", RuntimeError, "internal error"),
    ("theorem", "pipeline", ValueError, "internal error"),
], ids=["inconsistency", "handler-runtime-error", "pipeline-value-error"])
def test_cli_internal_inconsistency_exit(command, patch, error, message, matrix_doc_path,
                                         monkeypatch, capsys):
    import gammaring.theorem

    def boom(*args, **kwargs):
        raise error("forced for the exit-code test")

    if patch == "handler":
        help_text, _, options = cli._COMMANDS[command]
        monkeypatch.setitem(cli._COMMANDS, command, (help_text, boom, options))
    else:
        # a bug inside the pipeline must not be reported as a failed subject
        monkeypatch.setattr(gammaring.theorem, "check_hypotheses", boom)
    assert main([command, "--input", matrix_doc_path]) == 4
    captured = capsys.readouterr()
    assert message in captured.err and len(captured.err.splitlines()) == 1
    assert captured.out == ""


def test_cli_theorem_n3_exact_at_default_budget(matrix_doc_path, capsys):
    # the hypothesis gate counts the 2^20 composite checks of the exact scan,
    # not the 2^28 raw chain tuples that scan covers
    assert main(["theorem", "--input", matrix_doc_path, "--n", "3", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pipelines"][0]["confirmed"] is True
    assert report["pipelines"][0]["hypotheses"]["exact"] is True


def test_cli_bad_canonical_frame_is_usage_error(tmp_path, matrix222, capsys):
    # (3, 9) is no gamma-unity of matrix(2,2,2): bad input, not a bug
    doc = document_dict(matrix222)
    doc["frames"] = [{"mode": "canonical", "e": 8, "gamma1": 9, "unity": 3}]
    path = tmp_path / "badframe.json"
    path.write_text(emit_grdf(doc))
    assert main(["conditions", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: frames[0]: (3, 9) is not a gamma-unity\n"
    assert captured.out == ""
    with pytest.raises(GRDFError):
        parse_grdf(path.read_text()).build_frames()


def test_cli_theorem_keeps_other_subjects_when_one_is_partial(tmp_path, monkeypatch, capsys):
    # at n = 3 and budget 10^4 the passing subjects are decided by their
    # 4,096 tuples of n = 2, while the failing ones fail there and their
    # rescan (min(2 * 2 * 16^3 * 16, 16^3 * 16^2) = 262,144) is refused
    write_documents(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(["theorem", "--input", "m222-bad.json", "--n", "3", "--budget", "10000",
                 "--format", "json"]) == 3
    report = json.loads(capsys.readouterr().out)
    assert [p["subject"] for p in report["pipelines"]] == ["map[0]", "derivation[0]"]
    assert report["failures"] == []
    assert [p["subject"] for p in report["partial"]] == ["map[1]", "derivation[1]"]
    assert all("partial" in p["error"] for p in report["partial"])


def _small_docs():
    """A valid matrix(2,1,1) document and its 2-element table copy, each with
    a custom frame, a map pair and a derivation."""
    ring = build_matrix_ring(2, 1, 1)
    table = build_table_ring(ring.m_group, ring.gamma_group, ring.mu, ring.nu)
    docs = {}
    for name, r in (("matrix", ring), ("table", table)):
        doc = document_dict(r, maps=[MapPair(r, r, np.arange(2), np.arange(2))],
                            derivations=[DerivationTable(r, np.zeros(2, dtype=np.int32))])
        doc["frames"] = [{"mode": "custom", "e": 1, "gamma1": 1,
                          "left_f": [[0, 0], [0, 1]], "right_f": [[0, 0], [0, 1]]}]
        docs[name] = doc
    return docs


def _set(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


MALFORMED = [
    ("frames-int", "conditions", "matrix", ["frames"], 5),
    ("frames-null", "conditions", "matrix", ["frames"], None),
    ("maps-int", "verify-iso", "matrix", ["maps"], 5),
    ("maps-null", "verify-iso", "matrix", ["maps"], None),
    ("derivations-int", "verify-derivation", "matrix", ["derivations"], 5),
    ("derivations-null", "verify-derivation", "matrix", ["derivations"], None),
    ("left_f-ragged", "conditions", "matrix", ["frames", 0, "left_f"], [[0, 1], [0]]),
    ("left_f-string", "conditions", "matrix", ["frames", 0, "left_f"], [[0, "x"], [0, 1]]),
    ("entries-2^40", "axioms", "table", ["product", "entries", 1, 1, 1], 2**40),
    ("nu-2^40", "axioms", "table", ["nu", 1, 1, 1], 2**40),
    ("phi-2^70", "verify-iso", "matrix", ["maps", 0, "phi", 1], 2**70),
    ("d-2^70", "verify-derivation", "matrix", ["derivations", 0, "d", 1], 2**70),
    ("entries-float", "axioms", "table", ["product", "entries", 1, 1, 1], 0.5),
    # 2^32 wraps to 0 in an int32 table, which made the identity pair
    ("phi-2^32", "verify-iso", "matrix", ["maps", 0, "phi", 0], 2**32),
    ("rows-2^40", "axioms", "matrix", ["product", "rows"], 2**40),
    # np.asarray reads a boolean among integers as 0 or 1
    ("entries-true", "axioms", "table", ["product", "entries", 1, 1, 1], True),
    ("nu-true", "axioms", "table", ["nu", 1, 1, 1], True),
    ("left_f-true", "conditions", "matrix", ["frames", 0, "left_f", 1, 1], True),
    # the library takes an integral float as an index; a JSON document may not
    ("entries-1.0", "axioms", "table", ["product", "entries", 1, 1, 1], 1.0),
    ("phi-1.0", "verify-iso", "matrix", ["maps", 0, "phi", 1], 1.0),
    ("left_f-1.0", "conditions", "matrix", ["frames", 0, "left_f", 1, 1], 1.0),
]


@pytest.mark.parametrize("command, base, path, value", [c[1:] for c in MALFORMED],
                         ids=[c[0] for c in MALFORMED])
def test_cli_malformed_document_is_usage_error(command, base, path, value, tmp_path, capsys):
    doc = _small_docs()[base]
    _set(doc, path, value)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main([command, "--input", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1
    assert captured.out == ""


def _paths(node, prefix=()):
    """Every (path to a value) inside a JSON document, the root excluded."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


REPLACEMENTS = [0, 1, 3, -1, 0.5, -1.0, 2**40, 2**70, -2**70, None, True, "x", "table",
                "canonical", {}, [], [[0, 1], [0]], [0.5, 1], [None], [2**70, 0]]
FUZZ_COMMANDS = ["axioms", "conditions", "verify-iso", "verify-derivation", "theorem"]


@settings(derandomize=True, database=None, deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_cli_fuzzed_documents_never_exit_4(tmp_path_factory, data):
    doc = data.draw(st.sampled_from(sorted(_small_docs().items())))[1]
    doc = json.loads(json.dumps(doc))
    for _ in range(data.draw(st.integers(1, 3))):
        paths = sorted(_paths(doc), key=repr)
        if not paths:
            break
        path = data.draw(st.sampled_from(paths))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if data.draw(st.booleans()) and isinstance(parent, dict):
            del parent[path[-1]]
        else:
            parent[path[-1]] = json.loads(json.dumps(data.draw(st.sampled_from(REPLACEMENTS))))
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(doc))
    command = data.draw(st.sampled_from(FUZZ_COMMANDS))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--input", str(path)]
                    + (["--budget", "1000"] if "budget" in READS[command] else []))
    assert code in (0, 1, 2, 3), (command, doc, err.getvalue())
    assert "Traceback" not in err.getvalue()

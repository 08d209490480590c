import json

import numpy as np
import pytest

from gammaring import (DerivationTable, MapPair, canonical_frame, document_dict,
                       emit_grdf, parse_grdf)
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


def test_cli_usage_errors(matrix_doc_path):
    assert main(["axioms"]) == 2
    assert main(["not-a-command", "--input", matrix_doc_path]) == 2
    assert main(["axioms", "--input", matrix_doc_path, "--n", "1"]) == 2


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
    main(["search-iso", "--input", trivial_doc_path, "--format", "json", "--seed", "3"])
    first = capsys.readouterr().out
    main(["search-iso", "--input", trivial_doc_path, "--format", "json", "--seed", "3"])
    second = capsys.readouterr().out
    assert first == second


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
    import gammaring.cli as cli_mod
    import gammaring.theorem

    def boom(*args, **kwargs):
        raise error("forced for the exit-code test")

    if patch == "handler":
        monkeypatch.setitem(cli_mod._HANDLERS, command, boom)
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
    # at budget 10^4 the hypothesis scan of the passing subjects is sampled,
    # while the failing ones are refused by their exact verification
    write_documents(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(["theorem", "--input", "m222-bad.json", "--budget", "10000",
                 "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["pipelines"] == []
    assert [f["subject"] for f in report["failures"]] == ["map[1]", "derivation[1]"]
    assert [p["subject"] for p in report["partial"]] == ["map[0]", "derivation[0]"]
    assert all("partial" in p["error"] for p in report["partial"])

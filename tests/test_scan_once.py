"""Each structural fact is computed once: Barnes scans and frame validation.

The Nobusawa report reuses the ring's cached Barnes scans, so it is compared
field by field with a reference that rescans every identity in the order
distributivity (right, left, Gamma), associativity, then the nu identity.
"""

import contextlib
import io
import json

import numpy as np
import pytest

import gammaring.peirce as peirce_mod
import gammaring.rings as rings_mod
from gammaring import (build_matrix_ring, build_table_ring, canonical_frames,
                       check_nobusawa, direct_product, document_dict, emit_grdf, make_group,
                       validate_frame)
from gammaring.cli import main
from gammaring.errors import BudgetExceededError
from gammaring.peirce import IdempotentFrame
from gammaring.rings import _associativity, _first, _witness
from conftest import _gamma_distrib, _left_distrib, _right_distrib

NAMES5 = ("x", "alpha", "y", "beta", "z")


def _nu_scan(ring):
    """Lex-least (x, a, y, b, z) with x.a.(y.b.z) != x.(a.y.b).z, or None."""
    mu, nu = ring.mu, ring.nu
    lhs = mu[:, :, mu]                                       # [x, a, y, b, z]
    rhs = mu[np.arange(ring.m_order)[:, None, None, None, None],
             nu[None, :, :, :, None], np.arange(ring.m_order)[None, None, None, None, :]]
    return _witness(NAMES5, _first(lhs != rhs))


def _reference_nobusawa(ring):
    """(axiom, identity, holds, witness, checked) of nobusawa-i and -ii, rescanned."""
    witness, identity, checked = None, "distributivity", 0
    for fn, ident in ((_right_distrib, "(x+y).a.z = x.a.z + y.a.z"),
                      (_left_distrib, "x.a.(y+z) = x.a.y + x.a.z"),
                      (_gamma_distrib, "x.(a+b).y = x.a.y + x.b.y")):
        w, c = fn(ring)
        checked += c
        if w is not None:
            witness, identity = w, ident
            break
    out = [("nobusawa-i", identity, witness is None, witness, checked)]

    w, checked = _associativity(ring)
    identity = "(x.a.y).b.z = x.a.(y.b.z)"
    if w is None:
        w = _nu_scan(ring)
        checked *= 2                    # the nu scan covers the same tuples
        if w is not None:
            identity = "x.a.(y.b.z) = x.(a.y.b).z"
    out.append(("nobusawa-ii", identity, w is None, w, checked))
    return out


def _z3_ring(product):
    z3 = make_group([3])
    mu = [[[product(x, g, y) for y in range(3)] for g in range(3)] for x in range(3)]
    return build_table_ring(z3, z3, mu, np.zeros((3, 3, 3), dtype=np.int32))


def _trilinear_ring(seed):
    """A random Z2-trilinear product Z2^2 x Z2 x Z2^2 -> Z2^2."""
    m, g = make_group([2, 2]), make_group([2])
    coeff = np.random.default_rng(seed).integers(0, 2, size=(2, 1, 2, 2))
    em, eg = m.residues, g.residues
    vals = np.einsum("xi,gj,yk,ijkl->xgyl", em, eg, em, coeff) % 2
    mu = np.array([[[m.index_of(tuple(vals[x, a, y])) for y in range(4)]
                    for a in range(2)] for x in range(4)])
    return build_table_ring(m, g, mu, np.zeros((2, 4, 2), dtype=np.int32))


def _branch_rings():
    m222 = build_matrix_ring(2, 2, 2)
    bad_mu = m222.mu.copy()
    bad_mu[3, 5, 7] = (bad_mu[3, 5, 7] + 1) % 16
    bad_nu = m222.nu.copy()
    bad_nu[3, 5, 7] = (bad_nu[3, 5, 7] + 1) % 16
    table = (m222.m_group, m222.gamma_group)
    return {
        "right-distributivity": build_table_ring(*table, bad_mu, m222.nu),
        "left-distributivity": _z3_ring(lambda x, g, y: x if y else 0),
        "gamma-distributivity": _z3_ring(lambda x, g, y: x * y % 3 if g else 0),
        "associativity": _trilinear_ring(0),
        "nu-identity": build_table_ring(*table, m222.mu, bad_nu),
        "none": build_table_ring(*table, m222.mu, m222.nu),
    }


# (identity, holds) of nobusawa-i and nobusawa-ii on each ring
EXPECTED_BRANCH = {
    "right-distributivity": (("(x+y).a.z = x.a.z + y.a.z", False),
                             ("(x.a.y).b.z = x.a.(y.b.z)", False)),
    "left-distributivity": (("x.a.(y+z) = x.a.y + x.a.z", False),
                            ("x.a.(y.b.z) = x.(a.y.b).z", False)),
    "gamma-distributivity": (("x.(a+b).y = x.a.y + x.b.y", False),
                             ("x.a.(y.b.z) = x.(a.y.b).z", False)),
    "associativity": (("distributivity", True), ("(x.a.y).b.z = x.a.(y.b.z)", False)),
    "nu-identity": (("distributivity", True), ("x.a.(y.b.z) = x.(a.y.b).z", False)),
    "none": (("distributivity", True), ("(x.a.y).b.z = x.a.(y.b.z)", True)),
}


@pytest.mark.parametrize("branch", sorted(EXPECTED_BRANCH))
def test_nobusawa_report_matches_rescan(branch):
    ring = _branch_rings()[branch]
    want = _reference_nobusawa(ring)
    assert tuple((r[1], r[2]) for r in want) == EXPECTED_BRANCH[branch]
    got = [(r.axiom, r.identity, r.holds, r.witness, r.checked)
           for r in check_nobusawa(ring)[:2]]
    assert got == want


def test_nobusawa_refuses_over_cap_before_barnes_is_cached(monkeypatch):
    m222 = build_matrix_ring(2, 2, 2)
    ring = build_table_ring(m222.m_group, m222.gamma_group, m222.mu, m222.nu)
    monkeypatch.setattr(rings_mod, "AXIOM_EVAL_CAP", 1000)
    with pytest.raises(BudgetExceededError):
        check_nobusawa(ring)


@pytest.fixture
def counters(monkeypatch):
    """Calls counted by name: the associativity scan, frame validation, and the
    full scans behind the generator checks (axiom and frame)."""
    calls = {"associativity": 0, "validate_frame": 0, "full_scan": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(rings_mod, "_associativity",
                        counted("associativity", rings_mod._associativity))
    monkeypatch.setattr(peirce_mod, "validate_frame",
                        counted("validate_frame", peirce_mod.validate_frame))
    monkeypatch.setattr(rings_mod, "_scan_equal", counted("full_scan", rings_mod._scan_equal))
    monkeypatch.setattr(peirce_mod, "_scan_equal", counted("full_scan", peirce_mod._scan_equal))
    return calls


def _run(*argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(list(argv))


def _run_json(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv) + ["--format", "json"])
    return code, json.loads(out.getvalue())


def test_axioms_scan_associativity_once(tmp_path, counters):
    m222 = build_matrix_ring(2, 2, 2)
    table = build_table_ring(m222.m_group, m222.gamma_group, m222.mu, m222.nu)
    for name, ring in (("matrix.json", m222), ("table.json", table)):
        path = tmp_path / name
        path.write_text(emit_grdf(document_dict(ring)))
        counters["associativity"] = 0
        assert _run("axioms", "--input", str(path)) == 0
        assert counters["associativity"] == 1, name


@pytest.mark.parametrize("command", ["peirce", "conditions"])
def test_each_frame_validated_once(tmp_path, counters, command):
    m222 = build_matrix_ring(2, 2, 2)
    frames = canonical_frames(m222)
    assert len(frames) > 1
    path = tmp_path / "frames.json"
    path.write_text(emit_grdf(document_dict(m222, frames=frames)))
    counters["validate_frame"] = 0
    assert _run(command, "--input", str(path)) == 0
    assert counters["validate_frame"] == len(frames)


def test_passing_rings_are_decided_on_generators(tmp_path, counters):
    product = direct_product(build_matrix_ring(2, 2, 2), build_matrix_ring(2, 1, 1))
    frames = canonical_frames(product)
    assert len(frames) == 84
    # conditions exits 1: condition (iv) fails on 48 of the 84 frames
    for command, doc, code in (("axioms", document_dict(build_matrix_ring(2, 1, 5)), 0),
                               ("conditions", document_dict(product, frames=frames), 1)):
        path = tmp_path / f"{command}.json"
        path.write_text(emit_grdf(doc))
        counters["full_scan"] = 0
        assert _run(command, "--input", str(path)) == code
        assert counters["full_scan"] == 0, command


def _index(value):
    return value["index"] if isinstance(value, dict) else value


# `conditions` on the two user frames below, as the full scans report it
USER_FRAME_VERDICTS = [
    ("frame[0]-valid", False, 9, {"a": 1, "invariant": "left-specialization"}),
    ("frame[1]-valid", False, 9, {"beta": 0, "x": 1, "y": 1, "invariant": "left-additivity"}),
    ("condition-ii", True, 27, None),
    ("condition-iii", False, 36, {"x": 2}),
    ("condition-iv[0]", False, 6, {"corner": 1, "x": 1}),
    ("condition-iv[1]", False, 6, {"corner": 1, "x": 1}),
]


def test_user_frames_without_barnes_verdict_scan_in_full(tmp_path, counters):
    """x.a.y = x if y = 1 else 0 is not left-distributive, and no Barnes scan
    may run for it, so its frames keep every full scan."""
    ring = _z3_ring(lambda x, g, y: x if y == 1 else 0)
    zero = np.zeros((3, 3), dtype=np.int32)
    frames = [IdempotentFrame(ring, 1, 0, [[0, 2, 1]] * 3, zero),
              IdempotentFrame(ring, 1, 0, [[0, 0, 2]] * 3, zero)]
    # frame 0's tables are additive and agree at the generators a = b = 1,
    # so only the missing distributivity verdict forces its full scan
    lf, rf, mu = frames[0].left_f, frames[0].right_f, ring.mu
    assert all(mu[rf[1, be], ga, 1] == mu[1, be, lf[ga, 1]] for be in range(3) for ga in range(3))
    assert [[(v.invariant, v.witness) for v in validate_frame(fr)] for fr in frames] == [
        [("left-specialization", {"a": 1}),
         ("frame-associativity", {"a": 1, "beta": 0, "gamma": 0, "b": 2})],
        [("left-additivity", {"beta": 0, "x": 1, "y": 1})]]

    path = tmp_path / "frames.json"
    path.write_text(emit_grdf(document_dict(ring, frames=frames)))
    for name in counters:
        counters[name] = 0
    code, report = _run_json("conditions", "--input", str(path))
    assert counters == {"associativity": 0, "validate_frame": 2, "full_scan": 3}
    assert code == 1 and report["overall"] is False
    got = [(v["check"], v["passed"], v["checked"],
            v["witness"] and {k: _index(w) for k, w in v["witness"].items()})
           for v in report["verdicts"]]
    assert got == USER_FRAME_VERDICTS

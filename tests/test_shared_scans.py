"""Witness searches that run through rings._scan_equal and rings._first.

Claim 1 of check_claims, condition (iv) and the frame specializations are
compared with the whole-array and loop forms they replaced, kept here as
references.  Also: the range check of DefectMap, the factor sequences of
trivial_ring_family, and the errors of the GRDF list sections.
"""

import functools
import json
import tracemalloc

import numpy as np
import pytest

from gammaring import (DefectMap, build_matrix_ring, canonical_frames, check_claims,
                       check_condition_iv, direct_product, parse_grdf, validate_frame)
from gammaring.errors import GRDFError
from gammaring.peirce import IdempotentFrame
from gammaring.rings import _first
from gammaring.theorem import _factor_sequences


@functools.cache
def _ring(name: str):
    """matrix(2,2,2), the 32-element product with matrix(2,1,1), or the square of
    matrix(q,1,1): rings with canonical frames."""
    if name == "product":
        return direct_product(build_matrix_ring(2, 2, 2), build_matrix_ring(2, 1, 1))
    if name.endswith("^2"):
        q = int(name[len("matrix(")])
        return direct_product(build_matrix_ring(q, 1, 1), build_matrix_ring(q, 1, 1))
    return build_matrix_ring(2, 2, 2)


def _claim1_reference(f: np.ndarray, ring) -> tuple:
    """(passed, witness, checked) of claim 1, each side built as one whole array."""
    mu = ring.mu
    m, g = ring.m_order, ring.gamma_order
    head = f[:, :1, :]
    fs = head if (f == head).all() else f
    fgam = np.arange(fs.shape[1])
    lhs = mu[:, :, fs.reshape(-1)].reshape(m, g, m, fgam.size, m)  # [u, b, x, gamma, y]
    rhs = fs[mu[:, :, :, None, None], fgam[None, None, None, :, None], mu[:, :, None, None, :]]
    witness = None
    bad = _first(lhs != rhs)
    if bad is not None:
        u, b, x, gm_, y = bad
        witness = {"side": "left", "u": int(u), "beta": int(b),
                   "x": int(x), "gamma": int(gm_), "y": int(y)}
    else:
        del lhs, rhs
        lhs = mu[fs]                                           # [x, gamma, y, b, u]
        rhs = fs[mu[:, None, None, :, :], fgam[None, :, None, None, None],
                 mu[None, None, :, :, :]]
        bad = _first(lhs != rhs)
        if bad is not None:
            x, gm_, y, b, u = bad
            witness = {"side": "right", "x": int(x), "gamma": int(gm_),
                       "y": int(y), "beta": int(b), "u": int(u)}
    return witness is None, witness, 2 * m**3 * g**2


def _defect(ring, kind: str) -> np.ndarray:
    m, g = ring.m_order, ring.gamma_order
    e = canonical_frames(ring)[0].e
    if kind == "mu":
        return ring.mu
    if kind == "x.gamma.e":              # left side holds by associativity, right fails
        return ring.mu[:, :, [e] * m]
    if kind == "e.gamma.y":
        return ring.mu[[e] * m]
    if kind == "zero":
        return np.zeros((m, g, m), dtype=np.int32)
    # random, gamma-dependent, with zero slots
    rng = np.random.default_rng(m * g)
    f = rng.integers(1, m, size=(m, g, m)) * (rng.random((m, g, m)) < 0.01)
    f[0], f[:, :, 0] = 0, 0
    return f


CLAIM1_CASES = [("product", "mu"), ("product", "random")] + [
    (name, kind) for name in ("matrix(2,2,2)", "matrix(2,1,1)^2", "matrix(3,1,1)^2")
    for kind in ("mu", "x.gamma.e", "e.gamma.y", "zero", "random")]


@pytest.mark.parametrize("name,kind", CLAIM1_CASES)
def test_claim1_matches_the_whole_array_scan(name, kind):
    ring = _ring(name)
    defect = DefectMap(ring, _defect(ring, kind))
    got = check_claims(defect, canonical_frames(ring)[0]).claims["claim1"]
    passed, witness, checked = _claim1_reference(defect.f, ring)
    assert (got.passed, got.witness, got.checked) == (passed, witness, checked)
    if witness is not None:
        assert list(got.witness) == list(witness)
    if (name, kind) == ("matrix(2,2,2)", "x.gamma.e"):     # the right side's witness
        assert witness["side"] == "right"


def test_claim1_on_the_product_is_scanned_in_chunks():
    # the whole-array scan of f = mu on the 32-element product peaks at 289 MiB
    ring = _ring("product")
    defect = DefectMap(ring, ring.mu)
    frame = canonical_frames(ring)[0]
    tracemalloc.start()
    try:
        got = check_claims(defect, frame).claims["claim1"]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 2**20
    assert got.witness == {"side": "left", "u": 2, "beta": 2, "x": 2, "gamma": 4, "y": 8}


def _condition_iv_reference(frame) -> tuple:
    """(holds, witness, checked) of condition (iv) by a loop over every x."""
    ring = frame.ring
    mu = ring.mu
    e, g1 = frame.e, frame.gamma1
    corner = mu[mu[e, g1], g1, e]
    rvals = np.unique(frame.right_f)
    uniq = np.unique(corner)
    dead = (mu[np.ix_(uniq, np.arange(ring.gamma_order), rvals)] == 0).all(axis=(1, 2))
    bad_p = set(int(p) for p, d in zip(uniq, dead) if d and p != 0)
    witness = None
    for x in range(ring.m_order):
        if int(corner[x]) in bad_p:
            witness = {"x": x, "corner": int(corner[x])}
            break
    return witness is None, witness, int(uniq.size) * ring.gamma_order * int(rvals.size)


def _iv_frames() -> list:
    frames = canonical_frames(_ring("product"))
    # random right_f tables reach other dead corners on matrix(2,2,2)
    rng = np.random.default_rng(4)
    for fr in canonical_frames(_ring("matrix(2,2,2)")):
        m, g = fr.ring.m_order, fr.ring.gamma_order
        for cut in (2, 4, m):
            frames.append(IdempotentFrame(fr.ring, fr.e, fr.gamma1, fr.left_f,
                                          rng.integers(0, cut, size=(m, g))))
    return frames


def test_condition_iv_matches_the_loop_over_x():
    frames = _iv_frames()
    assert len(canonical_frames(_ring("product"))) == 84
    failed = 0
    for fr in frames:
        got = check_condition_iv(fr)
        holds, witness, checked = _condition_iv_reference(fr)
        assert (got.holds, got.witness, got.checked) == (holds, witness, checked)
        if witness is not None:
            assert list(got.witness) == ["x", "corner"]
            assert all(type(v) is int for v in got.witness.values())
        failed += not holds
    assert 0 < failed < len(frames)


@pytest.mark.parametrize("planted", [("right_f", (11, 7)), ("right_f", (3,)),
                                     ("left_f", (9, 5)), ("both", (6, 12))])
def test_specialization_witness_is_the_least_planted_entry(planted):
    table, at = planted
    ring = _ring("matrix(2,2,2)")
    frame = canonical_frames(ring)[0]
    lf, rf, g1, m = frame.left_f.copy(), frame.right_f.copy(), frame.gamma1, ring.m_order
    want = []
    if table in ("left_f", "both"):
        lf[g1, list(at)] = (lf[g1, list(at)] + 1) % m
        want.append(("left-specialization", {"a": min(at)}))
    if table in ("right_f", "both"):
        rf[list(at), g1] = (rf[list(at), g1] + 1) % m
        want.append(("right-specialization", {"a": min(at)}))
    bad = IdempotentFrame(ring, frame.e, g1, lf, rf)
    got = [(v.invariant, v.witness) for v in validate_frame(bad)
           if v.invariant.endswith("specialization")]
    assert got == want
    assert all(type(w["a"]) is int for _, w in got)


@pytest.mark.parametrize("entry", [-1, "m"])
def test_defect_entries_outside_m_are_refused(entry):
    ring = _ring("matrix(2,2,2)")
    m, g = ring.m_order, ring.gamma_order
    f = np.zeros((m, g, m), dtype=np.int32)
    f[3, 1, 5] = m if entry == "m" else entry
    with pytest.raises(ValueError, match="defect entries out of M index range"):
        DefectMap(ring, f)


def _factor_sequences_reference(order: int) -> list:
    if order == 1:
        return [()]
    out = []

    def rec(remaining, cap, acc):
        if remaining == 1:
            out.append(tuple(acc))
            return
        d = min(remaining, cap)
        while d >= 2:
            if remaining % d == 0:
                rec(remaining // d, d, acc + [d])
            d -= 1

    rec(order, order, [])
    return out


def test_factor_sequences_match_the_countdown_recursion():
    for order in range(1, 200):
        assert _factor_sequences(order, order) == _factor_sequences_reference(order), order


@pytest.mark.parametrize("section,value,message", [
    ("frames", {}, "document: key 'frames' has wrong type dict"),
    ("frames", [7], "frames[0]: must be an object"),
    ("maps", "x", "document: key 'maps' has wrong type str"),
    ("maps", [[]], "maps[0]: must be an object"),
    ("derivations", [{"d": [0, 0]}, 7], "derivations[1]: must be an object"),
])
def test_list_section_errors(section, value, message):
    doc = {"product": {"type": "matrix", "mod": 2, "rows": 1, "cols": 1}, section: value}
    with pytest.raises(GRDFError) as err:
        parse_grdf(json.dumps(doc))
    assert str(err.value) == message

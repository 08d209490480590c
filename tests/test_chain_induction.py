"""An exact pass at n = 2 decides every n; a failure is rescanned over fold states.

Chains fold left to right, x1 g1 ... xn = (x1 g1 ... x_{n-1}) g_{n-1} xn, so a
pair that satisfies its identity on every (x, gamma, y) satisfies it on
every chain, and so does a derivation once the product is additive in its
first slot.  verify_n_multiplicative and verify_n_derivation therefore scan
the m^2 g tuples of n = 2 first.  A failure there is rescanned at length n
over the distinct states of the fold (_fold_scan), not over every tuple.
Each verdict, witness and `checked` count here must equal the exhaustive
length-n scan, called directly.
"""

import contextlib
import io
import json
import tracemalloc
from itertools import islice

import numpy as np
import pytest

import gammaring.multmaps as multmaps_mod
from gammaring import (DerivationTable, MapPair, SearchConfig, build_matrix_ring,
                       build_table_ring, document_dict, emit_grdf, make_group,
                       matrix_ring_family, search_n_derivations, verify_n_derivation,
                       verify_n_multiplicative)
from gammaring.cli import main
from gammaring.multmaps import _leibniz_sides, _pair_sides, _scan_chains

from test_theorem import QUOTIENT_RINGS, _one_sided, _with_trivial

RINGS = matrix_ring_family(2, 4) + QUOTIENT_RINGS
# the direct n = 4 scan of a 16-element ring covers 2^28 tuples, too many for a reference
CASES = [(name, ring, n) for n in (3, 4) for name, ring in RINGS
         if ring.m_order**n * ring.gamma_order**(n - 1) <= 1 << 21]


def _full(subject, n):
    """(passed, exact, checked, witness) of the exhaustive length-n scan."""
    iso = isinstance(subject, MapPair)
    ring = subject.source if iso else subject.ring
    m, g = ring.m_order, ring.gamma_order
    w = _scan_chains(m, g, n, *(_pair_sides(subject) if iso else _leibniz_sides(subject)))
    return w is None, True, m**n * g**(n - 1), w


@pytest.fixture
def scans(monkeypatch):
    """The arity of every exhaustive chain scan the verifiers run."""
    arities = []

    def recorded(m, g, n, lhs, rhs):
        arities.append(n)
        return _scan_chains(m, g, n, lhs, rhs)

    monkeypatch.setattr(multmaps_mod, "_scan_chains", recorded)
    return arities


@pytest.fixture
def folds(monkeypatch):
    """The arity of every fold-state rescan the verifiers run."""
    arities = []
    scan = multmaps_mod._fold_scan

    def recorded(m, g, n, f, step):
        arities.append(n)
        return scan(m, g, n, f, step)

    monkeypatch.setattr(multmaps_mod, "_fold_scan", recorded)
    return arities


def _verify(subject, n):
    verify = verify_n_multiplicative if isinstance(subject, MapPair) else verify_n_derivation
    r = verify(subject, n)
    return r.passed, r.exact, r.checked, r.witness


def _planted_pair(pair):
    """pair with the images of the first and last elements swapped."""
    phi = pair.phi.copy()
    phi[[1, -1]] = phi[[-1, 1]]
    return MapPair(pair.source, pair.target, phi, pair.psi)


def _planted_derivation(deriv):
    """deriv with one image moved by the first generator."""
    ring, d = deriv.ring, deriv.d.copy()
    x = ring.m_order - 1
    d[x] = ring.m_group.add_table[d[x], ring.m_group.generators[0]]
    return DerivationTable(ring, d)


def _subjects(ring):
    # the first two of each sorted listing, read off the walks that list them
    grp = multmaps_mod._pair_group(ring, 2, multmaps_mod._Meter(10**8))
    pairs = [MapPair(ring, ring, *t) for t in islice(grp.walk(), 2)]
    span = multmaps_mod._derivations(ring, 2, multmaps_mod._Meter(10**8))
    derivs = [DerivationTable(ring, d) for d in islice(span.walk(), 2)]
    planted = [_planted_pair(p) for p in pairs if ring.m_order > 2]
    planted += [_planted_derivation(d) for d in derivs]
    return pairs + derivs, planted


@pytest.mark.parametrize("name, ring, n", CASES, ids=[f"{name}-{n}" for name, _, n in CASES])
def test_shortcut_matches_the_full_scan(name, ring, n, scans, folds):
    ring.require_barnes()
    assert ring.known_distributive
    held, planted = _subjects(ring)
    for subject in held + planted:
        want, two = _full(subject, n), _full(subject, 2)[0]
        scans.clear()
        folds.clear()
        assert _verify(subject, n) == want
        # a pass at n = 2 decides; a failure there rescans the fold states
        assert scans == [2]
        assert folds == ([] if two else [n])
    if ring.mu.any() and ring.m_order > 2:      # a zero product admits every bijection
        assert any(not _full(s, n)[0] for s in planted)


def test_a_3_derivation_that_is_no_2_derivation_passes_exactly(matrix222):
    two = {d.key() for d in search_n_derivations(matrix222, SearchConfig(n=2)).found}
    extra = [d for d in search_n_derivations(matrix222, SearchConfig(n=3)).found
             if d.key() not in two]
    assert len(extra) == 1
    d = extra[0]
    assert not verify_n_derivation(d, 2).passed
    assert _verify(d, 3) == _full(d, 3) == (True, True, 16**3 * 16**2, None)


@pytest.mark.parametrize("n, count, nodes", [(4, 16, 80), (5, 32, 83)])
def test_derivation_solve_scans_no_length_n_tuple(n, count, nodes, scans):
    # each basis map that is no 2-derivation is rescanned over fold states;
    # scanning every tuple took minutes at n = 5
    _, ring = _with_trivial(1, 2, [2])
    ring.require_barnes()
    res = search_n_derivations(ring, SearchConfig(n=n, budget=10_000))
    assert (len(res.found), res.complete, res.nodes) == (count, True, nodes)
    assert scans and set(scans) == {2}


def _three_derivation(ring):
    """The first 3-derivation of ring that is no 2-derivation."""
    two = {d.key() for d in search_n_derivations(ring, SearchConfig(n=2)).found}
    return next(d for d in search_n_derivations(ring, SearchConfig(n=3)).found
                if d.key() not in two)


def test_failing_rescan_memory_stays_small(matrix222):
    # the 3-derivation that is no 2-derivation fails at n = 4: the full scan
    # of its 2^28 tuples peaked at 336 MiB
    d = _three_derivation(matrix222)
    tracemalloc.start()
    try:
        rep = verify_n_derivation(d, 4, 10**9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rep.passed, rep.exact, rep.checked) == (False, True, 16**4 * 16**3)
    assert rep.witness == {"x1": 1, "g1": 1, "x2": 1, "g2": 1, "x3": 1, "g3": 1, "x4": 1}
    assert peak < 8 << 20


def test_full_scan_memory_stays_small(matrix222):
    # the same 2^28 tuples through the full scan: chunked on x1 alone, a
    # chunk held 2^24 tuples and the scan peaked at 336 MiB
    d = _three_derivation(matrix222)
    tracemalloc.start()
    try:
        w = _scan_chains(16, 16, 4, *_leibniz_sides(d))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert w == {"x1": 1, "g1": 1, "x2": 1, "g2": 1, "x3": 1, "g3": 1, "x4": 1}
    assert peak < 64 << 20


def test_derivations_need_a_held_distributivity_verdict(scans):
    # the same tables in a fresh ring hold no Barnes verdict yet; verifying a
    # derivation runs the ring's Barnes scans, so both rings pre-scan n = 2
    # and reach the same verdict
    _, held = _one_sided()
    fresh = build_table_ring(held.m_group, held.gamma_group, held.mu)
    d = search_n_derivations(held, SearchConfig(n=2)).found[-1]
    assert d.d.any()
    verdicts = []
    for ring in (fresh, held):
        scans.clear()
        deriv = DerivationTable(ring, d.d)
        verdicts.append(_verify(deriv, 3))
        assert verdicts[-1] == _full(deriv, 3)
        assert scans == [2]
    assert verdicts[0] == verdicts[1]
    assert fresh._barnes_reports is not None and fresh.barnes_reports()[0].holds


def test_a_derivation_verdict_does_not_depend_on_the_document_form(tmp_path):
    # a matrix document is Barnes-checked while it loads, a table document is
    # not; the zero derivation of matrix(2,2,2) at n = 5 is an exact pass in both
    m222 = build_matrix_ring(2, 2, 2)
    table = build_table_ring(m222.m_group, m222.gamma_group, m222.mu, m222.nu)
    got = []
    for name, ring in (("matrix.json", m222), ("table.json", table)):
        zero = DerivationTable(ring, np.zeros(16, dtype=np.int32))
        path = tmp_path / name
        path.write_text(emit_grdf(document_dict(ring, derivations=[zero])))
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(["verify-derivation", "--input", str(path), "--n", "5",
                         "--format", "json"])
        got.append((code, json.loads(out.getvalue())["verdicts"]))
    assert got[0] == got[1]
    assert got[0][0] == 0
    assert (got[0][1][0]["exact"], got[0][1][0]["checked"]) == (True, 16**5 * 16**4)


def test_a_failing_distributivity_verdict_keeps_the_full_scan(scans):
    # on Z3 with Gamma = Z2, x.0.1 = 2 and x.1.y = 1 for x, y != 0, all else
    # 0: barnes-ii fails, and d = (0, 2, 2) is a 2-derivation but no 3-derivation
    mu = np.zeros((3, 2, 3), dtype=np.int32)
    mu[1:, 0, 1] = 2
    mu[1:, 1, 1:] = 1
    ring = build_table_ring(make_group([3]), make_group([2]), mu)
    assert not ring.barnes_reports()[0].holds
    d = DerivationTable(ring, np.array([0, 2, 2]))
    assert verify_n_derivation(d, 2).exact_pass
    scans.clear()
    got = _verify(d, 3)
    assert got == _full(d, 3)
    assert not got[0] and got[3] == {"x1": 1, "g1": 1, "x2": 1, "g2": 0, "x3": 1}
    assert scans == [3]


@pytest.mark.parametrize("shape, order", [((2, 2), 36), ((1, 4), 20_160)])
def test_pair_chains_complete_at_n4(shape, order):
    # each strong generator is verified over 16^4 16^3 = 2^28 tuples, decided at n = 2
    ring = build_matrix_ring(2, *shape)
    work = multmaps_mod._Meter(10**8)
    grp = multmaps_mod._pair_group(ring, 4, work)
    assert grp is not None and grp.order == order

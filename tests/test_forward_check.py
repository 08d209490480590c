"""The leaf search forward-checks its n >= 3 gamma bootstrap, and the chain
reads one candidate row per level.

A dropped value must be one that the root propagation would refute, so the
pair lists are checked against an oracle that shares no code with the leaf
search: every bijection pair with phi(0) = 0, kept when an exact
verify_n_multiplicative passes.  Both the chain's listing and the complete
leaf search must equal it.  The chain's `nodes` are pinned so that the
pruning stays visible, and its memory is bounded at n = 5.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

from gammaring import (MapPair, SearchConfig, build_matrix_ring, search_n_multiplicative_isos,
                       verify_n_multiplicative)
from gammaring.multmaps import _chain, _Meter, _pair_group, _PairSearch, _tuple_step

from conftest import plain_pairs

BRUTE_SHAPES = [(2, 1, 2), (2, 2, 1), (3, 1, 1)]


def _brute_pairs(ring, n):
    """Sorted keys of every bijection pair with phi(0) = 0 that passes exactly."""
    m, g = ring.m_order, ring.gamma_order
    out = []
    for rest in itertools.permutations(range(1, m)):
        for psi in itertools.permutations(range(g)):
            pair = MapPair(ring, ring, np.array((0,) + rest), np.array(psi))
            rep = verify_n_multiplicative(pair, n)
            assert rep.exact
            if rep.passed:
                out.append(pair.key())
    return sorted(out)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("shape", BRUTE_SHAPES, ids=[f"matrix{s}" for s in BRUTE_SHAPES])
def test_search_lists_the_brute_force_pairs(shape, n):
    ring = build_matrix_ring(*shape)
    want = _brute_pairs(ring, n)
    res = search_n_multiplicative_isos(ring, ring, SearchConfig(n=n))
    assert res.complete and want
    assert [p.key() for p in res.found] == want
    assert plain_pairs(ring, ring, n) == want


def _chain_values(eng, u):
    """The free values of psi(u) that no chain over assigned factors refutes,
    by one product per chain tuple."""
    am = np.flatnonzero(eng.phi >= 0)
    xs = list(np.array(list(itertools.product(am.tolist(), repeat=eng.n))).T)
    gammas = [np.full(xs[0].size, u)] * (eng.n - 1)
    out = eng.phi[_chain(eng.mu_s, xs, _tuple_step(gammas))]
    keep = []
    for c in np.flatnonzero(~eng.psi_used).tolist():
        v = _chain(eng.mu_t, [eng.phi[x] for x in xs],
                   _tuple_step([np.full(xs[0].size, c)] * (eng.n - 1)))
        if not ((out >= 0) & (out != v)).any():
            keep.append(c)
    return keep


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("point, image", [(8, 9), (8, 10), (3, 5), (2, 2)])
def test_bootstrap_drops_only_refuted_values(matrix222, n, point, image):
    eng = _PairSearch(matrix222, matrix222, n, _Meter(10**8))
    fixed = [(0, x, x) for x in range(1, point)] + [(0, point, image)]
    if eng._fix(fixed):
        assert not (eng.psi >= 0).any()          # the bootstrap state
        am = np.flatnonzero(eng.phi >= 0)
        for u in range(matrix222.gamma_order):
            kept = eng._gamma_values(u, am, eng.phi[am]).tolist()
            assert kept == _chain_values(eng, u)
            for c in sorted(set(np.flatnonzero(~eng.psi_used).tolist()) - set(kept)):
                mark = len(eng.trail)
                eng._assign(1, u, c)
                assert not eng._propagate()
                eng._undo(mark)
    eng._undo(0)


# leaf search nodes of the chain of Mult_n, one per search run and one per
# value tried at a branch point; search-iso onto the ring itself reports
# these plus one per pair listed.  The bootstrap runs only at n >= 3, and a
# candidate row skips only searches that would be refuted at their root.
NODE_PINS = [((2, 2, 2), 2, 36, 119), ((2, 2, 2), 3, 36, 157), ((2, 2, 2), 4, 36, 151),
             ((2, 1, 4), 3, 20160, 341)]


@pytest.mark.parametrize("shape, n, order, nodes", NODE_PINS,
                         ids=[f"matrix{s}-{n}" for s, n, _, _ in NODE_PINS])
def test_chain_node_counts(shape, n, order, nodes):
    work = _Meter(10**8)
    grp = _pair_group(build_matrix_ring(*shape), n, work)
    assert (grp.order, work.spent) == (order, nodes)


def test_search_iso_nodes_are_chain_nodes_plus_pairs(matrix222):
    res = search_n_multiplicative_isos(matrix222, matrix222, SearchConfig(n=3))
    assert res.complete and (len(res.found), res.nodes) == (36, 157 + 36)


def test_bootstrap_memory_stays_small_at_n5(matrix222):
    tracemalloc.start()
    try:
        res = search_n_multiplicative_isos(matrix222, matrix222, SearchConfig(n=5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.complete and len(res.found) == 36
    assert peak < 8 << 20

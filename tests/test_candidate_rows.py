"""The leaf search's candidate rows, for phi (kind 0) and psi (kind 1) alike.

_PairSearch._candidates reads both kinds through one path, the gamma kind
being the element kind with its last two product slots swapped.  Each row
is checked against a loop over (index, image) that evaluates every fired
instance, one product per chain tuple, in states the pair chain fixes and
in states the DFS reaches.  Every free image a row rejects must be refuted
by the propagation once it is assigned.
"""

import itertools

import numpy as np
import pytest

from gammaring import build_matrix_ring, direct_product, make_group, multmaps, trivial_ring
from gammaring.multmaps import _chain, _free_part, _Meter, _pair_group, _PairSearch, _tuple_step

RINGS = {
    "matrix(2,2,2)": lambda: build_matrix_ring(2, 2, 2),
    "matrix(2,1,3)": lambda: build_matrix_ring(2, 1, 3),
    "matrix(2,3,1)": lambda: build_matrix_ring(2, 3, 1),
    # gammas (g, 0) and (g, 1) act alike
    "twin-gamma": lambda: direct_product(build_matrix_ring(2, 2, 2),
                                         trivial_ring(make_group([]), make_group([2]))),
}
DFS_STATES = 4


def _row_oracle(eng, kind, u):
    """ok[c]: no instance x1 g1 ... x_{n-1} g x of assigned factors, with u
    in the last slot of its kind and an assigned source product, contradicts
    the image c of u; c must be free."""
    am = np.flatnonzero(eng.phi >= 0).tolist()
    ag = np.flatnonzero(eng.psi >= 0).tolist()
    last = [ag, [u]] if kind == 0 else [[u], am]
    slots = [am] + [ag, am] * (eng.n - 2) + last
    used = eng.phi_used if kind == 0 else eng.psi_used
    tuples = list(itertools.product(*slots))
    if not tuples:
        return ~used
    grid = np.array(tuples).T
    xs, gs = list(grid[0::2]), list(grid[1::2])
    out = eng.phi[_chain(eng.mu_s, xs, _tuple_step(gs))]
    ok = np.zeros(used.size, dtype=bool)
    for c in np.flatnonzero(~used).tolist():
        fill = np.full(grid.shape[1], c)
        fx = [eng.phi[x] for x in xs[:-1]] + [fill if kind == 0 else eng.phi[xs[-1]]]
        fg = [eng.psi[g] for g in gs[:-1]] + [eng.psi[gs[-1]] if kind == 0 else fill]
        v = _chain(eng.mu_t, fx, _tuple_step(fg))
        ok[c] = not ((out >= 0) & (out != v)).any()
    return ok


def _check_state(eng):
    """Both kinds' rows in the engine's current state: equal to the oracle,
    and every free value they reject refuted by the propagation."""
    state = eng._state()
    for kind, (table, used) in enumerate([(eng.phi, eng.phi_used), (eng.psi, eng.psi_used)]):
        un = np.flatnonzero(table < 0)
        rows = eng._candidates(kind, state, un)
        assert rows.shape == (un.size, used.size)
        for u, row in zip(un.tolist(), rows):
            assert row.tolist() == _row_oracle(eng, kind, u).tolist(), (kind, u)
            for c in np.flatnonzero(~row & ~used).tolist():
                mark = len(eng.trail)
                eng._assign(kind, u, c)
                assert not eng._propagate(), (kind, u, c)
                eng._undo(mark)


def _chain_fixed_lists(ring, n):
    """The fixed part of each level of the pair chain (_pair_group): F and
    the base points above the level fixed to themselves."""
    free, gammas = _free_part(ring, n)
    fixed = [(0, int(x), int(x)) for x in free]
    base = ([(0, x) for x in range(1, ring.m_order) if x not in set(free.tolist())]
            + [(1, a) for a in range(ring.gamma_order) if a not in set(gammas.tolist())])
    return [fixed + [(k, p, p) for k, p in base[:i]] for i in range(len(base))]


class _Recorder(_PairSearch):
    """A leaf search that keeps the tables of the first DFS_STATES branch
    points after the root, where instances have fired."""

    def __init__(self, *args):
        super().__init__(*args)
        self.states = []

    def _branch(self, state):
        if self.meter.spent and len(self.states) < DFS_STATES:
            self.states.append((self.phi.copy(), self.psi.copy()))
        return super()._branch(state)


CASES = [(name, n) for name in RINGS for n in (2, 3)]


@pytest.mark.parametrize("name, n", CASES, ids=[f"{name}-n{n}" for name, n in CASES])
def test_candidate_rows_match_instance_loop(name, n):
    ring = RINGS[name]()
    eng = _PairSearch(ring, ring, n, _Meter(10**8))
    lists = _chain_fixed_lists(ring, n)
    for fixed in lists[::max(1, len(lists) // 6)]:
        if eng._fix(fixed):
            _check_state(eng)
        eng._undo(0)

    rec = _Recorder(ring, ring, n, _Meter(10**8))
    next(rec.run(), None)
    assert len(rec.states) == DFS_STATES
    for tables in rec.states:
        for kind, table in enumerate(tables):
            for idx in np.flatnonzero(table >= 0).tolist():
                eng._assign(kind, idx, int(table[idx]))
        _check_state(eng)
        eng._undo(0)


# 64 elements and 64 gammas, so a row fills exactly one word; 81 need two
WORD_RINGS = {"matrix(2,2,3)": lambda: build_matrix_ring(2, 2, 3),
              "matrix(3,2,2)": lambda: build_matrix_ring(3, 2, 2)}


def _check_some_rows(eng, state):
    """About four rows of each kind equal to the oracle; how many were checked."""
    checked = 0
    for kind, table in enumerate(eng.tables):
        un = np.flatnonzero(table < 0)
        pick = un[::max(1, un.size // 3)]
        for u, row in zip(pick.tolist(), eng._candidates(kind, state, pick)):
            assert row.tolist() == _row_oracle(eng, kind, u).tolist(), (kind, u)
            checked += 1
    return checked


@pytest.mark.parametrize("name", WORD_RINGS)
def test_candidate_rows_across_word_boundaries(name):
    # three levels of the pair chain at n = 2, then the first branch points
    # of a leaf search, where rows of both kinds are partly cut
    ring = WORD_RINGS[name]()
    eng = _PairSearch(ring, ring, 2, _Meter(10**8))
    lists = _chain_fixed_lists(ring, 2)
    checked = 0
    for fixed in lists[1:4]:
        checked += _check_some_rows(eng, eng._fix(fixed))
        eng._undo(0)
    rec = _Recorder(ring, ring, 2, _Meter(6))
    next(rec.run(lists[1]), None)
    assert len(rec.states) == DFS_STATES
    for tables in rec.states:
        for kind, table in enumerate(tables):
            for idx in np.flatnonzero(table >= 0).tolist():
                eng._assign(kind, idx, int(table[idx]))
        checked += _check_some_rows(eng, eng._state())
        eng._undo(0)
    assert checked >= 50


@pytest.mark.parametrize("name", WORD_RINGS)
def test_word_table_holds_the_images_of_each_output(name):
    ring = WORD_RINGS[name]()
    rng = np.random.default_rng(0)
    for tgt in (ring.mu, ring.mu.swapaxes(1, 2)):       # the candidate slot last
        m_t, ys, _ = tgt.shape
        inv = multmaps._word_table(tgt).reshape(m_t, ys, m_t + 1, -1)
        assert (inv[:, :, 0] == np.iinfo(np.uint64).max).all()      # o = -1: no constraint
        for w, y, o in zip(*(rng.integers(0, k, 200) for k in (m_t, ys, m_t))):
            bits = np.flatnonzero(multmaps._unpack(inv[w, y, 1 + o])).tolist()
            assert bits == np.flatnonzero(tgt[w, y] == o).tolist()


def _chain_run(ring, n):
    work = _Meter(10**8)
    grp = _pair_group(ring, n, work)
    return grp.order, work.spent, [[t.tolist() for t in s] for s in grp.generators]


@pytest.mark.parametrize("n", [2, 3])
def test_rows_without_word_tables_give_the_same_chain(n, monkeypatch):
    # past the word cap a kind compares the target products under each image
    ring = build_matrix_ring(2, 2, 2)
    want = _chain_run(ring, n)
    monkeypatch.setattr(multmaps, "_WORD_CAP", 0)
    assert multmaps._word_table(ring.mu) is None
    assert _chain_run(ring, n) == want

"""The leaf search's forced rounds and its sort-free bootstrap change the work
counted, never the answers.

The oracle is conftest.ReferencePairSearch: the leaf search with one
branch point per single-candidate value and the np.unique bootstrap it
replaced.  On the rings tests/test_pair_group.py walks and a few more, at
n = 2 and 3, both engines must give the same first solution for pinned
prefixes, and chains built on either must have the same generators,
levels, order and walk.  The bootstrap's candidate values are compared on
random states at n = 3, 4 and 5.  The work pins count one unit per search
run and one per value tried at a branch point.
"""

import hashlib
import pathlib
import subprocess
import sys
from itertools import islice

import numpy as np
import pytest

from gammaring import build_matrix_ring, matrix_ring_family
from gammaring import multmaps
from gammaring.multmaps import _Meter, _pair_group, _PairSearch

from conftest import ReferencePairSearch
from test_derivation_kernel import _z3_diagonal
from test_pair_group import WALK_RINGS, _between_cases, _relabel
from test_theorem import _one_sided

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _random_automorphism(group, rng):
    """x -> x A for a random invertible A over Z2, on an elementary abelian 2-group."""
    k = len(group.factors)
    while round(np.linalg.det(a := rng.integers(0, 2, size=(k, k)))) % 2 == 0:
        pass
    return (group.residues @ a % 2) @ group._place_values


def _relabelled_m222():
    m222, rng = build_matrix_ring(2, 2, 2), np.random.default_rng(3)
    return _relabel(m222, _random_automorphism(m222.m_group, rng),
                    _random_automorphism(m222.gamma_group, rng))


# the rings of tests/test_pair_group.py that it walks, the targets of its
# between-ring cases, and a few more
EXTRA = [(name, ring) for name, ring in matrix_ring_family(2, 4)
         if name in ("matrix(2,1,4)", "matrix(2,4,1)")]
EXTRA += [(f"{name}-target", target) for name, _, target, _ in _between_cases()]
EXTRA += [("matrix(3,1,2)", build_matrix_ring(3, 1, 2)),
          ("matrix(2,2,2)-relabelled", _relabelled_m222())]
RINGS = list(dict(WALK_RINGS + EXTRA).items())
CASES = [(name, ring, n) for n in (2, 3) for name, ring in RINGS]


def _chain(ring, n, engine, monkeypatch):
    """(order, levels, generators, walk digest, units) of the chain built on engine."""
    monkeypatch.setattr(multmaps, "_PairSearch", engine)
    work = _Meter(10**8)
    grp = _pair_group(ring, n, work)
    monkeypatch.setattr(multmaps, "_PairSearch", _PairSearch)
    levels = [(kind, point, sorted((c, [t.tolist() for t in u]) for c, u in orbit.items()))
              for kind, point, orbit in grp.levels]
    digest = hashlib.sha256()
    for phi, psi in grp.walk():
        digest.update(phi.tobytes() + psi.tobytes())
    gens = [[t.tolist() for t in s] for s in grp.generators]
    return grp.order, levels, gens, digest.hexdigest(), work.spent


def _pinned_prefixes(ring, pair, rng, count=6):
    """Fixed parts that pin phi on 1..k to a chain member's values, with the
    last pinned value replaced by a random free image half the time."""
    m = ring.m_order
    for _ in range(count):
        k = int(rng.integers(1, m))
        fixed = [(0, x, int(pair[0][x])) for x in range(1, k + 1)]
        if rng.random() < 0.5:
            taken = {v for _, _, v in fixed[:-1]} | {0}
            fixed[-1] = (0, k, int(rng.choice([c for c in range(m) if c not in taken])))
        yield fixed


@pytest.mark.parametrize("name, ring, n", CASES, ids=[f"{name}-{n}" for name, _, n in CASES])
def test_forced_rounds_keep_the_chain_and_first_solutions(name, ring, n, monkeypatch):
    got = _chain(ring, n, _PairSearch, monkeypatch)
    want = _chain(ring, n, ReferencePairSearch, monkeypatch)
    assert got[:4] == want[:4]
    assert got[4] <= want[4]                # no unit for a forced value
    rng = np.random.default_rng(n)
    grp = _pair_group(ring, n, _Meter(10**8))
    for pair in islice(grp.walk(), 4):
        for fixed in _pinned_prefixes(ring, pair, rng):
            sols = []
            for engine in (_PairSearch, ReferencePairSearch):
                meter = _Meter(10**6)
                sols.append(next(engine(ring, ring, n, meter).run(fixed), None))
                assert meter.spent <= meter.budget
            assert (sols[0] is None) == (sols[1] is None)
            if sols[0] is not None:
                assert [t.tolist() for t in sols[0]] == [t.tolist() for t in sols[1]]


BOOTSTRAP_RINGS = [("matrix(2,2,2)", build_matrix_ring(2, 2, 2)),
                   ("matrix(2,1,3)", build_matrix_ring(2, 1, 3)),
                   ("matrix(3,1,2)", build_matrix_ring(3, 1, 2)),
                   ("Z3-diagonal", _z3_diagonal()), ("one-sided", _one_sided()[1])]


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("name, ring", BOOTSTRAP_RINGS, ids=[nm for nm, _ in BOOTSTRAP_RINGS])
def test_gamma_values_match_the_reference(name, ring, n):
    # random bootstrap states: phi(0) = 0 and a random injective phi on a
    # random subset, and psi on a random subset short of all of Gamma
    rng = np.random.default_rng(n)
    m, g = ring.m_order, ring.gamma_order
    engines = [engine(ring, ring, n, _Meter(10**8)) for engine in (_PairSearch, ReferencePairSearch)]
    for _ in range(20):
        elements = rng.permutation(np.arange(1, m))[:int(rng.integers(1, m))]
        images = rng.permutation(np.arange(1, m))[:elements.size]
        gammas = rng.permutation(g)[:int(rng.integers(0, g))]
        values = rng.permutation(g)[:gammas.size]
        kept = []
        for eng in engines:
            eng._assign(0, 0, 0)
            for x, v in zip(elements.tolist(), images.tolist()):
                eng._assign(0, x, v)
            for a, c in zip(gammas.tolist(), values.tolist()):
                eng._assign(1, a, c)
            am = np.flatnonzero(eng.phi >= 0)
            kept.append([eng._gamma_values(u, am, eng.phi[am]).tolist()
                         for u in np.flatnonzero(eng.psi < 0).tolist()])
            eng._undo(0)
        assert kept[0] == kept[1]


@pytest.mark.parametrize("n, values, searches", [(2, 20, 99), (3, 44, 113)])
def test_chain_units_are_values_tried_plus_searches(matrix222, n, values, searches, monkeypatch):
    # each run() takes one unit at its root, and each value a branch point
    # yields one more; forced values take none
    runs, tried, run, branch = [0], [0], _PairSearch.run, _PairSearch._branch

    def counted_run(self, fixed=()):
        runs[0] += 1
        return run(self, fixed)

    def counted(values):
        for v in values:
            tried[0] += 1
            yield v

    def counted_branch(self, state):
        out = branch(self, state)
        return None if out is None else (*out[:2], counted(out[2]))

    monkeypatch.setattr(_PairSearch, "run", counted_run)
    monkeypatch.setattr(_PairSearch, "_branch", counted_branch)
    work = _Meter(10**8)
    assert _pair_group(matrix222, n, work).order == 36
    assert (tried[0], runs[0], work.spent) == (values, searches, values + searches)


def test_chain_units_tool_reports_the_chain_units():
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "chain_units.py"), "--repeats", "1"],
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    rows = [line.split() for line in out.stdout.splitlines()[1:]]
    want = [(name, ring, 2) for name, ring in matrix_ring_family(2, 4)]
    want.append(("matrix(2,2,2)", build_matrix_ring(2, 2, 2), 3))
    assert len(rows) == len(want)
    for row, (name, ring, n) in zip(rows, want):
        work = _Meter(10**8)
        order = _pair_group(ring, n, work).order
        assert row[:4] == [name, str(n), str(order), str(work.spent)]
        assert int(row[4]) <= work.spent            # one unit per search run, at least

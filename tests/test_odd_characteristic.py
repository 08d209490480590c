"""Mod-3 rings: exercises every subtraction-heavy path where char 2 would hide sign bugs."""

from itertools import permutations, product

import numpy as np
import pytest

from gammaring import (DerivationTable, MapPair, SearchConfig, build_table_ring,
                       canonical_frame, check_condition_ii, check_condition_iv,
                       check_hypotheses, check_martindale_family, check_peirce_relations,
                       defect_of_iso, find_idempotents, find_unities, make_group,
                       peirce_decompose, search_n_derivations,
                       search_n_multiplicative_isos, verify_additive,
                       verify_n_multiplicative)


@pytest.fixture(scope="module")
def z3scalar():
    """M = Gamma = Z3 with x.g.y = x*g*y mod 3."""
    mu = np.zeros((3, 3, 3), dtype=np.int32)
    for x in range(3):
        for g in range(3):
            for y in range(3):
                mu[x, g, y] = (x * g * y) % 3
    ring = build_table_ring(make_group([3]), make_group([3]), mu)
    assert ring.barnes_verified
    return ring


@pytest.fixture(scope="module")
def z3diag():
    """Diagonal 2x2 matrices over Z3: componentwise product on Z3 x Z3."""
    grp = make_group([3, 3])
    mu = np.zeros((9, 9, 9), dtype=np.int32)
    for x in range(9):
        for g in range(9):
            for y in range(9):
                xv, gv, yv = grp.element_at(x), grp.element_at(g), grp.element_at(y)
                mu[x, g, y] = grp.index_of(((xv[0] * gv[0] * yv[0]) % 3,
                                            (xv[1] * gv[1] * yv[1]) % 3))
    ring = build_table_ring(grp, grp, mu)
    assert ring.barnes_verified
    return ring


def test_z3_scalar_search_matches_brute(z3scalar):
    res = search_n_multiplicative_isos(z3scalar, z3scalar, SearchConfig(n=2))
    assert res.complete
    brute = []
    for phi in permutations(range(3)):
        for psi in permutations(range(3)):
            if all(phi[z3scalar.mu[x, g, y]] == z3scalar.mu[phi[x], psi[g], phi[y]]
                   for x in range(3) for g in range(3) for y in range(3)):
                brute.append((phi, tuple(psi)))
    assert sorted(p.key() for p in res.found) == sorted(brute)
    # exactly the identity and the doubling pair (phi = 2x forces psi = 2g)
    assert len(res.found) == 2
    assert all(verify_additive(p).passed for p in res.found)


def test_z3_scalar_derivations_match_brute(z3scalar):
    res = search_n_derivations(z3scalar, SearchConfig(n=2))
    assert res.complete
    brute = []
    for d in product(range(3), repeat=3):
        if all(d[z3scalar.mu[x, g, y]] ==
               (z3scalar.mu[d[x], g, y] + z3scalar.mu[x, g, d[y]]) % 3
               for x in range(3) for g in range(3) for y in range(3)):
            brute.append(d)
    assert [t.key() for t in res.found] == sorted(brute)


def test_z3_defect_arithmetic(z3scalar):
    # doubling pair: phi(x) = 2x is additive mod 3, so its defect vanishes
    pair = MapPair(z3scalar, z3scalar, np.array([0, 2, 1]), np.array([0, 2, 1]))
    assert verify_n_multiplicative(pair, 2).exact_pass
    f = defect_of_iso(pair, 2)
    assert f.is_zero
    assert check_hypotheses(f, 1).all_passed
    inv = MapPair(pair.target, pair.source, np.argsort(pair.phi), np.argsort(pair.psi))
    assert verify_n_multiplicative(inv, 2).exact_pass
    assert inv.key() == pair.key()           # doubling is an involution mod 3


def test_z3diag_structure(z3diag):
    grp = z3diag.m_group
    one = grp.index_of((1, 1))
    assert any(u.one == one and u.gamma == one for u in find_unities(z3diag))
    e = grp.index_of((1, 0))
    rec = next(r for r in find_idempotents(z3diag) if r.e == e and r.gamma == one)
    assert rec.nontrivial


def test_z3diag_peirce_blocks(z3diag):
    grp = z3diag.m_group
    e = grp.index_of((1, 0))
    one = grp.index_of((1, 1))
    frame = canonical_frame(z3diag, e, one, one)
    pc = peirce_decompose(frame)
    # off-diagonal blocks collapse for a commutative componentwise product
    assert pc.sizes() == {(1, 1): 3, (1, 2): 1, (2, 1): 1, (2, 2): 3}
    assert check_peirce_relations(pc).holds
    # mod-3 projection arithmetic: P22 maps (a1, a2) to (0, a2)
    for idx in range(9):
        a = grp.element_at(idx)
        assert grp.element_at(pc.projections[(2, 2)][idx]) == (0, a[1])


def test_z3diag_fails_corner_condition(z3diag):
    grp = z3diag.m_group
    e = grp.index_of((1, 0))
    one = grp.index_of((1, 1))
    frame = canonical_frame(z3diag, e, one, one)
    assert check_condition_ii(z3diag).holds
    rep = check_condition_iv(frame)
    assert not rep.holds                      # corner parts annihilate the complement
    assert rep.witness["corner"] != 0
    assert not check_martindale_family(z3diag, [frame]).overall


def test_z3diag_search_self_consistent(z3diag):
    res = search_n_multiplicative_isos(z3diag, z3diag, SearchConfig(n=2))
    assert res.complete and len(res.found) >= 2
    for pair in res.found:
        assert verify_n_multiplicative(pair, 2).exact_pass
        assert verify_n_multiplicative(pair, 3).exact_pass
        assert verify_additive(pair).passed == defect_of_iso(pair, 2).is_zero

"""The n-multiplicative pairs of a ring as a stabilizer chain: oracles and exact counts.

The chain's count and its walk must equal the complete plain enumeration
wherever that finishes in seconds, and its counts must not change under the
opposite ring or a relabelling by group automorphisms.  The counts the
enumeration cannot reach are checked against closed forms and an explicit
construction.
"""

from math import prod

import numpy as np
import pytest

from gammaring import (MapPair, SearchConfig, build_matrix_ring, build_table_ring,
                       direct_product, hunt_counterexamples, make_group, matrix_ring_family,
                       search_n_multiplicative_isos, trivial_ring, trivial_ring_family,
                       verify_additive, verify_n_multiplicative)
from gammaring.errors import InternalInconsistencyError
from gammaring.groups import is_group_homomorphism
from gammaring.multmaps import _generator, _pair_group, _Work
from gammaring.theorem import _free_part, _pair_count

from test_derivation_kernel import _scalar, _z3_diagonal
from test_theorem import QUOTIENT_RINGS, _opposite

CAPPED = ("matrix(2,1,3)", "matrix(2,1,4)", "matrix(2,4,1)")    # the plain search runs out
ORACLE_RINGS = ([r for r in matrix_ring_family(2, 4) if r[0] not in CAPPED]
                + trivial_ring_family(6) + [("Z3-scalar", _scalar(3)),
                                            ("Z3-diagonal", _z3_diagonal())]
                + QUOTIENT_RINGS[len(trivial_ring_family(5)):])
# the plain search needs 159,231 nodes on this one
SLOW = {("matrix(2,1,2)xtrivial(Z2)", 3)}
ORACLE_CASES = [(name, ring, n) for n in (2, 3) for name, ring in ORACLE_RINGS
                if (name, n) not in SLOW]


def _group(ring, n):
    free, gammas = _free_part(ring, n)
    return _pair_group(ring, n, free, gammas, _Work(10**8))


def _counts(ring, n):
    c = _pair_count(ring, SearchConfig(n=n))
    assert c.complete
    return c.found, c.additive


@pytest.mark.parametrize("name, ring, n", ORACLE_CASES,
                         ids=[f"{name}-{n}" for name, _, n in ORACLE_CASES])
def test_chain_matches_plain_enumeration(name, ring, n):
    res = search_n_multiplicative_isos(ring, ring, SearchConfig(n=n))
    assert res.complete
    grp = _group(ring, n)
    assert grp.order == len(res.found)
    walked = [(tuple(p.tolist()), tuple(q.tolist())) for p, q in grp.walk(lambda phi: False)]
    assert walked == [p.key() for p in res.found]
    assert _counts(ring, n) == (len(res.found), sum(verify_additive(p).passed for p in res.found))


def _automorphism(group):
    """A shear (a1 + a2, a2, ...) when the first two factors are equal, else negation."""
    res = group.residues.copy()
    if len(group.factors) > 1 and group.factors[0] == group.factors[1]:
        res[:, 0] += res[:, 1]
    else:
        res = -res
    return (res % np.asarray(group.factors)) @ group._place_values


def _relabel(ring, sigma, tau):
    """The ring carried along automorphisms sigma of M and tau of Gamma."""
    mu = np.empty_like(ring.mu)
    mu[sigma[:, None, None], tau[None, :, None], sigma[None, None, :]] = sigma[ring.mu]
    return build_table_ring(ring.m_group, ring.gamma_group, mu)


INVARIANT_RINGS = matrix_ring_family(2, 4) + QUOTIENT_RINGS + [("Z3-diagonal", _z3_diagonal())]


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("name, ring", INVARIANT_RINGS, ids=[nm for nm, _ in INVARIANT_RINGS])
def test_chain_counts_are_invariant(name, ring, n):
    # a pair of R is a pair of its opposite ring, and (phi, psi) of R gives
    # (sigma phi sigma^-1, tau psi tau^-1) of R relabelled by (sigma, tau)
    sigma, tau = _automorphism(ring.m_group), _automorphism(ring.gamma_group)
    want = _counts(ring, n)
    assert _counts(_opposite(ring), n) == want
    assert _counts(_relabel(ring, sigma, tau), n) == want


def test_hunt_matrix_family_is_exact():
    family = matrix_ring_family(2, 4)
    survey = hunt_counterexamples(family, n=2, budget=40_000)
    assert survey.complete
    assert all(e.iso_complete and e.deriv_complete for e in survey.entries)
    assert [e.iso_found for e in survey.entries] == [1, 6, 6, 168, 168, 20_160, 36, 20_160]
    assert all(e.iso_additive == e.iso_found for e in survey.entries)
    # the vector rings' pairs are GL(k, 2), of order (2^k - 1)(2^k - 2)...(2^k - 2^(k-1))
    for (_, ring), e in zip(family, survey.entries):
        k = ring.descriptor["rows"] * ring.descriptor["cols"]
        if 1 in (ring.descriptor["rows"], ring.descriptor["cols"]):
            assert e.iso_found == prod(2**k - 2**i for i in range(k))


def _inverse_mod2(a):
    det = round(np.linalg.det(a))
    return np.rint(det * np.linalg.inv(a)).astype(np.int64) % 2


def test_vector_ring_pairs_are_the_general_linear_group():
    # on matrix(2,1,4), x.gamma.y = (x gamma) y with x, y rows and gamma a
    # column, so x -> xA, gamma -> A^-1 gamma is a pair for every A in GL(4, 2)
    ring = build_matrix_ring(2, 1, 4)
    grp = _group(ring, 2)
    assert grp.order == 20_160
    assert all(is_group_homomorphism(phi, ring.m_group, ring.m_group)
               for phi, _ in grp.generators)
    rows, cols = ring.m_group.residues, ring.gamma_group.residues
    place = ring.m_group._place_values
    rng = np.random.default_rng(0)
    seen = 0
    while seen < 12:
        a = rng.integers(0, 2, size=(4, 4))
        if round(np.linalg.det(a)) % 2 == 0:
            continue
        seen += 1
        phi = (rows @ a % 2) @ place
        psi = ((cols @ _inverse_mod2(a).T) % 2) @ place
        assert verify_n_multiplicative(MapPair(ring, ring, phi, psi), 2).exact_pass
        assert grp.has_phi(phi)


def test_hunt_twin_gamma_ring_is_exact():
    # matrix(2,2,2) x trivial(M = 0, Gamma = Z2): gammas (g, 0) and (g, 1) act
    # alike, so each of the 16 twin classes may swap: 36 * 2^16 pairs
    ring = direct_product(build_matrix_ring(2, 2, 2),
                          trivial_ring(make_group([]), make_group([2])))
    e = hunt_counterexamples([("twin", ring)], n=2, budget=40_000).entries[0]
    assert e.qualifying
    assert (e.iso_found, e.iso_additive, e.iso_complete) == (36 * 2**16, 36 * 2**16, True)
    assert not e.witnesses


def test_generator_is_checked():
    ring = build_matrix_ring(2, 1, 2)
    psi = np.arange(4)
    with pytest.raises(InternalInconsistencyError):
        _generator(ring, 2, np.array([0, 1, 1, 3]), psi)
    phi = np.array([0, 2, 1, 3])                    # swaps the two unit rows
    assert not verify_n_multiplicative(MapPair(ring, ring, phi, psi), 2).passed
    with pytest.raises(InternalInconsistencyError):
        _generator(ring, 2, phi, psi)

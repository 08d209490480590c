"""The n-multiplicative pairs of a ring as a stabilizer chain: oracles and exact counts.

The chain's count and its walk must equal the complete plain enumeration
wherever that finishes in seconds, and its counts must not change under the
opposite ring or a relabelling by group automorphisms.  The counts the
enumeration cannot reach are checked against closed forms and an explicit
construction.
"""

from itertools import islice, zip_longest
from math import prod

import numpy as np
import pytest

from gammaring import (MapPair, SearchConfig, build_matrix_ring, build_table_ring,
                       direct_product, hunt_counterexamples, make_group, matrix_ring_family,
                       search_n_multiplicative_isos, trivial_ring, trivial_ring_family,
                       verify_additive, verify_n_multiplicative)
from gammaring.errors import InternalInconsistencyError
from gammaring.groups import is_group_homomorphism
from gammaring import multmaps
from gammaring.multmaps import (_aut_order, _free_part, _generator, _length_k_products, _Meter,
                                _pair_group, _PairGroup, _PairSearch)
from gammaring.theorem import _pair_count

from conftest import homomorphisms, plain_pairs, position_walk, sifted_automorphisms
from test_derivation_kernel import _scalar, _z3_diagonal
from test_theorem import QUOTIENT_RINGS, _opposite, _with_trivial

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
    return _pair_group(ring, n, _Meter(10**8))


def _counts(ring, n):
    c = _pair_count(ring, SearchConfig(n=n))
    assert c.complete
    return c.found, c.additive


@pytest.mark.parametrize("name, ring, n", ORACLE_CASES,
                         ids=[f"{name}-{n}" for name, _, n in ORACLE_CASES])
def test_chain_matches_plain_enumeration(name, ring, n):
    want = plain_pairs(ring, ring, n)
    grp = _group(ring, n)
    assert grp.order == len(want)
    walked = [(tuple(p.tolist()), tuple(q.tolist())) for p, q in grp.walk()]
    assert walked == want
    additive = sum(verify_additive(MapPair(ring, ring, np.array(p), np.array(q))).passed
                   for p, q in want)
    assert _counts(ring, n) == (len(want), additive)
    res = search_n_multiplicative_isos(ring, ring, SearchConfig(n=n))
    assert res.complete and [p.key() for p in res.found] == want


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


def _reversed(group):
    """The automorphism reversing the residue coordinates, for palindromic factors."""
    return group.residues[:, ::-1] @ group._place_values


def _moved(rows, cols, m_factors):
    """A matrix ring beside a trivial one, and its relabelling by the coordinate
    reversals of M and Gamma, which moves F and A_Gamma."""
    _, ring = _with_trivial(rows, cols, m_factors)
    return ring, _relabel(ring, _reversed(ring.m_group), _reversed(ring.gamma_group))


def _between_cases():
    m212, m222 = build_matrix_ring(2, 1, 2), build_matrix_ring(2, 2, 2)
    clone = build_table_ring(m212.m_group, m212.gamma_group, m212.mu, m212.nu)
    shear = _relabel(m222, _automorphism(m222.m_group), _automorphism(m222.gamma_group))
    return [("m212-opposite", m212, _opposite(m212), (2, 3)),
            ("m212-m221", m212, build_matrix_ring(2, 2, 1), (2, 3)),
            ("m212-clone", m212, clone, (2, 3)),
            ("m222-relabelled", m222, shear, (2, 3)),
            # F = {1}, A_Gamma = {0, 1} onto F = {2}, A_Gamma = {0, 2}
            ("m211xZ2-relabelled", *_moved(1, 1, [2]), (2, 3)),
            # F = {1, 2, 3} onto {2, 4, 6}
            ("m211xZ2^2-relabelled", *_moved(1, 1, [2, 2]), (2, 3)),
            ("m212xZ2-relabelled", *_moved(1, 2, [2]), (2,))]


BETWEEN = [(name, s, t, n) for name, s, t, ns in _between_cases() for n in ns]


@pytest.mark.parametrize("name, source, target, n", BETWEEN,
                         ids=[f"{name}-{n}" for name, _, _, n in BETWEEN])
def test_search_between_rings_lists_the_plain_enumeration(name, source, target, n):
    # the pairs onto another ring are sigma Mult_n(source), walked from one pair sigma
    res = search_n_multiplicative_isos(source, target, SearchConfig(n=n))
    assert res.complete
    assert [p.key() for p in res.found] == plain_pairs(source, target, n)


def test_search_between_rings_of_different_orders():
    res = search_n_multiplicative_isos(build_matrix_ring(2, 1, 2), build_matrix_ring(2, 2, 2),
                                       SearchConfig(n=2))
    assert (res.found, res.complete, res.nodes) == ([], True, 0)


@pytest.mark.parametrize("case", ["m212-clone", "m211xZ2-relabelled"])
def test_a_budgeted_pair_listing_is_a_sorted_prefix(case):
    # the budget counts leaf search nodes and pairs listed; a run that runs
    # out reports budget + 1 and the first pairs in sorted order
    _, source, target, _ = next(c for c in _between_cases() if c[0] == case)
    full = search_n_multiplicative_isos(source, target, SearchConfig(n=2))
    keys = [p.key() for p in full.found]
    assert full.complete and keys
    for budget in range(1, full.nodes + 1):
        res = search_n_multiplicative_isos(source, target, SearchConfig(n=2, budget=budget))
        got = [p.key() for p in res.found]
        assert got == keys[:len(got)]
        assert res.complete == (budget == full.nodes)
        assert res.nodes == (full.nodes if res.complete else budget + 1)
    assert got == keys


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


def test_pair_chain_on_a_64_element_ring():
    # matrix(2,2,3): |GL(2,2)| |GL(3,2)| / (2 - 1) = 6 * 168 pairs, and the
    # leaf searches' node count, pinned: 1,931 searches run and 979 values
    # tried at their branch points
    work = _Meter(10**8)
    assert _pair_group(build_matrix_ring(2, 2, 3), 2, work).order == 1_008
    assert work.spent == 2_910


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


# every subject of the hunt-trivial and hunt-matrix workloads and the quotient rings
HUNT_SUBJECTS = list(dict(trivial_ring_family(8) + matrix_ring_family(2, 4)
                          + QUOTIENT_RINGS).items())


def _same_walks(walk, oracle):
    for got, want in zip_longest(walk, oracle):
        assert got is not None and want is not None
        assert [t.tolist() for t in got] == [t.tolist() for t in want]


WALK_RINGS = list(dict(ORACLE_RINGS + INVARIANT_RINGS + HUNT_SUBJECTS).items())


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("name, ring", WALK_RINGS, ids=[nm for nm, _ in WALK_RINGS])
def test_walk_matches_the_position_walk(name, ring, n):
    # the walk over the branching positions lists, in order, what the walk
    # over every table position lists, in full and with the additive phi skipped
    grp = _group(ring, n)
    group = ring.m_group

    def additive(phi):
        return is_group_homomorphism(phi, group, group)

    for skip in (None, additive):
        _same_walks(grp.walk(skip=skip), position_walk(grp, skip=skip))


# the between cases with a pair: matrix(2,1,2) has none onto its opposite or matrix(2,2,1)
ONTO = [case for case in BETWEEN if case[0] not in ("m212-opposite", "m212-m221")]


@pytest.mark.parametrize("name, source, target, n", ONTO,
                         ids=[f"{name}-{n}" for name, _, _, n in ONTO])
def test_walk_from_a_pair_onto_another_ring_matches_the_position_walk(name, source, target, n):
    sol = next(_PairSearch(source, target, n, _Meter(10**8)).run())
    sigma = _generator(source, n, *sol, target=target)
    kept = [t.copy() for t in sigma]
    grp = _group(source, n)
    _same_walks(grp.walk(sigma=sigma), position_walk(grp, sigma=sigma))
    assert all(np.array_equal(a, b) for a, b in zip(sigma, kept))


def test_walk_composes_at_most_twice_per_pair(monkeypatch):
    # one composition per base point branch taken; the walk over every table
    # position composed at every position, 23.5 times per pair here
    grp = _group(build_matrix_ring(2, 1, 4), 3)
    compose, calls = multmaps._compose, []
    monkeypatch.setattr(multmaps, "_compose", lambda a, b: calls.append(1) or compose(a, b))
    assert sum(1 for _ in grp.walk()) == grp.order == 20_160
    assert len(calls) <= 2 * grp.order


@pytest.mark.parametrize("name, ring", HUNT_SUBJECTS, ids=[nm for nm, _ in HUNT_SUBJECTS])
def test_automorphism_chain_matches_the_end_walk(name, ring):
    # the chain over M's generators against a walk of all of End(M), each
    # automorphism sifted through the phi levels
    grp = _group(ring, 2)
    auts = sifted_automorphisms(grp)
    assert _aut_order(grp, _Meter(10**8)) == auts
    assert _counts(ring, 2)[1] == auts * grp.kernel_order


def _prime_powers(d):
    out, p = {}, 2
    while d > 1:
        while d % p == 0:
            out[p] = out.get(p, 0) + 1
            d //= p
        p += 1
    return out


def _aut_closed_form(factors):
    """|Aut| of Z_d1 x ... x Z_dk, the product over its p-parts (Hillar and
    Rhea 2007, Thm 4.1): for Z_p^e1 x ... x Z_p^en with e1 <= ... <= en, and
    d_k, c_k the last and first position of the exponent e_k, it is
    prod (p^d_k - p^(k-1)) * prod (p^e_j)^(n - d_j) * prod (p^(e_i - 1))^(n - c_i + 1)."""
    parts = {}
    for d in factors:
        for p, e in _prime_powers(d).items():
            parts.setdefault(p, []).append(e)
    total = 1
    for p, es in parts.items():
        es, n = sorted(es), len(es)
        last = [max(j for j in range(1, n + 1) if es[j - 1] == e) for e in es]
        first = [min(j for j in range(1, n + 1) if es[j - 1] == e) for e in es]
        total *= prod(p**last[k] - p**k for k in range(n))
        total *= prod(p**(es[j] * (n - last[j])) for j in range(n))
        total *= prod(p**((es[i] - 1) * (n - first[i] + 1)) for i in range(n))
    return total


def test_closed_form_on_known_groups():
    assert [_aut_closed_form(f) for f in ([2, 2, 2], [4, 2], [8], [6], [3, 2], [2, 2, 2, 2])] \
        == [168, 8, 4, 2, 2, 20_160]


def test_trivial_ring_additive_pairs_are_aut_m_times_two():
    # on a trivial ring every pair is multiplicative and psi is free on
    # Gamma = Z2, so the additive pairs are Aut(M) x Sym(Gamma)
    family = trivial_ring_family(32)
    assert len(family) == 77
    for name, ring in family:
        c = _pair_count(ring, SearchConfig(n=2))
        assert c.complete
        assert c.additive == _aut_closed_form(ring.m_group.factors) * 2, name


@pytest.mark.parametrize("factors, additive, found", [
    ([2, 2, 2, 2], 40_320, 2 * prod(range(1, 16))),
    ([2] * 5, 19_998_720, 2 * prod(range(1, 32))),
    ([4, 2, 2, 2], 43_008, 2 * prod(range(1, 32)))],
    ids=["Z2^4", "Z2^5", "Z4xZ2^3"])
def test_hunt_counts_large_trivial_rings_exactly(factors, additive, found):
    # the walk of End(M) ran out of a 40k budget on all three
    ring = trivial_ring(make_group(factors), make_group([2]))
    e = hunt_counterexamples([("t", ring)], n=2, budget=40_000).entries[0]
    assert (e.iso_found, e.iso_additive, e.iso_complete) == (found, additive, True)
    assert e.deriv_complete


def test_automorphism_chain_units_on_matrix_222():
    # each table sifted is one unit; a search that sifted only tables of all
    # of M would try every combination of generator images below a refuted one
    grp = _group(build_matrix_ring(2, 2, 2), 2)
    work = _Meter(10**8)
    assert _aut_order(grp, work) == 36
    assert work.spent == 64


def test_automorphism_chain_checks_its_generators(monkeypatch):
    # with every prefix admitted, Z4 x Z2's search reaches a table that is
    # additive but not one to one, (0, 1) -> (2, 0) and (1, 0) -> (1, 0)
    ring = trivial_ring(make_group([4, 2]), make_group([2]))
    grp = _group(ring, 2)
    assert _aut_order(grp, _Meter(10**8)) == 8
    monkeypatch.setattr(_PairGroup, "has_phi", lambda self, h: True)
    with pytest.raises(InternalInconsistencyError):
        _aut_order(grp, _Meter(10**8))


def _free_part_from_scratch(ring, n):
    """multmaps._free_part as it was, each length-j product set computed
    from scratch: the oracle for the incremental one."""
    mu = ring.mu
    pre = [None] + [_length_k_products(ring, j) for j in range(1, n + 1)]
    dead = [np.arange(ring.m_order) == 0]
    for _ in range(n - 1):
        dead.append(dead[-1][mu].all(axis=(1, 2)))
    free = dead[n - 1].copy()
    for i in range(2, n + 1):
        free &= dead[n - i][mu[pre[i - 1]]].all(axis=(0, 1))
    gam = np.ones(ring.gamma_order, dtype=bool)
    for j in range(1, n):
        gam &= dead[n - 1 - j][mu[pre[j]]].all(axis=(0, 2))
    free[pre[n]] = False
    return np.flatnonzero(free), np.flatnonzero(gam)


@pytest.mark.parametrize("name, ring", HUNT_SUBJECTS, ids=[nm for nm, _ in HUNT_SUBJECTS])
def test_free_part_is_built_incrementally(name, ring, monkeypatch):
    for n in range(2, 7):
        got, want = _free_part(ring, n), _free_part_from_scratch(ring, n)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
    # one np.unique per product length: from scratch took n (n - 1) / 2
    unique, calls = np.unique, []
    monkeypatch.setattr(np, "unique", lambda *a, **k: calls.append(1) or unique(*a, **k))
    _free_part(ring, 40)
    assert len(calls) <= 40


def test_has_phi_inverts_each_transversal_once(monkeypatch):
    ring = build_matrix_ring(2, 1, 4)
    grp = _group(ring, 2)
    group, rng = ring.m_group, np.random.default_rng(0)
    auts = islice((h for h in homomorphisms(group, group) if np.unique(h).size == group.order), 50)
    tables = list(auts) + [np.r_[0, 1 + rng.permutation(group.order - 1)] for _ in range(50)]
    first = [grp.has_phi(h) for h in tables]
    inverse, calls = multmaps._inverse_table, []
    monkeypatch.setattr(multmaps, "_inverse_table", lambda t: calls.append(1) or inverse(t))
    assert [grp.has_phi(h) for h in tables] == first and any(first) and not all(first)
    assert not calls

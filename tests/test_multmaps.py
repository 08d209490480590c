import json
import os
import subprocess
import sys
from itertools import permutations, product

import numpy as np
import pytest

from gammaring import (DerivationTable, MapPair, SearchConfig, build_matrix_ring,
                       build_table_ring, defect_of_derivation, defect_of_iso,
                       document_dict, emit_grdf, make_group,
                       search_n_derivations, search_n_multiplicative_isos, trivial_ring,
                       verify_additive, verify_n_derivation, verify_n_multiplicative)
from gammaring.multmaps import _Meter, _PairSearch

from conftest import gidx, midx


def identity_pair(ring):
    return MapPair(ring, ring, np.arange(ring.m_order), np.arange(ring.gamma_order))


def brute_force_pairs(ring, n):
    """Filtration of every bijection pair through the defining identity, by plain loops."""
    out = []
    m, g = ring.m_order, ring.gamma_order
    for phi in permutations(range(m)):
        for psi in permutations(range(g)):
            ok = True
            for xs in product(range(m), repeat=n):
                for gs in product(range(g), repeat=n - 1):
                    s, t = xs[0], phi[xs[0]]
                    for i in range(n - 1):
                        s = ring.mu[s, gs[i], xs[i + 1]]
                        t = ring.mu[t, psi[gs[i]], phi[xs[i + 1]]]
                    if phi[s] != t:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                out.append((phi, tuple(psi)))
    return sorted(out)


def brute_force_derivations(ring, n):
    """All |M|^|M| value tables filtered through the Leibniz identity."""
    out = []
    m, g = ring.m_order, ring.gamma_order
    for d in product(range(m), repeat=m):
        ok = True
        for xs in product(range(m), repeat=n):
            for gs in product(range(g), repeat=n - 1):
                s = xs[0]
                for i in range(n - 1):
                    s = ring.mu[s, gs[i], xs[i + 1]]
                lhs = d[s]
                rhs = 0
                for i in range(n):
                    t = d[xs[0]] if i == 0 else xs[0]
                    for j in range(1, n):
                        t = ring.mu[t, gs[j - 1], d[xs[j]] if j == i else xs[j]]
                    rhs = ring.m_group.add_index(rhs, int(t))
                if lhs != rhs:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(d)
    return sorted(out)


def test_identity_pair_verifies(matrix212):
    ident = identity_pair(matrix212)
    for n in (2, 3, 4):
        rep = verify_n_multiplicative(ident, n)
        assert rep.passed and rep.exact


def test_arity_below_two_rejected(matrix212):
    with pytest.raises(ValueError):
        verify_n_multiplicative(identity_pair(matrix212), 1)
    with pytest.raises(ValueError):
        SearchConfig(n=1)
    with pytest.raises(ValueError):
        SearchConfig(budget=0)


def test_transpose_pair_fails(matrix222):
    # phi(x) = x^T, psi(g) = g^T into the same ring reverses products
    res = matrix222.m_group.residues.reshape(16, 2, 2)
    phi = np.array([matrix222.m_group.index_of(tuple(res[x].T.reshape(-1))) for x in range(16)])
    pair = MapPair(matrix222, matrix222, phi, phi.copy())
    rep = verify_n_multiplicative(pair, 2)
    assert not rep.passed and rep.exact
    w = rep.witness
    lhs = phi[matrix222.prod(w["x1"], w["g1"], w["x2"])]
    rhs = matrix222.prod(phi[w["x1"]], phi[w["g1"]], phi[w["x2"]])
    assert lhs != rhs
    # the stated instance: E11.E12 = E12 but transposes multiply to zero
    e11, e12 = midx(matrix222, (1, 0), (0, 0)), midx(matrix222, (0, 1), (0, 0))
    assert matrix222.prod(e11, gidx(matrix222, (0, 1), (0, 0)), e12) == 0


def test_two_multiplicative_implies_higher(matrix212):
    pairs = search_n_multiplicative_isos(matrix212, matrix212, SearchConfig(n=2)).found
    assert pairs
    for pair in pairs:
        for n in (3, 4, 5):
            assert verify_n_multiplicative(pair, n).exact_pass


def test_partial_verification_is_deterministic(matrix222):
    ident = identity_pair(matrix222)
    a = verify_n_multiplicative(ident, 2, budget=100, seed=7)
    b = verify_n_multiplicative(ident, 2, budget=100, seed=7)
    assert not a.exact and a.checked == 100
    assert a == b


def test_additive_identity_and_swap(trivial_z4):
    ident = identity_pair(trivial_z4)
    assert verify_additive(ident).passed
    # swap 1 and 2: multiplicative on the trivial ring, but not additive
    phi = np.array([0, 2, 1, 3])
    pair = MapPair(trivial_z4, trivial_z4, phi, np.arange(2))
    assert verify_n_multiplicative(pair, 2).exact_pass
    rep = verify_additive(pair)
    assert not rep.passed
    w = rep.witness
    s = trivial_z4.m_group.add_index(w["x"], w["y"])
    assert phi[s] != trivial_z4.m_group.add_index(phi[w["x"]], phi[w["y"]])


def test_zero_derivation_everywhere(matrix222, trivial_z4, f4ring):
    for ring in (matrix222, trivial_z4, f4ring):
        zero = DerivationTable(ring, np.zeros(ring.m_order, dtype=np.int32))
        for n in (2, 3):
            assert verify_n_derivation(zero, n).exact_pass
        assert verify_additive(zero).passed


def test_derivation_identity_forces_zero_at_zero(trivial_z4):
    d = DerivationTable(trivial_z4, np.array([1, 0, 0, 0]))
    rep = verify_n_derivation(d, 2)
    assert not rep.passed
    d2 = DerivationTable(trivial_z4, np.array([0, 3, 1, 2]))
    assert verify_n_derivation(d2, 2).exact_pass


def test_commutator_map_verdict_matches_oracle(matrix222):
    # d(x) = E12.x - x.E12 evaluated with plain matrix arithmetic; the stated
    # identity need not hold, so the verifier verdict is compared to a loop
    res = matrix222.m_group.residues.reshape(16, 2, 2)
    e12 = res[midx(matrix222, (0, 1), (0, 0))]
    table = np.array([matrix222.m_group.index_of(tuple(((e12 @ res[x] - res[x] @ e12) % 2).reshape(-1)))
                      for x in range(16)])
    d = DerivationTable(matrix222, table)
    want = True
    for x in range(16):
        for g in range(16):
            for y in range(16):
                lhs = table[matrix222.prod(x, g, y)]
                rhs = matrix222.m_group.add_index(
                    matrix222.prod(table[x], g, y), matrix222.prod(x, g, table[y]))
                if lhs != rhs:
                    want = False
                    break
            if not want:
                break
        if not want:
            break
    assert verify_n_derivation(d, 2).passed == want


def test_search_finds_identity(matrix212, trivial_z4, f4ring):
    for ring in (matrix212, trivial_z4, f4ring):
        res = search_n_multiplicative_isos(ring, ring, SearchConfig(n=2))
        assert res.complete
        keys = {p.key() for p in res.found}
        assert identity_pair(ring).key() in keys


def test_search_rejects_mismatched_orders(matrix212, trivial_z4):
    res = search_n_multiplicative_isos(matrix212, trivial_z4, SearchConfig(n=2))
    assert res.found == [] and res.complete


def test_trivial_z4_counts(trivial_z4):
    res = search_n_multiplicative_isos(trivial_z4, trivial_z4, SearchConfig(n=2))
    assert res.complete and len(res.found) == 12
    additive = [p for p in res.found if verify_additive(p).passed]
    assert len(additive) == 4
    assert sorted(p.key() for p in res.found) == brute_force_pairs(trivial_z4, 2)


def test_search_budget_exhaustion_flagged(trivial_z4):
    res = search_n_multiplicative_isos(trivial_z4, trivial_z4,
                                       SearchConfig(n=2, budget=5))
    assert not res.complete


def test_search_results_sorted(trivial_z4):
    res = search_n_multiplicative_isos(trivial_z4, trivial_z4, SearchConfig(n=2))
    keys = [p.key() for p in res.found]
    assert keys == sorted(keys)


def test_derivation_search_on_trivial_rings():
    z2 = trivial_ring(make_group([2]), make_group([2]))
    res = search_n_derivations(z2, SearchConfig(n=2))
    assert res.complete
    assert [d.key() for d in res.found] == brute_force_derivations(z2, 2)
    assert len(res.found) == 2               # exactly the maps with d(0) = 0

    z4 = trivial_ring(make_group([4]), make_group([2]))
    res4 = search_n_derivations(z4, SearchConfig(n=2))
    assert res4.complete
    assert [d.key() for d in res4.found] == brute_force_derivations(z4, 2)
    assert len(res4.found) == 64


def _product_ring(group, gamma, scale):
    """M = Z_group, Gamma = Z_gamma, x.g.y = scale x g y mod group."""
    mu = np.fromfunction(lambda x, g, y: scale * x * g * y % group, (group, gamma, group),
                         dtype=np.int64)
    return build_table_ring(make_group([group]), make_group([gamma]), mu)


BRUTE_RINGS = {
    "matrix(2,1,1)": lambda: build_matrix_ring(2, 1, 1),
    "matrix(2,1,2)": lambda: build_matrix_ring(2, 1, 2),
    "Z3-scalar": lambda: _product_ring(3, 3, 1),
    "Z4-scalar": lambda: _product_ring(4, 4, 1),
    # composite exponent 6, with products 3 x g y in the subgroup {0, 3}:
    # 81 derivations at n = 2 and 162 at n = 3
    "Z6-times-3": lambda: _product_ring(6, 2, 3),
}


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("name", sorted(BRUTE_RINGS))
def test_derivation_search_matches_brute_force(name, n):
    ring = BRUTE_RINGS[name]()
    res = search_n_derivations(ring, SearchConfig(n=n))
    assert res.complete
    assert [d.key() for d in res.found] == brute_force_derivations(ring, n)


def test_pair_search_refuses_a_non_injective_pre_assignment(matrix212):
    eng = _PairSearch(matrix212, matrix212, 2, _Meter(10**6))
    for fixed in ([(0, 1, 2), (0, 2, 2)],           # two elements, one image
                  [(1, 1, 3), (1, 2, 3)],           # two gammas, one image
                  [(0, 3, 0)],                      # the image of 0 again
                  [(0, 1, 1), (0, 1, 2)]):          # one element, two images
        with pytest.raises(ValueError):
            next(eng.run(fixed))
    # each refusal retracted its assignments: a plain run finds every pair
    want = search_n_multiplicative_isos(matrix212, matrix212, SearchConfig(n=2)).found
    assert len(list(eng.run())) == len(want)


def test_pair_search_stopped_early_retracts_its_trail(matrix212):
    eng = _PairSearch(matrix212, matrix212, 2, _Meter(10**6))

    def retracted():
        return eng.trail == [] and all((table == -1).all() and not used.any()
                                       for table, used in zip(eng.tables, eng.used))

    fixed = [(0, 1, 1)]
    row = eng.admits(fixed, 0, 2)
    first = next(eng.run(), None)           # read one solution, drop the search
    assert retracted()
    reads = eng.run()
    for _ in range(3):                      # stop at a deeper solution
        next(reads)
    assert not retracted()
    reads.close()
    assert retracted()
    assert eng.admits(fixed, 0, 2).tolist() == row.tolist()
    assert [t.tolist() for t in next(eng.run())] == [t.tolist() for t in first]


def test_pair_search_stops_on_a_partly_spent_meter(matrix212):
    def listed(meter):
        return [p.tolist() + q.tolist() for p, q in _PairSearch(matrix212, matrix212, 2, meter).run()]

    full = _Meter(10**6)
    want = listed(full)
    assert len(want) == 6
    for budget in range(5, full.spent):         # 4 units spent, fewer than the search needs left
        meter = _Meter(budget)
        meter.take(4)
        got = listed(meter)
        assert meter.spent == meter.budget + 1
        assert got == want[:len(got)]


def test_derivation_search_matrix_ring(matrix222):
    res = search_n_derivations(matrix222, SearchConfig(n=2))
    assert res.complete
    assert all(verify_additive(d).passed for d in res.found)
    assert any(all(v == 0 for v in d.key()) for d in res.found)


def test_defect_of_additive_pair_is_zero(matrix212):
    for pair in search_n_multiplicative_isos(matrix212, matrix212, SearchConfig(n=2)).found:
        if verify_additive(pair).passed:
            assert defect_of_iso(pair, 2).is_zero


def test_defect_of_swap_pair(trivial_z4):
    phi = np.array([0, 2, 1, 3])
    pair = MapPair(trivial_z4, trivial_z4, phi, np.arange(2))
    f = defect_of_iso(pair, 2)
    # phi(1+1) - 2*phi(1) = 1 - 0 = 1, pulled back through phi gives 2
    assert f.f[1, 0, 1] == 2
    assert (f.f[:, :, 0] == 0).all() and (f.f[0, :, :] == 0).all()
    assert not f.is_zero


def test_defect_requires_verified_pair(matrix222):
    res = matrix222.m_group.residues.reshape(16, 2, 2)
    phi = np.array([matrix222.m_group.index_of(tuple(res[x].T.reshape(-1))) for x in range(16)])
    pair = MapPair(matrix222, matrix222, phi, phi.copy())
    with pytest.raises(ValueError):
        defect_of_iso(pair, 2)


def test_defect_symmetry_and_additivity_equivalence(trivial_z4):
    for pair in search_n_multiplicative_isos(trivial_z4, trivial_z4, SearchConfig(n=2)).found:
        f = defect_of_iso(pair, 2)
        assert (f.f == np.swapaxes(f.f, 0, 2)).all()
        assert f.is_zero == verify_additive(pair).passed


def test_derivation_defect(trivial_z4, matrix222):
    d = DerivationTable(trivial_z4, np.array([0, 1, 0, 0]))
    assert verify_n_derivation(d, 2).exact_pass
    f = defect_of_derivation(d, 2)
    assert f.is_zero == verify_additive(d).passed
    zero = DerivationTable(matrix222, np.zeros(16, dtype=np.int32))
    assert defect_of_derivation(zero, 2).is_zero


def test_inverse_pair(matrix212):
    def inverse(pair):
        return MapPair(pair.target, pair.source, np.argsort(pair.phi), np.argsort(pair.psi))

    ident = identity_pair(matrix212)
    assert inverse(ident).key() == ident.key()
    for pair in search_n_multiplicative_isos(matrix212, matrix212, SearchConfig(n=2)).found:
        inv = inverse(pair)
        assert verify_n_multiplicative(inv, 2).exact_pass
        assert inverse(inv).key() == pair.key()


def test_composition_closure(matrix212):
    pairs = search_n_multiplicative_isos(matrix212, matrix212, SearchConfig(n=2)).found
    for a in pairs[:3]:
        for b in pairs[:3]:
            comp = MapPair(b.source, a.target, a.phi[b.phi], a.psi[b.psi])    # a after b
            assert verify_n_multiplicative(comp, 2).exact_pass


def test_map_pair_validates_bijections(matrix212):
    with pytest.raises(ValueError):
        MapPair(matrix212, matrix212, np.array([0, 0, 1, 2]), np.arange(4))
    with pytest.raises(ValueError):
        MapPair(matrix212, matrix212, np.arange(3), np.arange(4))


def test_cross_ring_search(matrix212):
    from gammaring import build_matrix_ring, build_table_ring

    # row-vector vs column-vector rings: x.g.y is <x,g>y in one and <g,y>x in
    # the other, so no bijection pair can intertwine them
    cols = build_matrix_ring(2, 2, 1)
    res = search_n_multiplicative_isos(matrix212, cols, SearchConfig(n=2))
    assert res.complete
    assert sorted(p.key() for p in res.found) == brute_force_pairs_between(matrix212, cols, 2)
    assert res.found == []

    # the same tables wrapped as a fresh ring admit exactly the self-isomorphisms
    clone = build_table_ring(matrix212.m_group, matrix212.gamma_group,
                             matrix212.mu, matrix212.nu)
    res = search_n_multiplicative_isos(matrix212, clone, SearchConfig(n=2))
    self_res = search_n_multiplicative_isos(matrix212, matrix212, SearchConfig(n=2))
    assert sorted(p.key() for p in res.found) == sorted(p.key() for p in self_res.found)


def brute_force_pairs_between(source, target, n):
    out = []
    m, g = source.m_order, source.gamma_order
    for phi in permutations(range(m)):
        for psi in permutations(range(g)):
            ok = True
            for xs in product(range(m), repeat=n):
                for gs in product(range(g), repeat=n - 1):
                    s, t = xs[0], phi[xs[0]]
                    for i in range(n - 1):
                        s = source.mu[s, gs[i], xs[i + 1]]
                        t = target.mu[t, psi[gs[i]], phi[xs[i + 1]]]
                    if phi[s] != t:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                out.append((phi, tuple(psi)))
    return sorted(out)


def _tuple_names(n):
    return [name for i in range(1, n) for name in (f"x{i}", f"g{i}")] + [f"x{n}"]


def _holds_multiplicative(ring, phi, psi, xs, gs):
    s, t = xs[0], phi[xs[0]]
    for i in range(len(gs)):
        s = ring.mu[s, gs[i], xs[i + 1]]
        t = ring.mu[t, psi[gs[i]], phi[xs[i + 1]]]
    return phi[s] == t


def _holds_leibniz(ring, d, xs, gs):
    s = xs[0]
    for i in range(len(gs)):
        s = ring.mu[s, gs[i], xs[i + 1]]
    rhs = 0
    for i in range(len(xs)):
        t = d[xs[0]] if i == 0 else xs[0]
        for j in range(1, len(xs)):
            t = ring.mu[t, gs[j - 1], d[xs[j]] if j == i else xs[j]]
        rhs = ring.m_group.add_index(rhs, int(t))
    return d[s] == rhs


def _least_failure(ring, n, holds):
    """First tuple (x1, g1, ..., xn) in lexicographic order where the identity fails."""
    m, g = ring.m_order, ring.gamma_order
    for tup in product(*([range(m), range(g)] * (n - 1) + [range(m)])):
        if not holds(tup[0::2], tup[1::2]):
            return dict(zip(_tuple_names(n), tup))
    return None


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("ring_name", ["matrix212", "f4ring"])
def test_exhaustive_witnesses_are_lexicographically_least(ring_name, n, request):
    ring = request.getfixturevalue(ring_name)
    phi = np.array([0, 2, 3, 1])
    psi = np.arange(ring.gamma_order)
    want = _least_failure(ring, n, lambda xs, gs: _holds_multiplicative(ring, phi, psi, xs, gs))
    rep = verify_n_multiplicative(MapPair(ring, ring, phi, psi), n)
    assert want is not None and rep.exact and not rep.passed
    assert rep.witness == want

    d = np.array([0, 3, 1, 1])
    want = _least_failure(ring, n, lambda xs, gs: _holds_leibniz(ring, d, xs, gs))
    rep = verify_n_derivation(DerivationTable(ring, d), n)
    assert want is not None and rep.exact and not rep.passed
    assert rep.witness == want


@pytest.mark.parametrize("n", [2, 3])
def test_sampled_witnesses_are_real_violations(matrix222, n):
    res = matrix222.m_group.residues.reshape(16, 2, 2)
    trans = np.array([matrix222.m_group.index_of(tuple(res[x].T.reshape(-1)))
                      for x in range(16)])
    names = _tuple_names(n)

    rep = verify_n_multiplicative(MapPair(matrix222, matrix222, trans, trans), n,
                                  budget=300, seed=11)
    assert not rep.exact and not rep.passed and rep.checked == 300
    xs, gs = [rep.witness[k] for k in names[0::2]], [rep.witness[k] for k in names[1::2]]
    assert not _holds_multiplicative(matrix222, trans, trans, xs, gs)

    rep = verify_n_derivation(DerivationTable(matrix222, trans), n, budget=300, seed=11)
    assert not rep.exact and not rep.passed and rep.checked == 300
    xs, gs = [rep.witness[k] for k in names[0::2]], [rep.witness[k] for k in names[1::2]]
    assert not _holds_leibniz(matrix222, trans, xs, gs)


_RUN_SCRIPT = """
import contextlib, io, json, sys
from gammaring.cli import main
sys.setrecursionlimit(int(sys.argv[1]))
runs = []
for argv in sys.argv[2:]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runs.append([main(argv.split()), out.getvalue()])
print(json.dumps(runs))
"""


def test_search_depth_is_not_bounded_by_recursion_limit(tmp_path):
    # on trivial(Z168) the first branch of either search assigns one element
    # per node, so 200 nodes reach its first leaves at a depth above 160
    path = tmp_path / "z168.json"
    path.write_text(emit_grdf(document_dict(trivial_ring(make_group([168]), make_group([2])))))
    commands = [f"{cmd} --input {path} --budget 200 --format json"
                for cmd in ("search-iso", "search-derivations")]
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    runs = {}
    for limit in (150, sys.getrecursionlimit()):
        proc = subprocess.run([sys.executable, "-c", _RUN_SCRIPT, str(limit), *commands],
                              capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        runs[limit] = json.loads(proc.stdout)
    low, default = runs.values()
    assert low == default
    for code, out in low:
        report = json.loads(out)
        assert code == 3 and report["nodes"] == 201 and report["found"] and not report["complete"]

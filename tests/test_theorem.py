import itertools
from math import factorial

import numpy as np
import pytest

from gammaring import (DefectMap, SearchConfig, build_matrix_ring, build_table_ring,
                       canonical_frame, check_claims, check_hypotheses,
                       conclude_main_theorem, defect_of_iso, direct_product,
                       hunt_counterexamples, make_group, matrix_ring_family,
                       run_additivity_pipeline, run_derivation_pipeline,
                       search_n_derivations, search_n_multiplicative_isos, trivial_ring,
                       trivial_ring_family, verify_additive)
from gammaring.theorem import _derivation_count, _free_part
from gammaring.errors import BudgetExceededError, PreconditionError

from conftest import gidx, midx


@pytest.fixture(scope="module")
def frame(matrix222):
    return canonical_frame(matrix222,
                           midx(matrix222, (1, 0), (0, 0)),
                           gidx(matrix222, (1, 0), (0, 1)),
                           midx(matrix222, (1, 0), (0, 1)))


def zero_defect(ring):
    m, g = ring.m_order, ring.gamma_order
    return DefectMap(ring, np.zeros((m, g, m), dtype=np.int32), "user")


def test_zero_defect_passes_all_hypotheses(matrix222):
    for k in (1, 2):
        rep = check_hypotheses(zero_defect(matrix222), k, budget=10**9)
        assert rep.all_passed and rep.all_exact


def test_k_below_one_rejected(matrix222):
    with pytest.raises(ValueError):
        check_hypotheses(zero_defect(matrix222), 0)


def test_constant_projection_fails_zero_slots(matrix222):
    f = np.broadcast_to(np.arange(16)[:, None, None], (16, 16, 16)).copy()
    rep = check_hypotheses(DefectMap(matrix222, f, "user"), 1)
    assert not rep.zero_slots.passed
    w = rep.zero_slots.witness
    assert w["side"] == "right-zero" and w["x"] != 0


def test_iso_defects_pass_hypotheses(matrix212):
    for n in (2, 3):
        pairs = search_n_multiplicative_isos(matrix212, matrix212, SearchConfig(n=n)).found
        for pair in pairs:
            rep = check_hypotheses(defect_of_iso(pair, n), n - 1)
            assert rep.all_passed and rep.all_exact


def test_absorption_failure_witness_reproduces(matrix222, matrix212):
    # f(x, g, y) = x.g.y breaks both absorption identities
    f = DefectMap(matrix222, matrix222.mu.copy(), "user")
    rep = check_hypotheses(f, 1)
    mu = matrix222.mu
    assert not rep.left_absorption.passed and rep.left_absorption.exact
    w = rep.left_absorption.witness
    lhs = mu[w["u1"], w["g1"], f.f[w["x"], w["gamma"], w["y"]]]
    rhs = f.f[mu[w["u1"], w["g1"], w["x"]], w["gamma"], mu[w["u1"], w["g1"], w["y"]]]
    assert lhs != rhs
    assert not rep.right_absorption.passed
    w = rep.right_absorption.witness
    lhs = mu[f.f[w["x"], w["gamma"], w["y"]], w["g1"], w["u1"]]
    rhs = f.f[mu[w["x"], w["g1"], w["u1"]], w["gamma"], mu[w["y"], w["g1"], w["u1"]]]
    assert lhs != rhs

    # k = 2 witness reconstruction: chains collapse through length-2 products
    f2 = DefectMap(matrix212, matrix212.mu.copy(), "user")
    rep2 = check_hypotheses(f2, 2)
    mu = matrix212.mu
    if not rep2.left_absorption.passed:
        w = rep2.left_absorption.witness
        p = mu[w["u1"], w["g1"], w["u2"]]
        lhs = mu[p, w["g2"], f2.f[w["x"], w["gamma"], w["y"]]]
        rhs = f2.f[mu[p, w["g2"], w["x"]], w["gamma"], mu[p, w["g2"], w["y"]]]
        assert lhs != rhs
    if not rep2.right_absorption.passed:
        w = rep2.right_absorption.witness
        q = mu[w["u1"], w["g2"], w["u2"]]
        lhs = mu[f2.f[w["x"], w["gamma"], w["y"]], w["g1"], q]
        rhs = f2.f[mu[w["x"], w["g1"], q], w["gamma"], mu[w["y"], w["g1"], q]]
        assert lhs != rhs
    assert not (rep2.left_absorption.passed and rep2.right_absorption.passed)


def test_hypotheses_partial_flagged(matrix222):
    rep = check_hypotheses(zero_defect(matrix222), 2, budget=1000)
    assert rep.all_passed and not rep.all_exact


def test_claims_zero_defect(matrix222, frame):
    trace = check_claims(zero_defect(matrix222), frame)
    assert trace.all_passed
    assert set(trace.claims) == {"claim1", "claim2", "claim3", "claim4", "claim5"}


def test_claims_product_map_fails_claim1(matrix222, frame):
    trace = check_claims(DefectMap(matrix222, matrix222.mu.copy(), "user"), frame)
    c1 = trace.claims["claim1"]
    assert not c1.passed
    w = c1.witness
    mu = matrix222.mu
    f = matrix222.mu
    if w["side"] == "left":
        lhs = mu[w["u"], w["beta"], f[w["x"], w["gamma"], w["y"]]]
        rhs = f[mu[w["u"], w["beta"], w["x"]], w["gamma"], mu[w["u"], w["beta"], w["y"]]]
    else:
        lhs = mu[f[w["x"], w["gamma"], w["y"]], w["beta"], w["u"]]
        rhs = f[mu[w["x"], w["beta"], w["u"]], w["gamma"], mu[w["y"], w["beta"], w["u"]]]
    assert lhs != rhs


def test_claim_chain_on_iso_defects(matrix222, frame):
    # with exact hypothesis passes, every staged identity holds as well
    pairs = search_n_multiplicative_isos(matrix222, matrix222, SearchConfig(n=2)).found
    for pair in pairs[:8]:
        defect = defect_of_iso(pair, 2)
        hyp = check_hypotheses(defect, 1)
        assert hyp.all_passed and hyp.all_exact
        assert check_claims(defect, frame).all_passed


def test_conclude_zero_defect(matrix222, frame):
    verdict = conclude_main_theorem(matrix222, [frame], zero_defect(matrix222), 1)
    assert verdict.confirmed


def test_conclude_gates_on_conditions(trivial_z4):
    with pytest.raises(PreconditionError):
        conclude_main_theorem(trivial_z4, [], zero_defect(trivial_z4), 1)


def test_conclude_gates_on_partial_budget(matrix222, frame):
    with pytest.raises(BudgetExceededError):
        conclude_main_theorem(matrix222, [frame], zero_defect(matrix222), 2, budget=100)


def test_conclude_gates_on_failing_hypotheses(matrix222, frame):
    f = DefectMap(matrix222, matrix222.mu.copy(), "user")
    with pytest.raises(PreconditionError):
        conclude_main_theorem(matrix222, [frame], f, 1)


def test_additivity_pipeline_identity(matrix222, frame):
    ident_phi = np.arange(16)
    from gammaring import MapPair
    pair = MapPair(matrix222, matrix222, ident_phi, np.arange(16))
    rep = run_additivity_pipeline(pair, 2, [frame])
    assert rep.defect_zero and rep.additive.passed and rep.agreement


def test_additivity_pipeline_needs_qualifying_ring(trivial_z4):
    from gammaring import MapPair
    pair = MapPair(trivial_z4, trivial_z4, np.arange(4), np.arange(2))
    with pytest.raises(PreconditionError):
        run_additivity_pipeline(pair, 2, [])


def test_derivation_pipeline(matrix222, frame):
    for n in (2, 3):
        found = search_n_derivations(matrix222, SearchConfig(n=n)).found
        assert found
        for d in found:
            rep = run_derivation_pipeline(matrix222, d, n, [frame],
                                          budget=2 * 10**9 if n == 3 else 10**8)
            assert rep.defect_zero and rep.additive.passed and rep.agreement


def _aut_end_orders(factors):
    """|Aut| and |End| of Z_d1 x ... x Z_dk, by listing generator images in plain Python."""
    elements = list(itertools.product(*(range(d) for d in factors)))
    images = [[v for v in elements if all(d * c % e == 0 for c, e in zip(v, factors))]
              for d in factors]
    auts = ends = 0
    for choice in itertools.product(*images):
        table = {tuple(sum(x * v[j] for x, v in zip(elt, choice)) % e
                       for j, e in enumerate(factors)) for elt in elements}
        ends += 1
        auts += len(table) == len(elements)
    return auts, ends


def test_hunt_trivial_sweep():
    family = trivial_ring_family(8)
    assert [name for name, _ in family][:4] == \
        ["trivial(Z2)", "trivial(Z3)", "trivial(Z4)", "trivial(Z2xZ2)"]
    survey = hunt_counterexamples(family, n=2, budget=40_000)
    # every product is zero: a pair is any phi fixing 0 with any psi, and a
    # derivation is any map with d(0) = 0; the additive ones are Aut M and End M
    assert survey.complete
    for (_, ring), e in zip(family, survey.entries):
        m, g = ring.m_order, ring.gamma_order
        auts, ends = _aut_end_orders(ring.m_group.factors)
        assert (e.iso_found, e.iso_additive) == (factorial(m - 1) * factorial(g),
                                                 auts * factorial(g)), e.name
        assert (e.deriv_found, e.deriv_additive) == (m ** (m - 1), ends), e.name
        assert e.iso_complete and e.deriv_complete
    assert all(not e.qualifying for e in survey.entries)
    assert any(e.witnesses for e in survey.entries)
    z4 = next(e for e in survey.entries if e.name == "trivial(Z4)")
    assert z4.iso_found == 12 and z4.iso_additive == 4
    assert z4.witnesses and z4.iso_complete and z4.deriv_complete


def test_hunt_matrix_sweep():
    survey = hunt_counterexamples(matrix_ring_family(2, 4), n=2, budget=40_000)
    qualifying = [e for e in survey.entries if e.qualifying]
    assert [e.name for e in qualifying] == ["matrix(2,2,2)"]
    for e in qualifying:
        assert e.iso_found == e.iso_additive
        assert e.deriv_found == e.deriv_additive
        assert not e.witnesses


def test_hunt_empty_family():
    survey = hunt_counterexamples([], n=2)
    assert survey.entries == [] and survey.complete


def test_gamma_free_gate_counts_collapsed_scan(matrix222):
    # a gamma-free defect at k=1 costs 16 * 16 * 16 * 1 * 16 = 65,536 composite
    # checks, not the 1,048,576 of a scan over every gamma
    rep = check_hypotheses(zero_defect(matrix222), 1, budget=100_000)
    assert rep.all_passed and rep.all_exact
    assert rep.left_absorption.checked == 16**3 * 16**2


def _chain_defect(ring):
    """f(x, gamma, y) = x.gamma0.y for a fixed gamma0: constant in gamma, zero on both
    zero slots, and not absorbing."""
    m, g = ring.m_order, ring.gamma_order
    return DefectMap(ring, np.broadcast_to(ring.mu[:, g - 1:, :], (m, g, m)), "user")


def _least_absorption_failure(ring, f, k, side):
    """Plain loop over raw tuples in witness order; the first failing one, or None."""
    mu = ring.mu
    m, g = ring.m_order, ring.gamma_order
    slots = ("u", "g") if side == "left" else ("g", "u")
    names = [f"{v}{i}" for i in range(1, k + 1) for v in slots] + ["x", "gamma", "y"]
    sizes = {"u": m, "g": g, "x": m, "y": m}
    for t in itertools.product(*(range(sizes[n[0]]) for n in names)):
        w = dict(zip(names, t))
        x, gm, y = w["x"], w["gamma"], w["y"]
        if side == "left":
            p = w["u1"]                                    # u1 g1 u2 ... uk
            for i in range(2, k + 1):
                p = mu[p, w[f"g{i - 1}"], w[f"u{i}"]]
            a = w[f"g{k}"]
            ok = mu[p, a, f[x, gm, y]] == f[mu[p, a, x], gm, mu[p, a, y]]
        else:
            q = w[f"u{k}"]                                 # u1 g2 u2 ... gk uk
            for i in range(k - 1, 0, -1):
                q = mu[w[f"u{i}"], w[f"g{i + 1}"], q]
            a = w["g1"]
            ok = mu[f[x, gm, y], a, q] == f[mu[x, a, q], gm, mu[y, a, q]]
        if not ok:
            return w
    return None


@pytest.mark.parametrize("shape", [(1, 2), (2, 1)])
@pytest.mark.parametrize("kind", ["gamma-free", "gamma-dependent"])
def test_absorption_witness_is_lexicographically_least(shape, kind):
    # on matrix(2,1,2) every left action is by a scalar, so only the right
    # identity can fail there; its transpose matrix(2,2,1) covers the left one
    ring = build_matrix_ring(2, *shape)
    defect = _chain_defect(ring) if kind == "gamma-free" else \
        DefectMap(ring, ring.mu.copy(), "user")
    for k in (1, 2):
        rep = check_hypotheses(defect, k)
        assert rep.zero_slots.passed and rep.all_exact
        assert not (rep.left_absorption.passed and rep.right_absorption.passed)
        for side, r in (("left", rep.left_absorption), ("right", rep.right_absorption)):
            assert r.witness == _least_absorption_failure(ring, defect.f, k, side)
            assert r.checked == ring.m_order**(k + 2) * ring.gamma_order**(k + 1)


def test_gamma_dependent_witness_unchanged(matrix222):
    # f = x.gamma.y depends on gamma and keeps the full scan; witnesses pinned
    rep = check_hypotheses(DefectMap(matrix222, matrix222.mu.copy(), "user"), 1)
    assert rep.left_absorption.witness == {"u1": 1, "g1": 1, "x": 1, "gamma": 2, "y": 4}
    assert rep.right_absorption.witness == {"g1": 1, "u1": 1, "x": 2, "gamma": 4, "y": 1}


def _least_claim1_failure(ring, f):
    mu = ring.mu
    m, g = ring.m_order, ring.gamma_order
    for u, b, x, gm, y in itertools.product(range(m), range(g), range(m), range(g), range(m)):
        if mu[u, b, f[x, gm, y]] != f[mu[u, b, x], gm, mu[u, b, y]]:
            return {"side": "left", "u": u, "beta": b, "x": x, "gamma": gm, "y": y}
    for x, gm, y, b, u in itertools.product(range(m), range(g), range(m), range(g), range(m)):
        if mu[f[x, gm, y], b, u] != f[mu[x, b, u], gm, mu[y, b, u]]:
            return {"side": "right", "x": x, "gamma": gm, "y": y, "beta": b, "u": u}
    return None


def test_claim1_witness_is_lexicographically_least(matrix222, frame):
    for defect in (_chain_defect(matrix222), DefectMap(matrix222, matrix222.mu.copy(), "user")):
        c1 = check_claims(defect, frame).claims["claim1"]
        assert not c1.passed and c1.checked == 2 * 16**3 * 16**2
        assert c1.witness == _least_claim1_failure(matrix222, defect.f)


def _opposite(ring):
    return build_table_ring(ring.m_group, ring.gamma_group, ring.mu.transpose(2, 1, 0))


def _with_trivial(rows, cols, m_factors):
    """matrix(2, rows, cols) x trivial(Z_.., Z2): a core with a free part beside it."""
    label = "x".join(f"Z{d}" for d in m_factors)
    return (f"matrix(2,{rows},{cols})xtrivial({label})",
            direct_product(build_matrix_ring(2, rows, cols),
                           trivial_ring(make_group(m_factors), make_group([2]))))


def _one_sided():
    """x.1.y = x1 L(y) on Z2^3, with L(y) = (y1, y2 + y3, 0) and x.0.y = 0.

    e3 kills every product from the left but not from the right (e1.1.e3 =
    e2), while e2 + e3 kills from both sides and is no product value, so F =
    {e2 + e3}: a check of the left slot alone would free e3 as well.
    """
    m = make_group([2, 2, 2])
    res = m.residues
    mu = np.zeros((8, 2, 8), dtype=np.int32)
    for x in range(8):
        for y in range(8):
            ly = (res[y, 0], (res[y, 1] + res[y, 2]) % 2, 0)
            mu[x, 1, y] = m.index_of(tuple(int(res[x, 0] * v) for v in ly))
    return "one-sided(Z2^3)", build_table_ring(m, make_group([2]), mu)


# matrix(2,1,1)xtrivial(Z2xZ2) has a chain beside |F| = 3, so its additive
# count sifts the automorphisms of M
QUOTIENT_RINGS = trivial_ring_family(5) + [_with_trivial(1, 1, [2]), _with_trivial(1, 2, [2]),
                                           _with_trivial(1, 1, [3]), _with_trivial(1, 1, [2, 2]),
                                           _one_sided()]


def _enumerated_entry(ring, n, budget=10**8, cap=8):
    """A hunt entry built from plain enumerations: counts, flags, first non-additive maps."""
    config = SearchConfig(n=n, budget=budget)
    isos = search_n_multiplicative_isos(ring, ring, config)
    derivs = search_n_derivations(ring, config)
    iso_add = [verify_additive(p).passed for p in isos.found]
    der_add = [verify_additive(d).passed for d in derivs.found]
    witnesses = ([("iso", p.key()) for p, ok in zip(isos.found, iso_add) if not ok]
                 + [("derivation", d.key()) for d, ok in zip(derivs.found, der_add) if not ok])
    return (len(isos.found), sum(iso_add), isos.complete,
            len(derivs.found), sum(der_add), derivs.complete, witnesses[:cap])


def _hunt_entry(ring, n, budget=10**8):
    e = hunt_counterexamples([("ring", ring)], n=n, budget=budget).entries[0]
    return (e.iso_found, e.iso_additive, e.iso_complete,
            e.deriv_found, e.deriv_additive, e.deriv_complete,
            [(kind, obj.key()) for kind, obj in e.witnesses])


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("name, ring", QUOTIENT_RINGS, ids=[nm for nm, _ in QUOTIENT_RINGS])
def test_hunt_quotient_matches_enumeration(name, ring, n):
    free, gammas = _free_part(ring, n)
    assert free.size or gammas.size > 1                         # a nontrivial free part
    entry = _hunt_entry(ring, n)
    assert entry == _enumerated_entry(ring, n)
    # a pair or derivation of a ring is one of its opposite ring, which swaps
    # the left and right annihilator slots
    assert _hunt_entry(_opposite(ring), n) == entry


def test_free_part_of_one_sided_ring():
    _, ring = _one_sided()
    for r in (ring, _opposite(ring)):
        free, _ = _free_part(r, 2)
        assert free.tolist() == [3]


def test_free_part_of_product_ring():
    _, ring = _with_trivial(1, 2, [2])          # M = matrix(2,1,2) x Z2, Gamma = Z2^2 x Z2
    free, gammas = _free_part(ring, 2)
    # the trivial factor's nonzero element is free; gammas (0, c) kill every chain
    assert free.tolist() == [1]
    assert gammas.tolist() == [0, 1]


@pytest.mark.parametrize("ring, budget, pairs_complete", [
    # the additive count visits the 512 endomorphisms of Z2^3
    (trivial_ring(make_group([2, 2, 2]), make_group([2])), 100, False),
    # the chain needs 39 leaf nodes; F has one element and every generator
    # is additive, so no endomorphism is visited
    (_with_trivial(1, 2, [2])[1], 50, True),
    (_with_trivial(1, 2, [2])[1], 600, True),
    (_with_trivial(1, 2, [2])[1], 1710, True),
    # a qualifying ring whose chain holds every psi that swaps gammas acting
    # alike: 455 leaf nodes
    (direct_product(build_matrix_ring(2, 2, 2), trivial_ring(make_group([]), make_group([2]))),
     300, False),
], ids=["trivial(Z2xZ2xZ2)", "matrix(2,1,2)xtrivial(Z2)-50", "matrix(2,1,2)xtrivial(Z2)-600",
        "matrix(2,1,2)xtrivial(Z2)-1710", "matrix(2,2,2)xgamma(Z2)"])
def test_hunt_over_budget_is_the_plain_enumeration(ring, budget, pairs_complete):
    """Each subject of a budgeted hunt is that of the unbudgeted hunt, or it
    counts nothing and is incomplete; pairs no longer fall back to the plain
    enumeration, which named this test.  Witnesses come from the complete
    subjects only."""
    entry = _hunt_entry(ring, 2, budget)
    full = _hunt_entry(ring, 2)
    assert entry[2] == pairs_complete
    assert entry[:3] == (full[:3] if entry[2] else (0, 0, False))
    assert entry[3:6] == (full[3:6] if entry[5] else (0, 0, False))
    isos = [w for w in full[6] if w[0] == "iso"] if entry[2] else []
    derivs = _derivation_count(ring, SearchConfig(n=2)).first_nonadditive(8) if entry[5] else []
    assert entry[6] == (isos + [("derivation", d.key()) for d in derivs])[:8]


def test_hunt_quotient_budget_counts_its_work():
    for ring, threshold, counts in (
            # 39 leaf nodes, and no endomorphism visited
            (_with_trivial(1, 2, [2])[1], 39, (96, 96)),
            # 14 leaf nodes, then F has three elements, so the 512 endomorphisms
            # of Z2^3 are visited and the 24 automorphisms in the group counted
            (_with_trivial(1, 1, [2, 2])[1], 526, (144, 24))):
        exact = hunt_counterexamples([("p", ring)], n=2, budget=threshold).entries[0]
        assert (exact.iso_found, exact.iso_additive, exact.iso_complete) == counts + (True,)
        short = hunt_counterexamples([("p", ring)], n=2, budget=threshold - 1).entries[0]
        assert (short.iso_found, short.iso_additive, short.iso_complete) == (0, 0, False)

"""Acceptance criteria: exhaustive desk-scale checks, one pass/fail line each."""

import time
from itertools import permutations, product

import numpy as np

from gammaring import (SearchConfig, build_matrix_ring, canonical_frame,
                       check_barnes_axioms, check_condition_ii,
                       check_martindale_family, check_peirce_relations,
                       conclude_main_theorem, defect_of_iso, hunt_counterexamples,
                       is_prime, make_group, matrix_ring_family, peirce_decompose,
                       run_additivity_pipeline, run_derivation_pipeline,
                       search_n_derivations, search_n_multiplicative_isos, trivial_ring,
                       trivial_ring_family, verify_additive)
from gammaring.errors import InternalInconsistencyError

from conftest import gidx, midx, reference_prime


def _report(num: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _frame(ring):
    return canonical_frame(ring, midx(ring, (1, 0), (0, 0)),
                           gidx(ring, (1, 0), (0, 1)), midx(ring, (1, 0), (0, 1)))


def test_criterion_1_axiom_suite():
    t0 = time.perf_counter()
    ring = build_matrix_ring(2, 2, 2)
    reports = check_barnes_axioms(ring)
    elapsed = time.perf_counter() - t0
    ok = all(r.holds for r in reports)
    counts = {r.axiom: r.checked for r in reports}
    ok = ok and counts["barnes-iv"] == 16**3 * 16**2          # all core triples chained
    ok = ok and counts["barnes-ii"] == 2 * 16**3 * 16         # distributivity quadruples
    ok = ok and elapsed < 5.0
    _report(1, ok, f"matrix(2,2,2) Barnes axioms exhaustive in {elapsed:.2f}s "
                   f"({sum(counts.values())} tuples)")


def test_criterion_2_peirce_suite():
    t0 = time.perf_counter()
    ring = build_matrix_ring(2, 2, 2)
    frame = _frame(ring)
    pc = peirce_decompose(frame)        # asserts sum-to-identity and orthogonality
    sizes = pc.sizes()
    mg = ring.m_group
    idx = np.arange(16)
    acc = pc.projections[(1, 1)]
    for ij in ((1, 2), (2, 1), (2, 2)):
        acc = mg.add_table[acc, pc.projections[ij]]
    sum_ok = (acc == idx).all()
    orth_ok = all((pc.projections[a][pc.projections[b]] ==
                   (pc.projections[a] if a == b else 0)).all()
                  for a in pc.projections for b in pc.projections)
    rel = check_peirce_relations(pc)
    elapsed = time.perf_counter() - t0
    ok = (sum_ok and orth_ok and rel.holds
          and sizes == {(1, 1): 2, (1, 2): 2, (2, 1): 2, (2, 2): 2}
          and int(np.prod(list(sizes.values()))) == 16
          and elapsed < 10.0)
    _report(2, ok, f"frame (E11, I): projections + 2/2/2/2 blocks + relations "
                   f"in {elapsed:.2f}s")


def test_criterion_3_conditions_suite():
    t0 = time.perf_counter()
    ring = build_matrix_ring(2, 2, 2)
    frame = _frame(ring)
    fam = check_martindale_family(ring, [frame])
    trivial = trivial_ring(make_group([4]), make_group([2]))
    cond2 = check_condition_ii(trivial)
    witness_ok = (not cond2.holds and cond2.witness is not None
                  and (trivial.mu[cond2.witness["x"]] == 0).all()
                  and cond2.witness["x"] != 0)
    elapsed = time.perf_counter() - t0
    ok = fam.overall and witness_ok and elapsed < 10.0
    _report(3, ok, f"matrix(2,2,2) passes (i)-(iv); trivial Z4 fails (ii) at "
                   f"x={cond2.witness['x']} in {elapsed:.2f}s")


def test_criterion_4_additivity_theorem_n2():
    t0 = time.perf_counter()
    ring = build_matrix_ring(2, 2, 2)
    frame = _frame(ring)
    res = search_n_multiplicative_isos(ring, ring, SearchConfig(n=2))
    ok = res.complete and len(res.found) > 0
    violations = 0
    for pair in res.found:
        rep = run_additivity_pipeline(pair, 2, [frame])
        verdict = conclude_main_theorem(ring, [frame], defect_of_iso(pair, 2), 1)
        good = (rep.hypotheses.all_passed and rep.hypotheses.all_exact
                and rep.defect_zero and rep.additive.passed and rep.agreement
                and verdict.confirmed)
        if not good:
            violations += 1
    elapsed = time.perf_counter() - t0
    ok = ok and violations == 0 and elapsed < 600.0
    _report(4, ok, f"complete n=2 search: {len(res.found)} pairs, all additive, "
                   f"defects vanish with k=1, {elapsed:.1f}s")


def test_criterion_5_additivity_theorem_n3():
    t0 = time.perf_counter()
    ring = build_matrix_ring(2, 2, 2)
    frame = _frame(ring)
    res = search_n_multiplicative_isos(ring, ring, SearchConfig(n=3))
    ok = res.complete and len(res.found) > 0
    budget = 300_000_000                     # covers the 16^4 * 16^3 chain tuples
    partial_flags = 0
    violations = 0
    for pair in res.found:
        rep = run_additivity_pipeline(pair, 3, [frame], budget=budget)
        if not (rep.verified.exact and rep.hypotheses.all_exact and rep.additive.exact):
            partial_flags += 1
        if not (rep.defect_zero and rep.additive.passed and rep.agreement):
            violations += 1
    elapsed = time.perf_counter() - t0
    ok = ok and partial_flags == 0 and violations == 0 and elapsed < 900.0
    _report(5, ok, f"complete n=3 search: {len(res.found)} pairs, all additive, "
                   f"k=2 verdicts exact, {elapsed:.1f}s")


def test_criterion_6_derivation_corollary():
    t0 = time.perf_counter()
    ring = build_matrix_ring(2, 2, 2)
    frame = _frame(ring)
    res = search_n_derivations(ring, SearchConfig(n=2))
    ok = res.complete and any(all(v == 0 for v in d.key()) for d in res.found)
    violations = 0
    for d in res.found:
        rep = run_derivation_pipeline(ring, d, 2, [frame])
        if not (rep.defect_zero and rep.additive.passed and rep.agreement):
            violations += 1
    elapsed = time.perf_counter() - t0
    ok = ok and violations == 0 and elapsed < 600.0
    _report(6, ok, f"complete derivation search: {len(res.found)} found incl. zero, "
                   f"all additive, {elapsed:.1f}s")


def test_criterion_7_necessity_witness():
    ring = trivial_ring(make_group([4]), make_group([2]))

    # independent filtration oracle over all 24 * 2 bijection pairs
    brute = []
    for phi in permutations(range(4)):
        for psi in permutations(range(2)):
            if all(phi[ring.mu[x, g, y]] ==
                   ring.mu[phi[x], psi[g], phi[y]]
                   for x in range(4) for g in range(2) for y in range(4)):
                brute.append((phi, tuple(psi)))
    additive_brute = [
        (phi, psi) for phi, psi in brute
        if all(phi[ring.m_group.add_index(x, y)] ==
               ring.m_group.add_index(phi[x], phi[y])
               for x in range(4) for y in range(4))]
    counts_ok = len(brute) == 12 and len(additive_brute) == 4

    res = search_n_multiplicative_isos(ring, ring, SearchConfig(n=2))
    search_ok = (res.complete and sorted(p.key() for p in res.found) == sorted(brute))
    additive_found = sum(verify_additive(p).passed for p in res.found)

    survey = hunt_counterexamples([("trivial(Z4,Z2)", ring)], n=2, budget=100_000)
    witnesses = survey.entries[0].witnesses
    witness_ok = any(kind == "iso" for kind, _ in witnesses)

    ok = counts_ok and search_ok and additive_found == 4 and witness_ok
    _report(7, ok, f"trivial Z4: 12 multiplicative pairs, 4 additive (oracle-confirmed), "
                   f"{len(witnesses)} necessity witnesses emitted")


def test_criterion_8_oracle_equivalence(small_ring_corpus):
    mismatches = []
    for n in (2, 3):
        for name, ring in small_ring_corpus:
            res = search_n_multiplicative_isos(ring, ring, SearchConfig(n=n))
            got = sorted(p.key() for p in res.found)
            brute = []
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
                        brute.append((phi, tuple(psi)))
            if got != sorted(brute) or not res.complete:
                mismatches.append((n, name))
    _report(8, not mismatches, f"search = brute-force filtration on "
                               f"{len(small_ring_corpus)} rings x n in (2,3); "
                               f"mismatches: {mismatches}")


def test_criterion_9_primeness_equivalence(barnes_corpus):
    verdicts = {name: is_prime(ring).prime for name, ring in barnes_corpus}
    disagree = [name for name, ring in barnes_corpus if verdicts[name] != reference_prime(ring)]
    _report(9, not disagree and len(verdicts) >= 8 and True in verdicts.values()
            and False in verdicts.values(),
            f"elementwise vs ideal-pair primeness agree on {len(verdicts)} rings, "
            f"{sum(verdicts.values())} prime; disagreements: {disagree}")


def test_criterion_10_no_internal_inconsistency(small_ring_corpus):
    fired = []
    try:
        ring = build_matrix_ring(2, 2, 2)
        frame = _frame(ring)
        for pair in search_n_multiplicative_isos(ring, ring, SearchConfig(n=2)).found:
            run_additivity_pipeline(pair, 2, [frame])
        for d in search_n_derivations(ring, SearchConfig(n=2)).found:
            run_derivation_pipeline(ring, d, 2, [frame])
        hunt_counterexamples(trivial_ring_family(6), n=2, budget=30_000)
        hunt_counterexamples(matrix_ring_family(2, 2), n=2, budget=30_000)
        for name, r in small_ring_corpus:
            peirce_frames = []
            check_martindale_family(r, peirce_frames)
    except InternalInconsistencyError as ex:
        fired.append(str(ex))
    _report(10, not fired, f"internal-inconsistency never fired across the corpus "
                           f"{'(' + '; '.join(fired) + ')' if fired else ''}")

"""Tour 3: multiplicative maps are forced additive on qualifying rings.

The headline fact this library verifies at desk scale: on a ring carrying a
qualifying idempotent frame, EVERY bijection pair (phi, psi) that preserves
length-n products is automatically additive, even though additivity is never
assumed.  The machinery: build the defect f(x, g, y) = phi^-1(phi(x+y) -
phi(x) - phi(y)), check it satisfies the vanishing-theorem hypotheses, and
conclude f = 0 two independent ways.
"""

import time

from gammaring import (SearchConfig, build_matrix_ring, canonical_frame, defect_of_iso,
                       run_additivity_pipeline, run_derivation_pipeline,
                       search_n_derivations, search_n_multiplicative_isos,
                       verify_additive)

ring = build_matrix_ring(2, 2, 2)
gm = ring.m_group
frame = canonical_frame(ring, gm.index_of((1, 0, 0, 0)),
                        ring.gamma_group.index_of((1, 0, 0, 1)),
                        gm.index_of((1, 0, 0, 1)))

print("=== complete listing of the 2-multiplicative bijection pairs ===")
t0 = time.perf_counter()
result = search_n_multiplicative_isos(ring, ring, SearchConfig(n=2))
print(f"{len(result.found)} pairs from their stabilizer chain, {result.nodes} work units "
      f"(leaf search nodes + pairs listed, {time.perf_counter() - t0:.2f}s), "
      f"complete = {result.complete}")
print("these are exactly the maps x -> u.x.v with u, v invertible: 6 x 6 = 36")

additive = sum(verify_additive(p).passed for p in result.found)
print(f"additive pairs: {additive}/{len(result.found)}  <- none assumed, all forced")

print("\n=== the defect route, pair by pair ===")
pair = result.found[7]
defect = defect_of_iso(pair, 2)
print(f"sample pair: phi = {list(pair.key()[0])}")
print(f"its additivity defect is identically zero? {defect.is_zero}")

report = run_additivity_pipeline(pair, 2, [frame])
print(f"pipeline: hypotheses pass = {report.hypotheses.all_passed} (exact), "
      f"defect zero = {report.defect_zero}, direct scan agrees = {report.agreement}")

print("\n=== the same story for length-3 products ===")
t0 = time.perf_counter()
result3 = search_n_multiplicative_isos(ring, ring, SearchConfig(n=3))
print(f"{len(result3.found)} pairs ({time.perf_counter() - t0:.2f}s)")
rep3 = run_additivity_pipeline(result3.found[0], 3, [frame], budget=300_000_000)
print(f"n=3 pipeline with chain length k=2: exact = {rep3.hypotheses.all_exact}, "
      f"additive = {rep3.additive.passed}")

print("\n=== derivations ===")
dres = search_n_derivations(ring, SearchConfig(n=2))
print(f"2-multiplicative derivations found: {len(dres.found)} "
      f"(the zero map; this ring admits no others)")
dres3 = search_n_derivations(ring, SearchConfig(n=3))
print(f"3-multiplicative derivations found: {len(dres3.found)} "
      f"(char 2 lets d = identity satisfy the length-3 expansion: w+w+w = w)")
for d in dres3.found:
    rep = run_derivation_pipeline(ring, d, 3, [frame], budget=2_000_000_000)
    print(f"  d = {list(d.key())}: additive = {rep.additive.passed}, "
          f"agreement = {rep.agreement}")

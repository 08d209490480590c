"""Tour 4: the structural hypotheses cannot be dropped.

On a ring that fails the conditions, multiplicativity stops forcing
additivity.  The all-zero-product ring on Z4 is the minimal showcase: a
bijection is 2-multiplicative iff it fixes 0, so 12 pairs qualify and only 4
of them are additive.  The survey runner turns this into evidence per ring:
a qualifying ring with a non-additive find would be a bug (it never happens),
a failing ring's non-additive finds are the necessity witnesses.
"""

from gammaring import (SearchConfig, hunt_counterexamples, make_group,
                       matrix_ring_family, search_n_multiplicative_isos, trivial_ring,
                       trivial_ring_family, verify_additive)

print("=== the minimal counterexample ring: all products zero on M = Z4 ===")
ring = trivial_ring(make_group([4]), make_group([2]))
result = search_n_multiplicative_isos(ring, ring, SearchConfig(n=2))
print(f"multiplicative bijection pairs: {len(result.found)}")
for pair in result.found:
    add = verify_additive(pair)
    tag = "additive" if add.passed else f"NOT additive (witness {add.witness})"
    print(f"  phi={list(pair.key()[0])} psi={list(pair.key()[1])}  {tag}")

print("\n=== sweep: all-zero-product rings of order <= 8 ===")
survey = hunt_counterexamples(trivial_ring_family(8), n=2, budget=40_000)
print(f"survey complete = {survey.complete} (free elements are counted, not listed)")
for entry in survey.entries:
    print(f"  {entry.name:22s} qualifying={entry.qualifying}  "
          f"isos {entry.iso_additive}/{entry.iso_found} additive  "
          f"derivations {entry.deriv_additive}/{entry.deriv_found} additive  "
          f"witnesses recorded: {len(entry.witnesses)}")

print("\n=== sweep: matrix rings with at most 4 cells ===")
survey = hunt_counterexamples(matrix_ring_family(2, 4), n=2, budget=40_000)
print(f"survey complete = {survey.complete} (pairs are counted from a stabilizer chain)")
for entry in survey.entries:
    nonadd = (entry.iso_found - entry.iso_additive) + (entry.deriv_found - entry.deriv_additive)
    print(f"  {entry.name:16s} qualifying={entry.qualifying}  "
          f"isos {entry.iso_additive}/{entry.iso_found} additive  non-additive finds: {nonadd}")
print("only the full 2x2 ring qualifies, and it shows zero violations;")
print("the degenerate shapes (row/column rings) fail the conditions instead.")

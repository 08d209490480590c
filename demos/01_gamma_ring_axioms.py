"""Tour 1: building finite gamma rings and verifying their axioms.

A gamma ring pairs two finite abelian groups M and Gamma with a triple
product M x Gamma x M -> M.  The canonical example: M = m x n matrices over
Z_k, Gamma = n x m matrices, product = ordinary matrix multiplication, so
that x.g.y is again m x n.  Everything here is a dense index table, and every
axiom verdict is an exhaustive scan.
"""

from gammaring import (build_matrix_ring, check_barnes_axioms, check_nobusawa,
                       find_idempotents, find_unities, is_prime, make_group,
                       trivial_ring)

print("=== 2x2 matrices over Z2, Gamma = 2x2 matrices ===")
ring = build_matrix_ring(2, 2, 2)
print(f"|M| = {ring.m_order}, |Gamma| = {ring.gamma_order}")

for report in check_barnes_axioms(ring):
    print(f"  {report.axiom:12s} {'holds' if report.holds else 'FAILS':6s}"
          f" ({report.checked} tuples)")

print("\nThe stronger definition adds a Gamma-valued product g.x.h and a")
print("faithfulness condition whose quantifier is ambiguous; both readings:")
for report in check_nobusawa(ring):
    status = "holds" if report.holds else "fails"
    extra = f"  witness {report.witness}" if report.witness else ""
    print(f"  {report.axiom:28s} {status}{extra}")
print("(strict fails because e.g. E12 . E12 = 0 with both factors nonzero)")

print("\n=== unities and idempotents ===")
unities = find_unities(ring)
print(f"{len(unities)} unity pairs (one, gamma); these are (v^-1, v) for invertible v:")
for u in unities[:3]:
    print(f"  one={ring.element_matrix(u.one, 'm')} gamma={ring.element_matrix(u.gamma, 'gamma')}")

ident = ring.gamma_group.index_of((1, 0, 0, 1))
at_identity = [r for r in find_idempotents(ring) if r.gamma == ident]
print(f"\nidempotents at gamma = I: {len(at_identity)} nonzero, "
      f"{sum(r.nontrivial for r in at_identity)} nontrivial")

print("\n=== primeness ===")
print(f"matrix ring prime? {is_prime(ring).prime}")
trivial = trivial_ring(make_group([4]), make_group([2]))
report = is_prime(trivial)
print(f"all-zero-product ring on Z4 prime? {report.prime}, witness pair {report.witness}")
print("(a nonzero pair a, b with a.Gamma.M.Gamma.b = 0 shows the ring is not prime)")

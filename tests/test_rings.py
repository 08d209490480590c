import tracemalloc

import numpy as np
import pytest

from gammaring import rings
from gammaring import (build_matrix_ring, build_table_ring, check_barnes_axioms,
                       check_nobusawa, direct_product, find_idempotents, find_unities,
                       is_prime, make_group, trivial_ring)
from gammaring.errors import PreconditionError

from conftest import gidx, midx, reference_ideal_generated


def test_table_ring_accepts_trivial_product():
    m, g = make_group([2]), make_group([2])
    ring = build_table_ring(m, g, np.zeros((2, 2, 2), dtype=np.int32))
    assert ring.barnes_verified


def test_matrix_ring_roundtrips_through_table_form(matrix222):
    again = build_table_ring(matrix222.m_group, matrix222.gamma_group,
                             matrix222.mu, matrix222.nu)
    assert (again.mu == matrix222.mu).all()
    assert (again.nu == matrix222.nu).all()
    assert again.barnes_verified


def test_table_ring_rejects_bad_entries():
    m, g = make_group([2]), make_group([2])
    bad = np.zeros((2, 2, 2), dtype=np.int32)
    bad[0, 0, 0] = 2                       # = order(M), out of range
    with pytest.raises(ValueError):
        build_table_ring(m, g, bad)
    with pytest.raises(ValueError):
        build_table_ring(m, g, np.zeros((2, 3, 2), dtype=np.int32))


def test_matrix_ring_sizes(matrix222, matrix212):
    assert matrix222.m_order == 16 and matrix222.gamma_order == 16
    assert matrix212.m_order == 4 and matrix212.gamma_order == 4


def test_matrix_ring_rejects_bad_parameters():
    with pytest.raises(ValueError):
        build_matrix_ring(1, 2, 2)
    with pytest.raises(ValueError):
        build_matrix_ring(2, 0, 2)
    with pytest.raises(ValueError):
        build_matrix_ring(2, 4, 3)          # table over the order budget


def test_matrix_product_matches_direct_arithmetic(matrix222):
    # independent oracle: plain numpy matmul over a full scan
    r = matrix222
    em = r.m_group.residues.reshape(16, 2, 2)
    eg = r.gamma_group.residues.reshape(16, 2, 2)
    for x in range(16):
        for g in range(16):
            got = em[r.mu[x, g]]
            want = (em[x] @ eg[g] @ em) % 2
            assert (got == want).all()
            break                           # one g-row per x keeps this quick
    full = (np.einsum("ij,jk,ykl->yikl", em[3], eg[5], em) % 2)
    assert all((em[r.mu[3, 5, y]] == full[y]).all() for y in range(16))


def test_matrix_ring_build_is_chunked(monkeypatch):
    # mu and nu are built in chunks of their first slot; built whole, the
    # intermediates of matrix(3,2,2) peaked at 55 MiB, and of matrix(2,2,4)
    # at 1 GiB each
    whole = build_matrix_ring(3, 2, 2)                  # one chunk at the default size
    monkeypatch.setattr(rings, "_CHUNK_ELEMS", 2**16)
    tracemalloc.start()
    try:
        chunked = build_matrix_ring(3, 2, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20
    assert np.array_equal(chunked.mu, whole.mu) and np.array_equal(chunked.nu, whole.nu)


def test_barnes_axioms_pass_on_matrix_rings(matrix222, matrix212):
    for ring in (matrix222, matrix212):
        assert all(rep.holds for rep in check_barnes_axioms(ring))


def test_barnes_axioms_pass_on_trivial_ring(trivial_z4):
    assert all(rep.holds for rep in check_barnes_axioms(trivial_z4))


def test_patched_table_breaks_associativity(matrix222):
    # mutate-and-scan: re-route one product and the scan must find a witness
    mu = matrix222.mu.copy()
    e11, i = midx(matrix222, (1, 0), (0, 0)), gidx(matrix222, (1, 0), (0, 1))
    mu[e11, i, e11] = midx(matrix222, (0, 1), (0, 0))
    patched = build_table_ring(matrix222.m_group, matrix222.gamma_group, mu)
    report = {r.axiom: r for r in check_barnes_axioms(patched)}["barnes-iv"]
    assert not report.holds
    w = report.witness
    lhs = patched.prod(patched.prod(w["x"], w["alpha"], w["y"]), w["beta"], w["z"])
    rhs = patched.prod(w["x"], w["alpha"], patched.prod(w["y"], w["beta"], w["z"]))
    assert lhs != rhs


def test_nobusawa_readings_on_matrix_ring(matrix222):
    reports = {r.axiom: r for r in check_nobusawa(matrix222)}
    assert reports["nobusawa-i"].holds
    assert reports["nobusawa-ii"].holds
    assert reports["nobusawa-iii-annihilator"].holds
    strict = reports["nobusawa-iii-strict"]
    assert not strict.holds
    w = strict.witness
    assert matrix222.prod(w["x"], w["gamma"], w["y"]) == 0 and w["gamma"] != 0
    # E12.E12 = 0 is such an instance
    e12 = midx(matrix222, (0, 1), (0, 0))
    g12 = gidx(matrix222, (0, 1), (0, 0))
    assert matrix222.prod(e12, g12, e12) == 0


def test_nobusawa_annihilator_fails_on_trivial(trivial_z4):
    reports = {r.axiom: r for r in check_nobusawa(trivial_z4)}
    assert not reports["nobusawa-iii-annihilator"].holds


def test_nobusawa_requires_nu():
    ring = build_table_ring(make_group([2]), make_group([2]),
                            np.zeros((2, 2, 2), dtype=np.int32))
    with pytest.raises(ValueError):
        check_nobusawa(ring)


def test_idempotents_of_matrix_ring(matrix222):
    i = gidx(matrix222, (1, 0), (0, 1))
    at_i = [r for r in find_idempotents(matrix222) if r.gamma == i]
    # independent oracle: direct matrix arithmetic
    em = matrix222.m_group.residues.reshape(16, 2, 2)
    ident = matrix222.gamma_group.residues.reshape(16, 2, 2)[i]
    expect = {x for x in range(1, 16) if (em[x] @ ident @ em[x] % 2 == em[x]).all()}
    assert {r.e for r in at_i} == expect
    assert len(at_i) == 7
    assert sum(r.nontrivial for r in at_i) == 6
    e11 = midx(matrix222, (1, 0), (0, 0))
    rec = next(r for r in at_i if r.e == e11)
    assert rec.nontrivial


def test_idempotents_of_trivial_ring(trivial_z4):
    assert find_idempotents(trivial_z4) == []


def test_unities(matrix222, matrix212, trivial_z4):
    i = gidx(matrix222, (1, 0), (0, 1))
    one = midx(matrix222, (1, 0), (0, 1))
    assert any(u.one == one and u.gamma == i for u in find_unities(matrix222))
    assert find_unities(matrix212) == []
    assert find_unities(trivial_z4) == []


def test_ideal_generated_examples(matrix222, trivial_z4):
    assert reference_ideal_generated(matrix222, [0], "two-sided") == (0,)
    # trivial products: closure is just the additive subgroup
    assert reference_ideal_generated(trivial_z4, [2], "two-sided") == (0, 2)
    assert reference_ideal_generated(trivial_z4, [1], "two-sided") == (0, 1, 2, 3)
    e11 = midx(matrix222, (1, 0), (0, 0))
    full = reference_ideal_generated(matrix222, [e11], "two-sided")
    assert len(full) == 16


def test_ideal_closure_is_fixed_point(matrix222, f4ring):
    for ring, seed in ((matrix222, [3]), (f4ring, [2])):
        first = reference_ideal_generated(ring, seed, "two-sided")
        again = reference_ideal_generated(ring, first, "two-sided")
        assert first == again


def test_one_sided_ideals(matrix212):
    # row-vector ring: x.g.y = (x.g) y with x.g scalar, so right closure is small
    right = reference_ideal_generated(matrix212, [1], "right")
    two = reference_ideal_generated(matrix212, [1], "two-sided")
    assert set(right) <= set(two)


def test_primeness(matrix222, trivial_z4):
    assert is_prime(matrix222).prime
    rep = is_prime(trivial_z4)
    assert not rep.prime and rep.witness == (1, 1)
    # 64 elements and 2,825 ideals: the verdict comes from the elementwise
    # loop alone, which stops at the first dead pair
    rep = is_prime(trivial_ring(make_group([2] * 6), make_group([2])))
    assert not rep.prime and rep.witness == (1, 1)


def test_primeness_of_direct_product():
    r1 = build_matrix_ring(2, 1, 1)
    prod = direct_product(r1, r1)
    rep = is_prime(prod)
    assert not rep.prime
    a, b = rep.witness
    ra = prod.m_group.element_at(a)
    rb = prod.m_group.element_at(b)
    # witness splits across the two factors
    assert (ra[0] == 0) != (rb[0] == 0)


def test_prime_requires_barnes():
    mu = np.zeros((2, 2, 2), dtype=np.int32)
    mu[1, 1, 0] = 1                          # breaks x.g.(y+z) additivity
    ring = build_table_ring(make_group([2]), make_group([2]), mu)
    with pytest.raises(PreconditionError):
        is_prime(ring)


def test_unities_are_idempotents(matrix222, f4ring, z2scalar):
    # every unity (1, g) satisfies the idempotent relation 1.g.1 = 1
    for ring in (matrix222, f4ring, z2scalar):
        idem = {(r.e, r.gamma) for r in find_idempotents(ring)}
        for u in find_unities(ring):
            assert ring.prod(u.one, u.gamma, u.one) == u.one
            assert (u.one, u.gamma) in idem
            rec = next(r for r in find_idempotents(ring)
                       if (r.e, r.gamma) == (u.one, u.gamma))
            assert not rec.nontrivial


def test_axiom_scan_refuses_over_cap(monkeypatch, matrix222):
    # exact-only contract: oversized scans refuse instead of sampling
    import gammaring.rings as rings_mod
    from gammaring.errors import BudgetExceededError
    assert rings_mod.AXIOM_EVAL_CAP == 2**32
    monkeypatch.setattr(rings_mod, "AXIOM_EVAL_CAP", 1000)
    with pytest.raises(BudgetExceededError):
        check_barnes_axioms(matrix222)


def test_axiom_witness_is_lexicographically_least(matrix222):
    # scramble several entries, then compare against a brute-force least search
    rng = np.random.default_rng(5)
    mu = matrix222.mu.copy()
    for _ in range(6):
        x, g, y = rng.integers(0, 16, size=3)
        mu[x, g, y] = rng.integers(0, 16)
    patched = build_table_ring(matrix222.m_group, matrix222.gamma_group, mu)
    report = {r.axiom: r for r in check_barnes_axioms(patched)}["barnes-iv"]
    assert not report.holds
    want = None
    for x in range(16):
        for a in range(16):
            for y in range(16):
                for b in range(16):
                    for z in range(16):
                        if mu[mu[x, a, y], b, z] != mu[x, a, mu[y, b, z]]:
                            want = {"x": x, "alpha": a, "y": y, "beta": b, "z": z}
                            break
                    if want:
                        break
                if want:
                    break
            if want:
                break
        if want:
            break
    assert report.witness == want

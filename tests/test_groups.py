from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gammaring import is_group_homomorphism, make_group

from conftest import homomorphism_count, homomorphisms


def test_trivial_group():
    g = make_group([])
    assert g.order == 1
    assert g.zero() == ()
    assert g.element_at(0) == ()
    assert g.add((), ()) == ()


def test_order_is_product_of_factors():
    assert make_group([2, 2]).order == 4
    assert make_group([4, 3]).order == 12


def test_z4_arithmetic():
    g = make_group([4])
    assert g.add(g.element_at(3), g.element_at(2)) == g.element_at(1)
    assert g.negate((1,)) == (3,)
    assert g.add((3,), (0,)) == (3,)


def test_z2xz2_componentwise():
    g = make_group([2, 2])
    assert g.add((1, 0), (0, 1)) == (1, 1)
    assert g.negate((1, 1)) == (1, 1)


def test_rejects_bad_factors():
    with pytest.raises(ValueError):
        make_group([1])
    with pytest.raises(ValueError):
        make_group([0, 2])
    with pytest.raises(ValueError):
        make_group([2] * 33)  # order 2^33 over the cap


def test_residue_length_mismatch():
    g = make_group([2, 2])
    with pytest.raises(ValueError):
        g.add((1,), (0, 1))
    with pytest.raises(ValueError):
        g.index_of((1,))


@pytest.mark.parametrize("factors", [[], [2], [4], [2, 2], [3, 2], [4, 2, 2], [16, 16]])
def test_enumeration_bijective(factors):
    g = make_group(factors)
    for i in range(g.order):
        assert g.index_of(g.element_at(i)) == i
    assert g.element_at(0) == g.zero()


@pytest.mark.parametrize("factors", [[4], [2, 2], [8, 2], [4, 4, 4], [16, 16]])
def test_group_laws_exhaustive(factors):
    # full scans on orders up to 256
    g = make_group(factors)
    t = g.add_table
    assert (t == t.T).all()
    assert (t[t] == t[:, t]).all()               # (a+b)+c == a+(b+c)
    assert (t[np.arange(g.order), g.neg_table] == 0).all()
    assert (t[:, 0] == np.arange(g.order)).all()


@given(st.lists(st.integers(2, 6), min_size=0, max_size=3), st.data())
@settings(max_examples=60, deadline=None)
def test_group_laws_random(factors, data):
    g = make_group(factors)
    pick = st.integers(0, g.order - 1)
    a = g.element_at(data.draw(pick))
    b = g.element_at(data.draw(pick))
    c = g.element_at(data.draw(pick))
    assert g.add(a, b) == g.add(b, a)
    assert g.add(g.add(a, b), c) == g.add(a, g.add(b, c))
    assert g.add(a, g.negate(a)) == g.zero()
    assert g.index_of(g.element_at(g.index_of(a))) == g.index_of(a)


def test_homomorphism_identity_and_doubling():
    z4 = make_group([4])
    assert is_group_homomorphism(np.arange(4), z4, z4)
    assert is_group_homomorphism((2 * np.arange(4)) % 4, z4, z4)
    assert not is_group_homomorphism(np.array([0, 2, 1, 3]), z4, z4)


def test_homomorphism_table_size_checked():
    z4 = make_group([4])
    with pytest.raises(ValueError):
        is_group_homomorphism(np.arange(3), z4, z4)
    with pytest.raises(ValueError):
        is_group_homomorphism(np.array([0, 1, 2, 4]), z4, z4)


def test_bijective_homomorphism_count_z2xz2():
    # independent oracle: brute force all 24 bijections with residue arithmetic
    g = make_group([2, 2])

    def additive(perm):
        for a in range(4):
            for b in range(4):
                s = g.index_of(g.add(g.element_at(a), g.element_at(b)))
                t = g.index_of(g.add(g.element_at(perm[a]), g.element_at(perm[b])))
                if perm[s] != t:
                    return False
        return True

    brute = [p for p in permutations(range(4)) if additive(p)]
    assert len(brute) == 6
    for p in permutations(range(4)):
        assert is_group_homomorphism(np.asarray(p), g, g) == additive(p)


SMALL_GROUPS = [[], [2], [3], [4], [2, 2]]


@pytest.mark.parametrize("dom", SMALL_GROUPS, ids=str)
@pytest.mark.parametrize("cod", SMALL_GROUPS, ids=str)
def test_homomorphisms_match_brute_force(dom, cod):
    a, b = make_group(dom), make_group(cod)
    brute = [t for t in product(range(b.order), repeat=a.order)
             if all(t[a.add_index(x, y)] == b.add_index(t[x], t[y])
                    for x in range(a.order) for y in range(a.order))]
    got = [tuple(int(v) for v in h) for h in homomorphisms(a, b)]
    assert sorted(got) == brute and len(set(got)) == len(got)
    assert homomorphism_count(a, b) == len(brute)


@pytest.mark.parametrize("factors, auts, ends", [([8], 4, 8), ([4, 2], 8, 32),
                                                 ([2, 2, 2], 168, 512)])
def test_homomorphism_orders_of_order_8_groups(factors, auts, ends):
    g = make_group(factors)
    tables = list(homomorphisms(g, g))
    assert len(tables) == ends
    assert all(is_group_homomorphism(t, g, g) for t in tables)
    assert sum(np.unique(t).size == g.order for t in tables) == auts

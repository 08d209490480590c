"""The Howell basis of multmaps._howell and the batched cut of multmaps._Span.

_howell must give exactly the rows and pivots of conftest.reference_howell,
the elimination it replaced, and not merely some basis of the same span:
_derivations verifies the basis maps in order and cuts again by a failing
one's witness, so another basis would move the `nodes` a solve reports.
"""

import tracemalloc
from itertools import product

import numpy as np
import pytest

from gammaring import (SearchConfig, build_matrix_ring, build_table_ring, make_group,
                       search_n_derivations, trivial_ring)
from gammaring import multmaps
from gammaring.multmaps import _howell, _Span
from conftest import reference_cut, reference_howell

MODULI = [2, 3, 4, 5, 6, 8, 9, 12]
WIDTHS = [1, 63, 64, 65, 200]


def _assert_reference(a, N):
    rows, pivots = _howell(a, N)
    want_rows, want_pivots = reference_howell(a, N)
    assert rows.dtype == want_rows.dtype and rows.shape == want_rows.shape
    assert np.array_equal(rows, want_rows)
    assert pivots == want_pivots and all(type(c) is int for c in pivots)


def _random_matrix(rng, N, rows, width):
    """Entries in [0, N), zero with a random probability, so sparse and
    dense rows and columns both occur; some entries negative or past N."""
    a = rng.integers(0, N, size=(rows, width)) * (rng.random((rows, width)) < rng.random())
    return a + N * rng.integers(-1, 2, size=a.shape)


@pytest.mark.parametrize("N", MODULI)
def test_howell_matches_the_reference_on_random_matrices(N):
    rng = np.random.default_rng(N)
    for _ in range(60):
        rows, width = int(rng.integers(1, 13)), int(rng.choice([2, 5, 8] + WIDTHS))
        _assert_reference(_random_matrix(rng, N, rows, width), N)


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("N", MODULI)
def test_howell_matches_the_reference_on_edge_shapes(N, width):
    rng = np.random.default_rng(1000 * N + width)
    basis = _random_matrix(rng, N, 3, width)
    mixed = _random_matrix(rng, N, 6, width)
    mixed[[0, 2, 5]] = 0
    for a in [np.zeros((0, width), dtype=np.int64),                  # no rows
              np.zeros((4, width), dtype=np.int64),                  # only zero rows
              mixed,                                                 # zero rows among others
              rng.integers(0, N, size=(9, 3)) @ basis,               # rank at most 3
              np.vstack([basis, basis[::-1], 2 * basis]),            # repeated rows
              _random_matrix(rng, N, width + 5, width)]:             # tall
        _assert_reference(a, N)


def test_howell_memory_stays_small_off_z2():
    # test_derivation_kernel's 600 x 1200 matrix now takes the Z2 path; a
    # pivot row kept as a view of the pool held 62 MiB on this Z3 matrix
    a = np.random.default_rng(0).integers(0, 3, size=(200, 400))
    tracemalloc.start()
    try:
        rows, pivots = _howell(a, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20
    assert rows.shape == (200, 400) and pivots == sorted(set(pivots))


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 1, 3)], ids=["matrix(2,2,2)", "matrix(2,1,3)"])
@pytest.mark.parametrize("n", [2, 3])
def test_howell_matches_the_reference_on_every_solve_call(dims, n, monkeypatch):
    calls = []

    def recorded(a, N):
        calls.append((np.array(a), N))
        return _howell(a, N)

    monkeypatch.setattr(multmaps, "_howell", recorded)
    assert search_n_derivations(build_matrix_ring(*dims), SearchConfig(n=n)).complete
    assert calls and {N for _, N in calls} == {2}
    for a, N in calls:
        _assert_reference(a, N)


@pytest.mark.parametrize("factors", [[2, 2], [2, 2, 2], [3], [3, 3], [4], [4, 4], [6], [6, 6]],
                         ids=lambda f: "x".join(f"Z{d}" for d in f))
def test_the_walk_of_a_howell_basis_lists_its_row_span(factors):
    # the span of the rows of `a`, enumerated as every combination of them,
    # is what the walk of their Howell basis lists: each vector once, in lex
    # order (the group is Z_N^k, so vectors and tables are in one order)
    group = make_group(factors)
    N, width = factors[0], group.order * len(factors)
    rng = np.random.default_rng(sum(factors) * len(factors))
    for _ in range(12):
        a = _random_matrix(rng, N, int(rng.integers(0, 5)), width)
        if len(a) > 1 and rng.random() < 0.5:
            a[-1] = (a[0] + (N - 1) * a[1]) % N                   # rank deficient
        lams = np.array(list(product(range(N), repeat=len(a))), dtype=np.int64)
        span = {tuple(v) for v in lams.reshape(len(lams), len(a)) @ a % N}
        basis = _Span(group, *_howell(a, N))
        tables = list(basis.walk())
        assert basis.count == len(tables) == len(span)
        assert np.array_equal(np.array(tables), basis.tables(np.array(sorted(span))))


def _cut_rings():
    return {"trivial(Z6)": trivial_ring(make_group([6]), make_group([2])),
            "Z6-times-3": build_table_ring(make_group([6]), make_group([2]), np.fromfunction(
                lambda x, g, y: 3 * x * g * y % 6, (6, 2, 6), dtype=np.int64)),
            "matrix(3,1,2)": build_matrix_ring(3, 1, 2),
            "matrix(2,2,2)": build_matrix_ring(2, 2, 2)}


def _row_additivity(group):
    """The additivity defect of one table, as _Span.additive took it."""
    add = group.add_table
    return lambda d: group.sub_index_array(d[add], add[d[:, None], d[None, :]])


def _same_span(got, want, span):
    assert (got is span) == (want is span)
    assert np.array_equal(got.rows, want.rows) and got.pivots == want.pivots


@pytest.mark.parametrize("name", sorted(_cut_rings()))
@pytest.mark.parametrize("n", [2, 3])
def test_a_batched_cut_matches_per_row_evaluation(name, n, monkeypatch):
    ring = _cut_rings()[name]
    cuts, cut = [], _Span.cut

    def recorded(span, defect):
        cuts.append((span, defect))
        return cut(span, defect)

    monkeypatch.setattr(_Span, "cut", recorded)
    assert search_n_derivations(ring, SearchConfig(n=n)).complete
    monkeypatch.setattr(_Span, "cut", cut)
    assert cuts
    for span, defect in cuts:
        _same_span(span.cut(defect), reference_cut(span, defect), span)
        _same_span(span.additive(), reference_cut(span, _row_additivity(ring.m_group)), span)
    # additive in blocks of one and of three rows gives the same span
    span = cuts[0][0]
    for rows in (1, 3):
        monkeypatch.setattr("gammaring.rings._CHUNK_ELEMS", rows * ring.m_order**2)
        _same_span(span.additive(), reference_cut(span, _row_additivity(ring.m_group)), span)


@pytest.mark.parametrize("factors", [[2, 2], [3, 3], [4], [6]],
                         ids=lambda f: "x".join(f"Z{d}" for d in f))
def test_a_cut_matches_the_reference_on_any_defect(factors):
    # any map of tables to elements will do: cut must give the reference's
    # rows however often a tuple's defects repeat, and in whatever order
    group = make_group(factors)
    m = group.order
    rng = np.random.default_rng(m)
    full = _Span(group, None, None)
    for _ in range(20):
        span = _Span(group, *_howell(full.rows[rng.random(len(full.rows)) < 0.7], full.N))
        xs, ys = rng.integers(0, m, size=(2, int(rng.integers(1, 40))))

        def defect(d):
            return (d[..., xs] * (m - 1) + d[..., ys] * (d[..., ys] > d[..., xs])) % m

        _same_span(span.cut(defect), reference_cut(span, defect), span)


def test_a_span_with_no_rows_is_cut_without_evaluating():
    group = make_group([2, 2])
    empty = _Span(group, np.zeros((0, 8), dtype=np.int64), [])

    def defect(d):
        raise AssertionError("a span with no rows evaluated its defect")

    assert empty.cut(defect) is empty and empty.additive() is empty
    assert empty.count == 1 and [t.tolist() for t in empty.walk()] == [[0, 0, 0, 0]]


@pytest.mark.parametrize("dims", [(2, 2, 3), (3, 2, 2)], ids=["matrix(2,2,3)", "matrix(3,2,2)"])
def test_the_n2_solve_charges_as_before(dims):
    # one derivation, complete, and the node count the pool-rewriting
    # elimination and the per-row cut gave
    res = search_n_derivations(build_matrix_ring(*dims), SearchConfig(n=2))
    assert (len(res.found), res.complete, res.nodes) == (1, True, 512)

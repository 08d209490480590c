"""Derivations as the kernel of the Leibniz equations: pinned listings and oracles.

PINNED holds (count, sha256 of the JSON list of sorted `found` keys) of
`search_n_derivations` at the default budget, at n = 2 and 3.  The values
were recorded from the complete backtracking derivation search, before the
exact kernel solve replaced it, so they hold the kernel's listings to that
search's.  The other tests are oracles that need no recorded values: the
opposite ring, relabelling by a group automorphism, and closure under sums.
"""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from gammaring import (DerivationTable, SearchConfig, build_matrix_ring, build_table_ring,
                       direct_product, document_dict, emit_grdf, hunt_counterexamples,
                       make_group, matrix_ring_family, search_n_derivations, trivial_ring,
                       trivial_ring_family, verify_n_derivation)
from gammaring.cli import main
from gammaring.multmaps import _howell


def _scalar(mod):
    """M = Gamma = Z_mod with x.g.y = x g y mod mod."""
    mu = np.fromfunction(lambda x, g, y: x * g * y % mod, (mod,) * 3, dtype=np.int64)
    return build_table_ring(make_group([mod]), make_group([mod]), mu)


def _z3_diagonal():
    """Diagonal 2x2 matrices over Z3: componentwise x g y on Z3 x Z3."""
    grp = make_group([3, 3])
    r = grp.residues
    prod = r[:, None, None, :] * r[None, :, None, :] * r[None, None, :, :] % 3
    return build_table_ring(grp, grp, prod @ np.array([3, 1]))


@pytest.fixture(scope="module")
def pinned_rings():
    return dict(trivial_ring_family(6) + matrix_ring_family(2, 4) + matrix_ring_family(3, 2)
                + [("Z3-scalar", _scalar(3)), ("Z3-diagonal", _z3_diagonal()),
                   ("matrix(4,1,1)", build_matrix_ring(4, 1, 1))])


PINNED = {
    ("trivial(Z2)", 2): (2, "a6cea289ce74ee858317f8c04a3f46f86555fc02fdb98b80ae216ec10789e825"),
    ("trivial(Z2)", 3): (2, "a6cea289ce74ee858317f8c04a3f46f86555fc02fdb98b80ae216ec10789e825"),
    ("trivial(Z3)", 2): (9, "0fd9265fdc793ac808f40c84bd118cd6e60b44df18607e5f0eed4b53438f36f7"),
    ("trivial(Z3)", 3): (9, "0fd9265fdc793ac808f40c84bd118cd6e60b44df18607e5f0eed4b53438f36f7"),
    ("trivial(Z4)", 2): (64, "c347014a0839ef3a01a019a923ceeb41cc8431ce9509d54abb7381dc69ccc1dd"),
    ("trivial(Z4)", 3): (64, "c347014a0839ef3a01a019a923ceeb41cc8431ce9509d54abb7381dc69ccc1dd"),
    ("trivial(Z2xZ2)", 2): (64, "c347014a0839ef3a01a019a923ceeb41cc8431ce9509d54abb7381dc69ccc1dd"),
    ("trivial(Z2xZ2)", 3): (64, "c347014a0839ef3a01a019a923ceeb41cc8431ce9509d54abb7381dc69ccc1dd"),
    ("trivial(Z5)", 2): (625, "7cf37c0bac89b6e0a38f2bfc507c40b320d1c02660ef9d901e52c7b867e7ffb1"),
    ("trivial(Z5)", 3): (625, "7cf37c0bac89b6e0a38f2bfc507c40b320d1c02660ef9d901e52c7b867e7ffb1"),
    ("trivial(Z6)", 2): (7776, "04ea591481ff0f1eb51833a9263a5cb85e5ec998b5fe3e952c1fef83a8c1ae0e"),
    ("trivial(Z6)", 3): (7776, "04ea591481ff0f1eb51833a9263a5cb85e5ec998b5fe3e952c1fef83a8c1ae0e"),
    ("trivial(Z3xZ2)", 2): (7776, "04ea591481ff0f1eb51833a9263a5cb85e5ec998b5fe3e952c1fef83a8c1ae0e"),
    ("trivial(Z3xZ2)", 3): (7776, "04ea591481ff0f1eb51833a9263a5cb85e5ec998b5fe3e952c1fef83a8c1ae0e"),
    ("matrix(2,1,1)", 2): (1, "54702df08034f226a491326f9db7df30b2ebd13cd1521bfb0633c1e73fa32123"),
    ("matrix(2,1,1)", 3): (2, "a6cea289ce74ee858317f8c04a3f46f86555fc02fdb98b80ae216ec10789e825"),
    ("matrix(2,1,2)", 2): (1, "fc7f35e853cc00816bea4984e3d202adbe27f5859fdfee7e02368f2107bb7add"),
    ("matrix(2,1,2)", 3): (2, "2d8f4dab367a4146b5177340fe422a2911c90ac06da9667fac5d0469b3d14d72"),
    ("matrix(2,2,1)", 2): (1, "fc7f35e853cc00816bea4984e3d202adbe27f5859fdfee7e02368f2107bb7add"),
    ("matrix(2,2,1)", 3): (2, "2d8f4dab367a4146b5177340fe422a2911c90ac06da9667fac5d0469b3d14d72"),
    ("matrix(2,1,3)", 2): (1, "28c7fddb3148a53c025366651abb043ea6e790ff91b6970f376179054108ee50"),
    ("matrix(2,1,3)", 3): (2, "4d93cda31097d37ae6de30c6e36c791f2fcbadff1e5ed9405ea48a8e87fd7329"),
    ("matrix(2,3,1)", 2): (1, "28c7fddb3148a53c025366651abb043ea6e790ff91b6970f376179054108ee50"),
    ("matrix(2,3,1)", 3): (2, "4d93cda31097d37ae6de30c6e36c791f2fcbadff1e5ed9405ea48a8e87fd7329"),
    ("matrix(2,1,4)", 2): (1, "8b93a260efc6de920431f15756ace18d5da18b2a1deac783a111b4beb5876b6d"),
    ("matrix(2,1,4)", 3): (2, "310e93dc05b357a0346276fc500834217641e5e4b7b28e19bdcfef473d8aad96"),
    ("matrix(2,2,2)", 2): (1, "8b93a260efc6de920431f15756ace18d5da18b2a1deac783a111b4beb5876b6d"),
    ("matrix(2,2,2)", 3): (2, "310e93dc05b357a0346276fc500834217641e5e4b7b28e19bdcfef473d8aad96"),
    ("matrix(2,4,1)", 2): (1, "8b93a260efc6de920431f15756ace18d5da18b2a1deac783a111b4beb5876b6d"),
    ("matrix(2,4,1)", 3): (2, "310e93dc05b357a0346276fc500834217641e5e4b7b28e19bdcfef473d8aad96"),
    ("matrix(3,1,1)", 2): (1, "ec5183f764f81ac270455f3cc9a292208116b131dd77be58e4b0cb183297ae84"),
    ("matrix(3,1,1)", 3): (1, "ec5183f764f81ac270455f3cc9a292208116b131dd77be58e4b0cb183297ae84"),
    ("matrix(3,1,2)", 2): (1, "c81e626ba4f7e9ffc5ddb1ae7fc6bd3e888c5ca420d23799c1a848533cc520a8"),
    ("matrix(3,1,2)", 3): (1, "c81e626ba4f7e9ffc5ddb1ae7fc6bd3e888c5ca420d23799c1a848533cc520a8"),
    ("matrix(3,2,1)", 2): (1, "c81e626ba4f7e9ffc5ddb1ae7fc6bd3e888c5ca420d23799c1a848533cc520a8"),
    ("matrix(3,2,1)", 3): (1, "c81e626ba4f7e9ffc5ddb1ae7fc6bd3e888c5ca420d23799c1a848533cc520a8"),
    ("Z3-scalar", 2): (1, "ec5183f764f81ac270455f3cc9a292208116b131dd77be58e4b0cb183297ae84"),
    ("Z3-scalar", 3): (1, "ec5183f764f81ac270455f3cc9a292208116b131dd77be58e4b0cb183297ae84"),
    ("Z3-diagonal", 2): (1, "c81e626ba4f7e9ffc5ddb1ae7fc6bd3e888c5ca420d23799c1a848533cc520a8"),
    ("Z3-diagonal", 3): (1, "c81e626ba4f7e9ffc5ddb1ae7fc6bd3e888c5ca420d23799c1a848533cc520a8"),
    ("matrix(4,1,1)", 2): (1, "fc7f35e853cc00816bea4984e3d202adbe27f5859fdfee7e02368f2107bb7add"),
    ("matrix(4,1,1)", 3): (2, "1ddaecc9d820659a7939c2313de6e1449b77afef869659a39d1f3e07673f1dcd"),
}


def _digest(found):
    return hashlib.sha256(json.dumps(sorted(d.key() for d in found)).encode()).hexdigest()


@pytest.mark.parametrize("name, n", sorted(PINNED), ids=[f"{k}-{n}" for k, n in sorted(PINNED)])
def test_derivation_listing_is_pinned(name, n, pinned_rings):
    res = search_n_derivations(pinned_rings[name], SearchConfig(n=n))
    assert res.complete
    assert [d.key() for d in res.found] == sorted(d.key() for d in res.found)
    assert (len(res.found), _digest(res.found)) == PINNED[(name, n)]


def _opposite(ring):
    return build_table_ring(ring.m_group, ring.gamma_group, ring.mu.transpose(2, 1, 0))


def _relabel(ring, sigma):
    """The ring carried along an automorphism sigma of M (an index table)."""
    mu = np.empty_like(ring.mu)
    mu[sigma[:, None, None], np.arange(ring.gamma_order)[None, :, None],
       sigma[None, None, :]] = sigma[ring.mu]
    return build_table_ring(ring.m_group, ring.gamma_group, mu)


def _shear(group):
    """(a1, a2, ...) -> (a1 + a2, a2, ...), for two equal leading factors."""
    res = group.residues.copy()
    res[:, 0] = (res[:, 0] + res[:, 1]) % group.factors[0]
    return np.array([group.index_of(tuple(r)) for r in res])


def _keys(ring, n):
    res = search_n_derivations(ring, SearchConfig(n=n))
    assert res.complete
    return [d.key() for d in res.found]


ORACLE_RINGS = {
    "matrix(2,1,2)": lambda: build_matrix_ring(2, 1, 2),
    "matrix(2,2,2)": lambda: build_matrix_ring(2, 2, 2),
    "matrix(3,1,2)": lambda: build_matrix_ring(3, 1, 2),
    "matrix(2,1,2)xtrivial(Z2)": lambda: direct_product(
        build_matrix_ring(2, 1, 2), trivial_ring(make_group([2]), make_group([2]))),
    "trivial(Z2xZ2)": lambda: trivial_ring(make_group([2, 2]), make_group([2])),
}


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("name", sorted(ORACLE_RINGS))
def test_opposite_ring_has_the_same_derivations(name, n):
    ring = ORACLE_RINGS[name]()
    assert _keys(_opposite(ring), n) == _keys(ring, n)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("name", sorted(ORACLE_RINGS))
def test_relabelling_carries_the_derivations_along(name, n):
    ring = ORACLE_RINGS[name]()
    sigma = _shear(ring.m_group)
    assert not np.array_equal(sigma, np.arange(ring.m_order))
    moved = []
    for d in _keys(ring, n):
        t = np.empty(ring.m_order, dtype=np.int64)
        t[sigma] = sigma[np.asarray(d)]              # d' = sigma d sigma^-1
        moved.append(tuple(int(v) for v in t))
    assert _keys(_relabel(ring, sigma), n) == sorted(moved)


@pytest.mark.parametrize("ring", [
    trivial_ring(make_group([4]), make_group([2])),
    direct_product(build_matrix_ring(2, 1, 2), trivial_ring(make_group([2]), make_group([2]))),
    build_table_ring(make_group([6]), make_group([2]),
                     np.fromfunction(lambda x, g, y: 3 * x * g * y % 6, (6, 2, 6), dtype=np.int64)),
], ids=["trivial(Z4)", "matrix(2,1,2)xtrivial(Z2)", "Z6-times-3"])
def test_sums_of_derivations_are_derivations(ring):
    found = search_n_derivations(ring, SearchConfig(n=2)).found
    assert len(found) > 2
    keys = {d.key() for d in found}
    add = ring.m_group.add_table
    for a in found[:12]:
        for b in found[:12]:
            s = add[a.d, b.d]
            assert tuple(int(v) for v in s) in keys
    total = add[found[1].d, found[-1].d]
    assert verify_n_derivation(DerivationTable(ring, total), 2).exact_pass


def test_a_budgeted_listing_is_a_prefix_of_the_complete_one():
    # the budget counts tuples evaluated, maps verified and maps listed; a
    # run that runs out reports budget + 1 and the first maps in table order
    ring = trivial_ring(make_group([4]), make_group([2]))
    full = search_n_derivations(ring, SearchConfig(n=2))
    keys = [d.key() for d in full.found]
    assert full.complete and len(keys) == 64
    for budget in range(1, full.nodes + 1):
        res = search_n_derivations(ring, SearchConfig(n=2, budget=budget))
        got = [d.key() for d in res.found]
        assert got == keys[:len(got)]
        assert res.complete == (budget == full.nodes)
        assert res.nodes == (full.nodes if res.complete else budget + 1)
    assert len(got) == 64


def test_hunt_counts_every_derivation_of_a_large_trivial_ring():
    # every map with d(0) = 0 is a derivation of a zero-product ring, 8^7 of
    # them on Z2 x Z4; the additive ones are End(Z2 x Z4), of order 2*2*2*4
    ring = trivial_ring(make_group([2, 4]), make_group([2]))
    e = hunt_counterexamples([("trivial(Z2xZ4)", ring)], n=2, budget=40_000).entries[0]
    assert (e.deriv_found, e.deriv_additive, e.deriv_complete) == (8**7, 32, True)


def test_howell_basis_memory_stays_small():
    # each pivot row is copied out of the rows still to reduce: a view of
    # them kept every superseded pool alive, a 1,656 MiB peak on this matrix
    a = np.random.default_rng(0).integers(0, 2, size=(600, 1200))
    tracemalloc.start()
    try:
        rows, pivots = _howell(a, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20
    # full rank over Z2: one row per pivot, each 0 before its pivot and 1 there
    assert rows.shape == (600, 1200) and pivots == sorted(set(pivots))
    cols = np.arange(1200)
    assert all(not row[cols < c].any() and row[c] == 1 for row, c in zip(rows, pivots))


@pytest.mark.parametrize("command, dims, n", [("search-derivations", (2, 2, 2), 9),
                                              ("search-derivations", (2, 1, 1), 32),
                                              ("hunt", (2, 2, 2), 9)],
                         ids=["search-m222-9", "search-m211-32", "hunt-m222-9"])
def test_tuple_positions_past_int64(command, dims, n, tmp_path, capsys):
    # m^n g^(n-1) is 2^68 and 2^63 tuples, past int64
    ring = build_matrix_ring(*dims)
    assert ring.m_order**n * ring.gamma_order**(n - 1) >= 2**63
    path = tmp_path / "ring.json"
    path.write_text(emit_grdf(document_dict(ring)))
    assert main([command, "--input", str(path), "--n", str(n), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    if command == "hunt":
        assert report["survey"][0]["derivations"] == {"found": 2, "additive": 2,
                                                      "complete": True}
        return
    keys = [tuple(e["d"]) for e in report["derivations"]]
    for key in keys:
        rep = verify_n_derivation(DerivationTable(ring, np.array(key)), n)
        assert rep.passed and rep.exact
    # over Z2 the identity gives n P = P at odd n and 0 at even n
    m = ring.m_order
    assert keys == [(0,) * m] + ([tuple(range(m))] if n % 2 else [])

"""Generator-reduced axiom and frame scans against brute force.

A scan decides a pass on generator tuples and rescans a failure in full.  The
references here build every tuple at once with numpy and take the first
mismatch, so a reduced pass that hides a failure, or a witness that is not the
lexicographically least, shows as a difference.  The mutations plant one bad
entry where no slot holds a generator, which the generator tuples alone never
read.
"""

import numpy as np
import pytest

import gammaring.rings as rings_mod
from gammaring import (build_matrix_ring, build_table_ring, canonical_frames,
                       check_barnes_axioms, check_nobusawa, direct_product, make_group,
                       matrix_ring_family, trivial_ring, trivial_ring_family, validate_frame)
from gammaring.groups import is_group_homomorphism
from gammaring.peirce import IdempotentFrame
from gammaring.rings import _associativity, _first, _witness
from conftest import _gamma_distrib, _left_distrib, _right_distrib
from test_derivation_kernel import _scalar, _z3_diagonal
from test_theorem import QUOTIENT_RINGS

NAMES5 = ("x", "alpha", "y", "beta", "z")


def _lex(names, neq):
    return _witness(names, _first(neq))


def _reference_barnes(ring):
    """Lex-least witness of each Barnes identity, from full tuple arrays."""
    mu, addm, addg = ring.mu, ring.m_group.add_table, ring.gamma_group.add_table
    return {
        "right": _lex(("x", "y", "alpha", "z"), mu[addm] != addm[mu[:, None], mu[None, :]]),
        "left": _lex(("x", "alpha", "y", "z"),
                     mu[:, :, addm] != addm[mu[:, :, :, None], mu[:, :, None, :]]),
        "gamma": _lex(("x", "alpha", "beta", "y"),
                      mu[:, addg] != addm[mu[:, :, None], mu[:, None]]),
        "assoc": _lex(NAMES5, mu[mu] != mu[:, :, mu]),
    }


def _reference_nu(ring):
    """Lex-least (x, a, y, b, z) with x.a.(y.b.z) != x.(a.y.b).z, or None."""
    mu, nu = ring.mu, ring.nu
    m = np.arange(ring.m_order)
    rhs = mu[m[:, None, None, None, None], nu[None, :, :, :, None], m[None, None, None, None, :]]
    return _lex(NAMES5, mu[:, :, mu] != rhs)


def _reference_frame(frame):
    """(invariant, lex-least witness) of the three frame scans that fail."""
    mu, addm = frame.ring.mu, frame.ring.m_group.add_table
    lf, rf = frame.left_f, frame.right_f
    scans = (
        ("left-additivity", _lex(("beta", "x", "y"),
                                 lf[:, addm] != addm[lf[:, :, None], lf[:, None, :]])),
        ("right-additivity", _lex(("x", "y", "beta"),
                                  rf[addm, :] != addm[rf[:, None, :], rf[None, :, :]])),
        ("frame-associativity", _lex(("a", "beta", "gamma", "b"), mu[rf] != mu[:, :, lf])),
    )
    return [(name, w) for name, w in scans if w is not None]


def _frame_scans(frame):
    names = {"left-additivity", "right-additivity", "frame-associativity"}
    return [(v.invariant, v.witness) for v in validate_frame(frame) if v.invariant in names]


def _linear_table(rng, group, rows):
    """`rows` random Z2-linear maps of group = Z2^k, as a (rows, |group|) index table."""
    k = len(group.factors)
    mats = rng.integers(0, 2, size=(rows, k, k))
    images = np.einsum("xi,rij->rxj", group.residues, mats) % 2
    return images @ group.generators


def _trilinear_ring(seed, density):
    """A random Z2-trilinear product Z2^3 x Z2^2 x Z2^3 -> Z2^3 with a zero nu."""
    m, g = make_group([2, 2, 2]), make_group([2, 2])
    coeff = np.random.default_rng(seed).random((3, 2, 3, 3)) < density
    vals = np.einsum("xi,gj,yk,ijkl->xgyl", m.residues, g.residues, m.residues, coeff) % 2
    return build_table_ring(m, g, vals @ m.generators, np.zeros((4, 8, 4), dtype=np.int32))


TRILINEAR = [(f"trilinear({seed},{density})", _trilinear_ring(seed, density))
             for seed in range(4) for density in (0.02, 0.05, 0.5)]

RINGS = (
    [("trivial(Z2xZ4)", trivial_ring(make_group([2, 4]), make_group([2, 4]))),
     ("Z4-scalar x trivial(Z2)", direct_product(_scalar(4),
                                                trivial_ring(make_group([2]), make_group([2])))),
     ("Z3-scalar", _scalar(3)), ("Z3-diagonal", _z3_diagonal()),
     # a trivial group has no generators: additivity there is t(0) = 0 alone
     ("Z2 product, Gamma = 0", build_table_ring(make_group([2]), make_group([]),
                                                [[[0, 0]], [[0, 1]]])),
     ("matrix(2,1,1) x trivial(M = 0)", direct_product(
         build_matrix_ring(2, 1, 1), trivial_ring(make_group([]), make_group([2]))))]
    + matrix_ring_family(3, 2) + matrix_ring_family(2, 4) + trivial_ring_family(6)
    + QUOTIENT_RINGS + TRILINEAR)


def test_trilinear_rings_are_both_associative_and_not():
    verdicts = {check_barnes_axioms(ring)[2].holds for _, ring in TRILINEAR}
    assert verdicts == {True, False}


@pytest.mark.parametrize("name,ring", RINGS, ids=[name for name, _ in RINGS])
def test_axiom_scans_match_brute_force(name, ring):
    ref = _reference_barnes(ring)
    m, g = ring.m_order, ring.gamma_order
    assert _right_distrib(ring) == (ref["right"], m * m * g * m)
    assert _left_distrib(ring) == (ref["left"], m * g * m * m)
    assert _gamma_distrib(ring) == (ref["gamma"], m * g * g * m)
    assert _associativity(ring) == (ref["assoc"], m**3 * g**2)

    distrib = ref["right"] or ref["left"]
    reports = check_barnes_axioms(ring)
    assert [(r.holds, r.witness) for r in reports] == [
        (distrib is None, distrib), (ref["gamma"] is None, ref["gamma"]),
        (ref["assoc"] is None, ref["assoc"])]
    assert reports[2].checked == m**3 * g**2

    if ring.nu is not None:
        nob = check_nobusawa(ring)[1]
        want = ref["assoc"] or _reference_nu(ring)
        checked = m**3 * g**2 * (1 if ref["assoc"] else 2)
        assert (nob.holds, nob.witness, nob.checked) == (want is None, want, checked)


@pytest.mark.parametrize("name,ring", RINGS, ids=[name for name, _ in RINGS])
def test_frame_scans_match_brute_force(name, ring):
    """Canonical frames, and random Z2-linear complement tables where M = Z2^k."""
    frames = canonical_frames(ring) if ring.barnes_verified else []
    if set(ring.m_group.factors) == {2}:
        rng = np.random.default_rng(len(name))
        m, g = ring.m_order, ring.gamma_order
        for _ in range(3):
            left = _linear_table(rng, ring.m_group, g)
            right = _linear_table(rng, ring.m_group, g).T
            frames.append(IdempotentFrame(ring, 0, 0, left, right))
            frames.append(IdempotentFrame(ring, 0, 0, left, rng.integers(0, m, size=(m, g))))
    for frame in frames:
        assert _frame_scans(frame) == _reference_frame(frame)


@pytest.mark.parametrize("name,ring", RINGS, ids=[name for name, _ in RINGS])
def test_chunked_frame_scans_match_the_whole_array(name, ring, monkeypatch):
    """Random complement tables, each full scan one first-slot value per chunk."""
    monkeypatch.setattr(rings_mod, "_CHUNK_ELEMS", 1)
    rng = np.random.default_rng(len(name) + 1)
    m, g = ring.m_order, ring.gamma_order
    frames = []
    for _ in range(3):
        left, right = rng.integers(0, m, size=(g, m)), rng.integers(0, m, size=(m, g))
        left[:, 0] = right[0, :] = 0             # no witness at the zero element
        frames.append(IdempotentFrame(ring, 0, 0, left, right))
    if set(ring.m_group.factors) == {2}:
        # additive tables with their last entry moved: left-additivity first
        # fails in the last chunk
        add, e = ring.m_group.add_table, ring.m_group.generators[0]
        left = _linear_table(rng, ring.m_group, g)
        right = _linear_table(rng, ring.m_group, g).T.copy()
        left[-1, -1], right[-1, -1] = add[left[-1, -1], e], add[right[-1, -1], e]
        frames.append(IdempotentFrame(ring, 0, 0, left, right))
    for frame in frames:
        assert _frame_scans(frame) == _reference_frame(frame)


def _planted(table, at, order):
    bad = table.copy()
    bad[at] = (bad[at] + 1) % order
    return bad


MUTATION_RINGS = {"matrix(2,2,2)": build_matrix_ring(2, 2, 2),
                  "Z4-scalar x trivial(Z2)": dict(RINGS)["Z4-scalar x trivial(Z2)"]}
# no generator in any slot: M2(Z2) has generators 1, 2, 4, 8; Z4 x Z2 has 2 and 1
MU_AT = {"matrix(2,2,2)": (3, 5, 7), "Z4-scalar x trivial(Z2)": (6, 3, 4)}


@pytest.mark.parametrize("name", sorted(MUTATION_RINGS))
def test_planted_mu_entry_fails_every_scan(name):
    ring = MUTATION_RINGS[name]
    assert ring.barnes_verified
    bad_mu = _planted(ring.mu, MU_AT[name], ring.m_order)
    bad = build_table_ring(ring.m_group, ring.gamma_group, bad_mu)
    ref = _reference_barnes(bad)
    assert None not in ref.values()
    assert _right_distrib(bad)[0] == ref["right"]
    assert _left_distrib(bad)[0] == ref["left"]
    assert _gamma_distrib(bad)[0] == ref["gamma"]
    assert check_barnes_axioms(bad)[2].witness == ref["assoc"]


def test_planted_nu_entry_fails_the_nu_identity():
    ring = MUTATION_RINGS["matrix(2,2,2)"]
    bad_nu = _planted(ring.nu, (5, 3, 6), ring.gamma_order)
    bad = build_table_ring(ring.m_group, ring.gamma_group, ring.mu, bad_nu)
    want = _reference_nu(bad)
    assert want is not None
    nob = check_nobusawa(bad)[1]
    assert (nob.identity, nob.witness) == ("x.a.(y.b.z) = x.(a.y.b).z", want)


@pytest.mark.parametrize("table,at", [("left_f", (6, 3)), ("right_f", (3, 6)),
                                      ("left_f", (5, 6)), ("right_f", (7, 5))])
def test_planted_frame_entry_fails_its_scans(table, at):
    ring = MUTATION_RINGS["matrix(2,2,2)"]
    frame = canonical_frames(ring)[0]
    tables = {"left_f": frame.left_f, "right_f": frame.right_f}
    tables[table] = _planted(tables[table], at, ring.m_order)
    bad = IdempotentFrame(ring, frame.e, frame.gamma1, tables["left_f"], tables["right_f"])
    want = _reference_frame(bad)
    additivity = "left-additivity" if table == "left_f" else "right-additivity"
    assert [name for name, _ in want] == [additivity, "frame-associativity"]
    assert [(v.invariant, v.witness) for v in validate_frame(bad)] == want


def _linear_map(rng, dom, cod, wrong_order):
    """x -> sum_i x_i v_i as an index table, each v_i of order dividing that of
    the i-th generator of dom, or any element of cod when wrong_order."""
    res, mods = cod.residues, np.asarray(cod.factors, dtype=np.int64)
    images = [rng.integers(cod.order) if wrong_order
              else rng.choice(np.flatnonzero(((res * d) % mods == 0).all(axis=1)))
              for d in dom.factors]
    return ((dom.residues @ res[np.array(images, dtype=np.int64)]) % mods) @ cod.generators


@pytest.mark.parametrize("cod", [[2], [4], [6]], ids=str)
@pytest.mark.parametrize("dom", [[], [2, 2], [4, 2], [3], [2, 2, 2]], ids=str)
def test_additive_in_matches_the_homomorphism_oracle(dom, cod):
    """Random (2, 3)-families of maps dom -> cod, stacked in each slot of a
    three-slot table: additive in that slot exactly when every map is a
    homomorphism.  The maps are homomorphisms, the same with one entry
    replaced, sums of generator images of the wrong order (x -> x v on
    Z2 -> Z4 with v of order 4 respects adding generators up to the last
    residue, and fails only 2 v = 0), or random tables."""
    dom, cod = make_group(dom), make_group(cod)
    rng = np.random.default_rng(len(dom.factors) * 10 + cod.order)
    seen = set()
    for trial in range(96):
        axis, kind = trial % 3, trial // 3 % 4
        maps = []
        for _ in range(6):
            t = _linear_map(rng, dom, cod, wrong_order=kind == 2)
            if kind == 1:
                t[rng.integers(dom.order)] = rng.integers(cod.order)
            elif kind == 3:
                t = rng.integers(0, cod.order, size=dom.order)
            maps.append(t)
        table = np.moveaxis(np.array(maps).reshape(2, 3, dom.order), 2, axis)
        want = all(is_group_homomorphism(t, dom, cod) for t in maps)
        got = rings_mod._additive_in(table, axis, dom, cod.add_table,
                                     rings_mod._Meter(float("inf")), "oracle")
        assert got == want, (axis, kind, maps)
        seen.add(want)
    assert seen == {True, False}


def test_a_generator_image_of_the_wrong_order_is_not_additive():
    z2, z4 = make_group([2]), make_group([4])
    assert not rings_mod._additive_in(np.array([0, 1]), 0, z2, z4.add_table,
                                      rings_mod._Meter(float("inf")), "oracle")

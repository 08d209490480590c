import contextlib
import io
import tracemalloc

import numpy as np
import pytest

import gammaring.rings as rings_mod
from gammaring import (canonical_frame, canonical_frames, check_condition_ii,
                       check_condition_iii, check_condition_iv, check_martindale_family,
                       check_peirce_relations, custom_frame, document_dict, emit_grdf,
                       make_group, peirce_decompose, trivial_ring, validate_frame)
from gammaring.cli import main
from gammaring.errors import FrameValidationError
from gammaring.peirce import IdempotentFrame
from gammaring.rings import _first, _witness

from conftest import gidx, midx


@pytest.fixture(scope="module")
def frame(matrix222):
    e11 = midx(matrix222, (1, 0), (0, 0))
    i = gidx(matrix222, (1, 0), (0, 1))
    one = midx(matrix222, (1, 0), (0, 1))
    return canonical_frame(matrix222, e11, i, one)


def test_canonical_frame_values(matrix222, frame):
    e21 = midx(matrix222, (0, 0), (1, 0))
    e12 = midx(matrix222, (0, 1), (0, 0))
    i = frame.gamma1
    assert frame.left_f[i, e21] == e21      # E21 - E11.I.E21 = E21
    assert frame.left_f[i, e12] == 0        # E12 - E11.I.E12 = 0
    assert frame.left_f[i, frame.e] == 0    # complement kills the idempotent
    assert validate_frame(frame) == []


def test_canonical_frame_requires_unity_and_idempotent(matrix222):
    e11 = midx(matrix222, (1, 0), (0, 0))
    i = gidx(matrix222, (1, 0), (0, 1))
    one = midx(matrix222, (1, 0), (0, 1))
    with pytest.raises(ValueError):
        canonical_frame(matrix222, e11, i, e11)       # E11 is not a unity
    with pytest.raises(ValueError):
        canonical_frame(matrix222, one, i, one)       # unity is a trivial idempotent
    e12 = midx(matrix222, (0, 1), (0, 0))
    with pytest.raises(ValueError):
        canonical_frame(matrix222, e12, i, one)       # E12 is not idempotent


def test_custom_frame_accepts_canonical_tables(matrix222, frame):
    again = custom_frame(matrix222, frame.e, frame.gamma1, frame.left_f, frame.right_f)
    assert validate_frame(again) == []


def test_naive_extension_fails_frame_associativity(matrix222, frame):
    # left_f(b, a) = a - e.b.a for every b only works at b = gamma1
    idx = np.arange(16)
    mg = matrix222.m_group
    naive_lf = mg.sub_index_array(np.broadcast_to(idx, (16, 16)), matrix222.mu[frame.e])
    naive_rf = mg.sub_index_array(np.broadcast_to(idx[:, None], (16, 16)),
                                  matrix222.mu[:, :, frame.e])
    with pytest.raises(FrameValidationError) as exc:
        custom_frame(matrix222, frame.e, frame.gamma1, naive_lf, naive_rf)
    assert any(v.invariant == "frame-associativity" for v in exc.value.violations)


def test_non_additive_entry_rejected(matrix222, frame):
    lf = frame.left_f.copy()
    beta = 0 if frame.gamma1 != 0 else 1
    lf[beta, 3] = (lf[beta, 3] + 1) % 16
    with pytest.raises(FrameValidationError) as exc:
        custom_frame(matrix222, frame.e, frame.gamma1, lf, frame.right_f)
    assert any(v.invariant == "left-additivity" for v in exc.value.violations)


def test_projection_values(matrix222, frame):
    pc = peirce_decompose(frame)
    e12 = midx(matrix222, (0, 1), (0, 0))
    assert pc.projections[(1, 1)][e12] == 0
    assert pc.projections[(1, 2)][e12] == e12
    assert pc.projections[(1, 1)][frame.e] == frame.e


def test_component_sizes(matrix222, frame):
    pc = peirce_decompose(frame)
    sizes = pc.sizes()
    assert sizes == {(1, 1): 2, (1, 2): 2, (2, 1): 2, (2, 2): 2}
    assert np.prod(list(sizes.values())) == matrix222.m_order


def test_projections_sum_to_identity(matrix222, frame):
    pc = peirce_decompose(frame)
    mg = matrix222.m_group
    total = np.arange(16) * 0
    acc = pc.projections[(1, 1)]
    for ij in ((1, 2), (2, 1), (2, 2)):
        acc = mg.add_table[acc, pc.projections[ij]]
    assert (acc == np.arange(16)).all()


def test_components_match_definitional_oracle(matrix222, frame):
    # M_ij = e_i g1 M g1 e_j with the complement realized through the frame maps
    pc = peirce_decompose(frame)
    mu = matrix222.mu
    e, g1 = frame.e, frame.gamma1
    ega = mu[e, g1]
    m11 = {int(v) for v in mu[ega, g1, e]}
    m12 = {int(frame.right_f[v, g1]) for v in ega}
    lfa = frame.left_f[g1]
    m21 = {int(v) for v in mu[lfa, g1, e]}
    m22 = {int(frame.right_f[v, g1]) for v in lfa}
    assert m11 == set(pc.components[(1, 1)])
    assert m12 == set(pc.components[(1, 2)])
    assert m21 == set(pc.components[(2, 1)])
    assert m22 == set(pc.components[(2, 2)])


def test_block_relations(matrix222, frame):
    pc = peirce_decompose(frame)
    rep = check_peirce_relations(pc)
    assert rep.holds and rep.violations == []
    # M12 g1 M12 = 0 specifically
    m12 = np.asarray(pc.components[(1, 2)])
    assert (matrix222.mu[np.ix_(m12, [frame.gamma1], m12)] == 0).all()
    # x11 gamma y12 lands in M12 for every gamma
    m11 = np.asarray(pc.components[(1, 1)])
    prods = matrix222.mu[np.ix_(m11, np.arange(16), m12)]
    assert (pc.projections[(1, 2)][prods] == prods).all()


def test_conditions_on_matrix_ring(matrix222, frame):
    assert check_condition_ii(matrix222).holds
    assert check_condition_iii(matrix222, [frame]).holds
    assert check_condition_iv(frame).holds


def test_condition_ii_fails_on_trivial(trivial_z4):
    rep = check_condition_ii(trivial_z4)
    assert not rep.holds
    assert rep.witness == {"x": 1}
    # witness reproduces: 1.G.M = 0 although 1 != 0
    assert (trivial_z4.mu[1] == 0).all()


def test_condition_iii_needs_frames(matrix222):
    with pytest.raises(ValueError):
        check_condition_iii(matrix222, [])


def test_martindale_family(matrix222, trivial_z4, frame):
    assert check_martindale_family(matrix222, [frame]).overall
    e22 = midx(matrix222, (0, 0), (0, 1))
    i = gidx(matrix222, (1, 0), (0, 1))
    one = midx(matrix222, (1, 0), (0, 1))
    fr22 = canonical_frame(matrix222, e22, i, one)
    assert check_martindale_family(matrix222, [fr22]).overall
    rep = check_martindale_family(trivial_z4, [])
    assert not rep.overall and rep.reason == "empty idempotent family"


def test_canonical_frames_discovery(matrix222, matrix212):
    frames = canonical_frames(matrix222)
    assert frames and all(validate_frame(f) == [] for f in frames)
    assert canonical_frames(matrix212) == []      # no unity there


def _random_frame(ring, seed):
    """A user frame with random complement tables, zero at the zero element."""
    rng = np.random.default_rng(seed)
    m, g = ring.m_order, ring.gamma_order
    left, right = rng.integers(0, m, size=(g, m)), rng.integers(0, m, size=(m, g))
    left[:, 0] = right[0, :] = 0
    return IdempotentFrame(ring, 1, 1, left, right)


def test_oversized_frame_scan_exits_3(tmp_path, monkeypatch):
    # a user frame on a ring nobody Barnes-checked keeps its full scans; past
    # the exact-scan cap they are refused, and no Barnes scan runs first
    ring = trivial_ring(make_group([2, 2]), make_group([2, 2]))
    path = tmp_path / "frame.json"
    path.write_text(emit_grdf(document_dict(ring, frames=[_random_frame(ring, 0)])))
    argv = ["conditions", "--input", str(path)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 1
        monkeypatch.setattr(rings_mod, "AXIOM_EVAL_CAP", 4 * 4 * 4 - 1)   # g m^2
        assert main(argv) == 3


def test_large_frame_scan_is_chunked():
    # m = g = 64: the whole frame-associativity arrays (two int32 sides and a
    # mask) take 9 m^2 g^2 bytes, 144 MiB; the chunked scan stays under half
    z2_6 = make_group([2] * 6)
    ring = trivial_ring(z2_6, z2_6)
    frame = _random_frame(ring, 1)
    tracemalloc.start()
    try:
        got = [(v.invariant, v.witness) for v in validate_frame(frame)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9 * 64**4 // 2
    lf, rf, addm = frame.left_f, frame.right_f, ring.m_group.add_table
    want = [("left-additivity", ("beta", "x", "y"),
             lf[:, addm] != addm[lf[:, :, None], lf[:, None, :]]),
            ("right-additivity", ("x", "y", "beta"),
             rf[addm, :] != addm[rf[:, None, :], rf[None, :, :]])]
    assert got[-2:] == [(name, _witness(names, _first(neq))) for name, names, neq in want]
    assert got[-1][1] != {"x": 0, "y": 0, "beta": 0}

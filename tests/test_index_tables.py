"""The one rule for index tables entering the library (groups.index_table).

Every constructor that takes an index table, MapPair (phi, psi),
DerivationTable, DefectMap, GammaRing and build_table_ring (mu, nu), and
IdempotentFrame and custom_frame (left_f, right_f), refuses an entry the
int32 cast would wrap, truncate or make up (NaN), without a warning, and
stores what it accepts as a C-contiguous, read-only int32 table equal to
its input.  A frame refuses an
e, gamma1 or unity that is not an integer index in its ring.
"""

import warnings

import numpy as np
import pytest

from gammaring import (DefectMap, DerivationTable, GammaRing, MapPair, build_matrix_ring,
                       build_table_ring, canonical_frame, custom_frame)
from gammaring.peirce import IdempotentFrame

from conftest import gidx, midx

RING = build_matrix_ring(2, 2, 2)
M, G = RING.m_order, RING.gamma_order
E11, I, ONE = midx(RING, (1, 0), (0, 0)), gidx(RING, (1, 0), (0, 1)), midx(RING, (1, 0), (0, 1))
FRAME = canonical_frame(RING, E11, I, ONE)
_rng = np.random.default_rng(0)
PERM = _rng.permutation(M)


def _ring_table(build, slot):
    tables = {"mu": RING.mu, "nu": RING.nu}

    def make(table):
        ring = build(RING.m_group, RING.gamma_group, **{**tables, slot: table})
        return getattr(ring, slot)
    return tables[slot], make


def _frame_table(build, slot):
    tables = {"left_f": FRAME.left_f, "right_f": FRAME.right_f}

    def make(table):
        return getattr(build(RING, E11, I, **{**tables, slot: table}), slot)
    return tables[slot], make


# name -> (a valid table, a function that builds with a table and returns it as stored)
CASES = {
    "MapPair.phi": (PERM, lambda t: MapPair(RING, RING, t, np.arange(G)).phi),
    "MapPair.psi": (PERM, lambda t: MapPair(RING, RING, np.arange(M), t).psi),
    "DerivationTable": (PERM[::-1] % 5, lambda t: DerivationTable(RING, t).d),
    "DefectMap": (_rng.integers(0, M, (M, G, M)), lambda t: DefectMap(RING, t).f),
    "GammaRing.mu": _ring_table(GammaRing, "mu"),
    "GammaRing.nu": _ring_table(GammaRing, "nu"),
    "build_table_ring.mu": _ring_table(build_table_ring, "mu"),
    "build_table_ring.nu": _ring_table(build_table_ring, "nu"),
    "IdempotentFrame.left_f": _frame_table(IdempotentFrame, "left_f"),
    "IdempotentFrame.right_f": _frame_table(IdempotentFrame, "right_f"),
    "custom_frame.left_f": _frame_table(custom_frame, "left_f"),
    "custom_frame.right_f": _frame_table(custom_frame, "right_f"),
}


def _with_zero_at(table, value):
    """The table with its first 0 entry replaced by `value`, as int64 or float."""
    out = np.array(table, dtype=type(value))
    out.flat[np.flatnonzero(out == 0)[0]] = value
    return out


REFUSED = {
    "2^32+v": lambda v: np.asarray(v, dtype=np.int64) + 2**32,      # wraps to v
    "-2^32": lambda v: _with_zero_at(v, -2**32),                    # wraps to 0
    "v+0.25": lambda v: np.asarray(v, dtype=np.float64) + 0.25,     # truncates to v
    "nan": lambda v: _with_zero_at(v, np.nan),                      # casts with a warning
}

ACCEPTED = {
    "float": lambda v: np.asarray(v, dtype=np.float64),
    "list": lambda v: np.asarray(v).tolist(),
    "int32": lambda v: np.array(v, dtype=np.int32),
    "int64": lambda v: np.array(v, dtype=np.int64),
    "int32-strided": lambda v: np.stack([v, v], axis=-1).astype(np.int32)[..., 0],
}


@pytest.mark.parametrize("form", list(REFUSED))
@pytest.mark.parametrize("case", list(CASES))
def test_a_value_the_cast_would_change_is_refused(case, form):
    valid, make = CASES[case]
    with warnings.catch_warnings(), pytest.raises(ValueError) as info:
        warnings.simplefilter("error")
        make(REFUSED[form](valid))
    assert type(info.value) is ValueError           # refused as a table, not as a frame


@pytest.mark.parametrize("form", list(ACCEPTED))
@pytest.mark.parametrize("case", list(CASES))
def test_an_exact_table_comes_back_as_frozen_int32(case, form):
    valid, make = CASES[case]
    given = ACCEPTED[form](valid)
    got = make(given)
    assert got.dtype == np.int32 and got.flags.c_contiguous and not got.flags.writeable
    assert np.array_equal(got, np.asarray(given))


@pytest.mark.parametrize("build, e, gamma1, unity", [
    ("custom", 99, 0, None),
    ("custom", -1, 0, None),
    ("custom", E11, G, None),
    ("canonical", 1, 99, 1),
    ("canonical", -1, I, ONE),
    ("canonical", E11, I, 99),
    ("canonical", E11, I, -1),
    ("custom", 1.5, 0, None),
    ("canonical", E11, float(I), ONE),
], ids=["custom-e=99", "custom-e=-1", "custom-gamma1=G", "canonical-gamma1=99",
        "canonical-e=-1", "canonical-unity=99", "canonical-unity=-1", "custom-e=1.5",
        "canonical-gamma1-float"])
def test_frame_indices_outside_the_ring_are_refused(build, e, gamma1, unity):
    with pytest.raises(ValueError, match="is not an index in"):
        if build == "custom":
            custom_frame(RING, e, gamma1, FRAME.left_f, FRAME.right_f)
        else:
            canonical_frame(RING, e, gamma1, unity)

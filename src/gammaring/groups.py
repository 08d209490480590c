"""Finite abelian groups presented as direct sums of cyclic groups.

Every higher-level table in the system (ring products, frames, maps) stores
element indices into the lexicographic enumeration defined here, so the
enumeration order is part of the contract: residue vectors are ordered
lexicographically with the leftmost factor most significant, and zero always
has index 0.
"""

from __future__ import annotations

from math import prod
from typing import Optional

import numpy as np

MAX_ORDER = 2**32
# Largest order for which dense index tables (order x order) are materialized.
DENSE_TABLE_LIMIT = 4096


class FiniteAbelianGroup:
    """Z_d1 x ... x Z_dk with bijective element <-> index enumeration.

    Immutable after construction; shared read access is safe.  Use
    :func:`make_group` rather than calling this directly.
    """

    def __init__(self, factors: tuple[int, ...]):
        self.factors = tuple(int(d) for d in factors)
        self.order = prod(self.factors) if self.factors else 1
        self._factors_arr = np.asarray(self.factors, dtype=np.int64)
        # place value of each residue slot in the lexicographic index
        pv = [1] * len(self.factors)
        for i in range(len(self.factors) - 2, -1, -1):
            pv[i] = pv[i + 1] * self.factors[i + 1]
        self._place_values = np.asarray(pv, dtype=np.int64)
        self._residues = None
        self._add_table = None
        self._neg_table = None

    def __repr__(self):
        return f"FiniteAbelianGroup({list(self.factors)})"

    def __eq__(self, other):
        return isinstance(other, FiniteAbelianGroup) and self.factors == other.factors

    def __hash__(self):
        return hash(self.factors)

    def element_at(self, index: int) -> tuple[int, ...]:
        if not 0 <= index < self.order:
            raise ValueError(f"index {index} out of range for order {self.order}")
        residues = []
        for p, d in zip(self._place_values, self.factors):
            residues.append(int(index // p) % d)
        return tuple(residues)

    def index_of(self, residues) -> int:
        residues = tuple(residues)
        if len(residues) != len(self.factors):
            raise ValueError(
                f"residue length {len(residues)} != {len(self.factors)} factors"
            )
        for r, d in zip(residues, self.factors):
            if not 0 <= r < d:
                raise ValueError(f"residue {r} out of range [0, {d})")
        return int(sum(r * p for r, p in zip(residues, self._place_values)))

    def zero(self) -> tuple[int, ...]:
        return (0,) * len(self.factors)

    def add(self, a, b) -> tuple[int, ...]:
        self._check(a)
        self._check(b)
        return tuple((x + y) % d for x, y, d in zip(a, b, self.factors))

    def negate(self, a) -> tuple[int, ...]:
        self._check(a)
        return tuple((-x) % d for x, d in zip(a, self.factors))

    def add_index(self, i: int, j: int) -> int:
        return int(self.add_table[i, j])

    def _check(self, a):
        if len(a) != len(self.factors):
            raise ValueError(
                f"residue length {len(a)} != {len(self.factors)} factors"
            )
        for x, d in zip(a, self.factors):
            if not 0 <= x < d:
                raise ValueError(f"residue {x} out of range [0, {d})")

    @property
    def generators(self) -> np.ndarray:
        """Indices of the standard generators e_i (residue 1 in slot i): the place values."""
        return self._place_values

    @property
    def residues(self) -> np.ndarray:
        """(order, num_factors) matrix of residue vectors in enumeration order."""
        if self._residues is None:
            if self.factors:
                cols = np.unravel_index(np.arange(self.order), self.factors)
                self._residues = np.stack(cols, axis=1).astype(np.int64)
            else:
                self._residues = np.zeros((1, 0), dtype=np.int64)
        return self._residues

    @property
    def add_table(self) -> np.ndarray:
        """Dense (order, order) table of index sums."""
        if self._add_table is None:
            if self.order > DENSE_TABLE_LIMIT:
                raise ValueError(
                    f"order {self.order} exceeds dense table limit {DENSE_TABLE_LIMIT}"
                )
            r = self.residues
            if self.factors:
                sums = (r[:, None, :] + r[None, :, :]) % self._factors_arr
                flat = (sums * self._place_values).sum(axis=2)
                self._add_table = flat.astype(np.int32)
            else:
                self._add_table = np.zeros((1, 1), dtype=np.int32)
        return self._add_table

    @property
    def neg_table(self) -> np.ndarray:
        if self._neg_table is None:
            if self.factors:
                negs = (-self.residues) % self._factors_arr
                self._neg_table = (negs * self._place_values).sum(axis=1).astype(np.int32)
            else:
                self._neg_table = np.zeros(1, dtype=np.int32)
        return self._neg_table

    def sub_index_array(self, a, b):
        """Elementwise a - b on index arrays."""
        return self.add_table[a, self.neg_table[b]]


def make_group(invariant_factors) -> FiniteAbelianGroup:
    """Build the group Z_d1 x ... x Z_dk; the empty sequence gives the trivial group."""
    factors = tuple(int(d) for d in invariant_factors)
    for d in factors:
        if d < 2:
            raise ValueError(f"invariant factor {d} < 2 (use [] for the trivial group)")
    order = prod(factors) if factors else 1
    if order > MAX_ORDER:
        raise ValueError(f"group order {order} exceeds {MAX_ORDER}")
    return FiniteAbelianGroup(factors)


def index_table(values, shape: tuple, bound: Optional[int], into: str, what: str) -> np.ndarray:
    """`values` as a C-contiguous, read-only int32 table of `shape` whose
    entries index `into` (M or Gamma): each lies in [0, bound).  Every
    constructor that takes an index table (GammaRing, IdempotentFrame,
    MapPair, DerivationTable, DefectMap) checks it here and nowhere else.

    The values are read as given and checked before the cast, so an entry
    the cast would wrap (2**32) or truncate (0.5) is refused with ValueError,
    never read as another index; an integral float is taken.  `bound` is None
    only where the caller has tested the values as given against a rule that
    bounds them (MapPair's bijection test).  An int32 array comes back as
    itself, frozen.
    """
    arr = np.asarray(values)
    if arr.shape != shape:
        raise ValueError(f"{what} shape {arr.shape} != {shape}")
    # written so that a NaN entry fails it too, before the cast can warn
    if bound is not None and arr.size and not (arr.min() >= 0 and arr.max() < bound):
        raise ValueError(f"{what} entries out of {into} index range")
    table = np.ascontiguousarray(arr, dtype=np.int32)
    if arr.dtype.kind not in "biu" and not np.array_equal(table, arr):
        raise ValueError(f"{what} entries are not integers")
    table.setflags(write=False)
    return table


def is_group_homomorphism(table, domain: FiniteAbelianGroup, codomain: FiniteAbelianGroup) -> bool:
    """Exhaustively test t(a+b) = t(a) + t(b) on index tables.

    This is the independent oracle for every "additive" check elsewhere.
    """
    t = np.asarray(table, dtype=np.int64)
    if t.shape != (domain.order,):
        raise ValueError(f"table size {t.shape} != group order {domain.order}")
    if t.size and (t.min() < 0 or t.max() >= codomain.order):
        raise ValueError("table entries out of codomain range")
    lhs = t[domain.add_table]
    rhs = codomain.add_table[t[:, None], t[None, :]]
    return bool((lhs == rhs).all())


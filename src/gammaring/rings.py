"""Finite gamma rings: construction, axiom verification, idempotents, primeness.

A gamma ring here is a pair of finite abelian groups (M, Gamma) with a dense
triple-product table mu: M x Gamma x M -> M stored as element indices, plus an
optional Gamma-valued product nu: Gamma x M x Gamma -> Gamma for structures in
the stronger (Nobusawa) sense.  Rings are immutable once built.

The axiom checks are exact.  A pass is decided on generator tuples.  A map t
is additive when t(0) = 0, t(x) = t(x - e(x)) + t(e(x)) for each x != 0,
e(x) the generator of x's least significant nonzero residue, and d t(e) = 0
for each generator e of order d (_additive_in): about one evaluation per
entry.  Two maps additive in every slot agree everywhere when they agree on
the r^k tuples of generators, r the number of cyclic factors, which decides
associativity, the nu identity and frame-associativity.  A failure there is
rescanned in full by _scan_equal, the one grid scan, on the same two sides,
so every witness is the lexicographically least one.
`checked` reports the raw tuple coverage.  Every budget decision of the
package goes through one _Meter.  Here each scan charges its generator
check, and its full rescan only when that runs, against AXIOM_EVAL_CAP, so
a ring is refused only when a pass it needs is oversized.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod
from typing import Optional

import numpy as np

from .errors import BudgetExceededError, InternalInconsistencyError, PreconditionError
from .groups import FiniteAbelianGroup, index_table, make_group

# Hard cap on the evaluations of each pass of an axiom or frame scan: verdicts
# are exact or refused.
AXIOM_EVAL_CAP = 2**32
# Soft cap on elements per vectorized chunk (memory control).
_CHUNK_ELEMS = 1 << 22


@dataclass
class AxiomReport:
    axiom: str
    identity: str
    holds: bool
    witness: Optional[dict]
    checked: int

    def describe(self) -> str:
        if self.holds:
            return f"{self.axiom}: holds ({self.checked} tuples)"
        return f"{self.axiom}: FAILS [{self.identity}] at {self.witness}"


@dataclass
class IdempotentRecord:
    e: int
    gamma: int
    nontrivial: bool


@dataclass
class UnityRecord:
    one: int
    gamma: int


@dataclass
class PrimenessReport:
    prime: bool
    witness: Optional[tuple]


class GammaRing:
    """Pair of finite abelian groups with a dense triple-product table."""

    def __init__(self, m_group: FiniteAbelianGroup, gamma_group: FiniteAbelianGroup,
                 mu: np.ndarray, nu: Optional[np.ndarray] = None, descriptor: Optional[dict] = None):
        mo, go = m_group.order, gamma_group.order
        self.m_group = m_group
        self.gamma_group = gamma_group
        self.mu = index_table(mu, (mo, go, mo), mo, "M", "mu")
        self.nu = None if nu is None else index_table(nu, (go, mo, go), go, "Gamma", "nu")
        self.descriptor = descriptor or {"type": "table"}
        self._barnes_reports = None

    @property
    def m_order(self) -> int:
        return self.m_group.order

    @property
    def gamma_order(self) -> int:
        return self.gamma_group.order

    def __repr__(self):
        d = self.descriptor
        if d.get("type") == "matrix":
            return f"GammaRing(matrix mod={d['mod']} {d['rows']}x{d['cols']})"
        return f"GammaRing(|M|={self.m_order}, |Gamma|={self.gamma_order})"

    def prod(self, x: int, g: int, y: int) -> int:
        return int(self.mu[x, g, y])

    def barnes_reports(self) -> list[AxiomReport]:
        if self._barnes_reports is None:
            self._barnes_reports = check_barnes_axioms(self)
        return self._barnes_reports

    @property
    def known_distributive(self) -> bool:
        """Whether the ring already holds a passing barnes-ii verdict, so mu is
        additive in both element slots; reading it never starts a scan."""
        kept = self._barnes_reports                # barnes-ii first; None until scanned
        return kept is not None and kept[0].holds

    @property
    def barnes_verified(self) -> bool:
        return all(r.holds for r in self.barnes_reports())

    def require_barnes(self):
        if not self.barnes_verified:
            bad = [r for r in self.barnes_reports() if not r.holds]
            raise PreconditionError(f"ring is not Barnes-verified: {bad[0].describe()}")

    def element_matrix(self, index: int, side: str) -> Optional[list]:
        """Row-major matrix rendering of an element, for matrix-constructed rings."""
        d = self.descriptor
        if d.get("type") != "matrix":
            return None
        if side == "m":
            rows, cols = d["rows"], d["cols"]
            res = self.m_group.element_at(index)
        else:
            rows, cols = d["cols"], d["rows"]
            res = self.gamma_group.element_at(index)
        return [list(res[r * cols:(r + 1) * cols]) for r in range(rows)]


class _Meter:
    """The budget of one check or search: every budget decision is made here.

    Searches and solves take units that add up: leaf search nodes, equation
    tuples, basis maps verified, maps and pairs listed, tables the
    automorphism chain sifts; running out leaves spent at budget + 1.  An
    exact check charges each pass it runs, the evaluations that pass makes,
    before running it.  A pass must fit the budget on its own, as every
    exact gate has, and one that does not raises BudgetExceededError.  So a
    check is charged for the passes it needs, never for its raw tuple count.
    """

    def __init__(self, budget):
        self.budget, self.spent = budget, 0

    def take(self, units: int) -> bool:
        self.spent = min(self.spent + units, self.budget + 1)
        return self.spent <= self.budget

    def charge(self, units: int, what: str):
        if units > self.budget:
            raise BudgetExceededError(f"{what}: {units} evaluations exceed the budget "
                                      f"{self.budget}")


# refuses no pass: the exact path of a check whose work is gated elsewhere
_UNBOUNDED = _Meter(float("inf"))


def _chunks(total: int, per_x: int):
    step = max(1, _CHUNK_ELEMS // max(per_x, 1))
    for lo in range(0, total, step):
        yield lo, min(lo + step, total)


def _first(mask: np.ndarray) -> Optional[tuple]:
    """Index of the first True entry of mask in C order (the lex-least), or None."""
    flat = int(mask.argmax())          # 0 when nothing is set, so look again
    if not mask.flat[flat]:
        return None
    return tuple(map(int, np.unravel_index(flat, mask.shape)))


def _witness(names, idx) -> Optional[dict]:
    return None if idx is None else {n: int(i) for n, i in zip(names, idx)}


def _scan_equal(lhs, rhs, sizes: tuple, names, meter: _Meter, what: str) -> Optional[dict]:
    """Lex-least tuple of the grid `sizes` where lhs(*slots) != rhs(*slots),
    or None; the grid's prod(sizes) evaluations are charged to meter first.

    Each side takes one indexer per slot, so _holds_on reads the same two
    functions.  Here every indexer is a slice, and a side's axes follow its
    slots in order.  The grid is walked in lex order, in chunks: the first
    slot after which at most _CHUNK_ELEMS tuples remain takes a range, every
    slot before it one value, every slot after it all of its values, so no
    chunk holds more than _CHUNK_ELEMS tuples.  rhs, which may hold more
    arrays while it is built (a Leibniz sum holds three), is built first.

    A chunk's sides are freed once its mask is built, and the mask stays
    referenced until the next chunk's replaces it, so a scan holds one
    chunk's arrays and one more mask.  With the mask freed too, the
    allocator handed the chunk's memory back and faulted it in again: the
    full associativity scan of matrix(2,1,5) ran about 15% slower.
    """
    meter.charge(prod(sizes), what)
    k = next(k for k in range(len(sizes)) if prod(sizes[k + 1:]) <= _CHUNK_ELEMS)
    step = _CHUNK_ELEMS // prod(sizes[k + 1:])
    rest = tuple(slice(0, s) for s in sizes[k + 1:])
    for *head, lo in product(*map(range, sizes[:k]), range(0, sizes[k], step)):
        slots = tuple(slice(v, v + 1) for v in head) + (slice(lo, lo + step),) + rest
        neq = rhs(*slots) != lhs(*slots)
        idx = _first(neq)
        if idx is not None:
            return _witness(names, [s.start + i for s, i in zip(slots, idx)])
    return None


def _additive_in(table: np.ndarray, axis: int, domain: FiniteAbelianGroup,
                 add: np.ndarray, meter: _Meter, what: str) -> bool:
    """Whether table is additive in its slot `axis`, which ranges over `domain`.

    `add` is the addition table of the values.  Let e(x) be the generator of
    x's least significant nonzero residue.  A map t is additive exactly when
    t(0) = 0, t(x) = t(x - e(x)) + t(e(x)) for every x != 0, and
    t((d - 1)e) + t(e) = 0 for each generator e of order d: the first two
    give t(x) = sum_i x_i t(e_i) by induction, and the third makes d t(e) = 0,
    so that sum is a homomorphism.  That is about one evaluation per map
    entry plus r per map, r the number of cyclic factors, and meter is
    charged for them.  The group of order 1 has no nonzero residue, so there
    t(0) = 0 alone decides.
    """
    t = np.moveaxis(table, axis, 0)
    gens = domain.generators
    meter.charge(t.size + gens.size * t[0].size, what)
    x = np.arange(1, domain.order)
    # e(x): the largest generator index dividing x is that of its least
    # significant nonzero residue; x is empty when the order is 1
    e = np.where(x[:, None] % gens == 0, gens, 0).max(axis=1, initial=0)
    last = (np.asarray(domain.factors, dtype=np.int64) - 1) * gens        # (d - 1)e
    if (t[0] != 0).any() or (add[t[last], t[gens]] != 0).any():
        return False
    for lo, hi in _chunks(x.size, t[0].size):
        if (t[lo + 1:hi + 1] != add[t[x[lo:hi] - e[lo:hi]], t[e[lo:hi]]]).any():
            return False
    return True


def _additivity_witness(table: np.ndarray, axis: int, domain: FiniteAbelianGroup,
                        add: np.ndarray, names, meter: _Meter, what: str) -> Optional[dict]:
    """Lex-least tuple where table is not additive in its slot `axis`, or None.

    The tuple is table's slots with slot `axis` doubled in place:
    (..., x, y, ...) stands for t(..., x + y, ...) = t(..., x, ...) +
    t(..., y, ...).  _additive_in decides a pass; only a failure is rescanned
    in full by _scan_equal, each pass charged to meter.
    """
    if _additive_in(table, axis, domain, add, meter, what):
        return None

    def lhs(*s):
        return table[s[:axis] + (domain.add_table[s[axis], s[axis + 1]],) + s[axis + 2:]]

    def rhs(*s):
        return add[np.expand_dims(table[s[:axis + 1] + s[axis + 2:]], axis + 1),
                   np.expand_dims(table[s[:axis] + s[axis + 1:]], axis)]

    return _scan_equal(lhs, rhs, table.shape[:axis + 1] + table.shape[axis:], names, meter, what)


def _holds_on(grid, lhs, rhs, meter: _Meter, what: str) -> bool:
    """Whether lhs(*slots) == rhs(*slots) on the open grid of the index arrays
    in `grid`, one per slot; the grid's tuples are charged to meter first.

    The sides are those _scan_equal takes, read here on np.ix_ arrays, so a
    generator check and its full rescan state their identity once."""
    meter.charge(prod(len(s) for s in grid), what)
    slots = np.ix_(*grid)
    return bool((lhs(*slots) == rhs(*slots)).all())


def _associativity(ring, additive: bool = False) -> tuple[Optional[dict], int]:
    """(x a y) b z == x a (y b z): lex-least failing tuple, or None, and the raw count.

    With `additive` (barnes-ii and barnes-iii hold), both sides are additive
    in all five slots, so a pass on generator tuples is a pass everywhere;
    without it, or on a failure there, every tuple is scanned.
    """
    mu, meter, what = ring.mu, _Meter(AXIOM_EVAL_CAP), "associativity"
    m, g = ring.m_order, ring.gamma_order
    gm, gg = ring.m_group.generators, ring.gamma_group.generators
    sides = (lambda x, a, y, b, z: mu[mu[x, a, y], b, z],
             lambda x, a, y, b, z: mu[x, a, mu[y, b, z]])
    if additive and _holds_on((gm, gg, gm, gg, gm), *sides, meter, what):
        return None, m * g * m * g * m
    w = _scan_equal(*sides, (m, g, m, g, m), ("x", "alpha", "y", "beta", "z"), meter, what)
    return w, m * g * m * g * m


def check_barnes_axioms(ring: GammaRing) -> list[AxiomReport]:
    """One exact report per Barnes axiom; closure holds by table construction.

    Each scan is gated by a meter at AXIOM_EVAL_CAP, read at call time.
    """
    mu, mg, meter = ring.mu, ring.m_group, _Meter(AXIOM_EVAL_CAP)
    count = mu.size * ring.m_order                  # the tuples of either element slot

    def additivity(axis, names, what):
        domain = ring.gamma_group if axis == 1 else mg
        return _additivity_witness(mu, axis, domain, mg.add_table, names, meter, what)

    w = additivity(0, ("x", "y", "alpha", "z"), "distributivity")
    identity, checked = "(x+y).a.z = x.a.z + y.a.z", count
    if w is None:
        w = additivity(2, ("x", "alpha", "y", "z"), "distributivity")
        identity = "x.a.(y+z) = x.a.y + x.a.z" if w else "m-distributivity"
        checked += count
    reports = [AxiomReport("barnes-ii", identity, w is None, w, checked)]

    w = additivity(1, ("x", "alpha", "beta", "y"), "gamma-distributivity")
    reports.append(AxiomReport(
        "barnes-iii", "x.(a+b).y = x.a.y + x.b.y", w is None, w, mu.size * ring.gamma_order))

    w, c = _associativity(ring, reports[0].holds and w is None)
    reports.append(AxiomReport(
        "barnes-iv", "(x.a.y).b.z = x.a.(y.b.z)", w is None, w, c))
    return reports


def check_nobusawa(ring: GammaRing) -> list[AxiomReport]:
    """Verify the stronger (Nobusawa) conditions, using the Gamma-valued product.

    The distributivity and associativity verdicts are the ring's cached
    Barnes scans; only the nu identity is scanned here, on generator tuples
    when barnes-ii, barnes-iii and nu's additivity in each slot hold.  The
    faithfulness condition is reported under both readings of its
    quantifier: strict (any single vanishing product kills gamma) and
    annihilator (only a gamma annihilating every product must vanish).
    """
    if ring.nu is None:
        raise ValueError("Nobusawa check needs the Gamma-valued product table nu")
    mu, nu = ring.mu, ring.nu
    m, g = ring.m_order, ring.gamma_order
    distrib, gamma_distrib, assoc = ring.barnes_reports()
    reports = []

    # nobusawa-i is barnes-ii, then barnes-iii once barnes-ii holds
    first = distrib if not distrib.holds else gamma_distrib
    checked = distrib.checked + (gamma_distrib.checked if distrib.holds else 0)
    identity = first.identity if not first.holds else "distributivity"
    reports.append(AxiomReport("nobusawa-i", identity, first.holds, first.witness, checked))

    w, checked, identity = assoc.witness, assoc.checked, assoc.identity
    if w is None:
        # x a (y b z) == x (a y b) z with the middle product taken in Gamma;
        # both sides are additive in every slot once mu and nu are
        mg, gg = ring.m_group, ring.gamma_group
        gm, ga = mg.generators, gg.generators
        meter, what = _Meter(AXIOM_EVAL_CAP), "nobusawa-ii"
        sides = (lambda x, a, y, b, z: mu[x, a, mu[y, b, z]],
                 lambda x, a, y, b, z: mu[x, nu[a, y, b], z])
        holds = (distrib.holds and gamma_distrib.holds
                 and all(_additive_in(nu, axis, mg if axis == 1 else gg, gg.add_table, meter,
                                      what) for axis in range(3))
                 and _holds_on((gm, ga, gm, ga, gm), *sides, meter, what))
        w = None if holds else _scan_equal(*sides, (m, g, m, g, m),
                                           ("x", "alpha", "y", "beta", "z"), meter, what)
        checked += m * g * m * g * m
        if w is not None:
            identity = "x.a.(y.b.z) = x.(a.y.b).z"
    reports.append(AxiomReport("nobusawa-ii", identity, w is None, w, checked))

    zero_prod = mu == 0                      # [x, gamma, y]
    gamma_nonzero = np.zeros((1, g, 1), dtype=bool)
    gamma_nonzero[0, 1:, 0] = True
    w = _witness(("x", "gamma", "y"), _first(zero_prod & gamma_nonzero))
    reports.append(AxiomReport(
        "nobusawa-iii-strict", "x.gamma.y = 0 implies gamma = 0 (any x, y)",
        w is None, w, m * g * m))

    annih = zero_prod.all(axis=(0, 2))       # per gamma
    annih[0] = False
    w = _witness(("gamma",), _first(annih))
    reports.append(AxiomReport(
        "nobusawa-iii-annihilator", "x.gamma.y = 0 for all x, y implies gamma = 0",
        w is None, w, m * g * m))
    return reports


def build_table_ring(m_group: FiniteAbelianGroup, gamma_group: FiniteAbelianGroup,
                     mu, nu=None) -> GammaRing:
    """Wrap an explicit product table; axioms are NOT checked here."""
    return GammaRing(m_group, gamma_group, mu, nu)


def trivial_ring(m_group: FiniteAbelianGroup, gamma_group: FiniteAbelianGroup) -> GammaRing:
    """All products zero.  Satisfies every Barnes axiom and almost nothing else."""
    mo, go = m_group.order, gamma_group.order
    mu = np.zeros((mo, go, mo), dtype=np.int32)
    nu = np.zeros((go, mo, go), dtype=np.int32)
    return GammaRing(m_group, gamma_group, mu, nu, {"type": "table"})


def _triple_products(ea: np.ndarray, eb: np.ndarray, mod: int, places) -> np.ndarray:
    """[x, g, y] = the index of the matrix product x.g.y mod `mod`, x and y
    over the matrices ea, g over eb, the index read by `places`.

    The middle product is square, k x k with k = min(rows, cols) of x: x.g
    when x has no more rows than columns, so x.g.y = (x.g).y, else g.y, so
    x.g.y = x.(g.y).  The ends s.y (or x.s) are indexed once for each of the
    mod^(k^2) square matrices s, and the table is one gather of them by the
    index of each middle product.  Under build_matrix_ring's order budget
    no intermediate reaches _CHUNK_ELEMS entries (the most are
    matrix(2,3,3)'s 2^18 * 9), far fewer than the table's."""
    rows, cols = ea.shape[1:]
    k = min(rows, cols)
    squares = np.indices((mod,) * (k * k)).reshape(k * k, -1).T.reshape(-1, k, k)
    square_places = mod ** np.arange(k * k)[::-1]

    def index(mats, at):
        return (mats.reshape(*mats.shape[:-2], -1) % mod * at).sum(axis=-1)

    if rows <= cols:
        ends = index(squares[:, None] @ ea[None], places).astype(np.int32)     # [s, y]
        return ends[index(ea[:, None] @ eb[None], square_places)]
    ends = index(ea[:, None] @ squares[None], places).astype(np.int32)         # [x, s]
    return ends[:, index(eb[:, None] @ ea[None], square_places)]


def build_matrix_ring(mod: int, rows: int, cols: int) -> GammaRing:
    """m x n matrices over Z_mod with Gamma the n x m matrices, product = matmul.

    M is enumerated row-major, so index(E11) = mod**(rows*cols-1) etc.  The
    Gamma-valued product (gamma, x, delta) -> gamma.x.delta is attached, and
    the Barnes axioms are re-verified even though they hold by construction.
    """
    if mod < 2:
        raise ValueError("matrix entries need modulus >= 2")
    if rows < 1 or cols < 1:
        raise ValueError("matrix dimensions must be >= 1")
    # as mod >= 2, rows * cols > 9 alone exceeds the budget; testing it first
    # keeps a huge dimension from building a huge power
    if rows * cols > 9 or mod ** (3 * rows * cols) > 2**28:
        raise ValueError(f"mu table with {mod}^{3 * rows * cols} entries exceeds order budget")
    m_group = make_group([mod] * (rows * cols))
    gamma_group = make_group([mod] * (cols * rows))
    em = m_group.residues.reshape(-1, rows, cols)
    eg = gamma_group.residues.reshape(-1, cols, rows)
    mu = _triple_products(em, eg, mod, m_group.generators)
    nu = _triple_products(eg, em, mod, gamma_group.generators)
    ring = GammaRing(m_group, gamma_group, mu, nu,
                     {"type": "matrix", "mod": mod, "rows": rows, "cols": cols})
    if not ring.barnes_verified:
        raise InternalInconsistencyError(
            "matrix ring failed Barnes re-verification; table construction is buggy")
    return ring


def direct_product(r1: GammaRing, r2: GammaRing) -> GammaRing:
    """Componentwise product ring on M1 + M2 and Gamma1 + Gamma2."""
    m_group = make_group(r1.m_group.factors + r2.m_group.factors)
    gamma_group = make_group(r1.gamma_group.factors + r2.gamma_group.factors)
    m2, g2 = r2.m_order, r2.gamma_order
    mu = (r1.mu[:, None, :, None, :, None].astype(np.int64) * m2
          + r2.mu[None, :, None, :, None, :])
    mu = mu.reshape(m_group.order, gamma_group.order, m_group.order).astype(np.int32)
    nu = None
    if r1.nu is not None and r2.nu is not None:
        nu = (r1.nu[:, None, :, None, :, None].astype(np.int64) * g2
              + r2.nu[None, :, None, :, None, :])
        nu = nu.reshape(gamma_group.order, m_group.order, gamma_group.order).astype(np.int32)
    return GammaRing(m_group, gamma_group, mu, nu, {"type": "table"})


def find_unities(ring: GammaRing) -> list[UnityRecord]:
    """All (one, gamma) with one.gamma.x = x.gamma.one = x for every x."""
    mu = ring.mu
    m = ring.m_order
    idx = np.arange(m)
    # left[e, g]: mu[e, g, y] == y for all y
    left = (mu == idx[None, None, :]).all(axis=2)
    # right[e, g]: mu[x, g, e] == x for all x
    right = (np.moveaxis(mu, 2, 0) == idx[None, :, None]).all(axis=1)
    mask = left & right
    if m > 1:
        mask[0, :] = False
    out = []
    for e, g in np.argwhere(mask):
        out.append(UnityRecord(int(e), int(g)))
    return out


def find_idempotents(ring: GammaRing) -> list[IdempotentRecord]:
    """All nonzero (e, gamma) with e.gamma.e = e, flagged nontrivial unless e is a gamma-unity."""
    mu = ring.mu
    m, g = ring.m_order, ring.gamma_order
    idx = np.arange(m)
    diag = mu[idx[:, None], np.arange(g)[None, :], idx[:, None]]   # [e, g] = e.g.e
    mask = diag == idx[:, None]
    mask[0, :] = False
    unities = {(u.one, u.gamma) for u in find_unities(ring)}
    out = []
    for e, gam in np.argwhere(mask):
        out.append(IdempotentRecord(int(e), int(gam), (int(e), int(gam)) not in unities))
    return out


def is_prime(ring: GammaRing) -> PrimenessReport:
    """Elementwise primeness: prime unless some nonzero pair (a, b) has
    a.Gamma.M.Gamma.b = 0; the witness is the first such pair, least a first.

    The ideal-pair definition (no nonzero ideals A, B with A.Gamma.B = 0)
    agrees by theorem; the test suite keeps it as the oracle on small rings.
    """
    ring.require_barnes()
    mu = ring.mu
    for a in range(1, ring.m_order):
        reach = np.unique(mu[a].ravel())                    # all a.gamma.m
        dead_b = (mu[reach] == 0).all(axis=(0, 1))          # per b: a.G.M.G.b = 0
        dead_b[0] = False
        b = _first(dead_b)
        if b is not None:
            return PrimenessReport(False, (a,) + b)
    return PrimenessReport(True, None)

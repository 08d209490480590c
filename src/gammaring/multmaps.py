"""Length-n multiplicative isomorphisms and derivations between finite gamma rings.

Verification is exact whenever each pass it runs fits the budget (see
rings._Meter), and a seeded pseudorandom sample flagged "partial" otherwise;
the theorem pipelines refuse instead of sampling.  Chains fold left to
right, so an exact check at n >= 3 scans the m^2 g tuples of n = 2 first: a
pair that passes there passes at every n, and so does a derivation on a
ring whose barnes-ii verdict (distributivity) holds.  A failure there is
rescanned over the distinct fold states of each length, at most m^2 of
them, for the same lex-least witness; a derivation on a ring where
barnes-ii fails scans every length-n tuple.  So a pass is charged m^2 g
evaluations, however large n.

The leaf search is a backtracking enumeration over image tables with
vectorized constraint propagation: every fully-assigned product instance
immediately forces (or refutes) the image of its output, so the leaves of
the search tree are exactly the satisfying assignments.  The pairs of a
ring onto itself form a group, which _pair_group holds as a stabilizer
chain: the leaf search, stopped at its first solution, finds a generator or
refutes an orbit point, so the group is counted, tested and walked in
sorted order without a search per pair.  search_n_multiplicative_isos lists
the pairs onto a ring by that walk, started at one pair the leaf search
finds.  The phi maps of the group that are automorphisms of M form a
second chain, over M's cyclic generators, which _aut_order counts.
Derivations need no search: under the Barnes axioms they are the kernel of
one linear map on M^M, solved exactly over Z/N with a Howell basis and
listed by a walk of that basis in sorted table order.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, gcd, lcm, prod
from typing import Optional

import numpy as np

from .errors import BudgetExceededError, InternalInconsistencyError
from .groups import index_table, is_group_homomorphism
from .rings import (_CHUNK_ELEMS, _UNBOUNDED, GammaRing, _chunks, _first, _Meter, _scan_equal,
                    _witness)

DEFAULT_BUDGET = 10**8
_SAMPLE_CAP = 1 << 20
# the most words (8 bytes each) a leaf search's word table of one kind may
# take, so that the tables of both kinds hold at most _CHUNK_ELEMS words
_WORD_CAP = _CHUNK_ELEMS // 2


@dataclass
class VerifyReport:
    passed: bool
    exact: bool
    checked: int
    witness: Optional[dict] = None

    @property
    def exact_pass(self) -> bool:
        return self.passed and self.exact


@dataclass
class MapPair:
    """Bijection tables (phi on elements, psi on Gamma) between two rings."""
    source: GammaRing
    target: GammaRing
    phi: np.ndarray
    psi: np.ndarray

    def __post_init__(self):
        if self.source.m_order != self.target.m_order or \
           self.source.gamma_order != self.target.gamma_order:
            raise ValueError("bijections need equal source/target orders")
        # the bijection test on the values as given bounds them, so the
        # table pays no range check of its own: a pair walk lists many
        for name, order, into in (("phi", self.target.m_order, "M"),
                                  ("psi", self.target.gamma_order, "Gamma")):
            table = np.asarray(getattr(self, name))
            if not np.array_equal(np.sort(table), np.arange(order)):
                raise ValueError(f"{name} is not a bijection")
            setattr(self, name, index_table(table, (order,), None, into, name))

    def key(self) -> tuple:
        return (tuple(int(v) for v in self.phi), tuple(int(v) for v in self.psi))


@dataclass
class DerivationTable:
    ring: GammaRing
    d: np.ndarray

    def __post_init__(self):
        m = self.ring.m_order
        self.d = index_table(self.d, (m,), m, "M", "derivation")

    def key(self) -> tuple:
        return tuple(int(v) for v in self.d)


@dataclass
class DefectMap:
    """f: M x Gamma x M -> M measuring additivity failure."""
    ring: GammaRing
    f: np.ndarray
    origin: str = "user"

    def __post_init__(self):
        m, g = self.ring.m_order, self.ring.gamma_order
        self.f = index_table(self.f, (m, g, m), m, "M", "defect")

    @property
    def is_zero(self) -> bool:
        return bool((self.f == 0).all())


@dataclass
class SearchConfig:
    n: int = 2
    budget: int = DEFAULT_BUDGET

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("product arity must be >= 2")
        if self.budget <= 0:
            raise ValueError("budget must be positive")


@dataclass
class SearchResult:
    found: list
    complete: bool
    nodes: int


def _witness_names(n: int) -> list:
    names = []
    for i in range(1, n):
        names += [f"x{i}", f"g{i}"]
    names.append(f"x{n}")
    return names


def _tuple_step(gs):
    """Aligned step: the j-th step of tuple i uses gamma gs[j][i]."""
    return lambda mu, t, j, x: mu[t, gs[j], x]


def _slice_step(gs):
    """Grid step: the j-th step appends the gamma axis gs[j], a slice, and the
    element axis x, a slice or an index array (the d(x) of a Leibniz term);
    t, the product so far, is an index array or a slice of the first slot."""
    return lambda mu, t, j, x: mu[:, gs[j], x][t]


def _chain(mu, factors, step):
    """Products factor[0] g1 factor[1] ... g_{n-1} factor[n-1], folded left to right."""
    t = factors[0]
    for j in range(1, len(factors)):
        t = step(mu, t, j - 1, factors[j])
    return t


def _leibniz(mu, addm, d, factors, step):
    """Sum over i of the chain with d applied to the i-th factor (a factor may
    be a slice: d[..., s] is d read on it).  A (k, m) d, k tables at once,
    gives k sums along a leading axis."""
    dfactors = [d[..., x] for x in factors]
    rhs = None
    for i in range(len(factors)):
        t = dfactors[0] if i == 0 else factors[0]
        for j in range(1, len(factors)):
            t = step(mu, t, j - 1, dfactors[j] if j == i else factors[j])
        rhs = t if rhs is None else addm[rhs, t]
    return rhs


def _scan_chains(m: int, g: int, n: int, lhs, rhs) -> Optional[dict]:
    """Lex-least length-n tuple where lhs and rhs differ, over every tuple, or
    None; uncharged, so the caller charges its m^n g^(n-1) evaluations.

    rings._scan_equal walks the grid x1 g1 ... xn in chunks under
    _CHUNK_ELEMS; each chunk's element slices are the sides' factors, and
    its gamma slices their _slice_step.
    """
    def side(f):
        return lambda *s: f(list(s[0::2]), _slice_step(s[1::2]))

    return _scan_equal(side(lhs), side(rhs), (m,) + (g, m) * (n - 1), _witness_names(n),
                       _UNBOUNDED, "")


def _fold_scan(m: int, g: int, n: int, f, step) -> Optional[dict]:
    """Lex-least failing length-n tuple of an identity that folds, or None: the
    witness _scan_chains gives, read off the distinct fold states.

    The state of x1 is (x1, f(x1)), step(P, T, gammas, xs) appends one
    (gamma, x) step, and a length-n state fails where f(P) != T.  A tuple's
    verdict depends on its prefix only through the prefix's state, so each
    depth keeps its distinct states, at most m * m, as sorted keys P m + T.
    A backward pass marks the states from which some continuation fails.
    The witness takes the least x1 whose state is marked, then at each depth
    the lex-least (gamma, x) that leads to a marked state.  Successors are
    built for chunks of states under the _CHUNK_ELEMS soft cap, so the scan
    evaluates at most 2 (n - 1) m^3 g steps and holds no transition table.
    """
    xs, gs = np.arange(m), np.arange(g)[:, None]

    def moves(keys):
        """(lo, successor keys of keys[lo:lo + k] by every (gamma, x)) per chunk."""
        for lo, hi in _chunks(keys.size, g * m):
            p, t = step(*np.divmod(keys[lo:hi, None, None], m), gs, xs)
            yield lo, p.astype(np.int64) * m + t

    firsts = xs.astype(np.int64) * m + f[xs]
    depths = [np.unique(firsts)]
    for _ in range(n - 1):
        depths.append(np.unique(np.concatenate([np.unique(s) for _, s in moves(depths[-1])])))
    p, t = np.divmod(depths[-1], m)
    marks = [None] * (n - 1) + [f[p] != t]
    if not marks[-1].any():
        return None
    for k in range(n - 2, -1, -1):
        marks[k] = np.empty(depths[k].size, dtype=bool)
        for lo, s in moves(depths[k]):
            ahead = marks[k + 1][np.searchsorted(depths[k + 1], s)]
            marks[k][lo:lo + len(s)] = ahead.any(axis=(1, 2))
    x = int(np.argmax(marks[0][np.searchsorted(depths[0], firsts)]))
    tup, key = [x], firsts[x:x + 1]
    for k in range(1, n):
        s = next(moves(key))[1][0]
        gx = _first(marks[k][np.searchsorted(depths[k], s)])
        tup += gx
        key = s[gx][None]
    return _witness(_witness_names(n), tup)


def _exact_chains(n: int, meter: _Meter, what: str, m: int, g: int, lhs, rhs,
                  fold: Optional[tuple]) -> VerifyReport:
    """The exact verdict on every length-n tuple, each pass charged to meter
    first: a pass past its budget raises BudgetExceededError, never a sample.

    lhs(factors, step) and rhs(factors, step) evaluate the identity's sides on
    the chains over the given element factors: index arrays with a
    _tuple_step, or slices with a _slice_step.  Witnesses are the
    lexicographically least failing tuple, and checked counts every
    length-n tuple.

    `fold`, the identity's (f, step) for _fold_scan, says that each side of a
    chain is carried along x1 g1 ... xn = (x1 g1 ... x_{n-1}) g_{n-1} xn by a
    state of two elements; None means it is not.  A folding identity that
    holds at 2 keeps f(P) = T along every fold, so at every n.  The check
    then scans the m^2 g tuples of n = 2 first, and a pass there is an exact
    pass; only a failure is rescanned over the fold states for the least
    length-n witness.  That rescan is charged the cheaper of its bound
    2 (n - 1) m^3 g and the raw count: depth j keeps at most
    min(m^2, m^j g^(j-1)) states, so where the bound passes the raw count
    the rescan takes about as many steps as the full scan.  So no pass is
    charged more than the raw count, and a check exact at that budget
    stays exact.  An identity without a fold scans, and is charged, every
    length-n tuple.
    """
    if n < 2:
        raise ValueError("product arity must be >= 2")
    count = m**n * g**(n - 1)
    meter.charge(m * m * g if fold else count, what)
    w = _scan_chains(m, g, 2 if fold else n, lhs, rhs)
    if w is not None and fold and n > 2:
        meter.charge(min(2 * (n - 1) * m**3 * g, count), what)
        w = _fold_scan(m, g, n, *fold)
    return VerifyReport(w is None, True, count, w)


def _verify_chains(m: int, g: int, n: int, budget: int, seed: int, lhs, rhs,
                   fold: Optional[tuple]) -> VerifyReport:
    """_exact_chains' verdict when its passes fit the budget, else a seeded sample.

    The sample draws min(budget, _SAMPLE_CAP) tuples in chunks of at most
    _CHUNK_ELEMS entries, (2n - 1) per tuple, and stops at the first chunk
    holding a failure; a sample that fits in one chunk is drawn in one call.
    """
    try:
        return _exact_chains(n, _Meter(budget), "verification", m, g, lhs, rhs, fold)
    except BudgetExceededError:
        pass
    rng = np.random.default_rng(seed)
    samples = int(min(budget, _SAMPLE_CAP))
    for lo, hi in _chunks(samples, 2 * n - 1):
        xs = rng.integers(0, m, size=(n, hi - lo))
        gs = rng.integers(0, g, size=(n - 1, hi - lo))
        step = _tuple_step(gs)
        bad = _first(lhs(list(xs), step) != rhs(list(xs), step))
        if bad is not None:
            j = bad[0]
            tup = [xs[0, j]] + [v for i in range(1, n) for v in (gs[i - 1, j], xs[i, j])]
            return VerifyReport(False, False, hi, _witness(_witness_names(n), tup))
    return VerifyReport(True, False, samples)


def _pulled_back(pair: MapPair) -> np.ndarray:
    """The target table with its gamma and right slots read through psi and phi."""
    return pair.target.mu[:, pair.psi, :][:, :, pair.phi]


def _pair_sides(pair: MapPair) -> tuple:
    """(lhs, rhs) of phi(x1 g1 ... xn) = phi(x1) psi(g1) ... phi(xn), for _verify_chains."""
    phi, mu_tt = pair.phi, _pulled_back(pair)
    return (lambda xs, step: phi[_chain(pair.source.mu, xs, step)],
            lambda xs, step: _chain(mu_tt, [phi[xs[0]]] + xs[1:], step))


def _pair_fold(pair: MapPair) -> tuple:
    """(phi, step) of the pair identity, for _fold_scan: the state (P, T)
    steps to (P g x, T psi(g) phi(x)), the sides of _pair_sides one step
    further, so the fold needs no axiom."""
    mu_s, mu_tt = pair.source.mu, _pulled_back(pair)
    return pair.phi, lambda p, t, gs, xs: (mu_s[p, gs, xs], mu_tt[t, gs, xs])


def verify_n_multiplicative(pair: MapPair, n: int,
                            budget: int = DEFAULT_BUDGET, seed: int = 0) -> VerifyReport:
    """Check phi(x1 g1 x2 ... g_{n-1} xn) = phi(x1) psi(g1) ... phi(xn) over all tuples.

    Both sides fold left to right (_pair_fold), with no axiom used: an exact
    pass at n = 2 decides any n, and a failure there is rescanned over the
    distinct fold states of each length.
    """
    m, g, lhs, rhs, fold = _identity(pair)
    return _verify_chains(m, g, n, budget, seed, lhs, rhs, fold)


def _additivity_sides(obj):
    """(table(x+y), table(x) + table(y)) over all (x, y), and the codomain group."""
    if isinstance(obj, MapPair):
        table, dom, cod = obj.phi, obj.source.m_group, obj.target.m_group
    elif isinstance(obj, DerivationTable):
        table, dom, cod = obj.d, obj.ring.m_group, obj.ring.m_group
    else:
        raise TypeError(f"cannot check additivity of {type(obj).__name__}")
    t = table.astype(np.int64)
    return t[dom.add_table], cod.add_table[t[:, None], t[None, :]], cod


def verify_additive(obj) -> VerifyReport:
    """Exhaustive phi(x+y) = phi(x) + phi(y) for a map pair or derivation table."""
    sums, parts, _ = _additivity_sides(obj)
    neq = sums != parts
    w = _witness(("x", "y"), _first(neq))
    return VerifyReport(w is None, True, neq.size, w)


def _leibniz_sides(deriv: DerivationTable) -> tuple:
    """(lhs, rhs) of d(x1 g1 ... xn) = sum_i x1 g1 ... d(xi) ... xn, for _verify_chains."""
    ring, d = deriv.ring, deriv.d
    return (lambda xs, step: d[_chain(ring.mu, xs, step)],
            lambda xs, step: _leibniz(ring.mu, ring.m_group.add_table, d, xs, step))


def _leibniz_fold(deriv: DerivationTable) -> tuple:
    """(d, step) of the Leibniz identity, for _fold_scan: the state (P, R)
    steps to (P g x, R g x + P g d(x)).  R is the Leibniz sum of the chain
    so far only when the product is additive in its first slot."""
    mu, add, d = deriv.ring.mu, deriv.ring.m_group.add_table, deriv.d
    return d, lambda p, r, gs, xs: (mu[p, gs, xs], add[mu[r, gs, xs], mu[p, gs, d[xs]]])


def verify_n_derivation(deriv: DerivationTable, n: int,
                        budget: int = DEFAULT_BUDGET, seed: int = 0) -> VerifyReport:
    """Check the Leibniz expansion of d over every length-n product.

    When barnes-ii holds, the product is additive in its first slot, so
    d(P g xn) = d(P) g xn + P g d(xn) expands d(P) term by term and the
    identity folds (_leibniz_fold): an exact pass at n = 2 then decides any
    n, and a failure there is rescanned over the distinct fold states.  The
    verdict comes from the ring's Barnes scans, run on first use, so it does
    not depend on which checks ran before; where barnes-ii fails every
    length-n tuple is scanned, and a Barnes scan past rings.AXIOM_EVAL_CAP
    raises BudgetExceededError.
    """
    m, g, lhs, rhs, fold = _identity(deriv)
    return _verify_chains(m, g, n, budget, seed, lhs, rhs, fold)


def _identity(subject) -> tuple:
    """(m, g, lhs, rhs, fold) of the identity a map pair or a derivation
    satisfies, for _exact_chains and _verify_chains; a pair needs
    Barnes-verified rings, and a derivation folds where barnes-ii holds.
    Either runs the ring's Barnes scans if they have not run yet."""
    if isinstance(subject, MapPair):
        subject.source.require_barnes()
        subject.target.require_barnes()
        ring, fold = subject.source, _pair_fold(subject)
        return ring.m_order, ring.gamma_order, *_pair_sides(subject), fold
    ring = subject.ring
    fold = _leibniz_fold(subject) if ring.barnes_reports()[0].holds else None
    return ring.m_order, ring.gamma_order, *_leibniz_sides(subject), fold


def _pack(ok: np.ndarray) -> np.ndarray:
    """The boolean rows ok (..., C) as words (..., ceil(C / 64)), bit c of a
    row in word c // 64 at place c % 64."""
    words = np.zeros((*ok.shape[:-1], -(-ok.shape[-1] // 64)), dtype="<u8")
    packed = np.packbits(ok, axis=-1, bitorder="little")
    words.view(np.uint8)[..., :packed.shape[-1]] = packed
    return words


def _distinct(keys: np.ndarray, size: int) -> np.ndarray:
    """The distinct keys, each in [0, size), in increasing order: what
    np.unique returns, marked in a table over the key space, with no sort."""
    seen = np.zeros(size, dtype=bool)
    seen[keys] = True
    return np.flatnonzero(seen)


def _unpack(words: np.ndarray) -> np.ndarray:
    """The words (..., W) as boolean rows (..., 64 W); the inverse of _pack."""
    return np.unpackbits(words.view(np.uint8), axis=-1, bitorder="little").view(bool)


def _word_table(tgt: np.ndarray) -> Optional[np.ndarray]:
    """inv[w, y, 1 + o]: the words of the images c with tgt[w, y, c] = o, for
    a target table tgt (m_t, Y, C) with values below m_t; inv[w, y, 0], read
    for an unassigned output o = -1, has every bit set.  None when the table
    would pass _WORD_CAP words.  Built in chunks of w by a one-hot compare,
    and returned flat, one row of words per (w, y, 1 + o)."""
    m_t, Y, C = tgt.shape
    words = -(-C // 64)
    if (m_t + 1) * m_t * Y * words > _WORD_CAP:
        return None
    inv = np.empty((m_t, Y, m_t + 1, words), dtype="<u8")
    inv[:, :, 0] = np.iinfo(np.uint64).max
    for lo, hi in _chunks(m_t, Y * m_t * C):
        inv[lo:hi, :, 1:] = _pack(tgt[lo:hi, :, None, :] == np.arange(m_t)[:, None])
    return inv.reshape(-1, words)


class _PairSearch:
    """DFS over (phi, psi) image assignments with product-instance propagation.

    Prefix realizations: every length-(n-1) product whose factors are all
    assigned yields a pair (source value, target value); appending one more
    assigned (gamma, x) step (_extend) determines phi of the full product.
    Propagating these forced values to a fixed point after each branch point
    both prunes and, at a full assignment, constitutes a complete
    verification.

    Both kinds share one path: the image tables, their used marks and the
    products are held by kind, kind 0 for phi and kind 1 for psi; the gamma
    kind is the element kind with the last two product slots swapped.  A
    candidate row (_rows) holds, for an unassigned index u, one bit per
    image c, in uint64 words: the AND, over the fired instances p g u, of
    the images under which the target product matches the output phi(p g u),
    read from a word table built once per engine and kind (_word_table),
    and of the free images, whose words _assign and _undo keep.  Branch
    variables: minimum-remaining-values over the rows of both kinds, every
    candidate forward-checked against the already-fired instances (Haralick
    and Elliott 1980), so only locally consistent values are ever tried;
    ties take phi before psi and the lowest index first.  An index whose row
    holds a single image is no branch point: _branch assigns every such
    index in one forced round, and propagates, before it branches.  At
    n >= 3 no instance fires until a gamma is assigned, so the search first
    branches on the gamma u with the most nonzero products over the
    assigned elements, and it tries only the values c under which no chain
    x1 u x2 ... u xn of assigned factors, its source product assigned,
    contradicts phi (_gamma_values).

    phi(0) = 0 holds in every solution, so run() fixes it: phi(0) =
    phi(0 g ... g x) with phi(x) = 0 collapses to a product with a zero factor
    in the target.

    The search has no budget of its own: its nodes take units of the
    caller's meter, so a search that runs out leaves the meter at budget + 1,
    and its callers gate every other unit of their work on the same meter.
    A node is the root of a run(), or a value tried at a branch point: one
    whose row holds two or more images, or the n >= 3 bootstrap's gamma.  A
    forced value, from a single-image row or from propagation, is no node.
    The DFS keeps an explicit stack of open branch points, each with its
    value iterator and the trail length to retract to before its next value,
    so it visits nodes in the order of the plain recursion while the depth,
    one level per branch point, never meets the interpreter's recursion
    limit.
    """

    def __init__(self, source, target, n, meter: _Meter):
        self.meter = meter
        self.trail = []
        self.mu_s = source.mu
        self.mu_t = target.mu
        self.n = n
        self.m = source.m_order
        self.mt = target.m_order
        self.phi = np.full(self.m, -1, dtype=np.int64)
        self.psi = np.full(source.gamma_order, -1, dtype=np.int64)
        self.phi_used = np.zeros(self.mt, dtype=bool)
        self.psi_used = np.zeros(target.gamma_order, dtype=bool)
        self.tables = (self.phi, self.psi)
        self.used = (self.phi_used, self.psi_used)
        # products with the candidate slot last: (prefix, other kind, kind)
        self.slots = ((self.mu_s, self.mu_t),
                      (self.mu_s.swapaxes(1, 2), self.mu_t.swapaxes(1, 2)))
        self.free = [_pack(~used) for used in self.used]
        self.inv = None             # the word tables, built by the first _rows

    def run(self, fixed=()):
        """Yield each solution, as copies of the (phi, psi) tables, in DFS
        order, with phi(0) = 0 and each (kind, index, value) of `fixed`
        assigned up front.

        The run takes one unit of the meter at its root, and each value tried
        at a branch point takes one more.  The search ends when the meter
        runs out or the caller stops reading, and the trail is retracted
        either way, so the engine can run again: a generator dropped after
        next() is closed at once, which runs the retraction.  The fixed
        values must be injective: an element or gamma given twice, or two of
        them given one image, raises ValueError.
        """
        try:
            if not self.meter.take(1):
                return
            stack, state = [], self._fix(fixed)
            while True:
                if state is not None:
                    branch = self._branch(state)
                    if branch is None:
                        yield self.phi.copy(), self.psi.copy()
                    else:
                        stack.append((*branch, len(self.trail)))
                if not stack:
                    return
                kind, idx, values, mark = stack[-1]
                self._undo(mark)
                v, state = next(values, None), None
                if v is None:
                    stack.pop()
                elif not self.meter.take(1):
                    return
                else:
                    self._assign(kind, idx, v)
                    state = self._propagate()
        finally:
            self._undo(0)

    def admits(self, fixed, kind, idx) -> np.ndarray:
        """ok[c]: whether run(fixed + [(kind, idx, c)]) survives its root.

        The fixed part is propagated once and idx's candidate row read off
        the fired instances, as _branch reads it; every c the row rejects
        would be refuted by the root propagation.  It takes no unit.
        """
        ok = np.zeros(self.used[kind].size, dtype=bool)
        state = self._fix(fixed)
        if state is not None and self.tables[kind][idx] >= 0:
            ok[self.tables[kind][idx]] = True
        elif state is not None:
            ok = self._candidates(kind, state, np.array([idx]))[0]
        self._undo(0)
        return ok

    def _fix(self, fixed):
        """Assign phi(0) = 0 and each (kind, index, value) of `fixed`, then
        propagate; the state _propagate returns."""
        self._assign(0, 0, 0)
        for kind, idx, v in fixed:
            if self.tables[kind][idx] >= 0 or self.used[kind][v]:
                self._undo(0)
                raise ValueError(f"pre-assignment {(kind, idx, v)} repeats an index or image")
            self._assign(kind, idx, v)
        return self._propagate()

    def _assign(self, kind, idx, v):
        self.tables[kind][idx] = v
        self.used[kind][v] = True
        self.free[kind][v >> 6] ^= 1 << (v & 63)
        self.trail.append((kind, idx))

    def _undo(self, mark):
        while len(self.trail) > mark:
            kind, i = self.trail.pop()
            v, self.tables[kind][i] = int(self.tables[kind][i]), -1
            self.used[kind][v] = False
            self.free[kind][v >> 6] ^= 1 << (v & 63)

    def _extend(self, pw, pv, am, fam, ag, fag):
        """The (source, target) values of the products p g x, each prefix pair
        (pw, pv) extended by an assigned gamma and element, as flat arrays."""
        w = self.mu_s[pw[:, None], ag][..., am]
        return w.ravel(), self.mu_t[pv[:, None], fag][..., fam].ravel()

    def _state(self):
        """Assigned elements and gammas with their images, and the distinct
        prefix pairs (pw, pv) of the length-(n-1) products of assigned
        factors."""
        am = (self.phi >= 0).nonzero()[0]
        ag = (self.psi >= 0).nonzero()[0]
        fam = self.phi[am]
        fag = self.psi[ag]
        pw, pv = am, fam
        for _ in range(self.n - 2):
            w, v = self._extend(pw, pv, am, fam, ag, fag)
            keys = _distinct(w.astype(np.int64) * self.mt + v, self.m * self.mt)
            pw, pv = keys // self.mt, keys % self.mt
        return am, fam, ag, fag, pw, pv

    def _propagate(self):
        """Assign the phi values the fired instances force, to a fixed point,
        and return the _state() there, or None on a conflict.

        The outputs of the last extension are read undeduplicated.  An
        unassigned output (-1) differs from its forced value, so more
        differences than unassigned outputs mean a contradicted one; forcing
        one element twice shows as a scatter that does not read back, and
        one image twice as a bincount above 1.  The new values are assigned
        in element order."""
        while True:
            state = am, fam, ag, fag, pw, pv = self._state()
            ow, ov = self._extend(pw, pv, am, fam, ag, fag)
            cur = self.phi[ow]
            new = cur < 0
            fresh = np.count_nonzero(new)
            if np.count_nonzero(cur != ov) > fresh:
                return None
            if not fresh:
                return state
            ow, ov = ow[new], ov[new]
            forced = np.full(self.m, -1, dtype=np.int64)
            forced[ow] = ov
            if np.count_nonzero(forced[ow] != ov):      # one element, two forced images
                return None
            nw = (forced >= 0).nonzero()[0]
            nv = forced[nw]
            # an image already taken, or forced on two elements
            if np.count_nonzero(self.phi_used[nv]) or np.bincount(nv).max() > 1:
                return None
            for x, v in zip(nw.tolist(), nv.tolist()):
                self._assign(0, x, v)

    def _rows(self, kind, state, un):
        """Candidate words (U, W): bit c of row u is set when the free image c
        of index un[u] of `kind` survives the fired instances.

        outs (P, X, U) holds phi of each source product of a prefix, an
        assigned index X of the other kind and un[u]; an unassigned output
        (-1) constrains nothing.  A row is the AND of the word table rows
        inv[target prefix, image of X, 1 + output], gathered by one take of
        their flat row numbers, with the free-image words.  A kind with no
        word table, past _WORD_CAP, compares the target products vals
        (P, X, C) under each image c instead, and packs the result.
        """
        am, fam, ag, fag, pw, pv = state
        x, fx = (ag, fag) if kind == 0 else (am, fam)
        src, tgt = self.slots[kind]
        outs = self.phi[src[pw[:, None], x][..., un]]
        self.inv = self.inv or [_word_table(t) for _, t in self.slots]
        inv = self.inv[kind]
        if inv is not None:
            flat = ((pv[:, None] * tgt.shape[1] + fx) * (self.mt + 1) + 1)[:, :, None] + outs
            return np.bitwise_and.reduce(inv.take(flat, axis=0), axis=(0, 1)) & self.free[kind]
        vals = tgt[pv[:, None], fx[None, :]]
        ok = ((vals[:, :, None, :] == outs[..., None]) | (outs < 0)[..., None]).all(axis=(0, 1))
        return _pack(ok) & self.free[kind]

    def _candidates(self, kind, state, un):
        """ok[u, c]: image c of index un[u] of `kind` survives the fired
        instances and is free; the rows of _rows as booleans."""
        return _unpack(self._rows(kind, state, un))[:, :self.used[kind].size]

    def _branch(self, state):
        """(kind, index, iterator of its values) of the next branch variable
        in `state`, the _state() after propagation, or None at a full
        assignment.

        Forced rounds (unit propagation; Davis, Logemann and Loveland 1962)
        come first: while the least candidate count over both kinds is 1,
        every index whose row holds a single image is assigned in one round,
        then propagated.  Rows only shrink as values are assigned, so the
        rounds reach the state that branching on each single value would,
        and the branch point there is the same.  A round that gives two
        indices of one kind the same image, or whose propagation fails, is
        a dead end, returned as a branch with no value.
        """
        while True:
            un = [(table < 0).nonzero()[0] for table in self.tables]
            if un[0].size == 0 and un[1].size == 0:
                return None
            am, fam, ag, fag, pw, pv = state

            if un[1].size and ag.size == 0 and pw.size == 0 and am.size >= 2:
                # arity > 2 bootstrap: no prefixes can form until one gamma
                # image exists, so nothing discriminates; branch the gamma
                # variable with the most nonzero products over the assigned
                # elements (a zero slot would leave every downstream instance
                # vacuous)
                scores = np.count_nonzero(self.mu_s[np.ix_(am, un[1], am)], axis=(0, 2))
                idx = int(un[1][int(np.argmax(scores))])
                return 1, idx, iter(self._gamma_values(idx, am, fam).tolist())
            # minimum-remaining-values over both kinds, phi rows first: the first
            # least count takes the lowest element index, then the lowest gamma,
            # and a dead end branches on a variable with no value left
            rows = [self._rows(kind, state, un[kind]) for kind in (0, 1)]
            counts = [np.bitwise_count(r).sum(axis=1) for r in rows]
            j = int(np.concatenate(counts).argmin())
            kind = int(j >= un[0].size)
            u = j - kind * un[0].size
            if counts[kind][u] != 1:
                return kind, int(un[kind][u]), iter(_unpack(rows[kind][u]).nonzero()[0].tolist())
            for kind in (0, 1):
                one = counts[kind] == 1
                images = _unpack(rows[kind][one]).argmax(axis=1)
                for x, v in zip(un[kind][one].tolist(), images.tolist()):
                    if self.used[kind][v]:          # an image given twice this round
                        return 0, 0, iter(())
                    self._assign(kind, x, v)
            state = self._propagate()
            if state is None:
                return 0, 0, iter(())

    def _gamma_values(self, u, am, fam):
        """The free values c of psi(u) under which no chain x1 u x2 ... u xn of
        assigned factors, with an assigned source product, contradicts phi.
        Only the n >= 3 bootstrap asks.

        Rows (value position, source value, target value) extend the chains
        one (u, x) step at a time, each depth's rows deduplicated as in
        _state, so a value keeps at most m * m_t rows.  The source steps
        w u x do not depend on c: their table is read once, and the products
        x1 u x2 are built once and repeated per value.  The last step is
        compared with phi in chunks of rows, never held whole.
        """
        cs = np.flatnonzero(~self.psi_used)
        src = self.mu_s[:, u, am]                       # (m, |am|): w u x
        tgt = self.mu_t[:, cs[:, None], fam]            # (m_t, |cs|, |am|): v c phi(x)
        k = np.repeat(np.arange(cs.size), am.size ** 2)
        w = np.tile(src[am].ravel(), cs.size)           # rows (c, x1, x2)
        v = tgt[fam].transpose(1, 0, 2).ravel()
        for depth in range(2, self.n):
            keys = _distinct((k * self.m + w) * self.mt + v, cs.size * self.m * self.mt)
            k, w, v = keys // (self.m * self.mt), keys // self.mt % self.m, keys % self.mt
            if depth < self.n - 1:
                w, v, k = src[w].ravel(), tgt[v, k].ravel(), np.repeat(k, am.size)
        bad = np.zeros(k.size, dtype=bool)
        for lo, hi in _chunks(k.size, am.size):
            out = self.phi[src[w[lo:hi]]]
            bad[lo:hi] = ((out >= 0) & (out != tgt[v[lo:hi], k[lo:hi]])).any(axis=1)
        return np.delete(cs, k[bad])


def search_n_multiplicative_isos(source: GammaRing, target: GammaRing,
                                 config: SearchConfig) -> SearchResult:
    """Every n-multiplicative bijection pair source -> target, in sorted
    (phi, psi) table order, so runs are reproducible byte for byte.

    The pairs of source onto itself are the group Mult_n(source), held as a
    stabilizer chain (_pair_group), and the pairs onto target are the coset
    sigma Mult_n(source) of any one pair sigma, or none.  sigma is the identity
    when target is source, else the first solution of the leaf search, and
    a search that ends without one, its meter not run out, has refuted every
    pair.  The coset is listed by a walk of the chain that starts at sigma.

    One meter gates the leaf search nodes plus the pairs listed, and nodes
    reports its count.  A run that runs out lists the pairs reached so far:
    a prefix of the sorted list.
    """
    if source.m_order != target.m_order or source.gamma_order != target.gamma_order:
        return SearchResult([], True, 0)
    source.require_barnes()
    target.require_barnes()
    n, work = config.n, _Meter(config.budget)
    sigma = None                                # the identity, onto source itself
    if target is not source:
        sol = next(_PairSearch(source, target, n, work).run(), None)
        if sol is None:
            return SearchResult([], work.spent <= work.budget, work.spent)
        sigma = _generator(source, n, *sol, target=target)
    grp = _pair_group(source, n, work)
    if grp is None:
        return SearchResult([], False, work.spent)
    return _listing((MapPair(source, target, *t) for t in grp.walk(sigma=sigma)), grp.order, work)


def _listing(members, count: int, work: _Meter) -> SearchResult:
    """The members a walk yields, each listed for one unit of work, as a
    result that is complete when all `count` of them are listed."""
    found = []
    for member in members:
        if not work.take(1):
            break
        found.append(member)
    return SearchResult(found, len(found) == count, work.spent)


def _compose(a: tuple, b: tuple) -> tuple:
    """The pair a after b, both (phi, psi) tables, or both (phi,)."""
    return tuple(x[y] for x, y in zip(a, b))


def _orbit(kind: int, point: int, generators: list, identity: tuple) -> dict:
    """The orbit of a phi (kind 0) or psi (kind 1) point under the generated
    group, each orbit point c with a product of generators sending point to c."""
    trans = {point: identity}
    queue = [point]
    for p in queue:
        for s in generators:
            c = int(s[kind][p])
            if c not in trans:
                trans[c] = _compose(s, trans[p])
                queue.append(c)
    return trans


def _schreier(base: list, identity: tuple, candidates, find, work: _Meter) -> Optional[tuple]:
    """(levels, generators) of a stabilizer chain with the given base of
    (kind, point) entries (Sims 1970), or None once work runs out.

    Levels are built deepest first.  The generators found so far fix every
    base point before the current one i; the level closes its point's orbit
    under them, then takes each (c, arg) of candidates(i) with c outside the
    orbit.  find(arg) returns a member that fixes the points before i and
    sends point i to c, as a tuple of tables, or None when there is none.
    A member is a new generator, and the orbit closes again.  So the orbit
    is exact once every candidate is tried, and the generators found from a
    level on generate the stabilizer of the points before it (Schreier).
    levels[i] = (kind, point, orbit), each orbit point c with a product of
    generators sending point to c.
    """
    generators, levels = [], []
    for i in range(len(base) - 1, -1, -1):
        kind, point = base[i]
        orbit = _orbit(kind, point, generators, identity)
        for c, arg in candidates(i):
            if c in orbit:
                continue
            member = find(arg)
            if work.spent > work.budget:
                return None
            if member is not None:
                generators.append(member)
                orbit = _orbit(kind, point, generators, identity)
        levels.append((kind, point, orbit))
    return levels[::-1], generators


class _PairGroup:
    """Mult_n(R), the n-multiplicative pairs of a ring onto itself, as a
    stabilizer chain (Sims 1970; Seress 2003, ch. 4).

    The pairs are closed under composition and inverse, so they form a group
    G.  phi maps the product values and, its inverse pair being
    multiplicative too, the annihilating elements onto themselves, so it
    maps F onto F; likewise psi maps A_Gamma onto A_Gamma.  Every instance
    with a factor in F or a gamma in A_Gamma reads 0 = 0, so G is the core,
    the pairs fixing F and A_Gamma pointwise, times Sym(F) x Sym(A_Gamma).
    The core's base is its other nonzero elements in index order, then its
    other gammas.  levels[i] = (kind, point, orbit): the orbit of base point i
    under the core pairs that fix the points before it, each orbit point c
    with such a pair sending point to c.  So |core| is the product of the
    orbit lengths, and the phi levels come first, which leaves the pairs
    (id, psi) as the stabilizer of every phi point.
    """

    def __init__(self, ring: GammaRing, free: np.ndarray, gammas: np.ndarray,
                 levels: list, generators: list):
        self.ring, self.free, self.gammas = ring, free, gammas
        self.levels, self.generators = levels, generators
        # (point, c): the inverse phi of the transversal pair sending phi level point to c
        self.phi_inverse = {(point, c): _inverse_table(u[0]) for kind, point, orbit in levels
                            if kind == 0 for c, u in orbit.items()}
        sizes = [[len(orbit) for k, _, orbit in levels if k == kind] for kind in (0, 1)]
        self.kernel_order = prod(sizes[1]) * factorial(gammas.size)    # |{psi: (id, psi) in G}|
        self.order = prod(sizes[0]) * factorial(free.size) * self.kernel_order

    def has_phi(self, h) -> bool:
        """Whether some pair of the group has a phi that agrees with h on the
        indices of h, a prefix 0..k-1 of M (all of M for a full table).

        h must map the F points of the prefix one to one into F, and h, reset
        to the identity there, must sift to the identity through the phi
        levels whose points lie in the prefix.  Those levels come first, and
        the pairs fixing their points fix the whole prefix: the rest of it is
        0, F and base points of the levels.
        """
        h = np.array(h, dtype=np.int64)
        own = self.free[self.free < h.size]
        if np.unique(h[own]).size < own.size or not np.isin(h[own], self.free).all():
            return False
        h[own] = own
        for kind, point, _ in self.levels:
            key = (point, int(h[point])) if kind == 0 and point < h.size else None
            if key not in self.phi_inverse:
                break
            h = self.phi_inverse[key][h]
        return bool((h == np.arange(h.size)).all())

    def walk(self, skip=None, sigma=None):
        """Every pair sigma h, h in the group, as (phi, psi) tables in (phi,
        psi) order, leaving out the pairs whose phi satisfies skip(phi).

        sigma, a pair of tables from the ring to another, defaults to the
        identity.  Only the branching positions are visited, in table order,
        on an explicit stack: the base points whose orbit has more than one
        point, and the F and A_Gamma positions.  A base point takes the
        images of its orbit under the pair chosen so far, in increasing
        order, and composes that pair with the orbit's pair.  An F or
        A_Gamma position takes the unused values of sigma(F) or
        sigma(A_Gamma) in increasing order and writes that value into the
        pair, which every later core pair leaves alone, as core pairs fix F
        and A_Gamma pointwise.  Every other position already holds its
        value: phi(0) = 0 and the base points that no core pair moves.
        skip(phi) is asked once the last phi position is set, or at the root
        when no phi position branches.
        """
        m, g = self.ring.m_order, self.ring.gamma_order
        pair = (np.arange(m), np.arange(g)) if sigma is None else tuple(t.copy() for t in sigma)
        free = (self.free.tolist(), self.gammas.tolist())
        pools = tuple(sorted(int(pair[kind][x]) for x in free[kind]) for kind in (0, 1))
        steps = sorted([(kind, x, None) for kind in (0, 1) for x in free[kind]]
                       + [level for level in self.levels if len(level[2]) > 1], key=lambda s: s[:2])
        phis = sum(kind == 0 for kind, _, _ in steps)
        chosen = (set(), set())       # the values of the F and A_Gamma positions on the stack

        def options(kind, x, orbit, pair):
            if orbit is not None:
                for c in sorted(orbit, key=lambda c: pair[kind][c]):
                    yield _compose(pair, orbit[c])
                return
            for v in pools[kind]:
                if v not in chosen[kind]:
                    chosen[kind].add(v)
                    pair[kind][x] = v
                    yield pair
                    chosen[kind].remove(v)

        stack = []
        while True:
            if pair is not None and not (len(stack) == phis and skip is not None and skip(pair[0])):
                if len(stack) == len(steps):
                    yield pair[0].copy(), pair[1].copy()
                else:
                    stack.append(options(*steps[len(stack)], pair))
            if not stack:
                return
            pair = next(stack[-1], None)
            if pair is None:
                stack.pop()


def _product_values(ring: GammaRing, n: int) -> list:
    """[P_1, ..., P_n], P_j the values of products of j elements: P_1 = M and
    P_(j+1) the values of mu[P_j]."""
    out = [np.arange(ring.m_order)]
    for _ in range(n - 1):
        out.append(np.unique(ring.mu[out[-1]]))
    return out


def _length_k_products(ring: GammaRing, k: int) -> np.ndarray:
    """All values realized by products of k elements (k >= 1)."""
    return _product_values(ring, k)[-1]


def _free_part(ring: GammaRing, n: int) -> tuple:
    """(F, A_Gamma) of length-n chains as sorted index arrays, exact for any n.

    F: the elements that make every chain 0 from any factor slot, minus the
    values of length-n products.  A_Gamma: the gammas that make every chain
    0 from any gamma slot.

    pre[j] holds the values of length-j chains, and dead[j] marks the values
    that every continuation by j more (gamma, y) steps sends to 0.  A factor
    (or gamma) annihilates when, in every slot, the chain value just after it
    is dead for the steps that remain.
    """
    mu = ring.mu
    pre = [None] + _product_values(ring, n)
    dead = [np.arange(ring.m_order) == 0]
    for _ in range(n - 1):
        dead.append(dead[-1][mu].all(axis=(1, 2)))
    free = dead[n - 1].copy()
    for i in range(2, n + 1):
        free &= dead[n - i][mu[pre[i - 1]]].all(axis=(0, 1))
    gam = np.ones(ring.gamma_order, dtype=bool)
    for j in range(1, n):
        gam &= dead[n - 1 - j][mu[pre[j]]].all(axis=(0, 2))
    free[pre[n]] = False
    return np.flatnonzero(free), np.flatnonzero(gam)


def _pair_group(ring: GammaRing, n: int, work: _Meter) -> Optional[_PairGroup]:
    """The stabilizer chain of Mult_n(ring), or None when the budget runs out.

    F and A_Gamma come from _free_part, and _schreier builds the levels over
    the base of _PairGroup.  A candidate image c of a level's point is a
    later base point of its kind, and its member is the first solution of
    the leaf search with F, the earlier base points and point -> c fixed.
    The level propagates its fixed part once and reads its point's
    candidate row (_PairSearch.admits); a candidate outside the row would be
    refuted at its leaf search's root, so it starts no search.  One engine
    runs every search, each leaf search node taking one unit of work: the
    root of each search, and each value tried where it branches.

    The leaf search leaves psi free on A_Gamma and the solution is reset to
    the identity there, which composes it with a pair of Sym(A_Gamma).  A
    gamma of A_Gamma fires only 0 = 0 instances, and at n >= 3 the search
    branches on a first gamma only while none is assigned, so fixing them
    would let it permute elements blindly: on matrix(2,2,2) at n = 3 one
    refutation took 84,260 nodes with psi(0) = 0 fixed, and the whole chain
    takes 157 without.

    Each generator must be a bijection pair that passes an exact, uncharged
    verification, or InternalInconsistencyError is raised.
    """
    m, g = ring.m_order, ring.gamma_order
    free, gammas = _free_part(ring, n)
    fixed = [(0, int(x), int(x)) for x in free]
    base = ([(0, x) for x in range(1, m) if x not in set(free.tolist())]
            + [(1, a) for a in range(g) if a not in set(gammas.tolist())])
    eng = _PairSearch(ring, ring, n, work)

    def candidates(i):
        kind, point = base[i]
        above = fixed + [(k, p, p) for k, p in base[:i]]
        row = eng.admits(above, kind, point)
        return ((c, above + [(kind, point, c)]) for k, c in base[i + 1:] if k == kind and row[c])

    def find(pinned):
        sol = next(eng.run(pinned), None)
        if sol is not None:
            sol[1][gammas] = gammas
            return _generator(ring, n, *sol)

    chain = _schreier(base, (np.arange(m), np.arange(g)), candidates, find, work)
    return None if chain is None else _PairGroup(ring, free, gammas, *chain)


def _aut_order(grp: _PairGroup, work: _Meter) -> Optional[int]:
    """|pi_phi(G) n Aut M| for the pair group G, from a stabilizer chain of
    that intersection H (Leon 1991), or None when the budget runs out.

    An automorphism is fixed by the images of M's cyclic generators.  The
    base takes them least significant first, so the first j generators span
    the indices below the next one's place value, and a choice of their
    images fixes an additive table on that prefix, which has_phi sifts.
    Level j is the orbit of generator j under the members of H that fix the
    generators before it, so |H| is the product of the orbit lengths.
    _schreier builds the levels: each candidate image of a generator is an
    image of its order outside the span of the earlier generators (children),
    and its member is the first table that covers M in a search over the
    later generators' images (leaves).  Each table sifted costs one unit of
    work; the search recurses once per generator, at most 12 deep under the
    dense-table limit.  Each generator must be an automorphism, or
    InternalInconsistencyError is raised.
    """
    group = grp.ring.m_group
    res, mods, m = group.residues, group._factors_arr, group.order
    places = [int(p) for p in group.generators[::-1]] + [m]
    orders = np.lcm.reduce(mods // np.gcd(res, mods), axis=1, initial=1)

    def children(t):
        """(c, t extended by x -> c), x the next generator, for each image c
        of x's order d outside the span that t holds: a x + y -> a c + t(y)."""
        d = places[places.index(t.size) + 1] // t.size
        for c in np.flatnonzero((orders == d) & ~np.isin(np.arange(m), t)).tolist():
            mults = (np.arange(d)[:, None] * res[c] % mods) @ group._place_values
            yield c, group.add_table[mults[:, None], t[None, :]].ravel()

    def leaves(t):
        """The members of H that extend t, as tables, in search order; the
        search runs only as far as the caller reads."""
        if not work.take(1) or not grp.has_phi(t):
            return
        if t.size == m:
            yield t
        else:
            for _, u in children(t):
                yield from leaves(u)

    def find(u):
        h = next(leaves(u), None)
        if h is not None and (np.unique(h).size < m or not is_group_homomorphism(h, group, group)):
            raise InternalInconsistencyError("a searched automorphism is not one")
        return None if h is None else (h,)

    base = [(0, point) for point in places[:-1]]
    chain = _schreier(base, (np.arange(m),), lambda i: children(np.arange(base[i][1])), find, work)
    return None if chain is None else prod(len(orbit) for _, _, orbit in chain[0])


def _generator(ring: GammaRing, n: int, phi, psi, target: Optional[GammaRing] = None) -> tuple:
    """A leaf search solution ring -> target (default ring) as tables, checked exactly."""
    try:
        pair = MapPair(ring, ring if target is None else target, phi, psi)
    except ValueError as ex:
        raise InternalInconsistencyError(f"a leaf search solution is no bijection pair: {ex}")
    if not _exact_chains(n, _UNBOUNDED, "", *_identity(pair)).passed:
        raise InternalInconsistencyError("a leaf search solution fails verification")
    return phi.astype(np.int64), psi.astype(np.int64)


def _howell(a, N: int) -> tuple:
    """(rows, pivots): a Howell basis of the row span of `a` over Z/N (Howell 1986).

    Each pivot row's (N / gcd(v, N)) multiple, zero at its pivot entry v,
    joins the rows still to reduce.  So a span vector that is zero before
    column c is a combination of the rows pivoting at c or later, and the
    span vectors are the sums of lambda_i row_i, 0 <= lambda_i < N / gcd(v_i, N).

    The pivot column is the leftmost column any row still to reduce reaches,
    and the pivot row the first of them with the least gcd(v, N) there.  Only
    the rows nonzero in the pivot column are reduced, and the multiple, zero
    unless gcd(v, N) > 1, goes last; rows keep their order otherwise.  Over
    Z/2 a row is one integer, column 0 its top bit, and reducing is an XOR
    (as in M4RI: Albrecht, Bard and Hart 2010); the rows come out the same.
    """
    a = np.asarray(a, dtype=np.int64) % N
    if N == 2:
        return _howell_z2(a)
    width, rows, pivots = a.shape[1], [], []
    a = a[a.any(axis=1)]
    while len(a):
        c = int(np.argmax(a.any(axis=0)))         # every row is zero before c
        col = a[:, c]
        piv = a[np.argmin(np.gcd(col, N))].copy()     # a view would keep the pool alive
        while (off := np.flatnonzero(col % gcd(int(piv[c]), N))).size:
            x, e = int(piv[c]), int(col[off[0]])    # some x + t e has gcd(x, e, N)
            t = next(t for t in range(N) if gcd(x + t * e, N) == gcd(x, e, N))
            piv = (piv + t * a[off[0]]) % N
        g = gcd(int(piv[c]), N)
        hit = np.flatnonzero(col)
        a[hit] = (a[hit] - (col[hit] // g * pow(int(piv[c]) // g, -1, N // g))[:, None] * piv) % N
        a = np.delete(a, hit[~a[hit].any(axis=1)], axis=0)
        if (multiple := N // g * piv % N).any():
            a = np.vstack([a, multiple])
        rows.append(piv)
        pivots.append(c)
    return np.array(rows, dtype=np.int64).reshape(-1, width), pivots


def _howell_z2(a) -> tuple:
    """_howell over Z/2 of a 0/1 array, each row held as one integer."""
    width, size = a.shape[1], -(-a.shape[1] // 8)
    packed = np.packbits(a.astype(bool), axis=1).tobytes()
    pool = [int.from_bytes(packed[i * size:(i + 1) * size], "big") for i in range(len(a))]
    pool = [r for r in pool if r]
    rows, pivots = [], []
    while pool:
        top = max(pool).bit_length()
        bit = 1 << (top - 1)                        # no row reaches past it
        i = next(i for i, r in enumerate(pool) if r >= bit)
        piv = pool[i]
        pool = pool[:i] + [x for r in pool[i + 1:] if (x := r ^ piv if r >= bit else r)]
        rows.append(piv)
        pivots.append(8 * size - top)
    packed = np.frombuffer(b"".join(r.to_bytes(size, "big") for r in rows), dtype=np.uint8)
    rows = np.unpackbits(packed.reshape(len(rows), size), axis=1, count=width)
    return rows.astype(np.int64), pivots


class _Span:
    """A subgroup of the maps M -> M, held as a Howell basis over Z/N.

    N is the exponent of M.  A map d is the vector u in (Z/N)^(m r) with
    u[y r + j] = (N / d_j) c_j, c_j the j-th residue of d(y); so the maps are
    the vectors whose (y, j) entries d_j annihilates, and the lex order of
    vectors is the lex order of tables.  rows None gives every map, whose
    Howell basis is the (N / d_j) unit vectors.
    """

    def __init__(self, group, rows, pivots):
        self.group, self.N = group, lcm(*group.factors)
        self.scale = self.N // np.asarray(group.factors, dtype=np.int64)
        if rows is None:
            rows = np.diag(np.tile(self.scale, group.order))
            pivots = list(range(len(rows)))
        self.rows, self.pivots = rows, pivots

    @property
    def count(self) -> int:
        return prod(self.N // gcd(int(row[c]), self.N) for row, c in zip(self.rows, self.pivots))

    def tables(self, vecs) -> np.ndarray:
        """Index tables of the (k, m r) vectors."""
        res = vecs.reshape(len(vecs), self.group.order, len(self.scale)) // self.scale
        return res @ self.group._place_values

    def cut(self, defect) -> "_Span":
        """The subgroup where the linear map d -> defect(d) vanishes, or self
        when it vanishes everywhere; defect(d) gives an element per tuple.

        Basis row i becomes [w_i | row_i], w_i its defects over the distinct
        tuples, a tuple being the column of its defects under each row, taken
        in lex order of those columns.  These rows span the pairs (sum
        lambda_i w_i, sum lambda_i row_i), so by the Howell property the rows
        of their Howell form that pivot past w are a Howell basis of the maps
        with zero defect.

        defect is evaluated once, on the (k, m) tables of all k basis rows,
        and gives a (k, ...) array; a span with no rows is returned without
        evaluating it.
        """
        if not len(self.rows):
            return self
        values = defect(self.tables(self.rows)).reshape(len(self.rows), -1)
        if not values.any():
            return self
        values = values[:, np.lexsort(values[::-1])]    # tuples in lex order of their defects
        fresh = np.r_[True, (values[:, 1:] != values[:, :-1]).any(axis=0)]     # each once
        w = (self.group.residues[values[:, fresh]] * self.scale).reshape(len(self.rows), -1)
        rows, pivots = _howell(np.hstack([w, self.rows]), self.N)
        keep = [i for i, c in enumerate(pivots) if c >= w.shape[1]]
        return _Span(self.group, rows[keep, w.shape[1]:], [pivots[i] - w.shape[1] for i in keep])

    def additive(self) -> "_Span":
        """The maps of the span that are endomorphisms of M."""
        add, sub = self.group.add_table, self.group.sub_index_array
        return self.cut(lambda d: np.concatenate([     # blocks of rows, m^2 defects each
            sub(b[..., add], add[b[..., :, None], b[..., None, :]])
            for b in (d[lo:hi] for lo, hi in _chunks(len(d), add.size))]))

    def walk(self):
        """Every map of the span as an index table, in lex table order.

        Depth first over the basis rows, one stack level each: the entries
        before a row's pivot are fixed by the rows above it, so its multiples
        taken in the order of their pivot entries order the tables.
        """
        stack = [iter([np.zeros(self.rows.shape[1], dtype=np.int64)])]
        while stack:
            v = next(stack[-1], None)
            if v is None:
                stack.pop()
            elif len(stack) > len(self.rows):
                yield self.tables(v[None])[0]
            else:
                row, c = self.rows[len(stack) - 1], self.pivots[len(stack) - 1]
                vals = (v + np.arange(self.N // gcd(int(row[c]), self.N))[:, None] * row) % self.N
                stack.append(iter(vals[np.argsort(vals[:, c])]))


def _unravel(pos: np.ndarray, dims: tuple) -> np.ndarray:
    """np.unravel_index(pos, dims) as the rows of an array, by successive
    divmod, so exact for positions of any size held as Python ints."""
    digits = []
    for dim in reversed(dims):
        digits.append((pos % dim).astype(np.int64))
        pos = pos // dim
    return np.array(digits[::-1])


def _derivations(ring: GammaRing, n: int, work: _Meter) -> Optional[_Span]:
    """The n-derivations of `ring` as a span, or None when the budget runs out.

    Under the Barnes axioms every Leibniz term is additive in d, so the
    n-derivations are the kernel of a linear map on M^M, one equation per
    tuple.  Tuples are cut in chunks, each as large as all before it, until
    one changes nothing.  The span then contains every derivation, and they
    form a group, so it is exact once each basis map passes an exact,
    uncharged verification, for which the budget takes one unit.  A failing
    one adds its witness tuple and the chunks resume; once every tuple is
    in, a failure is an internal inconsistency.

    Chunk k visits tuples k * stride mod count, the stride coprime to count
    and near count / golden ratio, so early chunks spread over every first
    factor: in lex order matrix(2,2,2) at n = 3 stops early on tuples that
    start with 0 and takes 30 times longer.
    """
    m, g, addm = ring.m_order, ring.gamma_order, ring.m_group.add_table
    count = m**n * g**(n - 1)
    stride = max(1, int(min(count, 2**31) * 0.6180339887498949))
    while gcd(stride, count) != 1:
        stride += 1
    dtype = np.int64 if count < 2**62 else object     # past int64, positions are Python ints

    def defect(t):
        xs, step = t[0::2], _tuple_step(t[1::2])
        out = _chain(ring.mu, xs, step)
        return lambda d: ring.m_group.sub_index_array(d[..., out],
                                                      _leibniz(ring.mu, addm, d, xs, step))

    span, done, settled = _Span(ring.m_group, None, None), 0, False
    while True:
        while not settled and done < count:
            size = min(done + 1, count - done, max(1, _CHUNK_ELEMS // max(1, len(span.rows))))
            if not work.take(size):
                return None
            pos = (done * stride % count + stride * np.arange(size, dtype=dtype)) % count
            cut = span.cut(defect(_unravel(pos, (m,) + (g, m) * (n - 1))))
            settled, span, done = cut is span, cut, done + size
        failed = []
        for d in span.tables(span.rows):
            if not work.take(1):
                return None
            rep = _exact_chains(n, _UNBOUNDED, "", *_identity(DerivationTable(ring, d)))
            if not rep.passed:
                failed.append([rep.witness[k] for k in _witness_names(n)])
        if not failed:
            return span
        if done == count:
            raise InternalInconsistencyError(
                "a map in the kernel of every Leibniz equation fails verification")
        span, settled = span.cut(defect(np.array(failed).T)), False


def search_n_derivations(ring: GammaRing, config: SearchConfig) -> SearchResult:
    """Every map satisfying the n-derivation identity, in sorted table order.

    The maps are a walk of the exact kernel from _derivations.  One meter
    gates the equation tuples evaluated, the generators verified and the maps
    listed, and nodes reports its count.
    """
    ring.require_barnes()
    work = _Meter(config.budget)
    span = _derivations(ring, config.n, work)
    if span is None:
        return SearchResult([], False, work.spent)
    return _listing((DerivationTable(ring, d) for d in span.walk()), span.count, work)


def _inverse_table(t: np.ndarray) -> np.ndarray:
    inv = np.empty_like(t)
    inv[t] = np.arange(t.size, dtype=t.dtype)
    return inv


def _defect(obj) -> DefectMap:
    """Additivity defect of a verified map pair or derivation; constant in gamma.

    Pairs pull the target difference back through phi^-1, derivations keep it.
    """
    iso = isinstance(obj, MapPair)
    ring, table, kind = (obj.source, obj.phi, "iso") if iso else (obj.ring, obj.d, "derivation")
    ring.require_barnes()           # the zero-kills-products argument needs it
    if int(table[0]) != 0:
        # forced for any verified map: phi(0) = phi(0 g ... g x0) = ... = 0, and
        # the all-zero instance of the Leibniz identity forces d(0) = 0
        raise InternalInconsistencyError("verified pair does not fix zero" if iso
                                         else "verified derivation does not kill zero")
    sums, parts, cod = _additivity_sides(obj)
    f2 = cod.sub_index_array(sums, parts)
    if iso:
        f2 = _inverse_table(table.astype(np.int64))[f2]
    if (f2[:, 0] != 0).any() or (f2[0, :] != 0).any():
        raise InternalInconsistencyError(f"{kind} defect does not vanish on zero arguments")
    m, g = ring.m_order, ring.gamma_order
    f = np.broadcast_to(f2[:, None, :], (m, g, m)).copy()
    return DefectMap(ring, f, f"{kind}-defect")


def defect_of_iso(pair: MapPair, n: int = 2, budget: int = DEFAULT_BUDGET) -> DefectMap:
    """f(x, gamma, y) = phi^-1(phi(x+y) - phi(x) - phi(y)); constant in gamma.

    The pair must pass an exact verification; one with a pass past the
    budget raises BudgetExceededError before drawing any sample."""
    vr = _exact_chains(n, _Meter(budget), "defect construction", *_identity(pair))
    if not vr.passed:
        raise ValueError(f"pair is not {n}-multiplicative: witness {vr.witness}")
    return _defect(pair)


def defect_of_derivation(deriv: DerivationTable, n: int = 2,
                         budget: int = DEFAULT_BUDGET) -> DefectMap:
    """f(x, gamma, y) = d(x+y) - d(x) - d(y); constant in gamma.

    The map must pass an exact verification; one with a pass past the
    budget raises BudgetExceededError before drawing any sample."""
    deriv.ring.require_barnes()
    vr = _exact_chains(n, _Meter(budget), "defect construction", *_identity(deriv))
    if not vr.passed:
        raise ValueError(f"map is not an {n}-derivation: witness {vr.witness}")
    return _defect(deriv)


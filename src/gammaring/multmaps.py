"""Length-n multiplicative isomorphisms and derivations between finite gamma rings.

Verification is exhaustive whenever the tuple count fits the evaluation
budget, and a seeded pseudorandom sample flagged "partial" otherwise; the
theorem pipelines refuse partial verdicts.  The pair search is a backtracking
enumeration over image tables with vectorized constraint propagation: every
fully-assigned product instance immediately forces (or refutes) the image of
its output, so the leaves of the search tree are exactly the satisfying
assignments.  The pairs of a ring onto itself form a group, which
_pair_group holds as a stabilizer chain: that search, stopped at its first
solution, finds a generator or refutes an orbit point, so the group is
counted, tested and walked in sorted order without being listed.
Derivations need no search: under the Barnes axioms they are the kernel of
one linear map on M^M, solved exactly over Z/N with a Howell basis and
listed by a walk of that basis in sorted table order.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, gcd, lcm, prod
from typing import Optional

import numpy as np

from .errors import InternalInconsistencyError
from .rings import _CHUNK_ELEMS, GammaRing, _first, _scan_equal, _witness

DEFAULT_BUDGET = 10**8
_SAMPLE_CAP = 1 << 20


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
        self.phi = np.ascontiguousarray(np.asarray(self.phi, dtype=np.int32))
        self.psi = np.ascontiguousarray(np.asarray(self.psi, dtype=np.int32))
        if self.phi.shape != (self.source.m_order,):
            raise ValueError(f"phi has {self.phi.shape[0] if self.phi.ndim else 0} entries, "
                             f"need {self.source.m_order}")
        if self.psi.shape != (self.source.gamma_order,):
            raise ValueError(f"psi has wrong length, need {self.source.gamma_order}")
        if self.source.m_order != self.target.m_order or \
           self.source.gamma_order != self.target.gamma_order:
            raise ValueError("bijections need equal source/target orders")
        if not np.array_equal(np.sort(self.phi), np.arange(self.target.m_order)):
            raise ValueError("phi is not a bijection")
        if not np.array_equal(np.sort(self.psi), np.arange(self.target.gamma_order)):
            raise ValueError("psi is not a bijection")
        self.phi.setflags(write=False)
        self.psi.setflags(write=False)

    def key(self) -> tuple:
        return (tuple(int(v) for v in self.phi), tuple(int(v) for v in self.psi))


@dataclass
class DerivationTable:
    ring: GammaRing
    d: np.ndarray

    def __post_init__(self):
        self.d = np.ascontiguousarray(np.asarray(self.d, dtype=np.int32))
        if self.d.shape != (self.ring.m_order,):
            raise ValueError(f"derivation table needs {self.ring.m_order} entries")
        if self.d.size and (self.d.min() < 0 or self.d.max() >= self.ring.m_order):
            raise ValueError("derivation entries out of range")
        self.d.setflags(write=False)

    def key(self) -> tuple:
        return tuple(int(v) for v in self.d)


@dataclass
class DefectMap:
    """f: M x Gamma x M -> M measuring additivity failure."""
    ring: GammaRing
    f: np.ndarray
    origin: str = "user"

    def __post_init__(self):
        self.f = np.ascontiguousarray(np.asarray(self.f, dtype=np.int32))
        m, g = self.ring.m_order, self.ring.gamma_order
        if self.f.shape != (m, g, m):
            raise ValueError(f"defect table shape {self.f.shape} != {(m, g, m)}")
        self.f.setflags(write=False)

    @property
    def is_zero(self) -> bool:
        return bool((self.f == 0).all())


@dataclass
class SearchConfig:
    n: int = 2
    budget: int = DEFAULT_BUDGET
    report_limit: Optional[int] = None

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


def _grid_step(mu, t, j, x):
    """Open grid: append a (gamma, x) axis pair; x indexes the new element axis."""
    return mu[t][..., :, x]


def _tuple_step(gs):
    """Aligned step: the j-th step of tuple i uses gamma gs[j][i]."""
    return lambda mu, t, j, x: mu[t, gs[j], x]


def _chain(mu, factors, step):
    """Products factor[0] g1 factor[1] ... g_{n-1} factor[n-1], folded left to right."""
    t = factors[0]
    for j in range(1, len(factors)):
        t = step(mu, t, j - 1, factors[j])
    return t


def _leibniz(mu, addm, d, factors, step):
    """Sum over i of the chain with d applied to the i-th factor (d[slice(None)] is d)."""
    dfactors = [d[x] for x in factors]
    rhs = None
    for i in range(len(factors)):
        t = dfactors[0] if i == 0 else factors[0]
        for j in range(1, len(factors)):
            t = step(mu, t, j - 1, dfactors[j] if j == i else factors[j])
        rhs = t if rhs is None else addm[rhs, t]
    return rhs


def _verify_chains(m: int, g: int, n: int, budget: int, seed: int, lhs, rhs) -> VerifyReport:
    """Scan every length-n tuple when the count fits the budget, else a seeded sample.

    lhs(factors, step) and rhs(factors, step) evaluate the identity's sides on
    the chains over the given element factors: index arrays, or slice(None)
    for a full open-grid axis.  Exhaustive witnesses are the lexicographically
    least failing tuple.
    """
    count = m**n * g**(n - 1)
    names = _witness_names(n)
    if count <= budget:
        def grid(lo, hi):
            return [np.arange(lo, hi)] + [slice(None)] * (n - 1)

        w = _scan_equal(lambda lo, hi: lhs(grid(lo, hi), _grid_step),
                        lambda lo, hi: rhs(grid(lo, hi), _grid_step),
                        m, (g, m) * (n - 1), names)
        return VerifyReport(w is None, True, count, w)

    rng = np.random.default_rng(seed)
    samples = int(min(budget, _SAMPLE_CAP))
    xs = rng.integers(0, m, size=(n, samples))
    gs = rng.integers(0, g, size=(n - 1, samples))
    step = _tuple_step(gs)
    bad = _first(lhs(list(xs), step) != rhs(list(xs), step))
    if bad is None:
        return VerifyReport(True, False, samples)
    j = bad[0]
    tup = [xs[0, j]] + [v for i in range(1, n) for v in (gs[i - 1, j], xs[i, j])]
    return VerifyReport(False, False, samples, _witness(names, tup))


def verify_n_multiplicative(pair: MapPair, n: int,
                            budget: int = DEFAULT_BUDGET, seed: int = 0) -> VerifyReport:
    """Check phi(x1 g1 x2 ... g_{n-1} xn) = phi(x1) psi(g1) ... phi(xn) over all tuples."""
    if n < 2:
        raise ValueError("product arity must be >= 2")
    pair.source.require_barnes()
    pair.target.require_barnes()
    phi = pair.phi
    # target table pulled back to source coordinates through psi/phi
    mu_tt = pair.target.mu[:, pair.psi, :][:, :, phi]
    return _verify_chains(
        pair.source.m_order, pair.source.gamma_order, n, budget, seed,
        lambda xs, step: phi[_chain(pair.source.mu, xs, step)],
        lambda xs, step: _chain(mu_tt, [phi[xs[0]]] + xs[1:], step))


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


def verify_n_derivation(deriv: DerivationTable, n: int,
                        budget: int = DEFAULT_BUDGET, seed: int = 0) -> VerifyReport:
    """Check the Leibniz expansion of d over every length-n product."""
    if n < 2:
        raise ValueError("product arity must be >= 2")
    ring, d = deriv.ring, deriv.d
    return _verify_chains(
        ring.m_order, ring.gamma_order, n, budget, seed,
        lambda xs, step: d[_chain(ring.mu, xs, step)],
        lambda xs, step: _leibniz(ring.mu, ring.m_group.add_table, d, xs, step))


class _PairSearch:
    """DFS over (phi, psi) image assignments with product-instance propagation.

    Prefix realizations: every length-(n-1) product whose factors are all
    assigned yields a pair (source value, target value); appending one more
    assigned (gamma, x) step determines phi of the full product.  Propagating
    these forced values to a fixed point after each branch point both prunes
    and, at a full assignment, constitutes a complete verification.

    Branch variables: minimum-remaining-values over both kinds, with every
    candidate forward-checked against the already-fired instances, so only
    locally consistent values are ever tried; ties keep phi images in
    element-index order with psi interleaved once instances discriminate.

    phi(0) = 0 holds in every solution, so run() fixes it: phi(0) =
    phi(0 g ... g x) with phi(x) = 0 collapses to a product with a zero factor
    in the target.

    The DFS keeps an explicit stack of open branch points, each with its value
    iterator and the trail length to retract to before its next value, so it
    visits nodes in the order of the plain recursion while the depth, one
    level per assignment, never meets the interpreter's recursion limit.
    """

    def __init__(self, source, target, n, budget, report_limit):
        self.budget = budget
        self.report_limit = report_limit
        self.trail = []
        self.nodes = 0
        self.solutions = []
        self.complete = True
        self.stopped = False
        self.mu_s = source.mu
        self.mu_t = target.mu
        self.n = n
        self.m, self.g = source.m_order, source.gamma_order
        self.mt, self.gt = target.m_order, target.gamma_order
        self.phi = np.full(self.m, -1, dtype=np.int64)
        self.psi = np.full(self.g, -1, dtype=np.int64)
        self.phi_used = np.zeros(self.mt, dtype=bool)
        self.psi_used = np.zeros(self.gt, dtype=bool)

    def _open(self, stack):
        branch = self._branch()
        if branch is not None:
            kind, idx, values = branch
            stack.append((kind, idx, iter(values), len(self.trail)))

    def _dfs(self):
        stack = []
        self._open(stack)
        while stack and not self.stopped:
            kind, idx, values, mark = stack[-1]
            self._undo(mark)
            v = next(values, None)
            if v is None:
                stack.pop()
                continue
            self.nodes += 1
            if self.nodes > self.budget:
                self.stopped = True
                self.complete = False
                return
            self._assign(kind, idx, v)
            if self._propagate():
                self._open(stack)

    def run(self, fixed=()):
        """Search with phi(0) = 0 and each (kind, index, value) of `fixed`
        assigned up front; the trail is retracted on return.

        The fixed values must be injective: an element or gamma given twice,
        or two of them given one image, raises ValueError.
        """
        self._assign(0, 0, 0)
        for kind, idx, v in fixed:
            table, used = (self.phi, self.phi_used) if kind == 0 else (self.psi, self.psi_used)
            if table[idx] >= 0 or used[v]:
                self._undo(0)
                raise ValueError(f"pre-assignment {(kind, idx, v)} repeats an index or image")
            self._assign(kind, idx, v)
        if self._propagate():
            self._dfs()
        self._undo(0)
        return self

    def _undo(self, mark):
        while len(self.trail) > mark:
            kind, i = self.trail.pop()
            if kind == 0:
                self.phi_used[self.phi[i]] = False
                self.phi[i] = -1
            else:
                self.psi_used[self.psi[i]] = False
                self.psi[i] = -1

    def _prefixes(self, am, fam, ag, fag):
        pw, pv = am, fam
        for _ in range(self.n - 2):
            if ag.size == 0:
                return None
            w = self.mu_s[pw[:, None, None], ag[None, :, None], am[None, None, :]]
            v = self.mu_t[pv[:, None, None], fag[None, :, None], fam[None, None, :]]
            keys = np.unique(w.ravel().astype(np.int64) * self.mt + v.ravel())
            pw, pv = keys // self.mt, keys % self.mt
        return pw, pv

    def _propagate(self) -> bool:
        while True:
            am = np.flatnonzero(self.phi >= 0)
            ag = np.flatnonzero(self.psi >= 0)
            if am.size == 0 or ag.size == 0:
                return True
            fam = self.phi[am]
            fag = self.psi[ag]
            pre = self._prefixes(am, fam, ag, fag)
            if pre is None:
                return True
            pw, pv = pre
            ow = self.mu_s[pw[:, None, None], ag[None, :, None], am[None, None, :]].ravel()
            ov = self.mu_t[pv[:, None, None], fag[None, :, None], fam[None, None, :]].ravel()
            keys = np.unique(ow.astype(np.int64) * self.mt + ov)
            ow = keys // self.mt
            ov = keys % self.mt
            cur = self.phi[ow]
            if ((cur >= 0) & (cur != ov)).any():
                return False
            new = cur < 0
            if not new.any():
                return True
            nw, nv = ow[new], ov[new]
            if np.unique(nw).size != nw.size:     # one element, two forced images
                return False
            if self.phi_used[nv].any():           # image already taken
                return False
            if np.unique(nv).size != nv.size:     # two elements, one image
                return False
            for x, v in zip(nw.tolist(), nv.tolist()):
                self.phi[x] = v
                self.phi_used[v] = True
                self.trail.append((0, x))

    def _psi_candidates(self, pw, pv, am, fam, un_g):
        """ok[u, c]: value c survives the fired instances with gamma slot un_g[u]."""
        free = ~self.psi_used
        if un_g.size == 0:
            return np.zeros((0, self.gt), dtype=bool)
        if pw.size == 0 or am.size == 0:
            return np.broadcast_to(free, (un_g.size, self.gt)).copy()
        outs = self.phi[self.mu_s[np.ix_(pw, un_g, am)]]         # (P, U, A)
        known = outs >= 0
        vals = self.mu_t[pv[:, None, None], np.arange(self.gt)[None, :, None], fam[None, None, :]]
        ok = ((vals[:, None, :, :] == outs[:, :, None, :]) | ~known[:, :, None, :]).all(axis=(0, 3))
        ok &= free[None, :]
        return ok

    def _phi_candidates(self, pw, pv, ag, fag, un_m):
        """ok[u, c]: image c survives the fired instances with un_m[u] in the last slot."""
        free = ~self.phi_used
        if un_m.size == 0:
            return np.zeros((0, self.mt), dtype=bool)
        if pw.size == 0 or ag.size == 0:
            return np.broadcast_to(free, (un_m.size, self.mt)).copy()
        outs = self.phi[self.mu_s[np.ix_(pw, ag, un_m)]]         # (P, AG, U)
        known = outs >= 0
        vals = self.mu_t[pv[:, None, None], fag[None, :, None], np.arange(self.mt)[None, None, :]]
        ok = ((vals[:, :, None, :] == outs[:, :, :, None]) | ~known[:, :, :, None]).all(axis=(0, 1))
        ok &= free[None, :]
        return ok

    def _branch(self):
        am = np.flatnonzero(self.phi >= 0)
        ag = np.flatnonzero(self.psi >= 0)
        fam = self.phi[am]
        fag = self.psi[ag]
        pre = self._prefixes(am, fam, ag, fag)
        pw, pv = pre if pre is not None else (np.empty(0, np.int64), np.empty(0, np.int64))

        un_m = np.flatnonzero(self.phi < 0)
        un_g = np.flatnonzero(self.psi < 0)
        if un_m.size == 0 and un_g.size == 0:
            self.solutions.append((self.phi.copy(), self.psi.copy()))
            if self.report_limit is not None and len(self.solutions) >= self.report_limit:
                self.stopped = True
                self.complete = False
            return None

        if un_g.size and ag.size == 0 and pw.size == 0 and am.size >= 2:
            # arity > 2 bootstrap: no prefixes can form until one gamma image
            # exists, so nothing discriminates; branch the gamma variable with
            # the most nonzero products over the assigned elements (a zero
            # slot would leave every downstream instance vacuous)
            prods = self.mu_s[np.ix_(am, un_g, am)]
            scores = (prods != 0).sum(axis=(0, 2))
            kind, idx = 1, int(un_g[int(np.argmax(scores))])
            values = np.flatnonzero(~self.psi_used)
        else:
            phi_ok = self._phi_candidates(pw, pv, ag, fag, un_m)
            psi_ok = self._psi_candidates(pw, pv, am, fam, un_g)
            # minimum-remaining-values over both variable kinds; ties prefer the
            # lowest element index, then the lowest gamma index
            kind, idx, values = None, None, None
            best = None
            for u, x in enumerate(un_m):
                c = int(phi_ok[u].sum())
                if c == 0:
                    return None
                if best is None or c < best:
                    best, kind, idx, values = c, 0, int(x), phi_ok[u]
            for u, gq in enumerate(un_g):
                c = int(psi_ok[u].sum())
                if c == 0:
                    return None
                if best is None or c < best:
                    best, kind, idx, values = c, 1, int(gq), psi_ok[u]
            values = np.flatnonzero(values)

        return kind, idx, values.tolist()

    def _assign(self, kind, idx, v):
        if kind == 0:
            self.phi[idx] = v
            self.phi_used[v] = True
        else:
            self.psi[idx] = v
            self.psi_used[v] = True
        self.trail.append((kind, idx))


def search_n_multiplicative_isos(source: GammaRing, target: GammaRing,
                                 config: SearchConfig) -> SearchResult:
    """Complete enumeration (within node budget) of n-multiplicative bijection pairs.

    Results come out sorted by (phi, psi) table order, so runs are
    reproducible byte for byte.
    """
    if source.m_order != target.m_order or source.gamma_order != target.gamma_order:
        return SearchResult([], True, 0)
    source.require_barnes()
    target.require_barnes()
    eng = _PairSearch(source, target, config.n, config.budget, config.report_limit).run()
    sols = sorted((tuple(p.tolist()), tuple(q.tolist())) for p, q in eng.solutions)
    pairs = [MapPair(source, target, np.asarray(p), np.asarray(q)) for p, q in sols]
    return SearchResult(pairs, eng.complete, eng.nodes)


def _compose(a: tuple, b: tuple) -> tuple:
    """The pair a after b, both (phi, psi) tables."""
    return a[0][b[0]], a[1][b[1]]


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
        sizes = [[len(orbit) for k, _, orbit in levels if k == kind] for kind in (0, 1)]
        self.phi_order = prod(sizes[0]) * factorial(free.size)         # |pi_phi(G)|
        self.kernel_order = prod(sizes[1]) * factorial(gammas.size)    # |{psi: (id, psi) in G}|
        self.order = self.phi_order * self.kernel_order

    def has_phi(self, h) -> bool:
        """Whether some pair of the group has phi = h: h must map F onto F,
        and h, reset to the identity on F, must sift through the phi levels."""
        h = np.asarray(h, dtype=np.int64)
        if not np.array_equal(np.sort(h[self.free]), self.free):
            return False
        h = h.copy()
        h[self.free] = self.free
        for kind, point, orbit in self.levels:
            u = orbit.get(int(h[point])) if kind == 0 else None
            if u is None:
                break
            h = _inverse_table(u[0])[h]
        return bool((h == np.arange(h.size)).all())

    def walk(self, skip):
        """Every pair of the group as (phi, psi) tables, in (phi, psi) order,
        leaving out the pairs whose phi satisfies skip(phi).

        Positions are visited in table order, phi then psi, on an explicit
        stack, one level per position.  A base point takes the images of its
        orbit under the pair chosen so far, in increasing order, and extends
        that pair by the orbit's pair; F and A_Gamma positions take the
        unused values of their pool in increasing order; phi(0) is 0.
        """
        m, g = self.ring.m_order, self.ring.gamma_order
        at = {(kind, point): orbit for kind, point, orbit in self.levels}
        pools = (set(self.free.tolist()), set(self.gammas.tolist()))
        steps = [(0, x) for x in range(m)] + [(1, a) for a in range(g)]
        tables = (np.zeros(m, dtype=np.int64), np.zeros(g, dtype=np.int64))

        def options(j, prefix):
            kind, x = steps[j]
            if x in pools[kind]:
                taken = {int(tables[k][y]) for k, y in steps[:j] if k == kind and y in pools[k]}
                return iter([(v, prefix) for v in sorted(pools[kind] - taken)])
            if (kind, x) not in at:
                return iter([(0, prefix)])
            return iter(sorted(((int(prefix[kind][c]), _compose(prefix, u))
                                for c, u in at[(kind, x)].items()), key=lambda o: o[0]))

        stack = [options(0, (np.arange(m), np.arange(g)))]
        while stack:
            j = len(stack) - 1
            kind, x = steps[j]
            v, prefix = next(stack[-1], (None, None))
            if v is None:
                stack.pop()
                continue
            tables[kind][x] = v
            if j + 1 == m and skip(tables[0]):
                continue
            if j + 1 == len(steps):
                yield tables[0].copy(), tables[1].copy()
            else:
                stack.append(options(j + 1, prefix))


def _pair_group(ring: GammaRing, n: int, free: np.ndarray, gammas: np.ndarray,
                work: "_Work") -> Optional[_PairGroup]:
    """The stabilizer chain of Mult_n(ring), or None when the budget runs out.

    Levels are built deepest first.  The generators found so far fix every
    base point before the current one; the level closes its point's orbit
    under them, then runs a leaf search, with F and the earlier base points
    fixed, for each later base point of its kind outside that orbit.  A
    solution is a new generator, and the orbit closes again.  So the orbit
    is exact once every candidate is tried, and the generators found from a
    level on generate the stabilizer of the points before it (Schreier).

    The leaf search leaves psi free on A_Gamma and the solution is reset to
    the identity there, which composes it with a pair of Sym(A_Gamma).  A
    gamma of A_Gamma fires only 0 = 0 instances, and at n >= 3 the search
    branches on a first gamma only while none is assigned, so fixing them
    would let it permute elements blindly: on matrix(2,2,2) at n = 3 one
    refutation took 89,299 nodes with psi(0) = 0 fixed, and the whole chain
    takes 1,627 without.

    Each generator must be a bijection pair that passes an exact
    verify_n_multiplicative, or InternalInconsistencyError is raised.  The
    budget gates the leaf search nodes.
    """
    m, g = ring.m_order, ring.gamma_order
    identity = (np.arange(m), np.arange(g))
    fixed = [(0, int(x), int(x)) for x in free]
    base = ([(0, x) for x in range(1, m) if x not in set(free.tolist())]
            + [(1, a) for a in range(g) if a not in set(gammas.tolist())])
    generators, levels = [], []
    for i in range(len(base) - 1, -1, -1):
        kind, point = base[i]
        above = [(k, p, p) for k, p in base[:i]]
        orbit = _orbit(kind, point, generators, identity)
        for k, c in base[i + 1:]:
            if k != kind or c in orbit:
                continue
            eng = _PairSearch(ring, ring, n, work.budget - work.spent, 1).run(
                fixed + above + [(kind, point, c)])
            if not work.take(eng.nodes):
                return None
            if eng.solutions:
                phi, psi = eng.solutions[0]
                psi[gammas] = gammas
                generators.append(_generator(ring, n, phi, psi))
                orbit = _orbit(kind, point, generators, identity)
        levels.append((kind, point, orbit))
    return _PairGroup(ring, free, gammas, levels[::-1], generators)


def _generator(ring: GammaRing, n: int, phi, psi) -> tuple:
    """A leaf search solution as a strong generator, checked exactly."""
    try:
        pair = MapPair(ring, ring, phi, psi)
    except ValueError as ex:
        raise InternalInconsistencyError(f"a leaf search solution is no bijection pair: {ex}")
    if not verify_n_multiplicative(pair, n, ring.m_order**n * ring.gamma_order**(n - 1)).exact_pass:
        raise InternalInconsistencyError("a leaf search solution fails verification")
    return phi.astype(np.int64), psi.astype(np.int64)


class _Work:
    """The budget gate of the derivation solve and the pair chain: a unit per
    equation tuple evaluated, generator verified, map listed, leaf search
    node or endomorphism visited.  Running out leaves spent at budget + 1."""

    def __init__(self, budget: int):
        self.budget, self.spent = budget, 0

    def take(self, units: int) -> bool:
        self.spent = min(self.spent + units, self.budget + 1)
        return self.spent <= self.budget


def _howell(a, N: int) -> tuple:
    """(rows, pivots): a Howell basis of the row span of `a` over Z/N (Howell 1986).

    Each pivot row's (N / gcd(v, N)) multiple, zero at its pivot entry v,
    joins the rows still to reduce.  So a span vector that is zero before
    column c is a combination of the rows pivoting at c or later, and the
    span vectors are the sums of lambda_i row_i, 0 <= lambda_i < N / gcd(v_i, N).
    """
    a = np.asarray(a, dtype=np.int64) % N
    width, rows, pivots = a.shape[1], [], []
    while len(a := a[a.any(axis=1)]):
        c = int(np.argmax(a.any(axis=0)))         # every row is zero before c
        col = a[:, c]
        piv = a[np.argmin(np.gcd(col, N))]
        while (off := np.flatnonzero(col % gcd(int(piv[c]), N))).size:
            x, e = int(piv[c]), int(col[off[0]])    # some x + t e has gcd(x, e, N)
            t = next(t for t in range(N) if gcd(x + t * e, N) == gcd(x, e, N))
            piv = (piv + t * a[off[0]]) % N
        g = gcd(int(piv[c]), N)
        q = col // g * pow(int(piv[c]) // g, -1, N // g)
        a = np.vstack([(a - q[:, None] * piv) % N, N // g * piv % N])
        rows.append(piv)
        pivots.append(c)
    return np.array(rows, dtype=np.int64).reshape(-1, width), pivots


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
        tuples.  These rows span the pairs (sum lambda_i w_i, sum lambda_i
        row_i), so by the Howell property the rows of their Howell form that
        pivot past w are a Howell basis of the maps with zero defect.
        """
        values = np.array([defect(d).ravel() for d in self.tables(self.rows)])
        if not values.any():
            return self
        keys = np.unique(values.T, axis=0)          # each tuple's defects, once
        w = (self.group.residues[keys] * self.scale).transpose(1, 0, 2).reshape(len(self.rows), -1)
        rows, pivots = _howell(np.hstack([w, self.rows]), self.N)
        keep = [i for i, c in enumerate(pivots) if c >= w.shape[1]]
        return _Span(self.group, rows[keep, w.shape[1]:], [pivots[i] - w.shape[1] for i in keep])

    def additive(self) -> "_Span":
        """The maps of the span that are endomorphisms of M."""
        add, sub = self.group.add_table, self.group.sub_index_array
        return self.cut(lambda d: sub(d[add], add[d[:, None], d[None, :]]))

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


def _derivations(ring: GammaRing, n: int, work: _Work) -> Optional[_Span]:
    """The n-derivations of `ring` as a span, or None when the budget runs out.

    Under the Barnes axioms every Leibniz term is additive in d, so the
    n-derivations are the kernel of a linear map on M^M, one equation per
    tuple.  Tuples are cut in chunks, each as large as all before it, until
    one changes nothing.  The span then contains every derivation, and they
    form a group, so it is exact once each basis map passes an exact
    verify_n_derivation.  A failing one adds its witness tuple and the chunks
    resume; once every tuple is in, a failure is an internal inconsistency.

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

    def defect(t):
        xs, step = t[0::2], _tuple_step(t[1::2])
        out = _chain(ring.mu, xs, step)
        return lambda d: ring.m_group.sub_index_array(d[out], _leibniz(ring.mu, addm, d, xs, step))

    span, done, settled = _Span(ring.m_group, None, None), 0, False
    while True:
        while not settled and done < count:
            size = min(done + 1, count - done, max(1, _CHUNK_ELEMS // max(1, len(span.rows))))
            if not work.take(size):
                return None
            pos = (done * stride % count + stride * np.arange(size, dtype=np.int64)) % count
            cut = span.cut(defect(np.unravel_index(pos, (m,) + (g, m) * (n - 1))))
            settled, span, done = cut is span, cut, done + size
        failed = []
        for d in span.tables(span.rows):
            if not work.take(1):
                return None
            rep = verify_n_derivation(DerivationTable(ring, d), n, count)
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

    The maps are a walk of the exact kernel from _derivations.  The budget
    gates the equation tuples evaluated, the generators verified and the maps
    listed, and nodes reports that count.
    """
    ring.require_barnes()
    work = _Work(config.budget)
    span = _derivations(ring, config.n, work)
    found = []
    if span is not None:
        for d in span.walk():
            if len(found) == config.report_limit or not work.take(1):
                break
            found.append(DerivationTable(ring, d))
    return SearchResult(found, span is not None and len(found) == span.count, work.spent)


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
    """f(x, gamma, y) = phi^-1(phi(x+y) - phi(x) - phi(y)); constant in gamma."""
    vr = verify_n_multiplicative(pair, n, budget)   # also enforces Barnes rings
    if not vr.exact:
        raise ValueError("defect construction needs an exact multiplicativity verdict; "
                         "raise the budget")
    if not vr.passed:
        raise ValueError(f"pair is not {n}-multiplicative: witness {vr.witness}")
    return _defect(pair)


def defect_of_derivation(deriv: DerivationTable, n: int = 2,
                         budget: int = DEFAULT_BUDGET) -> DefectMap:
    """f(x, gamma, y) = d(x+y) - d(x) - d(y); constant in gamma."""
    deriv.ring.require_barnes()
    vr = verify_n_derivation(deriv, n, budget)
    if not vr.exact:
        raise ValueError("defect construction needs an exact derivation verdict; "
                         "raise the budget")
    if not vr.passed:
        raise ValueError(f"map is not an {n}-derivation: witness {vr.witness}")
    return _defect(deriv)


def inverse_pair(pair: MapPair, n: int = 2, budget: int = DEFAULT_BUDGET) -> MapPair:
    """Invert a verified pair; the inverse verifies n-multiplicative by construction."""
    vr = verify_n_multiplicative(pair, n, budget)
    if not vr.exact_pass:
        raise ValueError("can only invert an exactly verified pair")
    out = MapPair(pair.target, pair.source,
                  _inverse_table(pair.phi), _inverse_table(pair.psi))
    back = verify_n_multiplicative(out, n, budget)
    if not back.exact_pass:
        raise InternalInconsistencyError("inverse of a verified pair failed verification")
    return out


def compose_pairs(outer: MapPair, inner: MapPair) -> MapPair:
    """outer after inner."""
    if inner.target is not outer.source and inner.target != outer.source:
        raise ValueError("composition needs inner.target == outer.source")
    return MapPair(inner.source, outer.target,
                   outer.phi[inner.phi], outer.psi[inner.psi])

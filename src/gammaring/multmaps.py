"""Length-n multiplicative isomorphisms and derivations between finite gamma rings.

Verification is exhaustive whenever the tuple count fits the evaluation
budget, and a seeded pseudorandom sample flagged "partial" otherwise; the
theorem pipelines refuse partial verdicts.  The searches are backtracking
enumerations over image tables with vectorized constraint propagation: every
fully-assigned product instance immediately forces (or refutes) the image of
its output, so the leaves of the search tree are exactly the satisfying
assignments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InternalInconsistencyError
from .rings import GammaRing, _chunks, _first, _scan_equal, _witness

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

    def aligned(mu, t, j, x):
        return mu[t, gs[j], x]

    bad = _first(lhs(list(xs), aligned) != rhs(list(xs), aligned))
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


class _Search:
    """Depth-first search over image tables, shared by both engines.

    Subclasses provide _branch (record a leaf and return None, return None at
    a dead end, else (kind, index, candidate values)), _assign, _undo and
    _propagate.  The DFS keeps an explicit stack of open branch points, each
    with its value iterator and the trail length to retract to before its next
    value, so it visits nodes in the order of the plain recursion while the
    depth, one level per assignment, never meets the interpreter's recursion
    limit.
    """

    def __init__(self, budget, report_limit):
        self.budget = budget
        self.report_limit = report_limit
        self.trail = []
        self.nodes = 0
        self.solutions = []
        self.complete = True
        self.stopped = False

    def _record(self, solution):
        self.solutions.append(solution)
        if self.report_limit is not None and len(self.solutions) >= self.report_limit:
            self.stopped = True
            self.complete = False

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
        """Search with zero's image fixed to zero and each (kind, index, value)
        of `fixed` assigned up front; the trail is retracted on return."""
        self._assign(0, 0, 0)
        for kind, idx, v in fixed:
            self._assign(kind, idx, v)
        if self._propagate():
            self._dfs()
        self._undo(0)
        return self


class _PairSearch(_Search):
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
    """

    def __init__(self, source, target, n, budget, report_limit):
        super().__init__(budget, report_limit)
        self.mu_s = source.mu
        self.mu_t = target.mu
        self.n = n
        self.m, self.g = source.m_order, source.gamma_order
        self.mt, self.gt = target.m_order, target.gamma_order
        self.phi = np.full(self.m, -1, dtype=np.int64)
        self.psi = np.full(self.g, -1, dtype=np.int64)
        self.phi_used = np.zeros(self.mt, dtype=bool)
        self.psi_used = np.zeros(self.gt, dtype=bool)

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
            self._record((self.phi.copy(), self.psi.copy()))
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


class _DerivSearch(_Search):
    """DFS over derivation value tables with Leibniz-instance propagation.

    The all-zero instance of the identity forces d(0) = 0 in every ring, so
    run() fixes it.
    """

    def __init__(self, ring, n, budget, report_limit):
        super().__init__(budget, report_limit)
        self.ring = ring
        self.mu = ring.mu
        self.addm = ring.m_group.add_table
        self.n = n
        self.m, self.g = ring.m_order, ring.gamma_order
        self.d = np.full(self.m, -1, dtype=np.int64)

    def _instance_keys(self, a):
        """Distinct forced pairs over assigned slots, as product index * m + Leibniz sum.

        Each chunk is reduced to its distinct keys before the next is built,
        so a step holds one chunk's instances at a time and never a joined
        copy of all of them.
        """
        keys = []
        for lo, hi in _chunks(a.size, (a.size * self.g) ** (self.n - 1)):
            factors = [a[lo:hi]] + [a] * (self.n - 1)
            out = _chain(self.mu, factors, _grid_step).ravel()
            val = _leibniz(self.mu, self.addm, self.d, factors, _grid_step).ravel()
            keys.append(np.unique(out.astype(np.int64) * self.m + val))
        return np.unique(np.concatenate(keys))

    def _propagate(self) -> bool:
        while True:
            a = np.flatnonzero(self.d >= 0)
            if a.size == 0:
                return True
            keys = self._instance_keys(a)
            ow = keys // self.m
            ov = keys % self.m
            if np.unique(ow).size != ow.size:     # same product, two forced values
                return False
            cur = self.d[ow]
            if ((cur >= 0) & (cur != ov)).any():
                return False
            new = cur < 0
            if not new.any():
                return True
            for x, v in zip(ow[new].tolist(), ov[new].tolist()):
                self.d[x] = v
                self.trail.append(x)

    def _branch(self):
        un = np.flatnonzero(self.d < 0)
        if un.size == 0:
            self._record(self.d.copy())
            return None
        return 0, int(un[0]), range(self.m)

    def _assign(self, kind, idx, v):
        self.d[idx] = v
        self.trail.append(idx)

    def _undo(self, mark):
        while len(self.trail) > mark:
            self.d[self.trail.pop()] = -1


def search_n_derivations(ring: GammaRing, config: SearchConfig) -> SearchResult:
    """Complete enumeration (within node budget) of maps satisfying the n-derivation identity."""
    ring.require_barnes()
    eng = _DerivSearch(ring, config.n, config.budget, config.report_limit).run()
    sols = sorted(tuple(d.tolist()) for d in eng.solutions)
    tables = [DerivationTable(ring, np.asarray(d)) for d in sols]
    return SearchResult(tables, eng.complete, eng.nodes)


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

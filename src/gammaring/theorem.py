"""Replays of the vanishing theorem on concrete defect maps, plus end-to-end pipelines.

The main result being exercised: if the ring carries a qualifying idempotent
family and a three-slot map f satisfies the zero-argument, left-absorption
and right-absorption hypotheses, then f vanishes identically.  Pipelines
build f as the additivity defect of a verified multiplicative map, replay the
hypothesis checks, conclude f = 0, and cross-check against the direct
additivity scan; the two routes agreeing is a hard invariant, so divergence
raises InternalInconsistencyError rather than reporting a failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Iterator, Optional

import numpy as np

from .errors import BudgetExceededError, InternalInconsistencyError, PreconditionError
from .groups import homomorphism_count, homomorphisms, is_group_homomorphism
from .multmaps import (DEFAULT_BUDGET, _SAMPLE_CAP, DefectMap, DerivationTable, MapPair,
                       SearchConfig, VerifyReport, _chain, _defect, _derivations,
                       _grid_step, _pair_group, _Work, verify_additive,
                       verify_n_derivation, verify_n_multiplicative)
from .peirce import (IdempotentFrame, MartindaleReport, PeirceComponents,
                     canonical_frames, check_martindale_family, peirce_decompose)
from .rings import (GammaRing, _chunks, _first, _witness, build_matrix_ring, make_group,
                    trivial_ring)

WITNESS_CAP = 8          # non-additive maps listed per hunt entry


@dataclass
class HypothesisReport:
    k: int
    zero_slots: VerifyReport
    left_absorption: VerifyReport
    right_absorption: VerifyReport

    @property
    def all_passed(self) -> bool:
        return (self.zero_slots.passed and self.left_absorption.passed
                and self.right_absorption.passed)

    @property
    def all_exact(self) -> bool:
        return (self.zero_slots.exact and self.left_absorption.exact
                and self.right_absorption.exact)


@dataclass
class ClaimTrace:
    frame: IdempotentFrame
    claims: dict

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.claims.values())


@dataclass
class TheoremVerdict:
    confirmed: bool
    family: MartindaleReport
    hypotheses: HypothesisReport


@dataclass
class PipelineReport:
    kind: str
    n: int
    k: int
    family: MartindaleReport
    verified: VerifyReport
    hypotheses: HypothesisReport
    defect_zero: bool
    additive: VerifyReport
    agreement: bool


def _length_k_products(ring: GammaRing, k: int) -> np.ndarray:
    """All values realized by products of k elements (k >= 1)."""
    p = np.arange(ring.m_order)
    for _ in range(k - 1):
        p = np.unique(ring.mu[p].ravel())
    return p


def check_hypotheses(defect: DefectMap, k: int, budget: int = DEFAULT_BUDGET) -> HypothesisReport:
    """Verify the three vanishing-theorem hypotheses for f at chain length k.

    The absorption identities quantify over k extra element slots and k+1
    gamma slots; associativity collapses every such chain onto a composite
    (length-k product, final gamma) action, so the exhaustive scan covers all
    raw tuples by checking each composite once.  A defect that does not depend
    on gamma, as every iso and derivation defect, is scanned once per (x, y)
    on its gamma = 0 slice.  The budget gates that scan's own work; `checked`
    still counts the raw tuples it covers.  Witnesses are reported as raw
    tuples, least in the order (u1, g1, ..., uk, gk, x, gamma, y) for the left
    identity and (g1, u1, ..., gk, uk, x, gamma, y) for the right one.
    """
    if k < 1:
        raise ValueError("chain length k must be >= 1")
    ring = defect.ring
    f = defect.f
    m, g = ring.m_order, ring.gamma_order

    zr = VerifyReport(True, True, 2 * m * g)
    for side, names, mask in (("right-zero", ("x", "gamma"), f[:, :, 0] != 0),
                              ("left-zero", ("gamma", "x"), f[0, :, :] != 0)):
        w = _witness(names, _first(mask))
        if w is not None:
            zr = VerifyReport(False, True, 2 * m * g, {"side": side, **w})
            break

    # the exact scan checks |P_k| g composite actions over (x, gamma, y), with
    # gamma collapsed to one slot when f ignores it; a failing check also
    # builds the m^k g^k table of raw chains for its witness
    pk = _length_k_products(ring, k)
    fs = _gamma_free(f)
    if max(pk.size * g * m * fs.shape[1] * m, m**k * g**k) <= budget:
        left = _absorption_exact(ring, fs, k, pk, side="left")
        right = _absorption_exact(ring, fs, k, pk, side="right")
    else:
        left = _absorption_sampled(defect, k, budget, seed=0, side="left")
        right = _absorption_sampled(defect, k, budget, seed=1, side="right")
    return HypothesisReport(k, zr, left, right)


def _gamma_free(f: np.ndarray) -> np.ndarray:
    """The (m, 1, m) gamma = 0 slice of f when f does not depend on gamma, else f.

    An identity in f(x, gamma, y) then holds or fails alike for every gamma,
    so a scan over the slice decides it, and its least witness, which has
    gamma = 0, is the least witness of the full scan.
    """
    head = f[:, :1, :]
    return head if (f == head).all() else f


def _absorption_exact(ring: GammaRing, f: np.ndarray, k: int, pk: np.ndarray,
                      side: str) -> VerifyReport:
    mu = ring.mu
    m, g = ring.m_order, ring.gamma_order
    gs = f.shape[1]                  # gamma slots scanned: g, or 1 for a gamma-free f
    raw_count = m**(k + 2) * g**(k + 1)

    if side == "left":
        act = mu[pk]                                   # [p, gk, w] = p gk w
    else:
        act = np.moveaxis(mu[:, :, pk], 0, 2)          # [g1, q, w] = w g1 q
    a, b = act.shape[0], act.shape[1]
    flat = act.reshape(a * b, m)
    fail = np.zeros((a, b), dtype=bool)
    first_xy = {}
    for lo, hi in _chunks(a * b, m * gs * m):
        lhs = flat[lo:hi][:, f]                                        # [c, x, gamma, y]
        rhs = f[flat[lo:hi][:, :, None, None],
                np.arange(gs)[None, None, :, None],
                flat[lo:hi][:, None, None, :]]
        neq = lhs != rhs
        badc = neq.reshape(hi - lo, -1).any(axis=1)
        for c in np.flatnonzero(badc):
            first_xy[lo + int(c)] = _first(neq[c])
        fail.reshape(-1)[lo:hi] = badc
    if not fail.any():
        return VerifyReport(True, True, raw_count)

    witness = _absorption_witness(ring, k, side, pk, fail, first_xy)
    return VerifyReport(False, True, raw_count, witness)


def _absorption_witness(ring, k, side, pk, fail, first_xy) -> dict:
    """Least raw chain tuple whose composite action fails."""
    m = ring.m_order
    pk_pos = -np.ones(m, dtype=np.int64)
    pk_pos[pk] = np.arange(pk.size)
    # prod[u1, g, u2, ..., uk]: every raw chain of k elements, in lex order
    prod = _chain(ring.mu, [np.arange(m)] + [slice(None)] * (k - 1), _grid_step)
    if side == "left":
        # chains (u1, g1, ..., uk, gk): composite product u1 g1 ... uk, action gamma gk
        idx = _first(fail[pk_pos[prod]])
        comp = (int(pk_pos[prod[idx[:-1]]]), idx[-1])
        names = [f"{v}{i}" for i in range(1, k + 1) for v in ("u", "g")]
    else:
        # chains (g1, u1, g2, u2, ..., gk, uk): composite (g1, q = u1 g2 u2 ... gk uk)
        idx = _first(fail[:, pk_pos[prod]])
        comp = (idx[0], int(pk_pos[prod[idx[1:]]]))
        names = [f"{v}{i}" for i in range(1, k + 1) for v in ("g", "u")]
    w = dict(zip(names, idx))
    w.update(zip(("x", "gamma", "y"), first_xy[comp[0] * fail.shape[1] + comp[1]]))
    return w


def _absorption_sampled(defect: DefectMap, k: int, budget: int, seed: int, side: str) -> VerifyReport:
    ring = defect.ring
    f = defect.f
    mu = ring.mu
    m, g = ring.m_order, ring.gamma_order
    rng = np.random.default_rng(seed)
    samples = int(min(budget, _SAMPLE_CAP))
    us = rng.integers(0, m, size=(k, samples))
    gs = rng.integers(0, g, size=(k, samples))
    xs = rng.integers(0, m, size=samples)
    ys = rng.integers(0, m, size=samples)
    gammas = rng.integers(0, g, size=samples)

    prod = us[0]
    for i in range(1, k):
        prod = mu[prod, gs[i - 1], us[i]]
    if side == "left":
        lhs = mu[prod, gs[k - 1], f[xs, gammas, ys]]
        rhs = f[mu[prod, gs[k - 1], xs], gammas, mu[prod, gs[k - 1], ys]]
    else:
        q = us[k - 1]
        for i in range(k - 1, 0, -1):
            q = mu[us[i - 1], gs[i], q]
        lhs = mu[f[xs, gammas, ys], gs[0], q]
        rhs = f[mu[xs, gs[0], q], gammas, mu[ys, gs[0], q]]
    bad = _first(lhs != rhs)
    if bad is not None:
        j = bad[0]
        w = {f"u{i+1}": int(us[i, j]) for i in range(k)}
        w.update({f"g{i+1}": int(gs[i, j]) for i in range(k)})
        w.update({"x": int(xs[j]), "gamma": int(gammas[j]), "y": int(ys[j])})
        return VerifyReport(False, False, samples, w)
    return VerifyReport(True, False, samples)


def check_claims(defect: DefectMap, frame: IdempotentFrame,
                 components: Optional[PeirceComponents] = None) -> ClaimTrace:
    """Exhaustively evaluate the five staged vanishing identities for f.

    claim1: products scale through f from either side.  claim2: f kills
    (diagonal, off-diagonal) block pairs.  claim3/claim4: f kills the (1,2)
    and (1,1) blocks against themselves.  claim5: f kills corner products
    e.gamma.x in both arguments.
    """
    ring = defect.ring
    f = defect.f
    mu = ring.mu
    m, g = ring.m_order, ring.gamma_order
    if components is None:
        components = peirce_decompose(frame)
    comps = components.components
    gam = np.arange(g)
    claims = {}

    fs = _gamma_free(f)
    fgam = np.arange(fs.shape[1])
    lhs = mu[:, :, fs.reshape(-1)].reshape(m, g, m, fgam.size, m)  # [u, b, x, gamma, y]
    rhs = fs[mu[:, :, :, None, None], fgam[None, None, None, :, None], mu[:, :, None, None, :]]
    witness = None
    bad = _first(lhs != rhs)
    if bad is not None:
        u, b, x, gm_, y = bad
        witness = {"side": "left", "u": int(u), "beta": int(b),
                   "x": int(x), "gamma": int(gm_), "y": int(y)}
    else:
        lhs = mu[fs]                                           # [x, gamma, y, b, u]
        rhs = fs[mu[:, None, None, :, :], fgam[None, :, None, None, None],
                 mu[None, None, :, :, :]]
        bad = _first(lhs != rhs)
        if bad is not None:
            x, gm_, y, b, u = bad
            witness = {"side": "right", "x": int(x), "gamma": int(gm_),
                       "y": int(y), "beta": int(b), "u": int(u)}
    claims["claim1"] = VerifyReport(witness is None, True, 2 * m**3 * g**2, witness)

    witness = None
    checked = 0
    for i in (1, 2):
        for jk in ((1, 2), (2, 1)):
            diag = np.asarray(comps[(i, i)])
            off = np.asarray(comps[jk])
            checked += 2 * diag.size * g * off.size
            for a, b_, names in ((diag, off, ("x_ii", "gamma", "x_jk")),
                                 (off, diag, ("x_jk", "gamma", "x_ii"))):
                bad = _first(f[np.ix_(a, gam, b_)] != 0)
                if bad is not None and witness is None:
                    p, q, r = bad
                    witness = {names[0]: int(a[p]), "gamma": int(q), names[2]: int(b_[r]),
                               "blocks": ((i, i), jk)}
    claims["claim2"] = VerifyReport(witness is None, True, checked, witness)

    for name, ij in (("claim3", (1, 2)), ("claim4", (1, 1))):
        blk = np.asarray(comps[ij])
        block = f[np.ix_(blk, gam, blk)]
        witness = None
        bad = _first(block != 0)
        if bad is not None:
            p, q, r = bad
            witness = {"x": int(blk[p]), "gamma": int(q), "u": int(blk[r])}
        claims[name] = VerifyReport(witness is None, True, block.size, witness)

    corner = np.unique(mu[frame.e])          # e.lambda.x values
    block = f[np.ix_(corner, gam, corner)]
    witness = None
    bad = _first(block != 0)
    if bad is not None:
        p, q, r = bad
        witness = {"x": int(corner[p]), "gamma": int(q), "y": int(corner[r])}
    claims["claim5"] = VerifyReport(witness is None, True, block.size, witness)

    return ClaimTrace(frame, claims)


def conclude_main_theorem(ring: GammaRing, frames, defect: DefectMap, k: int,
                          budget: int = DEFAULT_BUDGET) -> TheoremVerdict:
    """Gate on the structural conditions and hypotheses, then assert f = 0.

    A gate failure raises PreconditionError.  With all gates exactly passed,
    a nonzero f would contradict the theorem and therefore raises an internal
    inconsistency: it cannot arise from input data.
    """
    family = check_martindale_family(ring, frames)
    if not family.overall:
        raise PreconditionError("ring/frame family fails the structural conditions; "
                                "the vanishing theorem does not apply")
    hyp = check_hypotheses(defect, k, budget)
    if not hyp.all_exact:
        raise BudgetExceededError("hypothesis verdicts are partial; raise the budget "
                                  "for an exact conclusion")
    if not hyp.all_passed:
        raise PreconditionError("defect map fails the theorem hypotheses")
    if not defect.is_zero:
        raise InternalInconsistencyError(
            "hypotheses and conditions hold but the defect map is nonzero")
    return TheoremVerdict(True, family, hyp)


# each subject's refusals and inconsistency reports, in the order of its gates
_PIPELINE_TEXT = {
    "iso": ("source ring fails the structural conditions",
            "multiplicativity verdict is partial; raise the budget",
            "pair is not {n}-multiplicative: witness {witness}",
            "iso defect violates the theorem hypotheses; defect construction is buggy",
            "defect vanished but the direct additivity scan disagrees"),
    "derivation": ("ring fails the structural conditions",
                   "derivation verdict is partial; raise the budget",
                   "map is not an {n}-derivation: witness {witness}",
                   "derivation defect violates the theorem hypotheses",
                   "defect vanished but the derivation additivity scan disagrees"),
}


def _run_pipeline(kind: str, ring: GammaRing, subject, n: int, frames,
                  budget: int, k: Optional[int]) -> PipelineReport:
    """Gates in order: family, verify, defect, hypotheses, zero defect, additivity.

    The subject is verified once; its defect comes from the same builder the
    public defect_of_* functions use after their own verification.
    """
    no_family, partial, refused, bad_hypotheses, disagree = _PIPELINE_TEXT[kind]
    if k is None:
        k = n - 1
    family = check_martindale_family(ring, frames)
    if not family.overall:
        raise PreconditionError(no_family)
    verify = verify_n_multiplicative if kind == "iso" else verify_n_derivation
    verified = verify(subject, n, budget)
    if not verified.exact:
        raise BudgetExceededError(partial)
    if not verified.passed:
        raise PreconditionError(refused.format(n=n, witness=verified.witness))
    defect = _defect(subject)
    hyp = check_hypotheses(defect, k, budget)
    if not hyp.all_exact:
        raise BudgetExceededError("hypothesis verdicts are partial; raise the budget")
    if not hyp.all_passed:
        raise InternalInconsistencyError(bad_hypotheses)
    if not defect.is_zero:
        raise InternalInconsistencyError(
            "hypotheses hold on a qualifying ring but the defect is nonzero")
    additive = verify_additive(subject)
    if not additive.passed:
        raise InternalInconsistencyError(disagree)
    return PipelineReport(kind, n, k, family, verified, hyp, True, additive, True)


def run_additivity_pipeline(pair: MapPair, n: int, frames,
                            budget: int = DEFAULT_BUDGET, k: Optional[int] = None) -> PipelineReport:
    """Defect route vs direct additivity scan for an n-multiplicative pair."""
    return _run_pipeline("iso", pair.source, pair, n, frames, budget, k)


def run_derivation_pipeline(ring: GammaRing, deriv: DerivationTable, n: int, frames,
                            budget: int = DEFAULT_BUDGET, k: Optional[int] = None) -> PipelineReport:
    """Defect route vs direct additivity scan for an n-multiplicative derivation."""
    return _run_pipeline("derivation", ring, deriv, n, frames, budget, k)


@dataclass
class RingSurvey:
    name: str
    conditions: dict
    qualifying: bool
    frame_count: int
    iso_found: int
    iso_additive: int
    iso_complete: bool
    deriv_found: int
    deriv_additive: int
    deriv_complete: bool
    witnesses: list = field(default_factory=list)


@dataclass
class SurveyReport:
    n: int
    entries: list
    complete: bool


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
    pre = [None] + [_length_k_products(ring, j) for j in range(1, n + 1)]
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


class _Count:
    """One subject's hunt numbers; found and additive are exact over the
    found maps, and nonadditive walks the non-additive ones in sorted order."""

    def __init__(self, found: int, additive: int, complete: bool, nonadditive: Iterator):
        self.found = found
        self.additive = additive
        self.complete = complete
        self.nonadditive = nonadditive

    def first_nonadditive(self, cap: int) -> list:
        return list(islice(self.nonadditive, min(cap, self.found - self.additive)))


_NOTHING = _Count(0, 0, False, iter(()))


def _pair_count(ring: GammaRing, config: SearchConfig) -> _Count:
    """Pairs counted from the stabilizer chain of Mult_n(ring) (multmaps._PairGroup).

    Additivity depends on phi alone, so the additive pairs number
    |pi_phi(G) n Aut M| times |{psi : (id, psi) in G}|.  When F has at most
    one element and every generator's phi is additive, pi_phi(G) lies in
    Aut M; otherwise each automorphism of M is sifted through the phi
    levels.  Witnesses walk the group in (phi, psi) order and skip additive
    phi.  The budget gates the leaf search nodes plus the endomorphisms
    visited; when it runs out nothing is counted.
    """
    work = _Work(config.budget)
    free, gammas = _free_part(ring, config.n)
    grp = _pair_group(ring, config.n, free, gammas, work)
    if grp is None:
        return _NOTHING
    group = ring.m_group

    def additive(phi):
        return is_group_homomorphism(phi, group, group)

    if free.size < 2 and all(additive(phi) for phi, _ in grp.generators):
        auts = grp.phi_order
    elif work.take(homomorphism_count(group, group)):
        auts = sum(np.unique(h).size == group.order and grp.has_phi(h)
                   for h in homomorphisms(group, group))
    else:
        return _NOTHING
    nonadditive = (MapPair(ring, ring, phi, psi) for phi, psi in grp.walk(additive))
    return _Count(grp.order, auts * grp.kernel_order, True, nonadditive)


def _derivation_count(ring: GammaRing, config: SearchConfig) -> _Count:
    """Derivations counted from two kernels: all of them, and the additive ones.

    Witnesses walk the first kernel in lex order and skip the additive maps.
    The budget gates the derivation solve (see multmaps._derivations) plus
    one unit per basis map checked for additivity, as for each one verified;
    when it runs out nothing is counted.
    """
    work = _Work(config.budget)
    span = _derivations(ring, config.n, work)
    if span is None or not work.take(len(span.rows)):
        return _NOTHING
    group = ring.m_group
    nonadditive = (DerivationTable(ring, d) for d in span.walk()
                   if not is_group_homomorphism(d, group, group))
    return _Count(span.count, span.additive().count, True, nonadditive)


def hunt_counterexamples(rings, n: int = 2, budget: int = DEFAULT_BUDGET) -> SurveyReport:
    """Sweep a ring family for hypothesis-necessity witnesses.

    Qualifying rings (all structural conditions hold) admitting a non-additive
    multiplicative map would contradict the theorem, so that combination
    raises an internal inconsistency.  On non-qualifying rings, non-additive
    finds are recorded as evidence the failed hypothesis cannot be dropped.

    Pair counts come from a stabilizer chain of the group of pairs (see
    _pair_count), and derivation counts are the sizes of two kernels (see
    _derivation_count); both are exact, and a subject whose budget runs out
    counts nothing and is incomplete.  Witnesses are the first WITNESS_CAP
    non-additive maps, pairs in (phi, psi) order, then derivations in table
    order.
    """
    entries = []
    complete = True
    for name, ring in rings:
        frames = canonical_frames(ring)
        fam = check_martindale_family(ring, frames)
        conditions = {
            "frame-family": bool(frames) and all(not v for v in fam.frame_violations),
            "ii": fam.cond_ii.holds,
            "iii": fam.cond_iii.holds if fam.cond_iii is not None else False,
            "iv": all(r.holds for r in fam.cond_iv) if fam.cond_iv else False,
        }
        qualifying = fam.overall

        config = SearchConfig(n=n, budget=budget)
        ring.require_barnes()
        isos = _pair_count(ring, config)
        derivs = _derivation_count(ring, config)
        complete = complete and isos.complete and derivs.complete

        nonadd = (isos.found - isos.additive) + (derivs.found - derivs.additive)
        if qualifying and nonadd:
            raise InternalInconsistencyError(
                f"ring {name!r} satisfies all conditions yet carries "
                f"{nonadd} non-additive multiplicative maps")
        witnesses = [("iso", p) for p in isos.first_nonadditive(WITNESS_CAP)]
        witnesses += [("derivation", d)
                      for d in derivs.first_nonadditive(WITNESS_CAP - len(witnesses))]

        entries.append(RingSurvey(
            name, conditions, qualifying, len(frames),
            isos.found, isos.additive, isos.complete,
            derivs.found, derivs.additive, derivs.complete,
            witnesses))
    return SurveyReport(n, entries, complete)


def _factor_sequences(order: int):
    """Descending factor sequences with the given product, all entries >= 2."""
    if order == 1:
        return [()]
    out = []

    def rec(remaining, cap, acc):
        if remaining == 1:
            out.append(tuple(acc))
            return
        d = min(remaining, cap)
        while d >= 2:
            if remaining % d == 0:
                rec(remaining // d, d, acc + [d])
            d -= 1

    rec(order, order, [])
    return out


def trivial_ring_family(max_order: int, gamma_factors=(2,)) -> list:
    """All-zero-product rings over every abelian presentation of order <= max_order."""
    out = []
    gamma = make_group(gamma_factors)
    for order in range(2, max_order + 1):
        for factors in _factor_sequences(order):
            m = make_group(factors)
            label = "x".join(f"Z{d}" for d in factors)
            out.append((f"trivial({label})", trivial_ring(m, gamma)))
    return out


def matrix_ring_family(mod: int, max_cells: int) -> list:
    """Matrix rings (mod, rows, cols) with rows*cols <= max_cells."""
    out = []
    shapes = [(r, c) for r in range(1, max_cells + 1) for c in range(1, max_cells + 1)
              if r * c <= max_cells]
    shapes.sort(key=lambda rc: (rc[0] * rc[1], rc[0]))
    for r, c in shapes:
        out.append((f"matrix({mod},{r},{c})", build_matrix_ring(mod, r, c)))
    return out

"""Replays of the vanishing theorem on concrete defect maps, plus end-to-end pipelines.

The main result being exercised: if the ring carries a qualifying idempotent
family and a three-slot map f satisfies the zero-argument, left-absorption
and right-absorption hypotheses, then f vanishes identically.  Pipelines
build f as the additivity defect of a verified multiplicative map, replay the
hypothesis checks, conclude f = 0, check that the defect is zero, and run the
direct additivity scan.  Hypotheses that hold on a qualifying ring with a
nonzero defect raise InternalInconsistencyError rather than reporting a
failure.  The defect and the direct scan read the same sums
(multmaps._additivity_sides), so they agree by construction; the independent
additivity oracle is groups.is_group_homomorphism, which the tests use.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Optional

import numpy as np

from .errors import BudgetExceededError, InternalInconsistencyError, PreconditionError
from .groups import is_group_homomorphism
from .multmaps import (DEFAULT_BUDGET, DefectMap, DerivationTable, MapPair, SearchConfig,
                       VerifyReport, _aut_order, _chain, _defect, _derivations,
                       _exact_chains, _identity, _length_k_products, _slice_step,
                       _pair_group, verify_additive)
from .peirce import (IdempotentFrame, MartindaleReport, canonical_frames,
                     check_martindale_family, peirce_decompose)
from .rings import (_UNBOUNDED, GammaRing, _chunks, _first, _Meter, _scan_equal, _witness,
                    build_matrix_ring, make_group, trivial_ring)

WITNESS_CAP = 8          # non-additive maps listed per hunt entry
_PARTIAL = "hypothesis verdicts are partial; raise the budget"


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


def check_hypotheses(defect: DefectMap, k: int, budget: int = DEFAULT_BUDGET) -> HypothesisReport:
    """Verify the three vanishing-theorem hypotheses for f at chain length k, exactly.

    The absorption identities quantify over k extra element slots and k+1
    gamma slots; associativity collapses every such chain onto a composite
    (length-k product, final gamma) action, so the exhaustive scan covers all
    raw tuples by checking each composite once.  A defect that does not depend
    on gamma, as every iso and derivation defect, is scanned once per (x, y)
    on its gamma = 0 slice, and a constant defect c, as every defect on a
    qualifying ring is (c = 0), passes when each composite action fixes c,
    one table lookup per action (_absorption_exact).  Each pass is charged
    to a meter at the budget before it runs: first the |P_k| g lookups, the
    least pass of either side, then a side's composite scan and the m^k g^k
    table of raw chains for its witness only when they run.  One past the
    budget raises BudgetExceededError("hypothesis verdicts are partial;
    raise the budget"), so every report returned is exact.  `checked` still
    counts the raw tuples the scan covers.  Witnesses are reported as raw
    tuples, least in the order (u1, g1, ..., uk, gk, x, gamma, y) for the
    left identity and (g1, u1, ..., gk, uk, x, gamma, y) for the right one.
    """
    if k < 1:
        raise ValueError("chain length k must be >= 1")
    ring = defect.ring
    f = defect.f
    m, g = ring.m_order, ring.gamma_order
    pk = _length_k_products(ring, k)
    fs = _gamma_free(f)
    meter = _Meter(budget)
    meter.charge(pk.size * g, _PARTIAL)

    zr = VerifyReport(True, True, 2 * m * g)
    for side, names, mask in (("right-zero", ("x", "gamma"), f[:, :, 0] != 0),
                              ("left-zero", ("gamma", "x"), f[0, :, :] != 0)):
        w = _witness(names, _first(mask))
        if w is not None:
            zr = VerifyReport(False, True, 2 * m * g, {"side": side, **w})
            break
    left = _absorption_exact(ring, fs, k, pk, "left", meter)
    right = _absorption_exact(ring, fs, k, pk, "right", meter)
    return HypothesisReport(k, zr, left, right)


def _gamma_free(f: np.ndarray) -> np.ndarray:
    """The (m, 1, m) gamma = 0 slice of f when f does not depend on gamma, else f.

    An identity in f(x, gamma, y) then holds or fails alike for every gamma,
    so a scan over the slice decides it, and its least witness, which has
    gamma = 0, is the least witness of the full scan.  A constant f is
    gamma-free too, so its constancy is read on the slice.
    """
    head = f[:, :1, :]
    return head if (f == head).all() else f


def _absorption_act(ring: GammaRing, pk: np.ndarray, side: str) -> np.ndarray:
    """The composite actions: [p, gk, w] = p gk w on the left, [g1, q, w] = w g1 q
    on the right."""
    if side == "left":
        return ring.mu[pk]
    return np.moveaxis(ring.mu[:, :, pk], 0, 2)


def _absorption_exact(ring: GammaRing, f: np.ndarray, k: int, pk: np.ndarray,
                      side: str, meter: _Meter) -> VerifyReport:
    """The absorption identity on every composite action, decided in one table
    lookup when f is one constant c.

    Both sides then read act(c) = c for each action, since f(act x, gamma,
    act y) = c, so a pass needs only act[:, :, c] == c.  A failure, or a
    non-constant f, runs the chunked scan, which finds the least witness.
    """
    c = f.flat[0]
    if (f == c).all() and (_absorption_act(ring, pk, side)[:, :, c] == c).all():
        return VerifyReport(True, True, ring.m_order**(k + 2) * ring.gamma_order**(k + 1))
    return _absorption_scan(ring, f, k, pk, side, meter)


def _absorption_scan(ring: GammaRing, f: np.ndarray, k: int, pk: np.ndarray,
                     side: str, meter: _Meter) -> VerifyReport:
    """The absorption identity scanned over every composite action and (x,
    gamma, y), in chunks of actions; meter is charged the scan, and on a
    failure the raw chain table of its witness, before each runs."""
    m, g = ring.m_order, ring.gamma_order
    gs = f.shape[1]                  # gamma slots scanned: g, or 1 for a gamma-free f
    raw_count = m**(k + 2) * g**(k + 1)

    act = _absorption_act(ring, pk, side)
    a, b = act.shape[0], act.shape[1]
    meter.charge(a * b * m * gs * m, _PARTIAL)
    flat = act.reshape(a * b, m)
    fail = np.zeros((a, b), dtype=bool)
    for lo, hi in _chunks(a * b, m * gs * m):
        fail.reshape(-1)[lo:hi] = _unabsorbed(f, flat[lo:hi]).reshape(hi - lo, -1).any(axis=1)
    if not fail.any():
        return VerifyReport(True, True, raw_count)

    meter.charge(m**k * g**k, _PARTIAL)
    witness = _absorption_witness(ring, f, k, side, pk, act, fail)
    return VerifyReport(False, True, raw_count, witness)


def _unabsorbed(f: np.ndarray, acts: np.ndarray) -> np.ndarray:
    """[c, x, gamma, y]: whether act(f(x, gamma, y)) != f(act x, gamma, act y)
    for the c-th of the actions `acts`, each a row of m images."""
    gcol = np.arange(f.shape[1])[:, None]
    return acts[:, f] != f[acts[:, :, None, None], gcol, acts[:, None, None, :]]


def _absorption_witness(ring, f, k, side, pk, act, fail) -> dict:
    """Least raw chain tuple whose composite action fails, and the least
    (x, gamma, y) at which that action fails."""
    m = ring.m_order
    pk_pos = -np.ones(m, dtype=np.int64)
    pk_pos[pk] = np.arange(pk.size)
    # prod[u1, g, u2, ..., uk]: every raw chain of k elements, in lex order
    prod = _chain(ring.mu, [np.arange(m)] + [slice(None)] * (k - 1),
                  _slice_step([slice(None)] * (k - 1)))
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
    w.update(zip(("x", "gamma", "y"), _first(_unabsorbed(f, act[comp][None])[0])))
    return w


def check_claims(defect: DefectMap, frame: IdempotentFrame) -> ClaimTrace:
    """Exhaustively evaluate the five staged vanishing identities for f.

    claim1: products scale through f from either side.  claim2: f kills
    (diagonal, off-diagonal) block pairs.  claim3/claim4: f kills the (1,2)
    and (1,1) blocks against themselves.  claim5: f kills corner products
    e.gamma.x in both arguments.  Claim 1's sides, u.beta.f(x, gamma, y) and
    f(x, gamma, y).beta.u, are each one rings._scan_equal, unmetered, its
    slots (u, beta, x, gamma, y) and (x, gamma, y, beta, u); the right side
    is scanned only when the left holds, and the witness is the lex-least
    tuple of the failing side, tagged with it.  Claims 2-5 each scan f on a
    list of blocks A x Gamma x B, in order; the witness is the first nonzero
    (a, gamma, b), and claim2's also names its blocks.
    """
    ring = defect.ring
    f = defect.f
    mu = ring.mu
    m, g = ring.m_order, ring.gamma_order
    comps = {ij: np.asarray(c) for ij, c in peirce_decompose(frame).components.items()}
    gam = np.arange(g)
    claims = {}

    fs = _gamma_free(f)
    gcol = np.arange(fs.shape[1])[:, None]             # the gamma slots of fs, as a column
    sides = (("left", ("u", "beta", "x", "gamma", "y"), (m, g) + fs.shape,      # u.b.f(x,gm,y)
              lambda u, b, x, gm, y: mu[u, b, fs[x, gm, y]],
              lambda u, b, x, gm, y: fs[mu[u, b, x][..., None, None], gcol[gm],
                                        mu[u, b, y][:, :, None, None]]),
             ("right", ("x", "gamma", "y", "beta", "u"), fs.shape + (g, m),      # f(x,gm,y).b.u
              lambda x, gm, y, b, u: mu[fs[x, gm, y], b, u],
              lambda x, gm, y, b, u: fs[mu[x, b, u][:, None, None], gcol[gm][..., None, None],
                                        mu[y, b, u]]))
    witness = None
    for side, names, sizes, lhs, rhs in sides:
        w = _scan_equal(lhs, rhs, sizes, names, _UNBOUNDED, "claim1")
        if w is not None:
            witness = {"side": side, **w}
            break
    claims["claim1"] = VerifyReport(witness is None, True, 2 * m**3 * g**2, witness)

    def vanishes(blocks) -> VerifyReport:
        """f = 0 on each ((a name, A), (b name, B), extra keys) block A x Gamma x B."""
        checked, witness = 0, None
        for (an, a), (bn, b), extra in blocks:
            checked += a.size * g * b.size
            if witness is None and (bad := _first(f[np.ix_(a, gam, b)] != 0)) is not None:
                p, q, r = bad
                witness = {an: int(a[p]), "gamma": q, bn: int(b[r]), **extra}
        return VerifyReport(witness is None, True, checked, witness)

    claim2 = []
    for i in (1, 2):
        for jk in ((1, 2), (2, 1)):
            diag, off = ("x_ii", comps[(i, i)]), ("x_jk", comps[jk])
            tag = {"blocks": ((i, i), jk)}
            claim2 += [(diag, off, tag), (off, diag, tag)]
    claims["claim2"] = vanishes(claim2)
    for name, ij in (("claim3", (1, 2)), ("claim4", (1, 1))):
        claims[name] = vanishes([(("x", comps[ij]), ("u", comps[ij]), {})])
    corner = np.unique(mu[frame.e])          # e.lambda.x values
    claims["claim5"] = vanishes([(("x", corner), ("y", corner), {})])
    return ClaimTrace(frame, claims)


def conclude_main_theorem(ring: GammaRing, frames, defect: DefectMap, k: int,
                          budget: int = DEFAULT_BUDGET) -> TheoremVerdict:
    """Gate on the structural conditions and hypotheses, then assert f = 0.

    A gate failure raises PreconditionError.  A hypothesis pass past the
    budget raises check_hypotheses' BudgetExceededError("hypothesis verdicts
    are partial; raise the budget").  With all gates exactly passed, a nonzero f
    would contradict the theorem and therefore raises an internal
    inconsistency: it cannot arise from input data.  A defect or frame of
    another ring raises ValueError.
    """
    if defect.ring is not ring:
        raise ValueError("the defect is a map of another ring than the one checked")
    family = check_martindale_family(ring, frames)
    if not family.overall:
        raise PreconditionError("ring/frame family fails the structural conditions; "
                                "the vanishing theorem does not apply")
    hyp = check_hypotheses(defect, k, budget)
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


def _run_pipeline(kind: str, subject, n: int, family: MartindaleReport,
                  budget: int, k: Optional[int]) -> PipelineReport:
    """Gates in order: family, verify, defect, hypotheses, zero defect, additivity.

    A verification or a hypothesis check with a pass past the budget raises
    BudgetExceededError before it draws any sample or runs that pass, so a
    report is returned only on exact verdicts.
    family is check_martindale_family's report on the subject's ring and
    frames, computed once by the caller however many subjects share it.  The
    subject is verified once; its defect comes from the same builder the
    public defect_of_* functions use after their own verification.
    """
    no_family, partial, refused, bad_hypotheses, disagree = _PIPELINE_TEXT[kind]
    if k is None:
        k = n - 1
    if not family.overall:
        raise PreconditionError(no_family)
    try:
        verified = _exact_chains(n, _Meter(budget), partial, *_identity(subject))
    except BudgetExceededError:
        raise BudgetExceededError(partial) from None
    if not verified.passed:
        raise PreconditionError(refused.format(n=n, witness=verified.witness))
    defect = _defect(subject)
    hyp = check_hypotheses(defect, k, budget)
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
    family = check_martindale_family(pair.source, frames)
    return _run_pipeline("iso", pair, n, family, budget, k)


def run_derivation_pipeline(ring: GammaRing, deriv: DerivationTable, n: int, frames,
                            budget: int = DEFAULT_BUDGET, k: Optional[int] = None) -> PipelineReport:
    """Defect route vs direct additivity scan for an n-multiplicative derivation.

    deriv must be a derivation of `ring`, or ValueError is raised."""
    if deriv.ring is not ring:
        raise ValueError("the derivation is a map of another ring than the one checked")
    family = check_martindale_family(ring, frames)
    return _run_pipeline("derivation", deriv, n, family, budget, k)


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
    witnesses: list


@dataclass
class SurveyReport:
    n: int
    entries: list
    complete: bool


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
    |pi_phi(G) n Aut M| times |{psi : (id, psi) in G}|; the first factor
    comes from a stabilizer chain of that intersection over M's generators
    (multmaps._aut_order).  Witnesses walk the group in (phi, psi) order and
    skip additive phi.  The budget gates the leaf search nodes plus the
    tables the automorphism search sifts; when it runs out nothing is
    counted.
    """
    work = _Meter(config.budget)
    grp = _pair_group(ring, config.n, work)
    auts = None if grp is None else _aut_order(grp, work)
    if auts is None:
        return _NOTHING
    group = ring.m_group

    def additive(phi):
        return is_group_homomorphism(phi, group, group)

    nonadditive = (MapPair(ring, ring, phi, psi) for phi, psi in grp.walk(skip=additive))
    return _Count(grp.order, auts * grp.kernel_order, True, nonadditive)


def _derivation_count(ring: GammaRing, config: SearchConfig) -> _Count:
    """Derivations counted from two kernels: all of them, and the additive ones.

    Witnesses walk the first kernel in lex order and skip the additive maps.
    The budget gates the derivation solve (see multmaps._derivations) plus
    one unit per basis map checked for additivity, as for each one verified;
    when it runs out nothing is counted.
    """
    work = _Meter(config.budget)
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

    Pair counts come from a stabilizer chain of the group of pairs, and
    their additive share from a second chain over M's generators (see
    _pair_count); derivation counts are the sizes of two kernels (see
    _derivation_count).  All are exact, and a subject whose budget runs out
    counts nothing and is incomplete.  Witnesses are the first WITNESS_CAP
    non-additive maps, pairs in (phi, psi) order, then derivations in table
    order.
    """
    entries = []
    complete = True
    for name, ring in rings:
        frames = canonical_frames(ring)
        fam = check_martindale_family(ring, frames)
        config = SearchConfig(n=n, budget=budget)
        ring.require_barnes()
        isos = _pair_count(ring, config)
        derivs = _derivation_count(ring, config)
        complete = complete and isos.complete and derivs.complete

        nonadd = (isos.found - isos.additive) + (derivs.found - derivs.additive)
        if fam.overall and nonadd:
            raise InternalInconsistencyError(
                f"ring {name!r} satisfies all conditions yet carries "
                f"{nonadd} non-additive multiplicative maps")
        witnesses = [("iso", p) for p in isos.first_nonadditive(WITNESS_CAP)]
        witnesses += [("derivation", d)
                      for d in derivs.first_nonadditive(WITNESS_CAP - len(witnesses))]

        entries.append(RingSurvey(
            name, fam.conditions, fam.overall, len(frames),
            isos.found, isos.additive, isos.complete,
            derivs.found, derivs.additive, derivs.complete,
            witnesses))
    return SurveyReport(n, entries, complete)


def _factor_sequences(order: int, cap: int) -> list:
    """Descending factor sequences with product `order`, all entries in [2, cap]."""
    if order == 1:
        return [()]
    return [(d,) + rest for d in range(min(order, cap), 1, -1) if order % d == 0
            for rest in _factor_sequences(order // d, d)]


def trivial_ring_family(max_order: int) -> list:
    """All-zero-product rings over every abelian presentation of order <= max_order,
    each with Gamma = Z2."""
    out = []
    gamma = make_group([2])
    for order in range(2, max_order + 1):
        for factors in _factor_sequences(order, order):
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

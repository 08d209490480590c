"""Idempotent frames, Peirce decomposition, and the structural conditions.

The complement of an idempotent e relative to a unity-like action is never
materialized as a ring element: it exists only as the pair of operator tables
left_f (complement acting from the left through a Gamma slot) and right_f
(from the right).  This keeps rings without a unity in scope, at the price of
validating the operator identities explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import FrameValidationError, InternalInconsistencyError
from . import rings
from .groups import index_table
from .rings import (GammaRing, _additivity_witness, _first, _holds_on, _Meter, _scan_equal,
                    _witness, find_unities)


@dataclass
class FrameViolation:
    invariant: str
    witness: dict

    def describe(self) -> str:
        return f"{self.invariant} at {self.witness}"


@dataclass
class IdempotentFrame:
    """A nontrivial idempotent e plus complement-operator tables.

    left_f[beta, a] realizes "complement beta a", right_f[a, beta] realizes
    "a beta complement"; together with e they realize the formal unity
    1 = e + complement.  Build through canonical_frame or custom_frame only;
    `unity` is the unity a canonical frame comes from, None on a custom one.
    Construction refuses an index outside the ring, in e, gamma1, unity or
    the tables (groups.index_table), and keeps e, gamma1 and unity as plain
    ints, so a frame built from numpy integers emits as JSON; the frame
    identities are validate_frame's.
    """
    ring: GammaRing
    e: int
    gamma1: int
    left_f: np.ndarray
    right_f: np.ndarray
    unity: Optional[int] = None

    def __post_init__(self):
        _require_in_ring(self.ring, self.e, self.gamma1, self.unity)
        self.e, self.gamma1 = int(self.e), int(self.gamma1)
        self.unity = None if self.unity is None else int(self.unity)
        m, g = self.ring.m_order, self.ring.gamma_order
        self.left_f = index_table(self.left_f, (g, m), m, "M", "left_f")
        self.right_f = index_table(self.right_f, (m, g), m, "M", "right_f")

    @cached_property
    def violations(self) -> list:
        """validate_frame's verdict, kept: a frame's fields are never reassigned."""
        return validate_frame(self)


@dataclass
class PeirceComponents:
    frame: IdempotentFrame
    projections: dict
    components: dict

    def sizes(self) -> dict:
        return {ij: len(c) for ij, c in self.components.items()}


@dataclass
class ConditionReport:
    condition: str
    holds: bool
    witness: Optional[dict]
    checked: int


@dataclass
class PeirceRelationsReport:
    holds: bool
    violations: list


@dataclass
class MartindaleReport:
    """The structural conditions on a ring and its frames, one verdict each.

    frame_violations and cond_iv hold one entry per frame; with no frame,
    cond_iii is None and every condition but ii fails.  A ring qualifies
    (overall) when all of `conditions` hold: this is the only statement of
    that rule.
    """
    frame_violations: list
    cond_ii: ConditionReport
    cond_iii: Optional[ConditionReport]
    cond_iv: list
    reason: Optional[str] = None

    @property
    def conditions(self) -> dict:
        return {"frame-family": bool(self.frame_violations) and not any(self.frame_violations),
                "ii": self.cond_ii.holds,
                "iii": self.cond_iii is not None and self.cond_iii.holds,
                "iv": bool(self.cond_iv) and all(r.holds for r in self.cond_iv)}

    @property
    def overall(self) -> bool:
        return all(self.conditions.values())


def _require_in_ring(ring: GammaRing, e: int, gamma1: int, unity: Optional[int]):
    """Refuse, with ValueError, a frame index that is not an integer in the
    ring: read as an index, it would fail or wrap to another element."""
    for name, v, order in (("e", e, ring.m_order), ("gamma1", gamma1, ring.gamma_order),
                           ("unity", unity, ring.m_order)):
        if v is not None and not (isinstance(v, (int, np.integer)) and 0 <= v < order):
            raise ValueError(f"{name} = {v!r} is not an index in [0, {order})")


def _is_unity(ring: GammaRing, e: int, gamma: int) -> bool:
    mu = ring.mu
    idx = np.arange(ring.m_order)
    return bool((mu[e, gamma] == idx).all() and (mu[:, gamma, e] == idx).all())


def _is_nontrivial_idempotent(ring: GammaRing, e: int, gamma: int) -> bool:
    return e != 0 and ring.prod(e, gamma, e) == e and not _is_unity(ring, e, gamma)


def validate_frame(frame: IdempotentFrame) -> list[FrameViolation]:
    """All violated frame invariants, each with its lex-least witness.

    Each scan decides a pass on generator tuples and rescans a failure in
    full.  Frame-associativity is additive in a and b once left_f, right_f
    and the ring's kept barnes-ii verdict are, so it compares generators a
    and b only; that verdict is read, never computed, and without it every
    tuple is scanned.  Reports still count raw coverage.  A full scan is
    rings._scan_equal's, on the sides the generator check reads.  Each pass
    that runs, a generator check or a full scan, is charged to a meter at
    rings.AXIOM_EVAL_CAP, and one past it raises BudgetExceededError.
    """
    ring, e, g1 = frame.ring, frame.e, frame.gamma1
    mu = ring.mu
    mg = ring.m_group
    m, g = ring.m_order, ring.gamma_order
    lf, rf = frame.left_f, frame.right_f
    out = []
    if not _is_nontrivial_idempotent(ring, e, g1):
        out.append(FrameViolation("nontrivial-idempotent", {"e": e, "gamma1": g1}))

    idx = np.arange(m)
    # left_f[g1, a] = a - e.g1.a and right_f[a, g1] = a - a.g1.e
    for invariant, table, prod in (("left-specialization", lf[g1], mu[e, g1]),
                                   ("right-specialization", rf[:, g1], mu[:, g1, e])):
        witness = _witness(("a",), _first(table != mg.sub_index_array(idx, prod)))
        if witness is not None:
            out.append(FrameViolation(invariant, witness))

    addm, meter = mg.add_table, _Meter(rings.AXIOM_EVAL_CAP)
    left = _additivity_witness(lf, 1, mg, addm, ("beta", "x", "y"), meter, "left-additivity")
    right = _additivity_witness(rf, 0, mg, addm, ("x", "y", "beta"), meter, "right-additivity")
    gidx, what = np.arange(g), "frame-associativity"
    # (a beta complement) gamma b == a beta (complement gamma b)
    sides = (lambda a, beta, gamma, b: mu[rf[a, beta], gamma, b],
             lambda a, beta, gamma, b: mu[a, beta, lf[gamma, b]])
    assoc_ok = left is None and right is None and ring.known_distributive and _holds_on(
        (mg.generators, gidx, gidx, mg.generators), *sides, meter, what)
    assoc = None if assoc_ok else _scan_equal(*sides, (m, g, g, m),
                                              ("a", "beta", "gamma", "b"), meter, what)
    for invariant, witness in (("left-additivity", left), ("right-additivity", right),
                               ("frame-associativity", assoc)):
        if witness is not None:
            out.append(FrameViolation(invariant, witness))
    return out


def canonical_frame(ring: GammaRing, e: int, gamma1: int, unity: int) -> IdempotentFrame:
    """Frame induced by an actual unity: complement actions 1.b.a - e.b.a and a.b.1 - a.b.e."""
    ring.require_barnes()
    _require_in_ring(ring, e, gamma1, unity)
    if not _is_unity(ring, unity, gamma1):
        raise ValueError(f"({unity}, {gamma1}) is not a gamma-unity")
    if not _is_nontrivial_idempotent(ring, e, gamma1):
        raise ValueError(f"({e}, {gamma1}) is not a nontrivial idempotent")
    mg = ring.m_group
    mu = ring.mu
    left_f = mg.sub_index_array(mu[unity], mu[e])            # [b, a]
    right_f = mg.sub_index_array(mu[:, :, unity], mu[:, :, e])  # [a, b]
    frame = IdempotentFrame(ring, e, gamma1, left_f, right_f, unity)
    bad = frame.violations
    if bad:
        # ring associativity + distributivity make these identities theorems
        raise InternalInconsistencyError(
            f"canonical frame failed validation: {bad[0].describe()}")
    return frame


def custom_frame(ring: GammaRing, e: int, gamma1: int, left_f, right_f) -> IdempotentFrame:
    """Validate user-supplied complement tables; reject with all violations."""
    ring.require_barnes()
    frame = IdempotentFrame(ring, e, gamma1, left_f, right_f)
    bad = frame.violations
    if bad:
        raise FrameValidationError(bad)
    return frame


_BLOCKS = ((1, 1), (1, 2), (2, 1), (2, 2))


def peirce_decompose(frame: IdempotentFrame) -> PeirceComponents:
    """Materialize the four projections and their images.

    The projection identities (sum to identity, idempotent, orthogonal) are
    consequences of the ring axioms for any valid frame, so after the frame
    itself is validated their violation is raised as an internal
    inconsistency rather than reported.
    """
    bad = frame.violations
    if bad:
        raise FrameValidationError(bad)
    ring = frame.ring
    mg = ring.m_group
    mu = ring.mu
    e, g1 = frame.e, frame.gamma1
    idx = np.arange(ring.m_order)

    ega = mu[e, g1]                      # e g1 a
    age = mu[:, g1, e]                   # a g1 e
    p11 = mu[ega, g1, e]                 # e g1 a g1 e
    p12 = mg.sub_index_array(ega, p11)
    p21 = mg.sub_index_array(age, p11)
    p22 = mg.add_table[mg.sub_index_array(mg.sub_index_array(idx, ega), age), p11]

    proj = {(1, 1): p11, (1, 2): p12, (2, 1): p21, (2, 2): p22}

    total = mg.add_table[mg.add_table[p11, p12], mg.add_table[p21, p22]]
    if not (total == idx).all():
        raise InternalInconsistencyError("Peirce projections do not sum to the identity")
    for ij in _BLOCKS:
        for kl in _BLOCKS:
            expect = proj[ij] if ij == kl else np.zeros_like(idx)
            if not (proj[ij][proj[kl]] == expect).all():
                raise InternalInconsistencyError(
                    f"Peirce projections P{ij}/P{kl} are not orthogonal idempotents")

    comps = {ij: tuple(int(v) for v in np.unique(p)) for ij, p in proj.items()}
    return PeirceComponents(frame, proj, comps)


def check_peirce_relations(components: PeirceComponents) -> PeirceRelationsReport:
    """Exhaustively verify the two multiplicative relations between blocks."""
    frame = components.frame
    ring = frame.ring
    mu = ring.mu
    g1 = frame.gamma1
    gam_idx = np.arange(ring.gamma_order)
    violations = []

    for ij in _BLOCKS:
        for kl in _BLOCKS:
            a = np.asarray(components.components[ij])
            b = np.asarray(components.components[kl])
            prods = mu[np.ix_(a, gam_idx, b)]
            il = (ij[0], kl[1])
            bad = _first(components.projections[il][prods] != prods)
            if bad is not None:
                x, gg, y = bad
                violations.append({
                    "relation": "block-product-containment",
                    "blocks": (ij, kl), "x": int(a[x]), "gamma": int(gg),
                    "y": int(b[y]), "product": int(prods[x, gg, y])})
            if ij[1] != kl[0]:
                mid = mu[np.ix_(a, [g1], b)][:, 0, :]
                bad = _first(mid != 0)
                if bad is not None:
                    x, y = bad
                    violations.append({
                        "relation": "gamma1-orthogonality",
                        "blocks": (ij, kl), "x": int(a[x]), "y": int(b[y]),
                        "product": int(mid[x, y])})
    return PeirceRelationsReport(not violations, violations)


def check_condition_ii(ring: GammaRing) -> ConditionReport:
    """x.Gamma.M = 0 forces x = 0."""
    mu = ring.mu
    dead = (mu == 0).all(axis=(1, 2))
    dead[0] = False
    witness = _witness(("x",), _first(dead))
    return ConditionReport("ii", witness is None, witness, mu.size)


def check_condition_iii(ring: GammaRing, frames) -> ConditionReport:
    """e_a.Gamma.M.Gamma.x = 0 for every frame forces x = 0."""
    frames = list(frames)
    if not frames:
        raise ValueError("condition (iii) needs a nonempty frame family")
    mu = ring.mu
    reach = np.zeros(ring.m_order, dtype=bool)
    checked = 0
    for fr in frames:
        left = np.unique(mu[fr.e].ravel())       # e.delta.m values
        reach |= (mu[left] != 0).any(axis=(0, 1))
        checked += left.size * ring.gamma_order * ring.m_order
    dead = ~reach
    dead[0] = False
    witness = _witness(("x",), _first(dead))
    return ConditionReport("iii", witness is None, witness, checked)


def check_condition_iv(frame: IdempotentFrame) -> ConditionReport:
    """(e.g1.x.g1.e).Gamma.M.Gamma-complement = 0 forces the corner part to vanish.

    The formal right factor m.beta.(1 - e) is realized as right_f[m, beta].
    Each distinct corner value is tested once; the witness is the least x
    whose corner is nonzero and dead, with that corner.
    """
    ring = frame.ring
    mu = ring.mu
    e, g1 = frame.e, frame.gamma1
    corner = mu[mu[e, g1], g1, e]                 # per x: e g1 x g1 e
    rvals = np.unique(frame.right_f)
    uniq = np.unique(corner)
    dead = (mu[np.ix_(uniq, np.arange(ring.gamma_order), rvals)] == 0).all(axis=(1, 2))
    bad = _first(np.isin(corner, uniq[dead & (uniq != 0)]))
    witness = None if bad is None else {"x": bad[0], "corner": int(corner[bad])}
    checked = int(uniq.size) * ring.gamma_order * int(rvals.size)
    return ConditionReport("iv", witness is None, witness, checked)


def check_martindale_family(ring: GammaRing, frames) -> MartindaleReport:
    """Aggregate frame validity plus the three annihilation conditions.

    Every frame must be built on `ring`, or ValueError is raised."""
    frames = list(frames)
    if any(fr.ring is not ring for fr in frames):
        raise ValueError("a frame is built on another ring than the one checked")
    cond_ii = check_condition_ii(ring)
    if not frames:
        return MartindaleReport([], cond_ii, None, [], reason="empty idempotent family")
    return MartindaleReport([fr.violations for fr in frames], cond_ii,
                            check_condition_iii(ring, frames),
                            [check_condition_iv(fr) for fr in frames])


def canonical_frames(ring: GammaRing) -> list[IdempotentFrame]:
    """All frames derivable from a unity and a nontrivial idempotent sharing its gamma."""
    from .rings import find_idempotents
    out = []
    unity_by_gamma = {}
    for u in find_unities(ring):
        unity_by_gamma.setdefault(u.gamma, u.one)
    for rec in find_idempotents(ring):
        if not rec.nontrivial:
            continue
        one = unity_by_gamma.get(rec.gamma)
        if one is not None:
            out.append(canonical_frame(ring, rec.e, rec.gamma, one))
    return out

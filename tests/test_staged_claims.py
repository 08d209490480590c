"""Claims 2-5 of theorem.check_claims against a plain-loop oracle, on failing defects.

Each of those claims says that f vanishes on a list of blocks A x Gamma x B
of the Peirce decomposition.  The oracle walks the blocks in the order
check_claims scans them, and in each block a, then gamma, then b, so its
first nonzero entry is the witness; `checked` is the sum of the block
sizes.  The defects fail: the product table itself, random tables with zero
slots, and one planted nonzero entry per block.
"""

import functools
import hashlib

import numpy as np
import pytest

from gammaring import (DefectMap, build_matrix_ring, canonical_frame, canonical_frames,
                       check_claims, direct_product, peirce_decompose)

from conftest import gidx, midx

CLAIMS = ("claim2", "claim3", "claim4", "claim5")


def _blocks(frame) -> dict:
    """Each claim's blocks, in scan order: ((a name, A), (b name, B), extra keys)."""
    comps = peirce_decompose(frame).components
    out = {"claim2": []}
    for i in (1, 2):
        for jk in ((1, 2), (2, 1)):
            diag, off = ("x_ii", list(comps[(i, i)])), ("x_jk", list(comps[jk]))
            out["claim2"] += [(diag, off, {"blocks": ((i, i), jk)}),
                              (off, diag, {"blocks": ((i, i), jk)})]
    out["claim3"] = [(("x", list(comps[(1, 2)])), ("u", list(comps[(1, 2)])), {})]
    out["claim4"] = [(("x", list(comps[(1, 1)])), ("u", list(comps[(1, 1)])), {})]
    corner = sorted(set(frame.ring.mu[frame.e].reshape(-1).tolist()))
    out["claim5"] = [(("x", corner), ("y", corner), {})]
    return out


def _oracle(f: np.ndarray, blocks) -> tuple:
    """(passed, witness, checked) by plain loops over the blocks."""
    table = f.tolist()
    g = f.shape[1]
    checked, witness = 0, None
    for (an, a_list), (bn, b_list), extra in blocks:
        checked += len(a_list) * g * len(b_list)
        for a in a_list:
            for gamma in range(g):
                for b in b_list:
                    if witness is None and table[a][gamma][b] != 0:
                        witness = {an: a, "gamma": gamma, bn: b, **extra}
    return witness is None, witness, checked


def _frames() -> dict:
    ring = build_matrix_ring(2, 2, 2)
    out = {"matrix(2,2,2)": canonical_frame(ring, midx(ring, (1, 0), (0, 0)),
                                            gidx(ring, (1, 0), (0, 1)),
                                            midx(ring, (1, 0), (0, 1)))}
    # the 84 canonical frames of the product fall in four classes by their
    # Peirce component sizes; the first frame of each class
    product = direct_product(ring, build_matrix_ring(2, 1, 1))
    for fr in canonical_frames(product):
        sizes = tuple(len(c) for _, c in sorted(peirce_decompose(fr).components.items()))
        out.setdefault(f"product{sizes}", fr)
    return out


FRAMES = _frames()


def _defects(frame, blocks) -> list:
    """Failing defects: mu, random tables with zero slots, one planted entry per block.

    On the 32-element product the random and planted tables do not depend on
    gamma; mu there and every table on matrix(2,2,2) do.  Claim 1 on a
    gamma-dependent f of the product is covered by tests/test_shared_scans.py."""
    ring = frame.ring
    m, g = ring.m_order, ring.gamma_order
    gs = 1 if m > 16 else g
    rng = np.random.default_rng(m * g)
    out = [ring.mu]
    for density in (0.01, 0.5):
        f = rng.integers(1, m, size=(m, gs, m)) * (rng.random((m, gs, m)) < density)
        f[0], f[:, :, 0] = 0, 0
        out.append(f)
    for claim in CLAIMS:
        for (_, a_list), (_, b_list), _ in blocks[claim]:
            f = np.zeros((m, gs, m), dtype=np.int64)
            f[rng.choice(a_list), rng.integers(gs), rng.choice(b_list)] = rng.integers(1, m)
            out.append(f)
    return [np.broadcast_to(f, (m, g, m)) for f in out]


@functools.cache
def _reports(name: str) -> list:
    """(defect, claims 2-5 of its trace) for each defect of the frame."""
    frame = FRAMES[name]
    out = []
    for f in _defects(frame, _blocks(frame)):
        trace = check_claims(DefectMap(frame.ring, f), frame)
        out.append((f, {claim: trace.claims[claim] for claim in CLAIMS}))
    return out


def test_the_frames_cover_the_four_product_classes():
    assert sorted(FRAMES) == ["matrix(2,2,2)", "product(16, 1, 1, 2)", "product(2, 1, 1, 16)",
                              "product(2, 2, 2, 4)", "product(4, 2, 2, 2)"]


@pytest.mark.parametrize("name", sorted(FRAMES))
def test_claims_2_to_5_match_the_plain_loops(name):
    blocks = _blocks(FRAMES[name])
    failed = {claim: 0 for claim in CLAIMS}
    for f, claims in _reports(name):
        for claim, got in claims.items():
            passed, witness, checked = _oracle(f, blocks[claim])
            assert (got.passed, got.checked, got.witness) == (passed, checked, witness), claim
            if witness is not None:                 # keys in order, entries plain ints
                assert list(got.witness) == list(witness)
                assert all(type(got.witness[k]) is int for k in witness if k != "blocks")
            failed[claim] += not passed
    # every claim is seen failing, so each witness path is compared
    assert all(failed.values()), failed


def test_claim_reports_are_those_of_the_loop_scan():
    # claims 2-5 over every frame and defect above; the digest was recorded
    # from check_claims with one block scan written out per claim, before
    # they shared a helper
    digest = hashlib.sha256()
    for name in sorted(FRAMES):
        for _, claims in _reports(name):
            for claim, r in claims.items():
                digest.update(repr((name, claim, r.passed, r.checked, r.witness)).encode())
    assert digest.hexdigest() == "2421b5da5e90c9e845fe693d8a0566f9e17c77aaab1b6559d6f53714a7819014"

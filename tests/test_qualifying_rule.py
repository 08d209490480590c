"""MartindaleReport.conditions and .overall against the rule written out by hand.

The oracle spells out each condition from the report's fields, and the
overall verdict as their conjunction over a nonempty frame family.  The
report must agree on every ring of the two hunt families, the 84-frame
product ring and each of its frames, a frame with violations and an empty
family.
"""

import numpy as np
import pytest

from gammaring import (build_matrix_ring, canonical_frames, check_martindale_family,
                       direct_product, matrix_ring_family, trivial_ring_family)
from gammaring.peirce import IdempotentFrame


def _old_conditions(fam, frames) -> dict:
    return {
        "frame-family": bool(frames) and all(not v for v in fam.frame_violations),
        "ii": fam.cond_ii.holds,
        "iii": fam.cond_iii.holds if fam.cond_iii is not None else False,
        "iv": all(r.holds for r in fam.cond_iv) if fam.cond_iv else False,
    }


def _old_overall(fam, frames) -> bool:
    if not frames:
        return False
    return (fam.cond_ii.holds and fam.cond_iii.holds and all(r.holds for r in fam.cond_iv)
            and all(not v for v in fam.frame_violations))


def _assert_one_rule(ring, frames):
    fam = check_martindale_family(ring, frames)
    want = _old_conditions(fam, frames)
    assert fam.conditions == want
    assert list(fam.conditions) == ["frame-family", "ii", "iii", "iv"]
    assert all(type(v) is bool for v in fam.conditions.values())
    assert fam.overall is all(fam.conditions.values()) is _old_overall(fam, frames)
    return fam


FAMILIES = {"trivial": lambda: trivial_ring_family(8),
            "matrix": lambda: matrix_ring_family(2, 4)}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_each_ring_of_the_hunt_families(family):
    for _, ring in FAMILIES[family]():
        frames = canonical_frames(ring)
        _assert_one_rule(ring, frames)
        _assert_one_rule(ring, [])


def test_the_84_frame_product_and_its_single_frames():
    ring = direct_product(build_matrix_ring(2, 2, 2), build_matrix_ring(2, 1, 1))
    frames = canonical_frames(ring)
    assert len(frames) == 84
    fam = _assert_one_rule(ring, frames)
    assert fam.conditions == {"frame-family": True, "ii": True, "iii": True, "iv": False}
    verdicts = {tuple(_assert_one_rule(ring, [fr]).conditions.values()) for fr in frames}
    # one frame alone fails iii or iv, or both, and never qualifies
    assert verdicts == {(True, True, False, False), (True, True, False, True),
                        (True, True, True, False)}


def test_a_frame_with_violations_and_an_empty_family():
    ring = build_matrix_ring(2, 2, 2)
    rng = np.random.default_rng(0)
    m, g = ring.m_order, ring.gamma_order
    bad = IdempotentFrame(ring, 1, 1, rng.integers(0, m, size=(g, m)),
                          rng.integers(0, m, size=(m, g)))
    assert bad.violations
    good = canonical_frames(ring)[0]
    assert _assert_one_rule(ring, [good]).overall
    assert not _assert_one_rule(ring, [good, bad]).conditions["frame-family"]
    empty = _assert_one_rule(ring, [])
    assert not empty.overall and empty.reason == "empty idempotent family"


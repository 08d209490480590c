"""The corollary that links primeness to the structural conditions: a prime
ring with a canonical frame qualifies (Martindale 1969 assumes primeness;
conditions (ii)-(iv) weaken it).

The rings are the two hunt families and five small rings beside them.  The
only prime ring among them with canonical frames is matrix(2,2,2), and the
two non-prime products with frames do not qualify, so the test is not
vacuous.
"""

from gammaring import (build_matrix_ring, canonical_frames, check_martindale_family,
                       direct_product, is_prime, matrix_ring_family, trivial_ring_family)


def _rings():
    m211 = build_matrix_ring(2, 1, 1)
    return matrix_ring_family(2, 4) + trivial_ring_family(5) + [
        ("matrix(3,1,2)", build_matrix_ring(3, 1, 2)),
        ("matrix(3,2,1)", build_matrix_ring(3, 2, 1)),
        ("matrix(3,1,1)", build_matrix_ring(3, 1, 1)),
        ("matrix(2,1,1)^2", direct_product(m211, m211)),
        ("matrix(2,2,2)xmatrix(2,1,1)", direct_product(build_matrix_ring(2, 2, 2), m211)),
    ]


def test_a_prime_ring_with_a_canonical_frame_qualifies():
    seen = {}
    for name, ring in _rings():
        frames = canonical_frames(ring)
        if not frames:
            continue
        prime = is_prime(ring).prime
        overall = check_martindale_family(ring, frames).overall
        if prime:
            assert overall, name
        seen[name] = (prime, len(frames), overall)
    assert seen == {
        "matrix(2,2,2)": (True, 36, True),
        "matrix(2,1,1)^2": (False, 2, False),
        "matrix(2,2,2)xmatrix(2,1,1)": (False, 84, False),
    }

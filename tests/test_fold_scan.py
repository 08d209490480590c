"""The fold-state rescan against the exhaustive scan.

A failure at n = 2 is rescanned at length n over the distinct states of the
identity's fold (_fold_scan), not over every tuple.  Its verdict, witness and
`checked` count must equal the exhaustive length-n scan, _scan_chains called
directly, wherever that scan covers at most 2^22 tuples.  The subjects plant
single faults in passing maps: an image of a late element, a swap of two
element images, and for pairs a swap of two gamma images, which moves only
the target side of the fold.  On the sparse trilinear rings such faults first
fail past x1 = 1, so the witness descent must walk the marked states.
"""

import numpy as np
import pytest

from gammaring import (DerivationTable, MapPair, SearchConfig, build_matrix_ring,
                       check_barnes_axioms, matrix_ring_family, search_n_multiplicative_isos)
from gammaring.multmaps import (_fold_scan, _leibniz_fold, _leibniz_sides, _pair_fold,
                                _pair_sides, _scan_chains, _verify_chains)

from test_derivation_kernel import _scalar, _z3_diagonal
from test_generator_scans import TRILINEAR
from test_pair_group import _automorphism, _relabel
from test_theorem import _opposite

SELF_RINGS = TRILINEAR + [("Z3-scalar", _scalar(3)), ("Z3-diagonal", _z3_diagonal())] \
    + matrix_ring_family(3, 2)
_M212 = build_matrix_ring(2, 1, 2)
BETWEEN = [("m212-opposite", _M212, _opposite(_M212)),
           ("m212-relabelled", _M212, _relabel(_M212, _automorphism(_M212.m_group),
                                               _automorphism(_M212.gamma_group)))]


def _cases(rings):
    return [(name, *rings_, n) for name, *rings_ in rings for n in (3, 4, 5)
            if rings_[0].m_order**n * rings_[0].gamma_order**(n - 1) <= 1 << 22]


def _swapped(table, i, j):
    out = table.copy()
    out[[i, j]] = out[[j, i]]
    return out


def _planted_derivations(ring):
    """The zero map and the identity, each also with a generator added to one
    image, at the last three elements."""
    m, gen = ring.m_order, ring.m_group.generators[0]
    out = []
    for base in (np.zeros(m, dtype=np.int64), np.arange(m)):
        out.append(base)
        for x in range(max(1, m - 3), m):
            d = base.copy()
            d[x] = ring.m_group.add_table[d[x], gen]
            out.append(d)
    return [DerivationTable(ring, d) for d in out]


def _pairs(source, target, base):
    """base, and base with two late element images or two gamma images swapped."""
    phi, psi = base
    m, g = source.m_order, source.gamma_order
    tables = [(phi, psi)]
    tables += [(_swapped(phi, i, m - 1), psi) for i in range(max(1, m - 3), m - 1)]
    tables += [(phi, _swapped(psi, a, g - 1)) for a in range(max(0, g - 3), g - 1)]
    return [MapPair(source, target, p, q) for p, q in tables]


def _identities(subject):
    """(ring, sides, fold) of a pair or a derivation."""
    if isinstance(subject, MapPair):
        return subject.source, _pair_sides(subject), _pair_fold(subject)
    return subject.ring, _leibniz_sides(subject), _leibniz_fold(subject)


def _check(subjects, n):
    """Assert the fold scan on each subject; return the failing witnesses."""
    witnesses = []
    for subject in subjects:
        ring, sides, fold = _identities(subject)
        m, g = ring.m_order, ring.gamma_order
        want = _scan_chains(m, g, n, *sides)
        assert _fold_scan(m, g, n, *fold) == want
        rep = _verify_chains(m, g, n, 10**8, 0, *sides, fold)
        assert (rep.passed, rep.exact, rep.checked, rep.witness) == \
            (want is None, True, m**n * g**(n - 1), want)
        if want is not None:
            witnesses.append(want)
    return witnesses


@pytest.mark.parametrize("name, ring, n", _cases(SELF_RINGS),
                         ids=[f"{c[0]}-{c[2]}" for c in _cases(SELF_RINGS)])
def test_fold_scan_matches_the_full_scan(name, ring, n):
    # the Leibniz fold needs a product additive in its first slot
    assert check_barnes_axioms(ring)[0].holds
    m, g = ring.m_order, ring.gamma_order
    _check(_planted_derivations(ring) + _pairs(ring, ring, (np.arange(m), np.arange(g))), n)


@pytest.mark.parametrize("name, source, target, n", _cases(BETWEEN),
                         ids=[f"{c[0]}-{c[3]}" for c in _cases(BETWEEN)])
def test_fold_scan_between_rings(name, source, target, n):
    # no pair reaches the opposite ring, so seeded bijections stand in there
    found = search_n_multiplicative_isos(source, target, SearchConfig(n=2)).found
    rng = np.random.default_rng(n)
    m, g = source.m_order, source.gamma_order
    bases = [(p.phi, p.psi) for p in found[:4]] or \
        [(np.r_[0, 1 + rng.permutation(m - 1)], rng.permutation(g)) for _ in range(4)]
    assert _check([s for base in bases for s in _pairs(source, target, base)], n)


@pytest.mark.parametrize("n", [3, 4])
def test_planted_faults_fail_past_the_first_element(n):
    # on the sparse trilinear rings the least failing tuple starts at x1 = 4
    witnesses = [w for name, ring in TRILINEAR if name == "trilinear(0,0.02)"
                 for w in _check(_planted_derivations(ring), n)]
    assert max(w["x1"] for w in witnesses) == 4

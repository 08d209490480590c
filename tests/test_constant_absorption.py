"""Absorption of a constant defect in one table lookup, against the chunked scan.

When f is one constant c, both absorption identities read act(c) = c for
each composite action, so _absorption_exact decides a pass by one lookup.
Every verdict, witness and `checked` count must equal the chunked scan,
called directly, and a failing constant or a non-constant f must still run
that scan.  The chain defect x.gamma0.y is absorbed on the right of
matrix(2,2,1) and on neither side of matrix(2,2,2).
"""

import numpy as np
import pytest

import gammaring.theorem as theorem_mod
from gammaring import DefectMap, build_matrix_ring, check_hypotheses
from gammaring.multmaps import _length_k_products
from gammaring.rings import _UNBOUNDED
from gammaring.theorem import _absorption_exact, _absorption_scan, _gamma_free

from test_theorem import _chain_defect


def _constant(ring, c):
    m, g = ring.m_order, ring.gamma_order
    return DefectMap(ring, np.full((m, g, m), c), "user")


M222, M221 = build_matrix_ring(2, 2, 2), build_matrix_ring(2, 2, 1)
CASES = [("zero", M222, _constant(M222, 0), 1), ("zero", M222, _constant(M222, 0), 2),
         ("constant-3", M222, _constant(M222, 3), 1), ("chain", M222, _chain_defect(M222), 1),
         ("chain-m221", M221, _chain_defect(M221), 2)]


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("name, ring, defect, k", CASES,
                         ids=[f"{c[0]}-k{c[3]}" for c in CASES])
def test_absorption_equals_the_chunked_scan(name, ring, defect, k, side):
    f, pk = _gamma_free(defect.f), _length_k_products(ring, k)
    got = _absorption_exact(ring, f, k, pk, side, _UNBOUNDED)
    want = _absorption_scan(ring, f, k, pk, side, _UNBOUNDED)
    assert (got.passed, got.exact, got.checked, got.witness) == \
        (want.passed, want.exact, want.checked, want.witness)
    if name in ("zero", "constant-3"):
        assert got.passed == (name == "zero")


@pytest.fixture
def full_scans(monkeypatch):
    """The side of every chunked absorption scan check_hypotheses runs."""
    sides = []

    def recorded(ring, f, k, pk, side, meter):
        sides.append(side)
        return _absorption_scan(ring, f, k, pk, side, meter)

    monkeypatch.setattr(theorem_mod, "_absorption_scan", recorded)
    return sides


@pytest.mark.parametrize("name, ring, defect, k", CASES,
                         ids=[f"{c[0]}-k{c[3]}" for c in CASES])
def test_only_a_passing_constant_skips_the_scan(name, ring, defect, k, full_scans):
    rep = check_hypotheses(defect, k)
    assert rep.all_exact
    assert full_scans == ([] if name == "zero" else ["left", "right"])

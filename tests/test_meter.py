"""One work meter (rings._Meter): each exact check is charged the passes it runs.

A check whose raw tuple count fits its budget must stay exact: no pass may
be charged more than that count.  A pass at n >= 3 is charged the m^2 g
tuples of n = 2, and a failure there the cheaper of the fold rescan's bound
and the raw count, so every verdict at budget m^n g^(n-1) is exact and
equals the exhaustive scan's, _scan_chains called directly.  The axiom scans
are charged their generator checks, so a passing ring is exact under a cap
below its raw counts.  Past the budget, verify-* samples in bounded chunks
and the theorem pipeline refuses without sampling.
"""

import contextlib
import io
import json
import tracemalloc

import numpy as np
import pytest

import gammaring.multmaps as multmaps_mod
import gammaring.rings as rings_mod
from gammaring import (DerivationTable, MapPair, SearchConfig, build_matrix_ring,
                       build_table_ring, check_barnes_axioms, make_group,
                       search_n_derivations, search_n_multiplicative_isos, trivial_ring,
                       verify_n_derivation, verify_n_multiplicative)
from gammaring.cli import main
from gammaring.multmaps import _leibniz_sides, _pair_sides, _scan_chains
from test_cli_pinned import _transpose_table, write_documents
from test_derivation_kernel import _scalar

RINGS = {
    "trivial(Z3)": trivial_ring(make_group([3]), make_group([2])),
    "matrix(2,1,1)": build_matrix_ring(2, 1, 1),
    "matrix(3,1,1)": build_matrix_ring(3, 1, 1),
    "matrix(2,2,2)": build_matrix_ring(2, 2, 2),
    "Z3-scalar": _scalar(3),
}


def _subjects(ring):
    """Pairs and derivations that pass at n = 2, ones that pass at 3 but not
    at 2, and planted ones that fail at 2."""
    ring.require_barnes()
    m = ring.m_order
    pairs = search_n_multiplicative_isos(ring, ring, SearchConfig(n=3)).found[:4]
    derivs = search_n_derivations(ring, SearchConfig(n=3)).found[-2:]
    phi = np.arange(m)
    phi[[1, -1]] = phi[[-1, 1]]
    d, d0 = np.zeros(m, dtype=np.int64), np.zeros(m, dtype=np.int64)
    d[-1] = d0[0] = ring.m_group.generators[0]      # d0(0) != 0 fails even on a zero product
    return (pairs + [MapPair(ring, ring, phi, pairs[0].psi)] + derivs
            + [DerivationTable(ring, d), DerivationTable(ring, d0)])


SUBJECTS = {name: _subjects(ring) for name, ring in RINGS.items()}


def test_the_subjects_cover_each_kind():
    two = {name: [(verify_n_multiplicative if isinstance(s, MapPair) else verify_n_derivation)
                  (s, 2).passed for s in subjects] for name, subjects in SUBJECTS.items()}
    three = [verify_n_multiplicative(s, 3) for s in SUBJECTS["matrix(3,1,1)"][:4]]
    assert all(any(p) and not all(p) for p in two.values())
    assert any(r.passed for r, ok in zip(three, two["matrix(3,1,1)"]) if not ok)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("name", sorted(RINGS))
def test_every_verdict_at_the_raw_count_is_exact(name, n):
    ring = RINGS[name]
    m, g = ring.m_order, ring.gamma_order
    count = m**n * g**(n - 1)
    subjects = SUBJECTS[name]
    if count > 1 << 22:
        # a direct reference scan of all 2^28 tuples takes seconds: only the
        # 3-derivation that is no 2-derivation, which fails from x1 = 1
        subjects = [subjects[-3]]
    for s in subjects:
        iso = isinstance(s, MapPair)
        want = _scan_chains(m, g, n, *(_pair_sides(s) if iso else _leibniz_sides(s)))
        rep = (verify_n_multiplicative if iso else verify_n_derivation)(s, n, count)
        assert (rep.passed, rep.exact, rep.checked, rep.witness) == \
            (want is None, True, count, want)


def test_axioms_are_exact_under_a_cap_below_their_raw_counts(monkeypatch):
    # every generator check of matrix(2,2,2) fits 2^15 evaluations, its
    # raw counts (2^16 and 2^20 tuples) do not
    m222 = build_matrix_ring(2, 2, 2)
    ring = build_table_ring(m222.m_group, m222.gamma_group, m222.mu, m222.nu)
    monkeypatch.setattr(rings_mod, "AXIOM_EVAL_CAP", 2**15)
    got = [(r.axiom, r.holds, r.checked) for r in check_barnes_axioms(ring)]
    assert got == [("barnes-ii", True, 2 * 2**16), ("barnes-iii", True, 2**16),
                   ("barnes-iv", True, 2**20)]


def test_the_pipeline_refuses_before_it_samples(tmp_path, monkeypatch):
    # at budget 1,000 not even the 4,096 tuples of n = 2 fit
    def no_sample(*args, **kwargs):
        raise AssertionError("the theorem pipeline must not sample")

    write_documents(tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(multmaps_mod.np.random, "default_rng", no_sample)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["theorem", "--input", "m222-good.json", "--n", "3", "--budget", "1000",
                     "--format", "json"])
    report = json.loads(out.getvalue())
    assert code == 3 and report["pipelines"] == [] and report["failures"] == []
    assert [p["subject"] for p in report["partial"]] == ["map[0]", "derivation[0]"]


def test_a_long_sample_is_drawn_in_chunks():
    # one draw of 1,000 tuples of length 20,000 took 310 MiB
    ring = RINGS["matrix(2,2,2)"]
    trans = _transpose_table(ring)
    pair = MapPair(ring, ring, trans, trans)
    tracemalloc.start()
    try:
        rep = verify_n_multiplicative(pair, 20_000, 1000, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not rep.exact and rep.checked == 1000
    assert peak < 128 << 20

"""The one lex-least grid scan, rings._scan_equal, and the frame indices.

Every chunk of the scan holds at most _CHUNK_ELEMS tuples, whatever the slot
sizes, and the chunks cover the grid once, in lex order; the witness is the
lex-least mismatch.  The associativity scan of a ring whose first slot alone
holds more than _CHUNK_ELEMS tuples per value keeps to that cap.  The
generator check and the full scan of associativity, Nobusawa-ii and
frame-associativity read the same two side functions.  A frame keeps its
indices as plain ints, a GRDF frame index outside the ring is refused with
the frame's own rule, and a GRDF frame table error names its frame once.
"""

import contextlib
import io
import json
import tracemalloc
from itertools import product

import numpy as np
import pytest

from gammaring import (build_matrix_ring, canonical_frame, check_nobusawa, custom_frame,
                       document_dict, emit_grdf, parse_grdf, validate_frame)
from gammaring import peirce as peirce_mod
from gammaring import rings as rings_mod
from gammaring.cli import main
from gammaring.errors import GRDFError
from gammaring.groups import make_group
from gammaring.rings import GammaRing, _associativity, _scan_equal, _UNBOUNDED

from conftest import gidx, midx

M222 = build_matrix_ring(2, 2, 2)
E11 = midx(M222, (1, 0), (0, 0))
I, ONE = gidx(M222, (1, 0), (0, 1)), midx(M222, (1, 0), (0, 1))
FRAME = canonical_frame(M222, E11, I, ONE)
GRIDS = [(3,), (2, 3, 4), (5, 1, 7), (4, 4, 4, 4), (1, 6, 2)]
CAPS = [1, 2, 5, 7, 16, 1000]


def _covered(sl: slice, size: int) -> range:
    return range(*sl.indices(size))


@pytest.mark.parametrize("cap", CAPS)
@pytest.mark.parametrize("sizes", GRIDS, ids=lambda s: "x".join(map(str, s)))
def test_chunks_stay_under_the_cap_and_cover_the_grid_in_order(sizes, cap, monkeypatch):
    monkeypatch.setattr(rings_mod, "_CHUNK_ELEMS", cap)
    seen = []

    def record(*slots):
        seen.append(slots)
        return np.zeros([len(_covered(s, n)) for s, n in zip(slots, sizes)], dtype=np.int32)

    assert _scan_equal(record, lambda *s: 0, sizes, "abcd", _UNBOUNDED, "") is None
    walked = []
    for slots in seen:
        ranges = [_covered(s, n) for s, n in zip(slots, sizes)]
        assert 1 <= np.prod([len(r) for r in ranges]) <= cap
        walked += product(*ranges)
    assert walked == list(product(*map(range, sizes)))


@pytest.mark.parametrize("cap", CAPS)
@pytest.mark.parametrize("sizes", GRIDS, ids=lambda s: "x".join(map(str, s)))
def test_the_witness_is_the_lex_least_mismatch(sizes, cap, monkeypatch):
    monkeypatch.setattr(rings_mod, "_CHUNK_ELEMS", cap)
    rng = np.random.default_rng(len(sizes) * cap)
    names = ("a", "b", "c", "d")[:len(sizes)]
    for density in (0.0, 0.02, 0.3, 1.0):
        bad = (rng.random(sizes) < density).astype(np.int32)
        got = _scan_equal(lambda *s: bad[s], lambda *s: np.zeros_like(bad[s]), sizes, names,
                          _UNBOUNDED, "")
        first = np.argwhere(bad)
        assert got == (dict(zip(names, map(int, first[0]))) if len(first) else None)


def _late_failing_ring():
    """|M| = |Gamma| = 64 (Z2^6 each): mu is zero for x < 5 and seeded-random
    from x = 5 on, so each x holds 64^4 > _CHUNK_ELEMS associativity tuples
    and the scan runs through five of them before it fails."""
    grp = make_group([2] * 6)
    mu = np.zeros((64, 64, 64), dtype=np.int32)
    mu[5:] = np.random.default_rng(0).integers(0, 64, size=(59, 64, 64))
    return GammaRing(grp, grp, mu)


def _associativity_oracle(mu) -> dict:
    """The lex-least (x a y) b z != x a (y b z), one (x, alpha) at a time."""
    for x, a in product(range(mu.shape[0]), range(mu.shape[1])):
        bad = np.argwhere(mu[mu[x, a]] != mu[x, a][mu])
        if len(bad):
            return dict(zip(("x", "alpha", "y", "beta", "z"), map(int, (x, a, *bad[0]))))
    return None


def test_a_first_slot_value_over_the_cap_is_scanned_in_chunks():
    # one x holds 16.7M tuples, four times _CHUNK_ELEMS: scanned as one chunk
    # it peaked at 208 MiB
    ring = _late_failing_ring()
    assert ring.gamma_order * ring.m_order * ring.gamma_order * ring.m_order \
        > rings_mod._CHUNK_ELEMS
    tracemalloc.start()
    try:
        witness, checked = _associativity(ring, False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 2**20
    assert checked == 64**5
    assert witness == _associativity_oracle(ring.mu)
    assert witness == {"x": 5, "alpha": 0, "y": 0, "beta": 0, "z": 0}


@pytest.fixture
def sides_seen(monkeypatch):
    """(lhs, rhs) each generator check and full scan receives, by module; every
    generator check reports a failure, so its full scan runs too."""
    seen = {"holds_on": [], "scan_equal": []}

    def holds_on(grid, lhs, rhs, meter, what):
        seen["holds_on"].append((what, lhs, rhs))
        return False

    def scan_equal(lhs, rhs, sizes, names, meter, what):
        seen["scan_equal"].append((what, lhs, rhs))
        return _scan_equal(lhs, rhs, sizes, names, meter, what)

    for mod in (rings_mod, peirce_mod):
        monkeypatch.setattr(mod, "_holds_on", holds_on)
        monkeypatch.setattr(mod, "_scan_equal", scan_equal)
    return seen


def test_generator_checks_and_full_scans_share_their_sides(matrix212, sides_seen):
    # matrix212 and FRAME were built, and their Barnes reports kept, unpatched
    assert _associativity(matrix212, True) == (None, 4**5)
    nobusawa_ii = check_nobusawa(matrix212)[1]
    assert (nobusawa_ii.axiom, nobusawa_ii.holds) == ("nobusawa-ii", True)
    assert validate_frame(FRAME) == []
    whats = [what for what, _, _ in sides_seen["holds_on"]]
    assert whats == ["associativity", "nobusawa-ii", "frame-associativity"]
    assert [w for w, _, _ in sides_seen["scan_equal"]] == whats
    for (_, lhs, rhs), (_, slhs, srhs) in zip(sides_seen["holds_on"], sides_seen["scan_equal"]):
        assert lhs is slhs and rhs is srhs


def test_a_frame_built_from_numpy_integers_emits_and_parses_back():
    frames = [canonical_frame(M222, np.int64(E11), np.int32(I), np.int64(ONE))]
    frames.append(custom_frame(M222, np.int64(E11), np.int16(I), frames[0].left_f,
                               frames[0].right_f))
    for frame in frames:
        assert all(type(v) is int for v in (frame.e, frame.gamma1))
    assert type(frames[0].unity) is int and frames[1].unity is None
    text = emit_grdf(document_dict(M222, frames=frames))
    specs = parse_grdf(text).frame_specs
    assert specs[0] == {"mode": "canonical", "e": E11, "gamma1": I, "unity": ONE}
    assert specs[1]["mode"] == "custom" and (specs[1]["e"], specs[1]["gamma1"]) == (E11, I)
    assert specs[1]["left_f"] == frames[0].left_f.tolist()
    assert emit_grdf(parse_grdf(text).to_dict()) == text


@pytest.mark.parametrize("key, value, order", [("e", 16, 16), ("e", -1, 16), ("gamma1", 16, 16),
                                               ("unity", 99, 16), ("unity", -3, 16)])
def test_a_grdf_frame_index_outside_the_ring_is_refused(key, value, order, tmp_path, capsys):
    doc = document_dict(M222)
    doc["frames"] = [{"mode": "canonical", "e": E11, "gamma1": I, "unity": ONE, key: value}]
    want = f"frames[0]: {key} = {value} is not an index in [0, {order})"
    with pytest.raises(GRDFError) as err:
        parse_grdf(json.dumps(doc))
    assert str(err.value) == want
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["conditions", "--input", str(path)]) == 2
    assert out.getvalue() == ""
    assert capsys.readouterr().err == f"error: {want}\n"


def test_a_custom_frame_table_error_names_its_frame_once():
    doc = document_dict(M222)
    doc["frames"] = [{"mode": "custom", "e": E11, "gamma1": I,
                      "left_f": FRAME.left_f.tolist(), "right_f": FRAME.right_f.tolist()}]
    doc["frames"][0]["left_f"][1][1] = "x"
    with pytest.raises(GRDFError) as err:
        parse_grdf(json.dumps(doc))
    assert str(err.value) == "frames[0].left_f: not a table of integers"

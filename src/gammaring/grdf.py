"""Ring description documents (GRDF): JSON parsing, validation, canonical emission.

A document carries the ring (either an explicit product table with its two
group presentations, or a matrix-ring constructor from which the groups are
derived), plus optional frames, map pairs, and derivation tables.  Emission
is canonical (sorted keys, compact separators, trailing newline) so that
parse -> emit round-trips byte-identically on canonical documents.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import GRDFError, PreconditionError
from .groups import make_group
from .multmaps import DerivationTable, MapPair
from .peirce import IdempotentFrame, _require_in_ring, canonical_frame
from .rings import GammaRing, build_matrix_ring, build_table_ring


@dataclass
class GRDFDocument:
    ring: GammaRing
    frame_specs: list
    maps: list
    derivations: list

    def build_frames(self) -> list:
        """Materialize frame specs; canonical specs are verified on the spot."""
        out = []
        for i, spec in enumerate(self.frame_specs):
            if spec["mode"] == "canonical":
                try:
                    out.append(canonical_frame(self.ring, spec["e"], spec["gamma1"],
                                               spec["unity"]))
                except PreconditionError:
                    raise                       # the ring itself fails its gate
                except ValueError as ex:        # no gamma-unity or idempotent there
                    raise GRDFError(f"frames[{i}]: {ex}") from None
            else:
                # deferred validation: the condition checkers report violations
                out.append(IdempotentFrame(self.ring, spec["e"], spec["gamma1"],
                                           spec["left_f"], spec["right_f"]))
        return out

    def to_dict(self) -> dict:
        doc = document_dict(self.ring, maps=self.maps, derivations=self.derivations)
        if self.frame_specs:
            doc["frames"] = [dict(spec) for spec in self.frame_specs]
        return doc


def _need(obj: dict, key: str, kind, where: str):
    if key not in obj:
        raise GRDFError(f"{where}: missing required key {key!r}")
    val = obj[key]
    if kind is int and isinstance(val, bool):
        raise GRDFError(f"{where}: key {key!r} must be an integer")
    if not isinstance(val, kind):
        raise GRDFError(f"{where}: key {key!r} has wrong type {type(val).__name__}")
    return val


def _int_list(val, where: str) -> list:
    if not isinstance(val, list) or any(isinstance(v, bool) or not isinstance(v, int) for v in val):
        raise GRDFError(f"{where}: expected a flat list of integers")
    return val


def _int_table(val, where: str) -> np.ndarray:
    """A JSON table of integers as an array, checked on its dtype: a ragged
    table, or one holding a string, float, null or an integer outside int64,
    raises GRDFError.  Its shape and range are checked by groups.index_table,
    which the table's owner runs.  np.asarray reads a boolean among integers
    as 0 or 1, so the entries' types are read too, by iterators that run no
    Python code per entry."""
    try:
        arr = np.asarray(val)
    except ValueError:
        raise GRDFError(f"{where}: a ragged table") from None
    entries = [val]
    for _ in range(arr.ndim):
        entries = chain.from_iterable(entries)
    if arr.size and (arr.dtype.kind != "i" or bool in set(map(type, entries))):
        raise GRDFError(f"{where}: not a table of integers")
    return arr


def _entries(doc: dict, key: str):
    """(where, entry) for each object of an optional list section; absent means empty."""
    for i, entry in enumerate(_need(doc, key, list, "document") if key in doc else []):
        where = f"{key}[{i}]"
        if not isinstance(entry, dict):
            raise GRDFError(f"{where}: must be an object")
        yield where, entry


def parse_grdf(text: str) -> GRDFDocument:
    """Parse and structurally validate a GRDF JSON document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as ex:
        raise GRDFError(f"invalid JSON: {ex}") from None
    if not isinstance(doc, dict):
        raise GRDFError("document root must be a JSON object")

    product = _need(doc, "product", dict, "document")
    ptype = _need(product, "type", str, "product")
    if ptype == "matrix":
        for key in ("m_group", "gamma_group", "nu"):
            if key in doc:
                raise GRDFError(f"matrix products derive {key!r}; do not specify it")
        mod = _need(product, "mod", int, "product")
        rows = _need(product, "rows", int, "product")
        cols = _need(product, "cols", int, "product")
        try:
            ring = build_matrix_ring(mod, rows, cols)
        except ValueError as ex:
            raise GRDFError(f"matrix product: {ex}") from None
    elif ptype == "table":
        mg = _need(doc, "m_group", dict, "document")
        gg = _need(doc, "gamma_group", dict, "document")
        try:
            m_group = make_group(_int_list(_need(mg, "invariants", list, "m_group"), "m_group"))
            gamma_group = make_group(_int_list(_need(gg, "invariants", list, "gamma_group"),
                                               "gamma_group"))
            entries = _int_table(_need(product, "entries", list, "product"), "entries")
            nu = doc.get("nu")
            nu = None if nu is None else _int_table(nu, "nu")
            ring = build_table_ring(m_group, gamma_group, entries, nu)
        except ValueError as ex:
            raise GRDFError(f"table product: {ex}") from None
    else:
        raise GRDFError(f"unknown product type {ptype!r}")

    frame_specs = []
    for where, fr in _entries(doc, "frames"):
        mode = _need(fr, "mode", str, where)
        e = _need(fr, "e", int, where)
        g1 = _need(fr, "gamma1", int, where)
        unity = _need(fr, "unity", int, where) if mode == "canonical" else None
        try:
            _require_in_ring(ring, e, g1, unity)
        except ValueError as ex:
            raise GRDFError(f"{where}: {ex}") from None
        if mode == "canonical":
            frame_specs.append({"mode": mode, "e": e, "gamma1": g1, "unity": unity})
        elif mode == "custom":
            lf = _need(fr, "left_f", list, where)
            rf = _need(fr, "right_f", list, where)
            tables = _int_table(lf, f"{where}.left_f"), _int_table(rf, f"{where}.right_f")
            try:        # the frame's own checks, run now; validation waits for a command
                IdempotentFrame(ring, e, g1, *tables)
            except ValueError as ex:
                raise GRDFError(f"{where}: {ex}") from None
            frame_specs.append({"mode": mode, "e": e, "gamma1": g1,
                                "left_f": lf, "right_f": rf})
        else:
            raise GRDFError(f"{where}: unknown mode {mode!r}")

    maps = []
    for where, mp in _entries(doc, "maps"):
        phi = _int_list(_need(mp, "phi", list, where), where)
        psi = _int_list(_need(mp, "psi", list, where), where)
        try:
            maps.append(MapPair(ring, ring, phi, psi))
        except ValueError as ex:
            raise GRDFError(f"{where}: {ex}") from None

    derivations = []
    for where, dv in _entries(doc, "derivations"):
        d = _int_list(_need(dv, "d", list, where), where)
        try:
            derivations.append(DerivationTable(ring, d))
        except ValueError as ex:
            raise GRDFError(f"{where}: {ex}") from None

    return GRDFDocument(ring, frame_specs, maps, derivations)


def load_grdf(path: str) -> GRDFDocument:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as ex:
        raise GRDFError(f"cannot read {path}: {ex}") from None
    return parse_grdf(text)


def document_dict(ring: GammaRing, frames=None, maps=None, derivations=None) -> dict:
    """Canonical document dictionary for a ring and optional attachments."""
    doc: dict = {}
    desc = ring.descriptor
    if desc.get("type") == "matrix":
        doc["product"] = {"type": "matrix", "mod": desc["mod"],
                          "rows": desc["rows"], "cols": desc["cols"]}
    else:
        doc["m_group"] = {"invariants": list(ring.m_group.factors)}
        doc["gamma_group"] = {"invariants": list(ring.gamma_group.factors)}
        doc["product"] = {"type": "table", "entries": ring.mu.tolist()}
        if ring.nu is not None:
            doc["nu"] = ring.nu.tolist()
    if frames:
        out = []
        for fr in frames:
            if fr.unity is not None:
                out.append({"mode": "canonical", "e": fr.e, "gamma1": fr.gamma1,
                            "unity": fr.unity})
            else:
                out.append({"mode": "custom", "e": fr.e, "gamma1": fr.gamma1,
                            "left_f": fr.left_f.tolist(), "right_f": fr.right_f.tolist()})
        doc["frames"] = out
    if maps:
        doc["maps"] = [subject_tables(p) for p in maps]
    if derivations:
        doc["derivations"] = [subject_tables(d) for d in derivations]
    return doc


def subject_tables(subject) -> dict:
    """The tables that identify a map pair, {"phi", "psi"}, or a derivation,
    {"d"}: its entry in a document, and in a report."""
    if isinstance(subject, MapPair):
        return {"phi": [int(v) for v in subject.phi], "psi": [int(v) for v in subject.psi]}
    return {"d": [int(v) for v in subject.d]}


def emit_grdf(doc: dict) -> str:
    """Canonical serialization: sorted keys, compact separators, one trailing newline."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"

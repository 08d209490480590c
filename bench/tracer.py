"""Span tracing of the gammaring layers, installed from outside the package.

Each traced public function is replaced, in every `gammaring` module
namespace that binds it, by a wrapper that records a span (name, request,
parent, start, end) and the deterministic work counters read off its result.
`cli` and `theorem` import names directly, so patching only the defining
module would miss their calls.  The lazy group tables are traced when they
are built, not on every cached access.  Spans stay in memory until the run
writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from collections import defaultdict

import gammaring.groups

TRACED = {
    "rings": ("build_matrix_ring", "check_barnes_axioms", "check_nobusawa",
              "find_idempotents", "find_unities"),
    "peirce": ("canonical_frame", "canonical_frames", "validate_frame",
               "check_martindale_family", "peirce_decompose"),
    "multmaps": ("search_n_multiplicative_isos", "search_n_derivations", "verify_additive",
                 "verify_n_multiplicative", "verify_n_derivation", "defect_of_iso",
                 "defect_of_derivation"),
    "theorem": ("check_hypotheses", "run_additivity_pipeline", "run_derivation_pipeline",
                "hunt_counterexamples"),
    "grdf": ("load_grdf",),
    "cli": ("main",),
}
# lazily built FiniteAbelianGroup tables and the attribute that caches each
GROUP_TABLES = {"residues": "_residues", "add_table": "_add_table", "neg_table": "_neg_table"}


def _search_counters(args, result):
    return {"nodes": result.nodes, "found": len(result.found)}


def _hypothesis_checked(args, result):
    return {"checked": (result.zero_slots.checked + result.left_absorption.checked
                        + result.right_absorption.checked)}


# span name -> (counter keys, function of (args, result) giving their values)
COUNTERS = {
    "multmaps.search_n_multiplicative_isos": (("nodes", "found"), _search_counters),
    "multmaps.search_n_derivations": (("nodes", "found"), _search_counters),
    "multmaps.verify_n_multiplicative": (("checked",), lambda args, r: {"checked": r.checked}),
    "rings.check_barnes_axioms": (("checked",),
                                  lambda args, r: {"checked": sum(a.checked for a in r)}),
    "theorem.check_hypotheses": (("checked",), _hypothesis_checked),
    "grdf.load_grdf": (("bytes",), lambda args, r: {"bytes": os.path.getsize(args[0])}),
}


def span_names() -> list:
    return ([f"groups.{t}" for t in GROUP_TABLES]
            + [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns])


class Tracer:
    """In-memory spans plus per-call counters for one traced pass."""

    def __init__(self):
        self.spans = []          # (name, request, parent, start, end); parent -1 = root
        self.counters = defaultdict(list)   # name -> one counter dict per call
        self._stack = []

    def call(self, name, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        request = self.spans[parent][1] if parent >= 0 else len(self.spans)
        index = len(self.spans)
        self.spans.append((name, request, parent, 0.0, 0.0))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, request, parent, start, end)
        _, extract = COUNTERS.get(name, ((), None))
        self.counters[name].append(extract(args, result) if extract else {})
        return result

    def summary(self) -> dict:
        """Per span name: calls, total_s, self_s and summed counters."""
        child = [0.0] * len(self.spans)
        for name, _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in span_names()}
        for name, (keys, _) in COUNTERS.items():
            out[name].update(dict.fromkeys(keys, 0))
        for i, (name, _, _, start, end) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[i]
        for name, per_call in self.counters.items():
            for counters in per_call:
                for key, value in counters.items():
                    out[name][key] += value
        return out

    def deterministic(self) -> dict:
        """Everything that must repeat exactly across passes of the same code and seed."""
        return {name: [tuple(sorted(c.items())) for c in calls]
                for name, calls in sorted(self.counters.items())}

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,request,parent,start_s,end_s\n")
            t0 = self.spans[0][3] if self.spans else 0.0
            for name, request, parent, start, end in self.spans:
                fh.write(f"{name},{request},{parent},{start - t0:.9f},{end - t0:.9f}\n")


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)
    return traced


def _wrap_table(tracer: Tracer, name: str, prop: property, cache_attr: str) -> property:
    def get(group):
        if getattr(group, cache_attr, None) is not None:
            return prop.fget(group)
        return tracer.call(name, prop.fget, (group,), {})
    return property(get, doc=prop.__doc__)


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install the wrappers for the duration of the block, then restore the originals."""
    modules = [m for n, m in sys.modules.items() if n == "gammaring" or n.startswith("gammaring.")]
    saved = []
    try:
        for mod_name, fns in TRACED.items():
            home = sys.modules[f"gammaring.{mod_name}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapper = _wrap(tracer, f"{mod_name}.{fn_name}", original)
                for mod in modules:
                    if vars(mod).get(fn_name) is original:
                        saved.append((mod, fn_name, original))
                        setattr(mod, fn_name, wrapper)
        cls = gammaring.groups.FiniteAbelianGroup
        for table, cache_attr in GROUP_TABLES.items():
            original = vars(cls)[table]
            saved.append((cls, table, original))
            setattr(cls, table, _wrap_table(tracer, f"groups.{table}", original, cache_attr))
        yield tracer
    finally:
        for obj, attr, original in reversed(saved):
            setattr(obj, attr, original)

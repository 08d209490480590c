"""Command-line front end with a stable exit-code contract.

Exit codes: 0 all checked properties pass and results are complete; 1 a
checked property fails (report carries a witness); 2 usage or parse error;
3 a budget was exhausted and only partial results exist; 4 internal
inconsistency (a bug, never an input problem).

Reports go to stdout and are byte-identical for identical inputs and seed;
wall-clock timing goes to stderr only.  Work counters inside reports are
deterministic evaluation/node counts.  A JSON report is written in the
canonical GRDF form of `grdf.emit_grdf` (sorted keys, compact separators,
one trailing newline).  A report's `options` echo `input` and exactly the
options its command takes; a command parses no other option.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
import traceback

from .errors import (BudgetExceededError, FrameValidationError, GRDFError,
                     InternalInconsistencyError, PreconditionError)
from .grdf import emit_grdf, load_grdf, subject_tables
from .multmaps import (DEFAULT_BUDGET, SearchConfig, search_n_derivations,
                       search_n_multiplicative_isos, verify_additive, verify_n_derivation,
                       verify_n_multiplicative)
from .peirce import check_martindale_family, check_peirce_relations, peirce_decompose
from .rings import check_nobusawa, find_idempotents, find_unities
from .theorem import _run_pipeline, hunt_counterexamples

SCHEMA = "gammaring.report/1"

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_BUG = 4

# per subject: document section, report label, verified identity, search listing key
_SUBJECTS = {
    "iso": ("maps", "map", "multiplicative", "pairs"),
    "derivation": ("derivations", "derivation", "leibniz", "derivations"),
}

_GAMMA_KEYS = {"alpha", "beta", "gamma", "gamma1"}


def _is_gamma_key(key: str) -> bool:
    if key in _GAMMA_KEYS:
        return True
    return len(key) >= 2 and key[0] == "g" and key[1:].isdigit()


def _element(ring, index: int, side: str) -> dict:
    group = ring.m_group if side == "m" else ring.gamma_group
    out = {"index": int(index), "residues": list(group.element_at(int(index)))}
    mat = ring.element_matrix(int(index), side)
    if mat is not None:
        out["matrix"] = mat
    return out


def _render_witness(ring, witness):
    if witness is None:
        return None
    out = {}
    for key, val in witness.items():
        if isinstance(val, bool) or not isinstance(val, int):
            out[key] = val
        else:
            out[key] = _element(ring, val, "gamma" if _is_gamma_key(key) else "m")
    return out


def _verdict(ring, check: str, passed: bool, exact: bool, checked: int,
             witness=None, gating: bool = True) -> dict:
    return {"check": check, "passed": bool(passed), "exact": bool(exact),
            "checked": int(checked), "witness": _render_witness(ring, witness),
            "gating": gating}


def _status(verdicts) -> int:
    if any(not v["passed"] for v in verdicts if v["gating"]):
        return EXIT_FAIL
    if any(not v["exact"] for v in verdicts if v["gating"]):
        return EXIT_BUDGET
    return EXIT_PASS


def _subject_kind(command: str) -> str:
    return "iso" if command.endswith("-iso") else "derivation"


def cmd_axioms(doc, args):
    ring = doc.ring
    reports = ring.barnes_reports() + (check_nobusawa(ring) if ring.nu is not None else [])
    # the two faithfulness readings are reported, not gated: the quantifier
    # is ambiguous and both verdicts are informative
    verdicts = [_verdict(ring, r.axiom, r.holds, True, r.checked, r.witness,
                         not r.axiom.startswith("nobusawa-iii")) for r in reports]
    return _status(verdicts), {"verdicts": verdicts}


def cmd_idempotents(doc, args):
    ring = doc.ring
    idems = [{"e": _element(ring, r.e, "m"), "gamma": _element(ring, r.gamma, "gamma"),
              "nontrivial": r.nontrivial} for r in find_idempotents(ring)]
    unities = [{"one": _element(ring, r.one, "m"), "gamma": _element(ring, r.gamma, "gamma")}
               for r in find_unities(ring)]
    return EXIT_PASS, {"idempotents": idems, "unities": unities,
                       "counts": {"idempotents": len(idems),
                                  "nontrivial": sum(i["nontrivial"] for i in idems),
                                  "unities": len(unities)}}


def cmd_peirce(doc, args):
    ring = doc.ring
    if not doc.frame_specs:
        raise GRDFError("peirce needs a 'frames' section")
    verdicts = []
    blocks = []
    for i, frame in enumerate(doc.build_frames()):
        components = peirce_decompose(frame)
        sizes = {f"M{a}{b}": n for (a, b), n in components.sizes().items()}
        blocks.append({"frame": i, "sizes": sizes})
        rel = check_peirce_relations(components)
        witness = None
        if rel.violations:
            witness = {k: v for k, v in rel.violations[0].items() if isinstance(v, int)}
        verdicts.append(_verdict(ring, f"frame[{i}]-relations", rel.holds, True,
                                 ring.m_order**2 * ring.gamma_order, witness))
        if not rel.holds:
            verdicts[-1]["detail"] = {k: v for k, v in rel.violations[0].items()
                                      if not isinstance(v, int)}
    return _status(verdicts), {"verdicts": verdicts, "components": blocks}


def cmd_conditions(doc, args):
    ring = doc.ring
    frames = doc.build_frames()
    rep = check_martindale_family(ring, frames)
    verdicts = []
    for i, violations in enumerate(rep.frame_violations):
        witness = None
        if violations:
            witness = dict(violations[0].witness)
            witness["invariant"] = violations[0].invariant
        verdicts.append(_verdict(ring, f"frame[{i}]-valid", not violations, True,
                                 ring.m_order * ring.gamma_order, witness))
    verdicts.append(_verdict(ring, "condition-ii", rep.cond_ii.holds, True,
                             rep.cond_ii.checked, rep.cond_ii.witness))
    if rep.cond_iii is not None:
        verdicts.append(_verdict(ring, "condition-iii", rep.cond_iii.holds, True,
                                 rep.cond_iii.checked, rep.cond_iii.witness))
    for i, r in enumerate(rep.cond_iv):
        verdicts.append(_verdict(ring, f"condition-iv[{i}]", r.holds, True,
                                 r.checked, r.witness))
    report = {"verdicts": verdicts, "overall": rep.overall}
    if rep.reason:
        report["reason"] = rep.reason
        return EXIT_FAIL, report
    return _status(verdicts), report


def _cmd_verify(doc, args):
    ring = doc.ring
    kind = _subject_kind(args.command)
    section, label, identity, _ = _SUBJECTS[kind]
    subjects = getattr(doc, section)
    if not subjects:
        raise GRDFError(f"{args.command} needs a '{section}' section")
    verify = verify_n_multiplicative if kind == "iso" else verify_n_derivation
    verdicts = []
    for i, obj in enumerate(subjects):
        vr = verify(obj, args.n, args.budget, args.seed)
        verdicts.append(_verdict(ring, f"{label}[{i}]-{args.n}-{identity}",
                                 vr.passed, vr.exact, vr.checked, vr.witness))
        ar = verify_additive(obj)
        verdicts.append(_verdict(ring, f"{label}[{i}]-additive", ar.passed, True,
                                 ar.checked, ar.witness, gating=False))
    return _status(verdicts), {"verdicts": verdicts}


def _cmd_search(doc, args):
    ring = doc.ring
    kind = _subject_kind(args.command)
    config = SearchConfig(n=args.n, budget=args.budget)
    if kind == "iso":
        res = search_n_multiplicative_isos(ring, ring, config)
    else:
        res = search_n_derivations(ring, config)
    listing = _SUBJECTS[kind][3]
    found = [(obj, verify_additive(obj)) for obj in res.found]
    non_additive = [(obj, ar) for obj, ar in found if not ar.passed]
    report = {
        "found": len(res.found),
        "additive": len(found) - len(non_additive),
        "complete": res.complete,
        "nodes": res.nodes,
        listing: [dict(subject_tables(obj), additive=ar.passed) for obj, ar in found],
    }
    if args.require_additive and non_additive:
        obj, ar = non_additive[0]
        witness = subject_tables(obj)
        if kind == "iso":               # pair witnesses also carry their additive flag
            witness["additive"] = False
        witness["additivity_witness"] = _render_witness(ring, ar.witness)
        report["witness"] = witness
        return EXIT_FAIL, report
    return (EXIT_PASS if res.complete else EXIT_BUDGET), report


def _pipeline_entry(ring, label, rep):
    return {
        "subject": label,
        "confirmed": rep.defect_zero and rep.agreement,
        "n": rep.n, "k": rep.k,
        "hypotheses": {
            "zero-slots": rep.hypotheses.zero_slots.passed,
            "left-absorption": rep.hypotheses.left_absorption.passed,
            "right-absorption": rep.hypotheses.right_absorption.passed,
            "exact": rep.hypotheses.all_exact,
        },
        "defect_zero": rep.defect_zero,
        "additive": rep.additive.passed,
        "agreement": rep.agreement,
    }


def cmd_theorem(doc, args):
    ring = doc.ring
    if not doc.frame_specs:
        raise GRDFError("theorem needs a 'frames' section")
    if not doc.maps and not doc.derivations:
        raise GRDFError("theorem needs a 'maps' or 'derivations' section")
    family = check_martindale_family(ring, doc.build_frames())   # one check for every subject
    entries, failures, partial = [], [], []
    for kind, (section, label, _, _) in _SUBJECTS.items():
        for i, obj in enumerate(getattr(doc, section)):
            name = f"{label}[{i}]"
            try:
                rep = _run_pipeline(kind, obj, args.n, family, args.budget, args.k)
                entries.append(_pipeline_entry(ring, name, rep))
            except PreconditionError as ex:
                failures.append({"subject": name, "error": str(ex)})
            except BudgetExceededError as ex:    # only this subject is partial
                partial.append({"subject": name, "error": str(ex)})
    report = {"pipelines": entries, "failures": failures}
    if partial:
        report["partial"] = partial
    return (EXIT_FAIL if failures else EXIT_BUDGET if partial else EXIT_PASS), report


def cmd_hunt(paths, args):
    """Survey the Barnes-verified rings; a ring that fails an axiom is listed
    in its place with the first failed axiom's verdict, and makes the run
    exit 1."""
    rings = [(path, load_grdf(path).ring) for path in paths]
    survey = hunt_counterexamples([(name, ring) for name, ring in rings if ring.barnes_verified],
                                  n=args.n, budget=args.budget)
    surveyed, entries = iter(survey.entries), []
    for name, ring in rings:
        if not ring.barnes_verified:
            bad = next(r for r in ring.barnes_reports() if not r.holds)
            entries.append({"ring": name, "failed": _verdict(ring, bad.axiom, False, True,
                                                             bad.checked, bad.witness)})
            continue
        e = next(surveyed)
        witnesses = [{"kind": kind, **subject_tables(obj)} for kind, obj in e.witnesses]
        entries.append({
            "ring": e.name,
            "conditions": e.conditions,
            "qualifying": e.qualifying,
            "frames": e.frame_count,
            "isos": {"found": e.iso_found, "additive": e.iso_additive,
                     "complete": e.iso_complete},
            "derivations": {"found": e.deriv_found, "additive": e.deriv_additive,
                            "complete": e.deriv_complete},
            "witnesses": witnesses,
        })
    report = {"survey": entries, "complete": survey.complete}
    if len(survey.entries) < len(rings):
        return EXIT_FAIL, report
    return (EXIT_PASS if survey.complete else EXIT_BUDGET), report


def _render_text(report: dict) -> str:
    lines = []

    def fmt_witness(w):
        if w is None:
            return ""
        parts = []
        for k, v in w.items():
            if isinstance(v, dict) and "index" in v:
                parts.append(f"{k}={v['index']}")
            else:
                parts.append(f"{k}={v}")
        return "  witness: " + " ".join(parts)

    for key in sorted(report):
        val = report[key]
        if key == "verdicts":
            for v in val:
                mark = "PASS" if v["passed"] else "FAIL"
                exact = "" if v["exact"] else " (partial)"
                info = "" if v.get("gating", True) else " [info]"
                lines.append(f"{mark:4s} {v['check']:32s} checked={v['checked']}"
                             f"{exact}{info}{fmt_witness(v.get('witness'))}")
        elif key in ("pairs", "derivations") and isinstance(val, list) and len(val) > 20:
            lines.append(f"{key}: {len(val)} entries (full list in json format)")
        elif isinstance(val, list):
            lines.append(f"{key}:")
            for item in val:
                if isinstance(item, dict):
                    flat = json.dumps(item, sort_keys=True)
                    lines.append(f"  {flat}")
                else:
                    lines.append(f"  {item}")
        elif isinstance(val, dict):
            lines.append(f"{key}: {json.dumps(val, sort_keys=True)}")
        else:
            lines.append(f"{key}: {val}")
    return "\n".join(lines)


# the options a command may take: (least value, None for a flag; argparse settings)
_OPTIONS = {
    "n": (2, dict(type=int, default=2, help="product arity (default 2)")),
    "k": (1, dict(type=int, default=None, help="absorption chain length (default n-1)")),
    "budget": (1, dict(type=int, default=DEFAULT_BUDGET,
                       help="evaluation/node budget (default 1e8)")),
    "seed": (0, dict(type=int, default=0, help="seed for partial-verification sampling")),
    "require_additive": (None, dict(action="store_true", default=False,
                                    help="searches fail when a non-additive map is found")),
}

# name: (help, handler, options it reads); a handler takes (doc, args), hunt's (paths, args)
_COMMANDS = {
    "axioms": ("verify the defining product axioms", cmd_axioms, ()),
    "idempotents": ("list idempotents and unity pairs", cmd_idempotents, ()),
    "peirce": ("decompose along the frames and check the block relations", cmd_peirce, ()),
    "conditions": ("check the structural conditions for the frame family", cmd_conditions, ()),
    "verify-iso": ("verify supplied map pairs", _cmd_verify, ("n", "budget", "seed")),
    "search-iso": ("enumerate n-multiplicative bijection pairs ring -> ring", _cmd_search,
                   ("n", "budget", "require_additive")),
    "verify-derivation": ("verify supplied derivation tables", _cmd_verify,
                          ("n", "budget", "seed")),
    "search-derivations": ("enumerate n-multiplicative derivations", _cmd_search,
                           ("n", "budget", "require_additive")),
    "theorem": ("run the full defect/additivity pipelines", cmd_theorem, ("n", "k", "budget")),
    "hunt": ("sweep rings for hypothesis-necessity witnesses", cmd_hunt, ("n", "budget")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gammaring",
        description="Finite gamma-ring verification and multiplicative-map additivity tool")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if name == "hunt":
            p.add_argument("--input", action="append", required=True,
                           help="ring description path (repeatable)")
        else:
            p.add_argument("--input", required=True, help="ring description path")
        p.add_argument("--format", choices=("text", "json"), default="text")
        for key in options:
            p.add_argument("--" + key.replace("_", "-"), **_OPTIONS[key][1])
    return parser


_parser = functools.cache(build_parser)     # built on first use, not at import


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as ex:
        return EXIT_USAGE if ex.code not in (0, None) else 0
    options = {key: getattr(args, key) for key in _COMMANDS[args.command][2]}
    for key, value in options.items():
        least = _OPTIONS[key][0]
        if least is not None and value is not None and value < least:
            print(f"error: --{key} must be >= {least}", file=sys.stderr)
            return EXIT_USAGE

    # an exact pass at a large --n reports checked = m^n g^(n-1), past the
    # default digit limit of int-to-str conversion
    sys.set_int_max_str_digits(0)
    started = time.perf_counter()
    try:
        source = args.input if args.command == "hunt" else load_grdf(args.input)
        code, body = _COMMANDS[args.command][1](source, args)
    except GRDFError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as ex:
        print(f"budget exhausted: {ex}", file=sys.stderr)
        return EXIT_BUDGET
    except (FrameValidationError, PreconditionError) as ex:
        print(f"check failed: {ex}", file=sys.stderr)
        return EXIT_FAIL
    except InternalInconsistencyError as ex:
        print(f"internal inconsistency (bug): {ex}", file=sys.stderr)
        return EXIT_BUG
    except Exception as ex:
        # any other exception is a bug too, never a verdict: one line, with where it arose
        where = traceback.extract_tb(ex.__traceback__)[-1]
        print(f"internal error (bug): {type(ex).__name__}: {' '.join(str(ex).split())} "
              f"[{os.path.basename(where.filename)}:{where.lineno} in {where.name}]",
              file=sys.stderr)
        return EXIT_BUG

    report = {"schema": SCHEMA, "command": args.command,
              "options": {"input": args.input, **options}}
    report.update(body)
    report["exit"] = code
    if args.format == "json":
        sys.stdout.write(emit_grdf(report))
    else:
        sys.stdout.write(_render_text(report) + "\n")
    print(f"elapsed {time.perf_counter() - started:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())

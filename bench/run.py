"""Benchmark of the gammaring command line on four workloads.

Run from the repository root:

    python3 bench/run.py --workload theorem-m222 --seed 0 --seconds 10 --trace 0

Workloads are named in BENCHMARK.json at the repository root, with the reason
each was chosen.  Each run is one process for one workload, so peak memory is
per workload.  Set-up time is the median import time of numpy and gammaring in
fresh interpreters plus the median of several input generations.  The run then
repeats full passes of the workload until --seconds have elapsed (and, with
--trace 0, at least the workload's minimum number of passes), each pass a user
session of CLI invocations made in process.  Every report is checked
against known answers after the timed region.

With --trace 0 the run reports the end-to-end metrics.  With --trace 1 it
also makes two traced passes, fails if any deterministic work counter
differs between them, reports the per-layer metrics and writes the spans of
the first traced pass to .bench_run/trace-<workload>-seed<seed>.csv.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 only when every answer
was correct.
"""

import os

# one process, no helper threads: pin numpy's BLAS and OpenMP pools before import
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_run")
SETUP_REPEATS = 3
TRACED_PASSES = 2
IMPORT_PROBE = ("import time; t = time.perf_counter(); import numpy, gammaring.cli; "
                "print(time.perf_counter() - t)")


def import_library():
    """Import numpy and gammaring from this checkout's source tree."""
    sys.path.insert(0, SRC)
    try:
        import numpy  # noqa: F401
        import gammaring
        import gammaring.cli  # noqa: F401
    except ImportError as ex:
        raise SystemExit(f"error: cannot import gammaring from {SRC}: {ex}") from None
    if not os.path.abspath(gammaring.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: gammaring was imported from {gammaring.__file__}, "
                         f"not from {SRC}")


def import_seconds() -> float:
    """Median import time of numpy and gammaring, each in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = [float(subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                                  capture_output=True, text=True, timeout=120).stdout)
             for _ in range(SETUP_REPEATS)]
    return statistics.median(times)


def run_passes(workload, inputs, seconds: float, min_passes: int) -> list:
    """Full passes until `seconds` have elapsed and `min_passes` are made: [(wall_s, calls)]."""
    from workloads import Session
    passes = []
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        session = Session()
        t = time.perf_counter()
        workload.run(inputs, session)
        passes.append((time.perf_counter() - t, session.calls))
    return passes


def traced_passes(workload, inputs) -> list:
    """[(wall_s, calls, tracer)] for TRACED_PASSES passes under the tracer."""
    from tracer import Tracer, traced
    from workloads import Session
    out = []
    for _ in range(TRACED_PASSES):
        session = Session()
        with traced(Tracer()) as tr:
            t = time.perf_counter()
            workload.run(inputs, session)
            wall = time.perf_counter() - t
        out.append((wall, session.calls, tr))
    return out


def percentile_note(samples: list) -> str:
    """The highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    for p in (99.9, 99, 90, 50):
        if len(samples) * (1 - p / 100) >= 10:
            value = statistics.quantiles(samples, n=1000, method="inclusive")[round(p * 10) - 1]
            return f"p{p:g} {value:.4f} s"
    return "no percentile has 10 samples beyond it"


def layer_values(tracers, untraced_wall: float, traced_walls: list, stdout_bytes: int) -> dict:
    """Per-layer metric values by name, from the traced passes."""
    summaries = [tr.summary() for tr in tracers]
    values = {}
    for name, row in summaries[0].items():
        for key, value in row.items():
            if key.endswith("_s"):
                value = statistics.median(s[name][key] for s in summaries)
            values[f"{name}.{key}"] = value
    for name in ("multmaps.search_n_multiplicative_isos", "multmaps.search_n_derivations"):
        nodes = values.get(f"{name}.nodes", 0)
        self_s = values[f"{name}.self_s"]
        values[f"{name}.yield"] = values.get(f"{name}.found", 0) / nodes if nodes else 0.0
        values[f"{name}.nodes_per_s"] = nodes / self_s if self_s else 0.0
    values["cli.stdout_bytes"] = stdout_bytes
    values["trace.wall_s"] = statistics.median(traced_walls)
    values["trace.overhead_s"] = values["trace.wall_s"] - untraced_wall
    return values


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(whys))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    import_library()
    import_s = import_seconds()
    import numpy
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            inputs = workload.setup(workdir, args.seed)
            setup_times.append(time.perf_counter() - t)
        # a traced run needs its untraced passes only for the tracing overhead
        passes = run_passes(workload, inputs, args.seconds,
                            1 if args.trace else workload.min_passes)
        traced = traced_passes(workload, inputs) if args.trace else []
        checked = [(calls, workload.check(inputs, calls))
                   for _, calls, *_ in passes + traced]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    walls = [wall for wall, _ in passes]
    attempted = sum(len(calls) for calls, _ in checked)
    failures = [(call, err) for calls, outcome in checked
                for call, err in zip(calls, outcome.errors) if err]
    shares = [outcome.complete / outcome.subjects for _, outcome in checked]
    values = {
        "wall_s": statistics.median(walls),
        "setup_s": import_s + statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb,
        "complete_share": statistics.median(shares),
        "error_rate": len(failures) / attempted,
    }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units["error_rate"] = "ratio"
    counters_repeat = True

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print(f"  why: {whys[args.workload]}")
    print(f"  python {platform.python_version()}  numpy {numpy.__version__}  "
          f"nproc {os.cpu_count()}  BLAS/OpenMP threads pinned to 1")
    print(f"  {len(walls)} untraced passes; {percentile_note(walls)}; "
          f"set-up: median of {SETUP_REPEATS} imports ({import_s:.4f} s) "
          f"+ median of {SETUP_REPEATS} input generations")
    for name in ("wall_s", "setup_s", "peak_rss_mb", "complete_share", "error_rate"):
        print(f"  {name:16s} {values[name]:.6g} {units[name]}")
    if failures:
        print(f"  {len(failures)} of {attempted} CLI invocations failed the answer check")
        for call, err in failures[:5]:
            print(f"    {' '.join(call.argv)}: {err}", file=sys.stderr)

    if args.trace:
        tracers = [tr for _, _, tr in traced]
        counters_repeat = all(tr.deterministic() == tracers[0].deterministic()
                              for tr in tracers[1:])
        out_bytes = [sum(len(c.out.encode()) for c in calls) for _, calls, _ in traced]
        counters_repeat = counters_repeat and len(set(out_bytes)) == 1
        if not counters_repeat:
            print("  deterministic counters differ between traced passes", file=sys.stderr)
        tracers[0].write(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.csv"))
        values.update(layer_values(tracers, values["wall_s"],
                                   [wall for wall, _, _ in traced], out_bytes[0]))
        for name in ("multmaps.search_n_multiplicative_isos", "multmaps.search_n_derivations"):
            nodes = [c["nodes"] for c in tracers[0].counters.get(name, [])]
            print(f"  {name} nodes per call: {nodes}")
        metrics = spec["per_layer"]
    else:
        metrics = spec["end_to_end"]

    correct = not failures and counters_repeat
    result = {"correct": correct, "attempted": attempted, "failed": len(failures),
              "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                          for m in metrics}}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

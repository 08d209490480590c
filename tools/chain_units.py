"""Work and time of the pair chain, the stabilizer chain of Mult_n(R).

For each ring of `matrix_ring_family(2, 4)` at n = 2, and matrix(2,2,2) at
n = 3, it builds the chain (`multmaps._pair_group`) and prints its order,
the units its leaf searches took from the meter, the number of leaf
searches run, and the median in-process time of the build over the
repeats.  The units and searches are deterministic; the time is not.

Run from the repository root:

    python3 tools/chain_units.py [--repeats 5]
"""

import argparse
import pathlib
import statistics
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from gammaring import build_matrix_ring, matrix_ring_family  # noqa: E402
from gammaring.multmaps import _Meter, _pair_group, _PairSearch  # noqa: E402


def cases() -> list:
    """(name, ring, n) of each chain the table lists."""
    return ([(name, ring, 2) for name, ring in matrix_ring_family(2, 4)]
            + [("matrix(2,2,2)", build_matrix_ring(2, 2, 2), 3)])


def chain_units(ring, n: int) -> tuple:
    """(order, units, searches) of the chain of Mult_n(ring)."""
    runs, run = [0], _PairSearch.run

    def counted(self, fixed=()):
        runs[0] += 1
        return run(self, fixed)

    _PairSearch.run = counted
    try:
        work = _Meter(10**8)
        order = _pair_group(ring, n, work).order
    finally:
        _PairSearch.run = run
    return order, work.spent, runs[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5, help="timed builds per chain")
    args = parser.parse_args(argv)
    print(f"{'ring':16s} {'n':>2s} {'order':>7s} {'units':>7s} {'searches':>9s} {'median s':>9s}")
    for name, ring, n in cases():
        order, units, searches = chain_units(ring, n)
        times = []
        for _ in range(args.repeats):
            started = time.perf_counter()
            _pair_group(ring, n, _Meter(10**8))
            times.append(time.perf_counter() - started)
        print(f"{name:16s} {n:2d} {order:7d} {units:7d} {searches:9d} "
              f"{statistics.median(times):9.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

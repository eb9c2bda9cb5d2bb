"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  See
perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# One thread per workload process: pin numpy's thread pools before the
# first numpy import, which happens inside main().
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("analytic_batch", "waypoint_batch", "dense_loop", "cli_outputs")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "utpursuit").is_dir() or not (ROOT / "configs").is_dir():
        print(f"error: {ROOT} holds no src/utpursuit and configs/ to benchmark", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import bench

    return bench.main(args.workload, args.seed, args.seconds, bool(args.trace), str(ROOT))


if __name__ == "__main__":
    sys.exit(main())

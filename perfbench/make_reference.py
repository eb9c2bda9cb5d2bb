"""Write perfbench/reference.json: the outcome of every run of one schedule
cycle of every workload, for the reference seeds.

    python3 perfbench/make_reference.py

Run it only on code whose outputs are known to be right (it was written
from the seed code); a change that claims only a speed-up must leave this
file as it is.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# The default --seed and one held-out seed, whose outcomes shaped no workload or check.
REFERENCE_SEEDS = (0, 1)


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import bench
    import workloads

    seeds = {}
    out_dir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        for seed in REFERENCE_SEEDS:
            for name, workload in workloads.WORKLOADS.items():
                prepared = workload.setup(str(ROOT), seed, out_dir)
                runs = {job.label: [] for job in prepared.jobs}
                for slot in range(workload.cycle):
                    for job in prepared.jobs:
                        runs[job.label].extend(job.call(slot))
                seeds.setdefault(str(seed), {})[name] = runs
                print(f"seed {seed} {name}: {sum(map(len, runs.values()))} runs")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    with open(bench.REFERENCE_FILE, "w", encoding="utf-8", newline="\n") as fh:
        json.dump({"seeds": seeds}, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

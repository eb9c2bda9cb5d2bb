"""Reproduce the ROADMAP's single-run baseline figures in one command.

    python3 perfbench/reanchor.py

Prints, for each shipped config, the wall time of `utpursuit batch --runs 100`
(both controllers, run in-process) and the run_batch steps/s of each
controller, then the same as one JSON object.  These are single unscaled
runs, as the ROADMAP's figures were; the steady, host-speed-scaled numbers
come from perfbench/run.py.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STEMS = ("straight", "circle", "waypoint_arc")
# The ROADMAP's baseline is `utpursuit batch --runs 100`.
RUNS = 100


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from utpursuit import cli
    from utpursuit.config import parse_config
    from utpursuit.sim import Controller, run_batch

    result = {}
    out_dir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        for stem in STEMS:
            cfg = str(ROOT / "configs" / f"{stem}.cfg")
            start = perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["batch", "--config", cfg, "--out-dir", out_dir, "--runs", str(RUNS)])
            wall = perf_counter() - start
            if code != 0:
                print(f"error: utpursuit batch on {stem} exited with {code}", file=sys.stderr)
                return 1
            row = {"cli_batch_s": wall}
            scenario = parse_config(cfg)
            for controller in (Controller.PP, Controller.UTPP):
                start = perf_counter()
                run_batch(replace(scenario, controller=controller), RUNS, 0)
                row[f"{controller.value}_steps_per_s"] = RUNS * scenario.steps / (perf_counter() - start)
            result[stem] = row
            print(f"{stem}: batch --runs {RUNS} {wall:.2f} s; steps/s pp {row['pp_steps_per_s']:.0f}, "
                  f"utpp {row['utpp_steps_per_s']:.0f}")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

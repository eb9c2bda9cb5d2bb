"""Command-line front end.

Two subcommands: `run` simulates one scenario and writes a trajectory CSV, a
summary JSON and optionally an SVG plot; `batch` repeats a scenario with
consecutive seeds for both controllers and writes per-run and aggregate
CSVs.  Scenario files are described in the README; a handful of flags
override the file without editing it.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import replace
from pathlib import Path

from .config import parse_config
from .errors import ConfigInvalid, TooFewWaypoints, UtPursuitError
from .geometry import Circle, StraightLine
from .output import emit_batch_csvs, emit_csv, emit_summary_json, emit_svg, format_float
from .roads import RoadModel
from .sim import Controller, Scenario, run, run_batch
from .uncertainty import Covariance3
from .waypoints import load_waypoints


def _parse_road_spec(spec: str) -> RoadModel:
    kind, _, rest = spec.partition(":")
    try:
        if kind == "line":
            m, c = (float(v) for v in rest.split(","))
            return StraightLine(m, c)
        if kind == "circle":
            cx, cy, r = (float(v) for v in rest.split(","))
            return Circle(cx, cy, r)
        if kind == "waypoints":
            return load_waypoints(rest)
    except (ValueError, OSError, TooFewWaypoints) as exc:
        raise ConfigInvalid(f"--road {spec!r}: {exc}") from None
    raise ConfigInvalid(f"--road {spec!r}: expected line:m,c | circle:cx,cy,r | waypoints:file")


def _apply_overrides(scenario: Scenario, args: argparse.Namespace) -> Scenario:
    if args.road is not None:
        scenario = replace(scenario, road=_parse_road_spec(args.road))
    if args.steps is not None:
        scenario = replace(scenario, steps=args.steps)
    if args.noise == "off":
        scenario = replace(scenario, noise=replace(scenario.noise, cov=Covariance3(0.0, 0.0, 0.0)))
    elif args.noise == "on" and scenario.noise.cov.is_zero():
        raise ConfigInvalid("--noise on: the noise covariance is zero; no enabled [noise] sigma is set")
    return scenario


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = _apply_overrides(parse_config(args.config), args)
    if args.controller is not None:
        scenario = replace(scenario, controller=Controller(args.controller))
    if args.seed is not None:
        scenario = replace(scenario, noise=replace(scenario.noise, rng_seed=args.seed))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    trajectory, summary = run(scenario)
    stem = f"{Path(args.config).stem}_{scenario.controller.value}_{summary.seed}"
    written = [out_dir / f"{stem}_trajectory.csv", out_dir / f"{stem}_summary.json"]
    emit_csv(trajectory, str(written[0]))
    emit_summary_json(summary, scenario, str(written[1]))
    if args.svg:
        written.append(out_dir / f"{stem}.svg")
        emit_svg(trajectory, scenario.road, str(written[2]))
    conv = "none" if summary.convergence_time is None else f"{format_float(summary.convergence_time)} s"
    print(
        f"{scenario.controller.value}: {len(trajectory)} steps, convergence {conv}, "
        f"mean |lateral error| {format_float(summary.mean_abs_lateral_error)} m, "
        f"{summary.fault_count} faults"
    )
    for p in written:
        print(f"wrote {p}")
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    scenario = _apply_overrides(parse_config(args.config), args)
    batches = []
    for controller in (Controller.PP, Controller.UTPP):
        summaries, stats = run_batch(replace(scenario, controller=controller), args.runs, args.base_seed)
        batches.append((summaries, stats))
        print(
            f"{controller.value}: {stats.n_converged}/{stats.n_runs} converged, "
            f"median convergence {format_float(stats.median_convergence_time)} s"
        )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = Path(args.config).stem
    paths = [out_dir / f"{stem}_batch_runs.csv", out_dir / f"{stem}_batch_aggregate.csv"]
    emit_batch_csvs(batches, *map(str, paths))
    for path in paths:
        print(f"wrote {path}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="utpursuit",
        description="Pure-pursuit path tracking under pose uncertainty.",
    )
    parser.add_argument("--verbose", action="store_true", help="enable debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="scenario file")
        p.add_argument("--out-dir", required=True, help="directory for the output files")
        p.add_argument("--road", help="override the road: line:m,c | circle:cx,cy,r | waypoints:file")
        p.add_argument("--steps", type=int, help="override the number of steps")
        p.add_argument("--noise", choices=["on", "off"], help="on: require a nonzero covariance; off: zero it")

    p_run = sub.add_parser("run", help="simulate one scenario")
    common(p_run)
    p_run.add_argument("--controller", choices=["pp", "utpp"], help="override the controller")
    p_run.add_argument("--seed", type=int, help="override the noise seed")
    p_run.add_argument("--svg", action="store_true", help="also write the SVG plot")

    p_batch = sub.add_parser("batch", help="run seeded batches for both controllers")
    common(p_batch)
    p_batch.add_argument("--runs", type=int, default=100, help="runs per controller (default 100)")
    p_batch.add_argument("--base-seed", type=int, default=0, help="seed of run 0 (default 0)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_batch(args)
    except UtPursuitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Workload definitions: what one timed run of each workload executes.

Every workload is a list of jobs, one per (scenario, controller) pair.  The
timed loop calls every job once per *unit*; unit u runs the noise seeds of
schedule slot u % cycle, so a run of any length executes one fixed schedule
of seeds over and over, and the reference file covers all of them.

The benchmark's --seed is the first noise seed of the schedule and, on
dense_loop, also picks the start pose.  The program only ever sees
scenarios built here from that seed and the shipped configs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from utpursuit import cli, config, sim
from utpursuit.geometry import Pose
from utpursuit.sim import Controller, RunSummary, Scenario
from utpursuit.uncertainty import Covariance3, derive_ut_params
from utpursuit.vehicle import NoiseModel
from utpursuit.waypoints import WaypointPath

CONTROLLERS = (Controller.PP, Controller.UTPP)

# What the checks compare for one run: (convergence_time, mean |lateral
# error|, max |delta|, fault_count); convergence_time is None when the run
# never converged.
Outcome = tuple


@dataclass
class Job:
    """One (scenario, controller) pair of a workload.

    call(slot) runs the seeds of one schedule slot and returns one outcome
    per run, in seed order; warm_up() runs it once outside the timed part.
    """

    label: str
    controller: Controller
    runs_per_call: int
    steps_per_run: int
    call: Callable[[int], list[Outcome]]
    warm_up: Callable[[], object]


@dataclass
class Prepared:
    """What one set-up produces: the jobs plus the facts the checks need."""

    jobs: list[Job]
    steering_limit: float
    dt: float


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # Schedule slots before the seeds repeat: at least 100 distinct calls
    # (jobs x slots), so p90 has 10 measured values beyond it, and short
    # enough that a run executes the whole cycle at least once at the seed
    # code's speed.
    cycle: int
    setup: Callable[[str, int, str], Prepared]
    # Wrapped names (see spans.TARGETS) that must get calls on this workload;
    # a zero count there is reported as a bypass, not as a time.
    expected: frozenset[str]


def outcome(summary: RunSummary) -> Outcome:
    return (
        summary.convergence_time,
        summary.mean_abs_lateral_error,
        summary.max_abs_delta,
        summary.fault_count,
    )


def _batch_job(label: str, scenario: Scenario, runs: int, base_seed: int) -> Job:
    # sim.run_batch is looked up at call time so a traced run sees its wrapper.
    def call(slot: int) -> list[Outcome]:
        summaries, _ = sim.run_batch(scenario, runs, base_seed + slot * runs)
        return [outcome(s) for s in summaries]

    return Job(
        label, scenario.controller, runs, scenario.steps, call,
        lambda: sim.run_batch(scenario, 1, base_seed),
    )


def _config_path(root: str, stem: str) -> str:
    return os.path.join(root, "configs", f"{stem}.cfg")


def _config_batches(root: str, stems: tuple[str, ...], runs: int, base_seed: int) -> Prepared:
    jobs = []
    for stem in stems:
        scenario = config.parse_config(_config_path(root, stem))
        if isinstance(scenario.road, WaypointPath):
            scenario.road.spatial_index()
        for controller in CONTROLLERS:
            scen = replace(scenario, controller=controller)
            jobs.append(_batch_job(f"{stem}/{controller.value}", scen, runs, base_seed))
    return Prepared(jobs, scenario.steering_limit, scenario.dt)


# analytic_batch hands run_batch this many seeds per call, so a seed-batched
# engine has a batch to work on.  Each call is one run-time measurement, the
# average of its runs.
ANALYTIC_RUNS_PER_CALL = 5


def setup_analytic(root: str, seed: int, out_dir: str) -> Prepared:
    return _config_batches(root, ("straight", "circle"), ANALYTIC_RUNS_PER_CALL, seed)


def setup_waypoint(root: str, seed: int, out_dir: str) -> Prepared:
    return _config_batches(root, ("waypoint_arc",), 1, seed)


# ------------------------------------------------------------------ dense loop
DENSE_SPACING = 0.05
DENSE_RADIUS = 50.0
DENSE_LEG_POINTS = 1858
DENSE_ARC_POINTS = 3142
DENSE_STEPS = 4


def stadium_points() -> list[tuple[float, float]]:
    """A closed stadium loop of 10^4 waypoints, counter-clockwise.

    Two horizontal legs (y = 0 and y = 2R) joined by two semicircles of
    radius R, about DENSE_SPACING apart everywhere.  The list starts and
    ends at the middle of the lower leg, so the loop seam lies on a straight
    stretch, far from the leg/arc junctions the start poses aim at.
    """
    s, r, n_leg, n_arc = DENSE_SPACING, DENSE_RADIUS, DENSE_LEG_POINTS, DENSE_ARC_POINTS
    length = n_leg * s
    half = n_leg // 2
    step = math.pi / n_arc
    pts = [(length / 2 + i * s, 0.0) for i in range(n_leg - half)]
    pts += [(length + r * math.sin(i * step), r - r * math.cos(i * step)) for i in range(n_arc)]
    pts += [(length - i * s, 2 * r) for i in range(n_leg)]
    pts += [(-r * math.sin(i * step), r + r * math.cos(i * step)) for i in range(n_arc)]
    pts += [(i * s, 0.0) for i in range(half)]
    pts.append(pts[0])
    return pts


def dense_start_pose(seed: int) -> Pose:
    """A start pose on a straight leg, 1.05-1.2 m before it bends into an arc.

    The look-ahead probe, 1 m ahead, starts on the leg and crosses onto the
    arc within DENSE_STEPS steps, so every run reduces to lines and circles.
    """
    rng = np.random.default_rng(seed)
    leg = int(rng.integers(2))
    before = float(rng.uniform(1.05, 1.2))
    offset = float(rng.uniform(-0.2, 0.2))
    if leg == 0:
        return Pose(DENSE_LEG_POINTS * DENSE_SPACING - before, offset, 0.0)
    return Pose(before, 2 * DENSE_RADIUS + offset, math.pi)


def dense_scenario(seed: int) -> Scenario:
    """The dense_loop pp scenario for one benchmark seed; noise as in the configs."""
    return Scenario(
        road=WaypointPath(stadium_points()),
        start_pose=dense_start_pose(seed),
        speed=1.0,
        wheelbase=1.0,
        lookahead_gain=1.0,
        dt=0.1,
        steps=DENSE_STEPS,
        noise=NoiseModel(Covariance3(0.0, 0.1**2, math.radians(10.0) ** 2), 0.3, seed),
        ut=derive_ut_params(3, 0.001, 0.0),
        steering_limit=math.radians(80.0),
    )


def setup_dense(root: str, seed: int, out_dir: str) -> Prepared:
    scenario = dense_scenario(seed)
    scenario.road.spatial_index()
    jobs = [
        _batch_job(f"dense/{c.value}", replace(scenario, controller=c), 1, seed) for c in CONTROLLERS
    ]
    return Prepared(jobs, scenario.steering_limit, scenario.dt)


# ----------------------------------------------------------------- cli outputs
SUMMARY_KEYS = ("convergence_time", "mean_abs_lateral_error", "max_abs_delta", "fault_count")
OUTPUT_SUFFIXES = ("_trajectory.csv", "_summary.json", ".svg")


class CliRun:
    """One in-process `utpursuit run --svg` per call, for one config and controller.

    The digest of the files each seed writes is kept from its first call; a
    later call of the same seed that writes other bytes raises.
    """

    def __init__(self, root: str, stem: str, controller: Controller, base_seed: int, out_dir: str):
        self.cfg = _config_path(root, stem)
        self.stem = stem
        self.controller = controller
        self.base_seed = base_seed
        self.out_dir = out_dir
        self.digests: dict[int, str] = {}

    def __call__(self, slot: int) -> list[Outcome]:
        seed = self.base_seed + slot
        argv = ["run", "--config", self.cfg, "--out-dir", self.out_dir, "--svg",
                "--controller", self.controller.value, "--seed", str(seed)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"utpursuit {' '.join(argv)} exited with {code}")
        prefix = os.path.join(self.out_dir, f"{self.stem}_{self.controller.value}_{seed}")
        digest = hashlib.sha256()
        for suffix in OUTPUT_SUFFIXES:
            with open(prefix + suffix, "rb") as fh:
                digest.update(fh.read())
        if self.digests.setdefault(seed, digest.hexdigest()) != digest.hexdigest():
            raise RuntimeError(f"{prefix}: files differ from this seed's first run")
        with open(prefix + "_summary.json", encoding="utf-8") as fh:
            payload = json.load(fh)
        return [tuple(payload[k] for k in SUMMARY_KEYS)]


def setup_cli(root: str, seed: int, out_dir: str) -> Prepared:
    jobs = []
    for stem in ("straight", "circle"):
        scenario = config.parse_config(_config_path(root, stem))
        for controller in CONTROLLERS:
            run = CliRun(root, stem, controller, seed, out_dir)
            jobs.append(Job(f"{stem}/{controller.value}", controller, 1, scenario.steps, run, lambda r=run: r(0)))
    return Prepared(jobs, scenario.steering_limit, scenario.dt)


_SIM = {"sim.run_batch", "sim.run", "sim.step_pp", "sim.step_utpp"}
_UT = {"uncertainty.generate_sigma_points", "uncertainty.weighted_steering"}
_VEHICLE = {"vehicle.advance_pose", "vehicle.sample_measured_pose", "roads.clamp_to_road", "roads.lateral_deviation"}
_WAYPOINTS = {
    "waypoints.reduce_to_local_road",
    "waypoints.select_lookahead_waypoint",
    "waypoints.KdTree.nearest",
    "waypoints.build_index",
    "roads.nearest_point_on_polyline",
}
_LINE = {"pursuit.cross_track_line", "geometry.line_to_vehicle"}
_CIRCLE = {"pursuit.cross_track_circle", "geometry.circle_to_vehicle"}
_STEER = {"pursuit.steering_angle"}
_OUTPUT = {
    "cli.main",
    "config.parse_config",
    "output.emit_csv",
    "output.emit_svg",
    "output.emit_summary_json",
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "analytic_batch",
            "straight and circle configs through run_batch: the steering, UT and "
            "simulation-loop path on O(1) roads, with no waypoint or output work",
            cycle=25,
            setup=setup_analytic,
            expected=frozenset(_SIM | _UT | _VEHICLE | _LINE | _CIRCLE | _STEER),
        ),
        Workload(
            "waypoint_batch",
            "circle.cfg's road as 181 waypoints: its difference from analytic_batch "
            "is the cost of waypoint reduction and polyline projection",
            cycle=50,
            setup=setup_waypoint,
            expected=frozenset(_SIM | _UT | _VEHICLE | _WAYPOINTS | _CIRCLE | _STEER | {"waypoints.load_waypoints"}),
        ),
        Workload(
            "dense_loop",
            "a generated 10^4-waypoint stadium loop with short runs: a working set "
            "where O(N) scans and the index build dominate",
            cycle=50,
            setup=setup_dense,
            expected=frozenset(_SIM | _UT | _VEHICLE | _WAYPOINTS | _LINE | _CIRCLE | _STEER),
        ),
        Workload(
            "cli_outputs",
            "in-process `utpursuit run --svg` on straight and circle: the only "
            "workload where config parsing and the CSV/JSON/SVG emitters run",
            cycle=25,
            setup=setup_cli,
            expected=frozenset((_SIM - {"sim.run_batch"}) | _UT | _VEHICLE | _LINE | _CIRCLE | _STEER | _OUTPUT),
        ),
    )
}

"""Closed-loop tracking simulation for both controllers.

Each step runs the controller on the latest measured pose, advances the true
pose with the commanded steering, then samples the next measured pose.  A
recoverable geometry fault (road out of reach, perpendicular line, missed
circle) never aborts a run: the previous steering command is held and the
fault is tagged on that step's record.
"""

from __future__ import annotations

import logging
import math
import statistics
from dataclasses import dataclass, field, replace
from enum import Enum
from numbers import Real
from operator import attrgetter
from typing import Callable

from .errors import ConfigInvalid, RoadGeometryFault
from .geometry import Circle, Pose, StraightLine, circle_to_vehicle, line_to_vehicle
from .pursuit import (
    DEFAULT_STEERING_LIMIT,
    PursuitConfig,
    cross_track_circle,
    cross_track_line,
    lookahead_distance,
    steering_angle,
)
from .roads import RoadModel, lateral_deviation
from .uncertainty import DEFAULT_UT, Covariance3, UtParams, generate_sigma_points, weighted_steering
from .vehicle import NoiseModel, advance_pose, sample_measured_pose
from .waypoints import LocalRoad, WaypointPath, local_road, reduce_to_local_road, select_lookahead_waypoints

logger = logging.getLogger(__name__)

# Config validation rejects global road lines steeper than this (89.9 deg);
# the slope-intercept form degrades near vertical.
MAX_ROAD_SLOPE = math.tan(math.radians(89.9))

# A run counts as converged once the true pose stays within this lateral
# band around the road for the full hold window.
CONVERGENCE_THRESHOLD = 0.05
CONVERGENCE_HOLD = 2.0


class Controller(Enum):
    PP = "pp"
    UTPP = "utpp"


# Every Scenario field, and noise's seed, with the types it must have.  Nothing
# is coerced, and a bool, which is an int, passes only where bool is named.
_FIELD_TYPES = (
    ("road", (StraightLine, Circle, WaypointPath)),
    ("start_pose", (Pose,)),
    ("speed", (Real,)),
    ("wheelbase", (Real,)),
    ("lookahead_gain", (Real,)),
    ("dt", (Real,)),
    ("steps", (int,)),
    ("controller", (Controller,)),
    ("noise", (NoiseModel,)),
    ("noise.rng_seed", (int,)),
    ("ut", (UtParams,)),
    ("steering_limit", (Real,)),
    ("paper_literal", (bool,)),
)
_TYPE_NAMES = {Real: "real number", int: "whole number"}


@dataclass(frozen=True)
class Scenario:
    """Everything one simulation run depends on."""

    road: RoadModel
    start_pose: Pose
    speed: float
    wheelbase: float
    lookahead_gain: float
    dt: float = 0.1
    steps: int = 300
    controller: Controller = Controller.PP
    # The default is a perfect sensor: measured pose == true pose, and utpp == pp.
    noise: NoiseModel = NoiseModel(Covariance3(0.0, 0.0, 0.0))
    ut: UtParams = DEFAULT_UT
    steering_limit: float = DEFAULT_STEERING_LIMIT
    paper_literal: bool = False

    # The steering law's parameters, built and checked once per scenario.
    pursuit: PursuitConfig = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        # Checked first, so a wrong type fails here, named, rather than mid-run.
        for name, kinds in _FIELD_TYPES:
            value = attrgetter(name)(self)
            if not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds):
                expected = " or ".join(_TYPE_NAMES.get(kind, kind.__name__) for kind in kinds)
                raise ConfigInvalid(f"{name} must be a {expected}, got {type(value).__name__}")
        if not (math.isfinite(self.speed) and self.speed > 0.0):
            raise ConfigInvalid(f"speed must be positive, got {self.speed}")
        try:
            pursuit = PursuitConfig(self.wheelbase, self.lookahead_gain, self.steering_limit)
        except ValueError as exc:
            raise ConfigInvalid(str(exc)) from None
        object.__setattr__(self, "pursuit", pursuit)
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ConfigInvalid(f"dt must be positive, got {self.dt}")
        if self.steps < 1:
            raise ConfigInvalid(f"steps must be an integer >= 1, got {self.steps!r}")
        if isinstance(self.road, StraightLine) and abs(self.road.slope) >= MAX_ROAD_SLOPE:
            raise ConfigInvalid(
                f"road slope {self.road.slope} too steep; |slope| must stay below {MAX_ROAD_SLOPE:.1f}"
            )
        if self.noise.rng_seed < 0:
            raise ConfigInvalid(f"seed must be >= 0, got {self.noise.rng_seed}")


@dataclass(frozen=True, slots=True)
class TrajectoryRecord:
    """One step of a run: the poses the controller saw and what it commanded.

    y_e is None on faulted steps.  lateral_error is the true pose's
    deviation from the road (signed for lines and circles).
    """

    step: int
    time: float
    true_pose: Pose
    measured_pose: Pose
    y_e: float | None
    delta: float
    lateral_error: float
    fault: str | None


@dataclass(frozen=True, slots=True)
class RunSummary:
    convergence_time: float | None
    mean_abs_lateral_error: float
    max_abs_delta: float
    fault_count: int
    seed: int


@dataclass(frozen=True, slots=True)
class BatchStats:
    """Aggregates over one controller's batch; non-converged runs enter the
    median as +inf so it stays meaningful while any majority converges."""

    controller: str
    n_runs: int
    n_converged: int
    median_convergence_time: float
    mean_convergence_time: float | None
    mean_abs_lateral_error: float
    mean_fault_count: float


def _steer(road: LocalRoad, x: float, y: float, yaw: float, d_l: float, cfg: PursuitConfig) -> tuple[float, float]:
    """The pure-pursuit command of the pose (x, y, yaw) against a global line or circle: (delta, y_e)."""
    if isinstance(road, StraightLine):
        y_e = cross_track_line(*line_to_vehicle(road, x, y, yaw), d_l)[0]
    else:
        y_e = cross_track_circle(*circle_to_vehicle(road, x, y, yaw), road.radius, d_l)[0]
    return steering_angle(y_e, d_l, cfg), y_e


def step_pp(pose: Pose, scenario: Scenario) -> tuple[float, float]:
    """One conventional pure-pursuit decision from the measured pose: (delta, y_e)."""
    cfg = scenario.pursuit
    d_l = lookahead_distance(scenario.speed, cfg)
    road = scenario.road
    if isinstance(road, WaypointPath):
        road = reduce_to_local_road(road, pose, d_l)
    return _steer(road, pose.x, pose.y, pose.yaw, d_l, cfg)


def _local_roads(
    scenario: Scenario, sigma: tuple[tuple[float, float, float], ...], pairs: list[tuple[str, int]], d_l: float
) -> Callable[[int], LocalRoad]:
    """The local road of the sigma pose sigma[i], as a function of i, built when first asked for.

    On a waypoint road the mean and the poses of the steered pairs share one
    nearest-waypoint scan, and poses that select the same waypoint share one
    line or circle.
    """
    road = scenario.road
    if not isinstance(road, WaypointPath):
        return lambda i: road
    steered = [0, *(j for _, i in pairs for j in (i, i + 1))]
    selected = dict(zip(steered, select_lookahead_waypoints(road, [sigma[j] for j in steered], d_l)))
    built: dict[int, LocalRoad] = {}

    def road_of(i: int) -> LocalRoad:
        w = selected[i]
        if w not in built:
            built[w] = local_road(road, w)
        return built[w]

    return road_of


def step_utpp(pose: Pose, scenario: Scenario) -> tuple[float, float]:
    """One unscented pure-pursuit decision from the measured pose: (delta, y_e).

    The seven sigma poses are steered and their commands combined with the
    UT weights; y_e is the mean sigma pose's.  A fault on the mean pose
    faults the whole step.  Each axis contributes the commands of its two
    sigma poses, or, when its variance is zero or either pose faults, the
    mean's command in both slots, so the axis adds no curvature term.
    """
    cfg = scenario.pursuit
    d_l = lookahead_distance(scenario.speed, cfg)
    cov = scenario.noise.cov
    sigma = generate_sigma_points(pose, cov, scenario.ut)
    # Poses i and i + 1 perturb the axis by + and - its spread.
    axes = (("x", 1, cov.var_x), ("y", 3, cov.var_y), ("yaw", 5, cov.var_yaw))
    pairs = [(axis, i) for axis, i, var in axes if var > 0.0]
    road_of = _local_roads(scenario, sigma, pairs, d_l)
    delta0, y_e = _steer(road_of(0), *sigma[0], d_l, cfg)
    deltas = [delta0] * len(sigma)
    for axis, i in pairs:
        try:
            delta_plus = _steer(road_of(i), *sigma[i], d_l, cfg)[0]
            deltas[i + 1] = _steer(road_of(i + 1), *sigma[i + 1], d_l, cfg)[0]
            deltas[i] = delta_plus
        except RoadGeometryFault as exc:
            logger.debug("sigma axis %s fell back to the mean steering: %s", axis, exc)
    return weighted_steering(deltas, scenario.ut, cfg.steering_limit), y_e


def convergence_time(records: list[TrajectoryRecord], dt: float) -> float | None:
    """Earliest record time after which |lateral_error| < 0.05 m holds 2 s.

    The full hold window must fit inside the run; otherwise returns None.
    """
    window = math.ceil(CONVERGENCE_HOLD / dt - 1e-9)
    ok = [abs(r.lateral_error) < CONVERGENCE_THRESHOLD for r in records]
    for k in range(len(records) - window):
        if all(ok[k : k + window + 1]):
            return records[k].time
    return None


def _summarize(records: list[TrajectoryRecord], scenario: Scenario, seed: int) -> RunSummary:
    return RunSummary(
        convergence_time=convergence_time(records, scenario.dt),
        mean_abs_lateral_error=math.fsum(abs(r.lateral_error) for r in records) / len(records),
        max_abs_delta=max(abs(r.delta) for r in records),
        fault_count=sum(1 for r in records if r.fault is not None),
        seed=seed,
    )


def run(scenario: Scenario) -> tuple[list[TrajectoryRecord], RunSummary]:
    """Simulate one scenario; identical scenarios reproduce records exactly.

    Each record holds the poses the controller acted on at time step * dt
    together with the command it produced; the motion update happens after
    the record is taken.
    """
    if isinstance(scenario.road, WaypointPath):
        logger.info(
            "waypoint road: selecting the look-ahead waypoint by probing %.3f m ahead of the rear axle",
            lookahead_distance(scenario.speed, scenario.pursuit),
        )
    step = step_utpp if scenario.controller is Controller.UTPP else step_pp
    noise = scenario.noise
    rng = noise.make_rng()
    true_pose = measured_pose = scenario.start_pose
    records: list[TrajectoryRecord] = []
    delta = 0.0
    for k in range(scenario.steps):
        fault: str | None = None
        try:
            delta, y_e = step(measured_pose, scenario)
        except RoadGeometryFault as exc:
            y_e = None
            fault = type(exc).__name__
            logger.debug("step %d faulted (%s), holding delta=%.6f", k, fault, delta)
        records.append(
            TrajectoryRecord(
                step=k,
                time=k * scenario.dt,
                true_pose=true_pose,
                measured_pose=measured_pose,
                y_e=y_e,
                delta=delta,
                lateral_error=lateral_deviation((true_pose.x, true_pose.y), scenario.road),
                fault=fault,
            )
        )
        true_pose = advance_pose(true_pose, delta, scenario.speed, scenario.dt, scenario.wheelbase)
        measured_pose = sample_measured_pose(true_pose, noise, scenario.road, rng)
        if scenario.paper_literal:
            true_pose = measured_pose
    return records, _summarize(records, scenario, noise.rng_seed)


def run_batch(scenario: Scenario, n_runs: int, base_seed: int) -> tuple[list[RunSummary], BatchStats]:
    """Run n_runs independent copies of a scenario, seeded base_seed + i.

    Aggregates are computed from the summaries sorted by seed, so they do
    not depend on execution order.
    """
    if n_runs < 1:
        raise ConfigInvalid(f"n_runs must be >= 1, got {n_runs}")
    summaries: list[RunSummary] = []
    for i in range(n_runs):
        _, summary = run(replace(scenario, noise=replace(scenario.noise, rng_seed=base_seed + i)))
        summaries.append(summary)
    return summaries, aggregate(summaries, scenario.controller)


def aggregate(summaries: list[RunSummary], controller: Controller) -> BatchStats:
    ordered = sorted(summaries, key=lambda s: s.seed)
    times = [s.convergence_time if s.convergence_time is not None else math.inf for s in ordered]
    converged = [t for t in times if math.isfinite(t)]
    return BatchStats(
        controller=controller.value,
        n_runs=len(ordered),
        n_converged=len(converged),
        median_convergence_time=statistics.median(times),
        mean_convergence_time=(math.fsum(converged) / len(converged)) if converged else None,
        mean_abs_lateral_error=math.fsum(s.mean_abs_lateral_error for s in ordered) / len(ordered),
        mean_fault_count=math.fsum(s.fault_count for s in ordered) / len(ordered),
    )

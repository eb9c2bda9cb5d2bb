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
from itertools import repeat
from numbers import Real
from operator import attrgetter
from typing import Callable

from .errors import ConfigInvalid, RoadGeometryFault
from .geometry import PERPENDICULAR_COS_EPS, Circle, Pose, StraightLine, circle_to_vehicle, line_to_vehicle
from .pursuit import (
    COS_ARG_SLACK,
    DEFAULT_STEERING_LIMIT,
    DEGENERATE_CENTER_EPS,
    FLAT_SLOPE_EPS,
    cross_track_circle,
    cross_track_line,
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


# Every Scenario field, and the fields of its pose, noise and UT parameters,
# with the types they must have, each object before its fields.  Nothing is
# coerced, and a bool, which is an int, passes only where bool is named.
_FIELD_TYPES = (
    ("road", (StraightLine, Circle, WaypointPath)),
    ("start_pose", (Pose,)),
    ("start_pose.x", (Real,)),
    ("start_pose.y", (Real,)),
    ("start_pose.yaw", (Real,)),
    ("speed", (Real,)),
    ("wheelbase", (Real,)),
    ("lookahead_gain", (Real,)),
    ("dt", (Real,)),
    ("steps", (int,)),
    ("controller", (Controller,)),
    ("noise", (NoiseModel,)),
    ("noise.cov", (Covariance3,)),
    ("noise.cov.var_x", (Real,)),
    ("noise.cov.var_y", (Real,)),
    ("noise.cov.var_yaw", (Real,)),
    ("noise.max_lateral_dev", (Real,)),
    ("noise.rng_seed", (int,)),
    ("ut", (UtParams,)),
    ("ut.alpha", (Real,)),
    ("ut.kappa", (Real,)),
    ("steering_limit", (Real,)),
    ("paper_literal", (bool,)),
)
_TYPE_NAMES = {Real: "real number", int: "whole number"}
# Each field's getter, and the exact types that pass without the full test:
# float and int for a real number, the listed classes themselves otherwise.
# bool, subclasses and every wrong type still take the full test below.
_FIELD_CHECKS = tuple(
    (name, kinds, attrgetter(name), frozenset((float, int) if kinds == (Real,) else kinds))
    for name, kinds in _FIELD_TYPES
)


@dataclass(frozen=True)
class Scenario:
    """Everything one simulation run depends on.

    The pure-pursuit law steers with wheelbase (m, > 0), lookahead_gain
    (seconds of travel ahead, > 0) and steering_limit (a symmetric clamp on
    the commanded angle, rad, in (0, pi/2)).
    """

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

    # The look-ahead distance d_l = lookahead_gain * speed, derived once per scenario.
    lookahead: float = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        # Checked first, so a wrong type fails here, named, rather than mid-run.
        for name, kinds, get, exact in _FIELD_CHECKS:
            value = get(self)
            if type(value) in exact:
                continue
            if not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds):
                expected = " or ".join(_TYPE_NAMES.get(kind, kind.__name__) for kind in kinds)
                raise ConfigInvalid(f"{name} must be a {expected}, got {type(value).__name__}")
        for name in ("speed", "wheelbase", "lookahead_gain"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ConfigInvalid(f"{name} must be positive, got {value}")
        if not (0.0 < self.steering_limit < math.pi / 2.0):
            raise ConfigInvalid(f"steering_limit must lie in (0, pi/2), got {self.steering_limit}")
        object.__setattr__(self, "lookahead", self.lookahead_gain * self.speed)
        if not math.isfinite(self.lookahead):
            raise ConfigInvalid(f"lookahead_gain * speed must be finite, got {self.lookahead_gain} * {self.speed}")
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ConfigInvalid(f"dt must be positive, got {self.dt}")
        # The distance of one step, which advance_pose turns into a pose.
        if not math.isfinite(self.speed * self.dt):
            raise ConfigInvalid(f"speed * dt must be finite, got {self.speed} * {self.dt}")
        # The largest heading change of one step, in advance_pose's operation order.
        if not math.isfinite(self.speed * self.dt / self.wheelbase * math.tan(self.steering_limit)):
            raise ConfigInvalid(
                "speed * dt / wheelbase * tan(steering_limit) must be finite, got "
                f"{self.speed} * {self.dt} / {self.wheelbase} * tan({self.steering_limit})"
            )
        if self.steps < 1:
            raise ConfigInvalid(f"steps must be an integer >= 1, got {self.steps!r}")
        if isinstance(self.road, StraightLine) and abs(self.road.slope) >= MAX_ROAD_SLOPE:
            raise ConfigInvalid(
                f"road slope {self.road.slope} too steep; |slope| must stay below {MAX_ROAD_SLOPE:.1f}"
            )
        if self.noise.rng_seed < 0:
            raise ConfigInvalid(f"seed must be >= 0, got {self.noise.rng_seed}")


@dataclass(slots=True)
class TrajectoryRecord:
    """One step of a run: the poses the controller saw and what it commanded.

    y_e is None on faulted steps.  lateral_error is the true pose's
    deviation from the road (signed for lines and circles).  Records are
    not to be mutated.  They are left unfrozen, and so unhashable, because
    run builds one per step and a frozen slots __init__ costs about 2.5 us
    more; the poses inside are frozen and checked finite.
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


def _steer(road: LocalRoad, x: float, y: float, yaw: float, scenario: Scenario) -> tuple[float, float]:
    """The pure-pursuit command of the pose (x, y, yaw) against a global line or circle: (delta, y_e)."""
    d_l = scenario.lookahead
    if isinstance(road, StraightLine):
        y_e = cross_track_line(*line_to_vehicle(road, x, y, yaw), d_l)[0]
    else:
        y_e = cross_track_circle(*circle_to_vehicle(road, x, y, yaw), road.radius, d_l)[0]
    return steering_angle(y_e, d_l, scenario.wheelbase, scenario.steering_limit), y_e


def step_pp(pose: Pose, scenario: Scenario) -> tuple[float, float]:
    """One conventional pure-pursuit decision from the measured pose: (delta, y_e)."""
    road = scenario.road
    if isinstance(road, WaypointPath):
        road = reduce_to_local_road(road, pose, scenario.lookahead)
    return _steer(road, pose.x, pose.y, pose.yaw, scenario)


def _waypoint_steerer(
    road: WaypointPath, sigma: tuple[tuple[float, float, float], ...], pairs: list[tuple[str, int]], scenario: Scenario
) -> Callable[[int], tuple[float, float]]:
    """_steer of the sigma pose sigma[i] against its own local road, as a function of i.

    The mean and the poses of the steered pairs are looked up in one
    nearest_group call, and the path keeps each waypoint's line or circle.
    """
    steered = [0, *(j for _, i in pairs for j in (i, i + 1))]
    selected = dict(zip(steered, select_lookahead_waypoints(road, [sigma[j] for j in steered], scenario.lookahead)))
    return lambda i: _steer(local_road(road, selected[i]), *sigma[i], scenario)


# The kernels below steer the sigma poses of one step against a global line or
# circle.  Each computes the road's terms once, then each pose's frame
# transform, cross-track and clamped command inline, in the operation order
# of the scalar functions that _steer calls, so its (delta, y_e) equals
# _steer's bit for bit.  On every fault branch it returns _steer's result
# instead, which raises the scalar functions' own error.


def _line_steerer(
    road: StraightLine, sigma: tuple[tuple[float, float, float], ...], scenario: Scenario
) -> Callable[[int], tuple[float, float]]:
    """_steer of the sigma pose sigma[i] against the line road, as a function of i.

    Follows line_to_vehicle, cross_track_line and steering_angle.
    """
    psi_m = math.atan(road.slope)
    sin_m, cos_m, c = math.sin(psi_m), math.cos(psi_m), road.intercept
    d_l, wheelbase, limit = scenario.lookahead, scenario.wheelbase, scenario.steering_limit
    d_l2 = d_l * d_l

    def steer(i: int) -> tuple[float, float]:
        x, y, yaw = sigma[i]
        gap = psi_m - yaw
        cos_gap = math.cos(gap)
        if abs(cos_gap) < PERPENDICULAR_COS_EPS:
            return _steer(road, x, y, yaw, scenario)
        m = math.tan(gap)
        c2 = (x * sin_m + (c - y) * cos_m) / cos_gap
        if not (math.isfinite(m) and math.isfinite(c2)):
            return _steer(road, x, y, yaw, scenario)
        if abs(m) < FLAT_SLOPE_EPS:
            if d_l2 - c2 * c2 < 0.0:
                return _steer(road, x, y, yaw, scenario)
            y_e = c2
        else:
            one_m2 = 1.0 + m * m
            disc = one_m2 * d_l * d_l - c2 * c2
            if disc < 0.0:
                return _steer(road, x, y, yaw, scenario)
            root = math.sqrt(disc)
            if (root - m * c2) / one_m2 < 0.0:
                return _steer(road, x, y, yaw, scenario)
            y_e = (c2 + m * root) / one_m2
        delta = math.atan(2.0 * y_e * wheelbase / d_l2)
        return max(-limit, min(limit, delta)), y_e

    return steer


def _circle_steerer(
    road: Circle, sigma: tuple[tuple[float, float, float], ...], scenario: Scenario
) -> Callable[[int], tuple[float, float]]:
    """_steer of the sigma pose sigma[i] against the circle road, as a function of i.

    Follows circle_to_vehicle, cross_track_circle and steering_angle.
    """
    cx0, cy0, radius = road.cx, road.cy, road.radius
    d_l, wheelbase, limit = scenario.lookahead, scenario.wheelbase, scenario.steering_limit
    d_l2, r2, two_d_l = d_l * d_l, radius * radius, 2.0 * d_l

    def steer(i: int) -> tuple[float, float]:
        x, y, yaw = sigma[i]
        c, s = math.cos(yaw), math.sin(yaw)
        dx, dy = cx0 - x, cy0 - y
        cx, cy = c * dx + s * dy, -s * dx + c * dy
        if not (math.isfinite(cx) and math.isfinite(cy)):
            return _steer(road, x, y, yaw, scenario)
        rho = math.hypot(cx, cy)
        if rho < DEGENERATE_CENTER_EPS:
            return _steer(road, x, y, yaw, scenario)
        cos_arg = (rho * rho + d_l2 - r2) / (two_d_l * rho)
        if abs(cos_arg) > 1.0 + COS_ARG_SLACK:
            return _steer(road, x, y, yaw, scenario)
        alpha_1 = math.acos(max(-1.0, min(1.0, cos_arg)))
        alpha_2 = math.atan2(cy + 0.0, cx)
        plus, minus = alpha_2 + alpha_1, alpha_2 - alpha_1
        alpha = plus if abs(plus) <= abs(minus) else minus
        if d_l * math.cos(alpha) < 0.0:
            return _steer(road, x, y, yaw, scenario)
        y_e = d_l * math.sin(alpha)
        delta = math.atan(2.0 * y_e * wheelbase / d_l2)
        return max(-limit, min(limit, delta)), y_e

    return steer


def step_utpp(pose: Pose, scenario: Scenario) -> tuple[float, float]:
    """One unscented pure-pursuit decision from the measured pose: (delta, y_e).

    The mean sigma pose and the two poses of each axis with variance > 0
    are steered, and the seven commands are combined with the UT weights;
    the combined command is clamped to the steering limit, as each pose's
    command is.  y_e is the mean sigma pose's.  A fault on the mean pose
    faults the whole step.  Each axis contributes the commands of its two
    sigma poses, or, when its variance is zero or either pose faults, the
    mean's command in both slots, so the axis adds no curvature term.  On a
    line or circle road the poses are steered by _line_steerer or
    _circle_steerer, which compute the road's terms once per step.
    """
    cov = scenario.noise.cov
    sigma = generate_sigma_points(pose, cov, scenario.ut)
    # Poses i and i + 1 perturb the axis by + and - its spread.
    axes = (("x", 1, cov.var_x), ("y", 3, cov.var_y), ("yaw", 5, cov.var_yaw))
    pairs = [(axis, i) for axis, i, var in axes if var > 0.0]
    road = scenario.road
    if isinstance(road, WaypointPath):
        steer = _waypoint_steerer(road, sigma, pairs, scenario)
    elif isinstance(road, StraightLine):
        steer = _line_steerer(road, sigma, scenario)
    else:
        steer = _circle_steerer(road, sigma, scenario)
    delta0, y_e = steer(0)
    deltas = [delta0] * len(sigma)
    for axis, i in pairs:
        try:
            delta_plus = steer(i)[0]
            deltas[i + 1] = steer(i + 1)[0]
            deltas[i] = delta_plus
        except RoadGeometryFault as exc:
            logger.debug("sigma axis %s fell back to the mean steering: %s", axis, exc)
    limit = scenario.steering_limit
    return max(-limit, min(limit, weighted_steering(deltas, scenario.ut))), y_e


def convergence_time(records: list[TrajectoryRecord], dt: float) -> float | None:
    """Earliest record time after which |lateral_error| < 0.05 m holds 2 s.

    The full hold window must fit inside the run; otherwise returns None.
    """
    window = math.ceil(CONVERGENCE_HOLD / dt - 1e-9)
    held = 0  # consecutive in-band records up to and including records[i]
    for i, r in enumerate(records):
        if abs(r.lateral_error) < CONVERGENCE_THRESHOLD:
            held += 1
            if held > window:
                return records[i - window].time
        else:
            held = 0
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
    the record is taken.  The noise of the whole run is drawn before the
    first step (NoiseModel.draws), and step k's measured pose takes triple k.
    """
    if isinstance(scenario.road, WaypointPath):
        logger.info(
            "waypoint road: selecting the look-ahead waypoint by probing %.3f m ahead of the rear axle",
            scenario.lookahead,
        )
    step = step_utpp if scenario.controller is Controller.UTPP else step_pp
    noise = scenario.noise
    draws = noise.draws(scenario.steps)
    true_pose = measured_pose = scenario.start_pose
    records: list[TrajectoryRecord] = []
    delta = 0.0
    for k, draw in enumerate(repeat(None, scenario.steps) if draws is None else draws):
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
        measured_pose = sample_measured_pose(true_pose, noise, scenario.road, draw)
        if scenario.paper_literal:
            true_pose = measured_pose
    return records, _summarize(records, scenario, noise.rng_seed)


def run_batch(scenario: Scenario, n_runs: int, base_seed: int) -> tuple[list[RunSummary], BatchStats]:
    """Run n_runs independent copies of a scenario, seeded base_seed + i.

    The summaries come back in seed order; the aggregates do not depend on
    that order (see aggregate).
    """
    if n_runs < 1:
        raise ConfigInvalid(f"n_runs must be >= 1, got {n_runs}")
    summaries: list[RunSummary] = []
    for i in range(n_runs):
        _, summary = run(replace(scenario, noise=replace(scenario.noise, rng_seed=base_seed + i)))
        summaries.append(summary)
    return summaries, aggregate(summaries, scenario.controller)


def aggregate(summaries: list[RunSummary], controller: Controller) -> BatchStats:
    """One controller's BatchStats: counts, a median and math.fsum means, so any order of summaries."""
    times = [s.convergence_time if s.convergence_time is not None else math.inf for s in summaries]
    converged = [t for t in times if math.isfinite(t)]
    return BatchStats(
        controller=controller.value,
        n_runs=len(summaries),
        n_converged=len(converged),
        median_convergence_time=statistics.median(times),
        mean_convergence_time=(math.fsum(converged) / len(converged)) if converged else None,
        mean_abs_lateral_error=math.fsum(s.mean_abs_lateral_error for s in summaries) / len(summaries),
        mean_fault_count=math.fsum(s.fault_count for s in summaries) / len(summaries),
    )

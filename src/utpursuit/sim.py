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
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field, fields, is_dataclass, replace
from enum import Enum
from itertools import repeat
from numbers import Real
from operator import attrgetter
from types import UnionType
from typing import get_args, get_type_hints

from .errors import ConfigInvalid, RoadGeometryFault
from .geometry import Pose, StraightLine, circle_to_vehicle, line_to_vehicle
from .pursuit import DEFAULT_STEERING_LIMIT, cross_track_circle, cross_track_line, steering_angle
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


_TYPE_NAMES = {Real: "real number", int: "whole number"}


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
    # step_utpp's per-run plan, derived here too: the sigma pairs it steers,
    # (axis, index of the + pose) for each axis whose variance is > 0 (pose
    # i + 1 is the - pose).
    _steered_pairs: tuple[tuple[str, int], ...] = field(init=False, compare=False, repr=False)

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
        cov = self.noise.cov
        axes = (("x", 1, cov.var_x), ("y", 3, cov.var_y), ("yaw", 5, cov.var_yaw))
        object.__setattr__(self, "_steered_pairs", tuple((axis, i) for axis, i, var in axes if var > 0.0))


def _field_types(cls: type, prefix: str = "") -> Iterator[tuple[str, tuple[type, ...]]]:
    """Each constructor field of the dataclass cls, named prefix + field, with
    the types it must have: a float field takes any real number, a union field
    any of its members, and a dataclass field is followed by its own fields."""
    hints = get_type_hints(cls)
    for f in fields(cls):
        if f.init:
            name, hint = prefix + f.name, hints[f.name]
            yield name, get_args(hint) if isinstance(hint, UnionType) else (Real if hint is float else hint,)
            if is_dataclass(hint):
                yield from _field_types(hint, name + ".")


# Every Scenario field, and the fields of its pose, noise model, covariance
# and UT parameters, each object before its fields, with its getter and the
# exact types that pass without the full test: float and int for a real
# number, the listed classes themselves otherwise.  Nothing is coerced; a
# bool, which is an int, passes only where bool is named, and bool,
# subclasses and every wrong type take the full test in
# Scenario.__post_init__.
_FIELD_CHECKS = tuple(
    (name, kinds, attrgetter(name), frozenset((float, int) if kinds == (Real,) else kinds))
    for name, kinds in _field_types(Scenario)
)


@dataclass(slots=True)
class TrajectoryRecord:
    """One step of a run: the poses the controller saw and what it commanded.

    y_e is None on faulted steps.  lateral_error is the true pose's
    deviation from the road (signed for lines and circles).  Records are
    not to be mutated.  They are left unfrozen, and so unhashable, because
    a run's records, once read, are built one per step (Trajectory), and a
    frozen slots __init__ costs about 2.5 us more; the poses inside are
    frozen and checked finite.
    """

    step: int
    time: float
    true_pose: Pose
    measured_pose: Pose
    y_e: float | None
    delta: float
    lateral_error: float
    fault: str | None


class Trajectory(Sequence):
    """A run's records as a read-only sequence over the run's columns.

    run keeps each step's true and measured (x, y, yaw), y_e, command,
    lateral error and fault in columns; len reads them as they are, and the
    TrajectoryRecords are built, all of them, the first time a record is
    read (by index, iteration or ==).  A Trajectory equals another, or a
    list, that holds equal records.
    """

    __slots__ = ("_dt", "_columns", "_records")

    def __init__(self, dt: float, true: list, measured: list, y_e: list, delta: list, lateral: list, fault: list):
        self._dt = dt
        self._columns = (true, measured, y_e, delta, lateral, fault)
        self._records: list[TrajectoryRecord] | None = None

    def _built(self) -> list[TrajectoryRecord]:
        if self._records is None:
            dt = self._dt
            self._records = [
                TrajectoryRecord(k, k * dt, Pose(*true), Pose(*measured), y_e, delta, lateral, fault)
                for k, (true, measured, y_e, delta, lateral, fault) in enumerate(zip(*self._columns))
            ]
        return self._records

    def __len__(self) -> int:
        return len(self._columns[0])

    def __getitem__(self, index):
        return self._built()[index]

    def __iter__(self) -> Iterator[TrajectoryRecord]:
        return iter(self._built())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Trajectory):
            other = other._built()
        elif not isinstance(other, list):
            return NotImplemented
        return self._built() == other

    __hash__ = None  # type: ignore[assignment]


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


def _steer(
    road: LocalRoad, x: float, y: float, yaw: float, d_l: float, wheelbase: float, limit: float
) -> tuple[float, float]:
    """The pure-pursuit command of the pose (x, y, yaw) against a global line or circle: (delta, y_e)."""
    if isinstance(road, StraightLine):
        m, c = line_to_vehicle(road, x, y, yaw)
        y_e = cross_track_line(m, c, d_l)[0]
    else:
        cx, cy = circle_to_vehicle(road, x, y, yaw)
        y_e = cross_track_circle(cx, cy, road.radius, d_l)[0]
    return steering_angle(y_e, d_l, wheelbase, limit), y_e


def step_pp(pose: tuple[float, float, float], scenario: Scenario) -> tuple[float, float]:
    """One conventional pure-pursuit decision from the measured pose (x, y, yaw): (delta, y_e)."""
    road = scenario.road
    if isinstance(road, WaypointPath):
        road = reduce_to_local_road(road, pose, scenario.lookahead)
    x, y, yaw = pose
    return _steer(road, x, y, yaw, scenario.lookahead, scenario.wheelbase, scenario.steering_limit)


def step_utpp(pose: tuple[float, float, float], scenario: Scenario) -> tuple[float, float]:
    """One unscented pure-pursuit decision from the measured pose (x, y, yaw): (delta, y_e).

    The mean sigma pose and the two poses of each axis with variance > 0
    are steered by _steer, as step_pp steers its one pose, and the seven
    commands are combined with the UT weights; the combined command is
    clamped to the steering limit, as each pose's command is.  y_e is the
    mean sigma pose's.  A fault on the mean pose faults the whole step.
    Each axis contributes the commands of its two sigma poses, or, when its
    variance is zero or either pose faults, the mean's command in both
    slots, so the axis adds no curvature term.  On a waypoint road the
    look-ahead waypoints of all the steered poses are selected in one call,
    and each pose is steered against its waypoint's local road, which is
    looked up inside the pose's own fault handling.
    """
    sigma = generate_sigma_points(pose, scenario.noise.cov, scenario.ut)
    pairs = scenario._steered_pairs
    d_l, wheelbase, limit = scenario.lookahead, scenario.wheelbase, scenario.steering_limit
    road = scenario.road
    waypoint = None
    if isinstance(road, WaypointPath):
        steered = [0, *(j for _, i in pairs for j in (i, i + 1))]
        waypoint = dict(zip(steered, select_lookahead_waypoints(road, [sigma[j] for j in steered], d_l)))
    x, y, yaw = sigma[0]
    delta0, y_e = _steer(
        road if waypoint is None else local_road(road, waypoint[0]), x, y, yaw, d_l, wheelbase, limit
    )
    deltas = [delta0] * len(sigma)
    for axis, i in pairs:
        try:
            x, y, yaw = sigma[i]
            delta_plus = _steer(
                road if waypoint is None else local_road(road, waypoint[i]), x, y, yaw, d_l, wheelbase, limit
            )[0]
            x, y, yaw = sigma[i + 1]
            deltas[i + 1] = _steer(
                road if waypoint is None else local_road(road, waypoint[i + 1]), x, y, yaw, d_l, wheelbase, limit
            )[0]
            deltas[i] = delta_plus
        except RoadGeometryFault as exc:
            logger.debug("sigma axis %s fell back to the mean steering: %s", axis, exc)
    return max(-limit, min(limit, weighted_steering(deltas, scenario.ut))), y_e


def convergence_time(lateral_errors: Sequence[float], dt: float) -> float | None:
    """Earliest step time, k * dt, after which |lateral error| < 0.05 m holds 2 s.

    lateral_errors holds one run's errors in step order.  The full hold
    window must fit inside the run; otherwise returns None.
    """
    window = math.ceil(CONVERGENCE_HOLD / dt - 1e-9)
    held = 0  # consecutive in-band steps up to and including step i
    for i, error in enumerate(lateral_errors):
        if abs(error) < CONVERGENCE_THRESHOLD:
            held += 1
            if held > window:
                return (i - window) * dt
        else:
            held = 0
    return None


def _mean(values: list[float]) -> float:
    """math.fsum(values) / len(values), taken term by term where that sum passes the float range."""
    n = len(values)
    try:
        return math.fsum(values) / n
    except OverflowError:
        return math.fsum(v / n for v in values)


def run(scenario: Scenario) -> tuple[Trajectory, RunSummary]:
    """Simulate one scenario; identical scenarios reproduce records exactly.

    Each record holds the poses the controller acted on at time step * dt
    together with the command it produced; the motion update happens after
    the record is taken.  The noise of the whole run is drawn before the
    first step (NoiseModel.draws), and step k's measured pose takes triple k.
    The loop carries each pose as an (x, y, yaw) triple and fills one
    column per record field; the records are built only when read (see
    Trajectory), and the summary comes from the columns.
    """
    road, speed, dt, wheelbase = scenario.road, scenario.speed, scenario.dt, scenario.wheelbase
    if isinstance(road, WaypointPath):
        logger.info(
            "waypoint road: selecting the look-ahead waypoint by probing %.3f m ahead of the rear axle",
            scenario.lookahead,
        )
    step = step_utpp if scenario.controller is Controller.UTPP else step_pp
    paper_literal = scenario.paper_literal
    noise = scenario.noise
    n = scenario.steps
    draws = noise.draws(n)
    start = scenario.start_pose
    true = measured = (start.x, start.y, start.yaw)
    trues: list = [None] * n
    measureds: list = [None] * n
    y_es: list[float | None] = [None] * n
    deltas = [0.0] * n
    faults: list[str | None] = [None] * n
    delta = 0.0
    for k, draw in enumerate(repeat(None, n) if draws is None else draws):
        trues[k] = true
        measureds[k] = measured
        try:
            delta, y_es[k] = step(measured, scenario)
        except RoadGeometryFault as exc:
            faults[k] = type(exc).__name__
            logger.debug("step %d faulted (%s), holding delta=%.6f", k, faults[k], delta)
        deltas[k] = delta
        true = advance_pose(true, delta, speed, dt, wheelbase)
        measured = sample_measured_pose(true, noise, road, draw)
        if paper_literal:
            true = measured
    lateral = [lateral_deviation((x, y), road) for x, y, _ in trues]
    summary = RunSummary(
        convergence_time=convergence_time(lateral, dt),
        mean_abs_lateral_error=_mean(list(map(abs, lateral))),
        max_abs_delta=max(map(abs, deltas)),
        fault_count=n - faults.count(None),
        seed=noise.rng_seed,
    )
    return Trajectory(dt, trues, measureds, y_es, deltas, lateral, faults), summary


def run_batch(scenario: Scenario, n_runs: int, base_seed: int) -> tuple[list[RunSummary], BatchStats]:
    """Run n_runs independent copies of a scenario, seeded base_seed + i.

    The summaries come back in seed order; the aggregates do not depend on
    that order (see aggregate).  Each run's records are never read, so
    none is built.
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
        mean_convergence_time=_mean(converged) if converged else None,
        mean_abs_lateral_error=_mean([s.mean_abs_lateral_error for s in summaries]),
        mean_fault_count=_mean([s.fault_count for s in summaries]),
    )

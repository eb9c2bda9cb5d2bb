from __future__ import annotations

import math
from dataclasses import replace
from pathlib import Path

import pytest

from utpursuit import (
    Circle,
    Controller,
    Covariance3,
    NoiseModel,
    Pose,
    RoadGeometryFault,
    Scenario,
    StraightLine,
    TrajectoryRecord,
    WaypointPath,
    clamp_to_road,
    lateral_deviation,
    step_pp,
    step_utpp,
)
from utpursuit.config import parse_config
from utpursuit.output import CSV_HEADER

REPO_ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = REPO_ROOT / "configs"

# One line per acceptance criterion, filled in by test_acceptance.py and
# echoed after the run so the verdicts survive pytest's output capture.
ACCEPTANCE_RESULTS: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_RESULTS:
            terminalreporter.write_line(line)

# Reference scenario constants shared by many tests: unit speed and
# wheelbase, one-second look-ahead, 10 Hz stepping, lateral noise of 0.1 m
# and heading noise of 10 degrees.
SPEED = 1.0
WHEELBASE = 1.0
LOOKAHEAD_GAIN = 1.0
DT = 0.1
SIGMA_Y = 0.1
SIGMA_YAW = math.radians(10.0)
START = Pose(0.0, 0.5, 0.0)
STRAIGHT_ROAD = StraightLine(0.0, 0.0)
CIRCLE_ROAD = Circle(0.0, 5.0, 5.0)
# High enough that the arctan steering law (bounded by atan(2) here) never clamps.
WIDE_LIMIT = math.radians(80.0)
# A perfect sensor: the measured pose is the true pose.
ZERO_COV = Covariance3(0.0, 0.0, 0.0)


def reference_noise(seed: int = 0) -> NoiseModel:
    return NoiseModel(
        cov=Covariance3(0.0, SIGMA_Y**2, SIGMA_YAW**2),
        max_lateral_dev=0.3,
        rng_seed=seed,
    )


def make_scenario(
    road, *, controller=Controller.PP, noise=NoiseModel(ZERO_COV), steps=300, **kwargs
) -> Scenario:
    defaults = dict(
        road=road,
        start_pose=START,
        speed=SPEED,
        wheelbase=WHEELBASE,
        lookahead_gain=LOOKAHEAD_GAIN,
        dt=DT,
        steps=steps,
        controller=controller,
        noise=noise,
        steering_limit=WIDE_LIMIT,
    )
    defaults.update(kwargs)
    return Scenario(**defaults)


@pytest.fixture(scope="session")
def straight_scenario() -> Scenario:
    return parse_config(str(CONFIG_DIR / "straight.cfg"))


@pytest.fixture(scope="session")
def circle_scenario() -> Scenario:
    return parse_config(str(CONFIG_DIR / "circle.cfg"))


def noise_free(scenario: Scenario) -> Scenario:
    return replace(scenario, noise=replace(scenario.noise, cov=ZERO_COV))


def stadium_path() -> WaypointPath:
    """A closed 10^4-waypoint loop: two 92.9 m legs joined by semicircles of radius 50 m."""
    leg, n_leg, n_arc, r = 92.9, 1858, 3142, 50.0
    step = math.pi / n_arc
    pts = [(i * leg / n_leg, 0.0) for i in range(n_leg)]
    pts += [(leg + r * math.sin(i * step), r - r * math.cos(i * step)) for i in range(n_arc)]
    pts += [(leg - i * leg / n_leg, 2 * r) for i in range(n_leg)]
    pts += [(-r * math.sin(i * step), r + r * math.cos(i * step)) for i in range(n_arc)]
    return WaypointPath(pts + [pts[0]])


def vehicle_to_global(point: tuple[float, float], frame: Pose) -> tuple[float, float]:
    """Map a vehicle-frame point into the global frame: the oracle for global_to_vehicle."""
    c, s = math.cos(frame.yaw), math.sin(frame.yaw)
    px, py = point
    return (c * px - s * py + frame.x, s * px + c * py + frame.y)


def global_to_vehicle(point: tuple[float, float], x: float, y: float, yaw: float) -> tuple[float, float]:
    """Map a global-frame point into the vehicle frame of the pose (x, y, yaw).

    The oracle for the frame transforms: circle_to_vehicle turns a circle's
    centre with this arithmetic, in this order, and a line's points land on
    line_to_vehicle's line.
    """
    c, s = math.cos(yaw), math.sin(yaw)
    dx, dy = point[0] - x, point[1] - y
    return (c * dx + s * dy, -s * dx + c * dy)


def xyz(pose: Pose) -> tuple[float, float, float]:
    """A Pose as the (x, y, yaw) triple that the per-step functions take."""
    return (pose.x, pose.y, pose.yaw)


def run_oracle(scenario: Scenario) -> list[TrajectoryRecord]:
    """sim.run's records, from a loop that builds two checked Poses and one record per step.

    Each step steers the measured pose with the scenario's controller (step_pp
    or step_utpp), takes the record, then advances the true pose with the
    bicycle model and samples the next measured pose, each written out here
    on Pose objects, so that Pose's own checks and wrap apply at every step.
    """
    road, speed, dt, wheelbase = scenario.road, scenario.speed, scenario.dt, scenario.wheelbase
    step = step_utpp if scenario.controller is Controller.UTPP else step_pp
    noise = scenario.noise
    draws = noise.draws(scenario.steps)
    true_pose = measured_pose = scenario.start_pose
    records = []
    delta = 0.0
    for k in range(scenario.steps):
        fault = None
        try:
            delta, y_e = step(xyz(measured_pose), scenario)
        except RoadGeometryFault as exc:
            y_e, fault = None, type(exc).__name__
        lateral = lateral_deviation((true_pose.x, true_pose.y), road)
        records.append(TrajectoryRecord(k, k * dt, true_pose, measured_pose, y_e, delta, lateral, fault))
        arc = speed * dt
        beta = (arc / wheelbase) * math.tan(delta)
        tx, ty = arc * math.cos(beta), arc * math.sin(beta)
        c, s = math.cos(true_pose.yaw), math.sin(true_pose.yaw)
        true_pose = Pose(true_pose.x + c * tx - s * ty, true_pose.y + s * tx + c * ty, true_pose.yaw + beta)
        if draws is not None:
            g, cov = draws[k], noise.cov
            x = true_pose.x + (0.0 + cov.sd_x * g[0])
            y = true_pose.y + (0.0 + cov.sd_y * g[1])
            yaw = true_pose.yaw + (0.0 + cov.sd_yaw * g[2])
            measured_pose = Pose(*clamp_to_road((x, y), road, noise.max_lateral_dev), yaw)
        else:
            measured_pose = true_pose
        if scenario.paper_literal:
            true_pose = measured_pose
    return records


def read_csv(path: str) -> list[TrajectoryRecord]:
    """Parse a file written by emit_csv back into records."""
    with open(path, encoding="utf-8", newline="\n") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{path}: unexpected CSV header")
    records = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != 12:
            raise ValueError(f"{path}: expected 12 cells, got {len(cells)}")
        records.append(
            TrajectoryRecord(
                step=int(cells[0]),
                time=float(cells[1]),
                true_pose=Pose(float(cells[2]), float(cells[3]), float(cells[4])),
                measured_pose=Pose(float(cells[5]), float(cells[6]), float(cells[7])),
                y_e=float(cells[8]) if cells[8] else None,
                delta=float(cells[9]),
                lateral_error=float(cells[10]),
                fault=cells[11] or None,
            )
        )
    return records


def read_svg_polylines(path: str) -> list[list[tuple[float, float]]]:
    """Extract every polyline's points from a file written by emit_svg, in document order."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    out = []
    pos = 0
    while True:
        start = text.find('<polyline points="', pos)
        if start < 0:
            return out
        start += len('<polyline points="')
        end = text.index('"', start)
        pairs = text[start:end].split()
        out.append([tuple(map(float, p.split(","))) for p in pairs])
        pos = end

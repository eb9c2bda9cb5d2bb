"""End-to-end acceptance checks.

Each test verifies one numbered criterion at its stated tolerance and
appends a single [PASS]/[FAIL] line to the summary echoed after the run
(see pytest_terminal_summary in conftest).  Run them alone with

    pytest tests/test_acceptance.py -v
"""

import math
import time
from dataclasses import replace

import numpy as np

from utpursuit import (
    Circle,
    Controller,
    Covariance3,
    Pose,
    PursuitConfig,
    StraightLine,
    circle_to_vehicle,
    cross_track_circle,
    cross_track_line,
    derive_ut_params,
    generate_sigma_points,
    global_to_vehicle,
    line_to_vehicle,
    run,
    run_batch,
    steering_angle,
)
from utpursuit.cli import main
from utpursuit.config import parse_config
from utpursuit.waypoints import build_index, reduce_to_local_road

from conftest import ACCEPTANCE_RESULTS, CONFIG_DIR, noise_free, vehicle_to_global
from test_pursuit import line_circle_intersections, two_circle_intersections

STRAIGHT_CFG = str(CONFIG_DIR / "straight.cfg")
CIRCLE_CFG = str(CONFIG_DIR / "circle.cfg")


def _report(name: str, failures: list[str]) -> None:
    line = f"[{'FAIL' if failures else 'PASS'}] {name}"
    ACCEPTANCE_RESULTS.append(line)
    print(line)
    assert not failures, f"{name}: " + "; ".join(failures)


def test_criterion_01_pose_round_trips():
    failures = []
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        frame = Pose(*rng.uniform(-50.0, 50.0, size=2), rng.uniform(-math.pi, math.pi))
        point = tuple(rng.uniform(-50.0, 50.0, size=2))
        back = global_to_vehicle(vehicle_to_global(point, frame), frame.x, frame.y, frame.yaw)
        worst = max(worst, abs(back[0] - point[0]), abs(back[1] - point[1]))
    elapsed = time.perf_counter() - t0
    if worst > 1e-12:
        failures.append(f"worst round-trip error {worst:.3e} > 1e-12")
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f} s (budget 1 s)")
    _report("criterion 1: 1000 frame round-trips within 1e-12 in under 1 s", failures)


def test_criterion_02_road_transforms():
    failures = []
    rng = np.random.default_rng(1002)
    worst_line = 0.0
    checked = 0
    while checked < 1000:
        m = rng.uniform(-3.0, 3.0)
        c = rng.uniform(-10.0, 10.0)
        frame = Pose(*rng.uniform(-10.0, 10.0, size=2), rng.uniform(-math.pi, math.pi))
        if abs(math.cos(math.atan(m) - frame.yaw)) < 0.1:
            continue
        slope, intercept = line_to_vehicle(StraightLine(m, c), frame.x, frame.y, frame.yaw)
        for x in rng.uniform(-10.0, 10.0, size=5):
            vx, vy = global_to_vehicle((x, m * x + c), frame.x, frame.y, frame.yaw)
            worst_line = max(worst_line, abs(vy - (slope * vx + intercept)))
        checked += 1
    if worst_line > 1e-9:
        failures.append(f"line-equation residual {worst_line:.3e} > 1e-9")

    worst_circle = 0.0
    for _ in range(1000):
        circle = Circle(*rng.uniform(-20.0, 20.0, size=2), rng.uniform(0.1, 10.0))
        frame = Pose(*rng.uniform(-20.0, 20.0, size=2), rng.uniform(-math.pi, math.pi))
        cx, cy = circle_to_vehicle(circle, frame.x, frame.y, frame.yaw)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        gp = (
            circle.cx + circle.radius * math.cos(theta),
            circle.cy + circle.radius * math.sin(theta),
        )
        vx, vy = global_to_vehicle(gp, frame.x, frame.y, frame.yaw)
        worst_circle = max(worst_circle, abs(math.hypot(vx - cx, vy - cy) - circle.radius))
    if worst_circle > 1e-9:
        failures.append(f"circle-distance residual {worst_circle:.3e} > 1e-9")
    _report("criterion 2: line/circle road transforms verified on 1000 sampled points each (1e-9)", failures)


def test_criterion_03_cross_track_against_independent_oracles():
    failures = []
    rng = np.random.default_rng(1003)
    worst = 0.0
    checked = 0
    while checked < 1000:
        d = rng.uniform(0.5, 3.0)
        m = rng.uniform(-10.0, 10.0)
        c = rng.uniform(-0.95, 0.95) * math.sqrt(1.0 + m * m) * d
        points = line_circle_intersections(m, c, d)
        if len(points) != 2:
            continue
        fx, fy = max(points, key=lambda p: p[0])
        if fx < 1e-6 * d:
            continue
        y_e, x_e = cross_track_line(m, c, d)
        worst = max(worst, abs(x_e - fx), abs(y_e - fy))
        checked += 1
    if worst > 1e-6:
        failures.append(f"line cross-track vs bisection oracle off by {worst:.3e} > 1e-6")

    worst = 0.0
    checked = 0
    while checked < 1000:
        d = rng.uniform(0.5, 2.0)
        a, b = rng.uniform(-3.0, 3.0, size=2)
        rho = math.hypot(a, b)
        R = rng.uniform(0.1, 4.0)
        if rho < 0.05 or not (abs(rho - R) + 1e-3 < d < rho + R - 1e-3):
            continue
        points = two_circle_intersections(a, b, R, d)
        best = sorted((math.atan2(y, x) for x, y in points), key=abs)[0]
        if math.cos(best) < 1e-6:
            continue
        y_e, x_e = cross_track_circle(a, b, R, d)
        worst = max(worst, abs(x_e - d * math.cos(best)), abs(y_e - d * math.sin(best)))
        checked += 1
    if worst > 1e-6:
        failures.append(f"circle cross-track vs radical-line oracle off by {worst:.3e} > 1e-6")

    # Rear axle on the road circle, tangent heading: y_e = d^2 / (2R).
    y_e, _ = cross_track_circle(0.0, 5.0, 5.0, 1.0)
    if abs(y_e - 0.1) > 1e-9:
        failures.append(f"on-circle y_e {y_e!r} != 0.1 within 1e-9")
    cfg = PursuitConfig(wheelbase=1.0, lookahead_gain=1.0, steering_limit=math.radians(80.0))
    delta = steering_angle(y_e, 1.0, cfg)
    if abs(delta - math.atan(0.2)) > 1e-9:
        failures.append(f"on-circle delta {delta!r} != atan(0.2) within 1e-9")
    _report("criterion 3: cross-track matches independent oracles (1e-6) and the on-circle fixed point (1e-9)", failures)


def test_criterion_04_ut_weights_and_mean_recovery():
    failures = []
    ut = derive_ut_params(3, 0.001, 0.0)
    if abs(ut.w0 + 6.0 * ut.wi - 1.0) > 1e-9:
        failures.append(f"w0 + 6 wi = {ut.w0 + 6.0 * ut.wi!r} != 1 within 1e-9")
    if abs(ut.w0 - (-999999.0)) > 1e-4:
        failures.append(f"w0 = {ut.w0!r} not within 1e-4 of -999999.0")
    if abs(ut.wi - 166666.6666666667) > 1e-3:
        failures.append(f"wi = {ut.wi!r} not within 1e-3 of 166666.667")

    mean = Pose(1.0, 0.5, 0.1)
    cov = Covariance3(0.01**2, 0.1**2, math.radians(10.0) ** 2)
    pts = generate_sigma_points(mean, cov, ut)
    for k, axis in enumerate(("x", "y", "yaw")):
        recovered = math.fsum([ut.w0 * pts[0][k]] + [ut.wi * p[k] for p in pts[1:]])
        if abs(recovered - getattr(mean, axis)) > 1e-9:
            failures.append(f"{axis} recovered as {recovered!r}, off by > 1e-9")
    _report("criterion 4: UT weights sum to 1 and the weighted sigma mean recovers the pose (1e-9)", failures)


def test_criterion_05_zero_covariance_equivalence():
    failures = []
    for cfg_path in (STRAIGHT_CFG, CIRCLE_CFG):
        scen = parse_config(cfg_path)
        scen = replace(scen, noise=replace(scen.noise, cov=Covariance3(0.0, 0.0, 0.0)))
        rp, _ = run(replace(scen, controller=Controller.PP))
        ru, _ = run(replace(scen, controller=Controller.UTPP))
        worst = max(
            max(abs(a.delta - b.delta) for a, b in zip(rp, ru)),
            max(abs(a.true_pose.x - b.true_pose.x) for a, b in zip(rp, ru)),
            max(abs(a.true_pose.y - b.true_pose.y) for a, b in zip(rp, ru)),
        )
        if worst > 1e-12:
            failures.append(f"{cfg_path}: utpp diverges from pp by {worst:.3e} > 1e-12")
    _report("criterion 5: zero-covariance utpp reproduces pp over 300 steps (1e-12)", failures)


def test_criterion_06_noise_free_straight_road(straight_scenario):
    failures = []
    t0 = time.perf_counter()
    records, _ = run(noise_free(straight_scenario))
    elapsed = time.perf_counter() - t0
    if records[0].delta != -math.pi / 4:
        failures.append(f"first command {records[0].delta!r} != -pi/4 exactly")
    ys = [r.true_pose.y for r in records]
    flips = sum(1 for a, b in zip(ys, ys[1:]) if a * b < 0.0)
    if flips < 2:
        failures.append(f"only {flips} sign changes; expected an oscillatory approach")
    late = [abs(r.true_pose.y) for r in records if r.time > 15.0]
    if max(late) >= 0.02:
        failures.append(f"|y| reaches {max(late):.4f} after 15 s; bound 0.02")
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f} s (budget 1 s)")
    _report("criterion 6: noise-free straight road: exact -pi/4 first command, oscillation, |y| < 0.02 m after 15 s", failures)


def test_criterion_07_noise_free_circle_road(circle_scenario):
    failures = []
    t0 = time.perf_counter()
    records, _ = run(noise_free(circle_scenario))
    elapsed = time.perf_counter() - t0
    late = [r for r in records if r.time > 15.0]
    dist = [abs(math.hypot(r.true_pose.x, r.true_pose.y - 5.0) - 5.0) for r in late]
    if max(dist) >= 0.05:
        failures.append(f"radial error reaches {max(dist):.4f} m after 15 s; bound 0.05")
    band = [abs(r.delta - math.atan(0.2)) for r in late]
    if max(band) >= 0.01:
        failures.append(f"delta wanders {max(band):.4f} rad from atan(0.2); bound 0.01")
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f} s (budget 1 s)")
    _report("criterion 7: noise-free circle road: radial error < 0.05 m and delta within 0.01 rad of atan(0.2) after 15 s", failures)


def test_criterion_08_noisy_batch_convergence(straight_scenario):
    failures = []
    t0 = time.perf_counter()
    _, pp = run_batch(replace(straight_scenario, controller=Controller.PP), 100, 0)
    _, ut = run_batch(replace(straight_scenario, controller=Controller.UTPP), 100, 0)
    elapsed = time.perf_counter() - t0
    if not math.isfinite(pp.median_convergence_time):
        failures.append("pp median convergence time is not finite")
    if not math.isfinite(ut.median_convergence_time):
        failures.append("utpp median convergence time is not finite")
    elif ut.median_convergence_time > 1.1 * pp.median_convergence_time:
        failures.append(
            f"utpp median {ut.median_convergence_time:.3f} s exceeds "
            f"1.1 x pp median {pp.median_convergence_time:.3f} s"
        )
    if elapsed >= 30.0:
        failures.append(f"took {elapsed:.2f} s (budget 30 s)")
    _report(
        "criterion 8: 100-seed noisy batches converge "
        f"(pp median {pp.median_convergence_time:.3g} s, "
        f"utpp median {ut.median_convergence_time:.3g} s, ratio cap 1.1)",
        failures,
    )


def test_criterion_09_waypoint_reduction_and_index():
    failures = []
    scen = parse_config(str(CONFIG_DIR / "waypoint_arc.cfg"))
    path = scen.road
    local = reduce_to_local_road(path, Pose(0.0, 0.5, 0.0), 1.0)
    if not isinstance(local, Circle):
        failures.append(f"expected a circle reduction, got {type(local).__name__}")
    else:
        err = max(abs(local.cx), abs(local.cy - 5.0), abs(local.radius - 5.0))
        if err > 1e-6:
            failures.append(f"recovered circle off by {err:.3e} > 1e-6")

    rng = np.random.default_rng(1009)
    pts = np.array(path.points)
    tree = build_index(path)
    mismatches = 0
    for _ in range(1000):
        q = rng.uniform(-12.0, 12.0, size=2)
        expected = int(np.argmin(((pts - q) ** 2).sum(axis=1)))
        if tree.nearest_group([tuple(q)])[0] != expected:
            mismatches += 1
    if mismatches:
        failures.append(f"{mismatches}/1000 nearest-waypoint queries disagree with a linear scan")
    _report("criterion 9: sampled-arc waypoints reduce to their circle (1e-6) and the spatial index matches a linear scan", failures)


def test_criterion_10_byte_identical_outputs(tmp_path):
    failures = []
    base = [
        "run", "--config", STRAIGHT_CFG, "--steps", "150", "--svg", "--out-dir",
    ]
    assert main(base + [str(tmp_path / "a")]) == 0
    assert main(base + [str(tmp_path / "b")]) == 0
    for name in (
        "straight_pp_0_trajectory.csv",
        "straight_pp_0_summary.json",
        "straight_pp_0.svg",
    ):
        if (tmp_path / "a" / name).read_bytes() != (tmp_path / "b" / name).read_bytes():
            failures.append(f"{name} differs between identical invocations")
    _report("criterion 10: repeated identical CLI invocations write byte-identical CSV, JSON and SVG", failures)

import math

import numpy as np
import pytest

from utpursuit import (
    Circle,
    PerpendicularLine,
    Pose,
    StraightLine,
    circle_to_vehicle,
    global_to_vehicle,
    line_to_vehicle,
    normalize_angle,
)

from conftest import vehicle_to_global


def test_normalize_angle_range_and_boundaries():
    assert normalize_angle(math.pi) == math.pi
    assert normalize_angle(-math.pi) == math.pi
    assert normalize_angle(3 * math.pi) == pytest.approx(math.pi)
    assert normalize_angle(0.0) == 0.0
    rng = np.random.default_rng(3)
    for a in rng.uniform(-50.0, 50.0, size=500):
        r = normalize_angle(a)
        assert -math.pi < r <= math.pi
        assert math.isclose(math.sin(r), math.sin(a), abs_tol=1e-12)
        assert math.isclose(math.cos(r), math.cos(a), abs_tol=1e-12)


def test_pose_normalizes_yaw_and_rejects_non_finite():
    assert Pose(0.0, 0.0, 3 * math.pi).yaw == pytest.approx(math.pi)
    with pytest.raises(ValueError):
        Pose(math.nan, 0.0, 0.0)
    with pytest.raises(ValueError):
        Pose(0.0, math.inf, 0.0)


def test_identity_frame_is_a_no_op():
    frame = Pose(0.0, 0.0, 0.0)
    assert vehicle_to_global((2.5, -1.0), frame) == (2.5, -1.0)
    assert global_to_vehicle((2.5, -1.0), frame.x, frame.y, frame.yaw) == (2.5, -1.0)


def test_vehicle_to_global_quarter_turn():
    # Point (2, 1) seen from a frame at (3, -1) rotated 90 degrees.
    p = vehicle_to_global((2.0, 1.0), Pose(3.0, -1.0, math.pi / 2))
    assert p[0] == pytest.approx(2.0, abs=1e-15)
    assert p[1] == pytest.approx(1.0, abs=1e-15)


def test_round_trip_random_pairs():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        frame = Pose(*rng.uniform(-100.0, 100.0, size=2), rng.uniform(-math.pi, math.pi))
        p = tuple(rng.uniform(-100.0, 100.0, size=2))
        q = global_to_vehicle(vehicle_to_global(p, frame), frame.x, frame.y, frame.yaw)
        assert abs(q[0] - p[0]) <= 1e-12
        assert abs(q[1] - p[1]) <= 1e-12
        q2 = vehicle_to_global(global_to_vehicle(p, frame.x, frame.y, frame.yaw), frame)
        assert abs(q2[0] - p[0]) <= 1e-12
        assert abs(q2[1] - p[1]) <= 1e-12


def test_line_to_vehicle_flat_line_offset_start():
    slope, intercept = line_to_vehicle(StraightLine(0.0, 0.0), 0.0, 0.5, 0.0)
    assert slope == 0.0
    assert intercept == -0.5


def test_line_to_vehicle_diagonal_seen_along_itself():
    # A 45-degree line through the origin, viewed from a frame yawed 45 degrees.
    slope, intercept = line_to_vehicle(StraightLine(1.0, 0.0), 0.0, 0.0, math.pi / 4)
    assert slope == pytest.approx(0.0, abs=1e-15)
    assert intercept == pytest.approx(0.0, abs=1e-15)


def test_line_to_vehicle_perpendicular_raises():
    with pytest.raises(PerpendicularLine):
        line_to_vehicle(StraightLine(0.0, 0.0), 0.0, 0.0, math.pi / 2)


def test_line_to_vehicle_sampled_points_satisfy_vehicle_equation():
    # Points on the global line must satisfy the transformed line equation.
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 1000:
        m = rng.uniform(-3.0, 3.0)
        c = rng.uniform(-10.0, 10.0)
        frame = Pose(*rng.uniform(-10.0, 10.0, size=2), rng.uniform(-math.pi, math.pi))
        if abs(math.cos(math.atan(m) - frame.yaw)) < 0.1:
            continue
        slope, intercept = line_to_vehicle(StraightLine(m, c), frame.x, frame.y, frame.yaw)
        for x in rng.uniform(-10.0, 10.0, size=10):
            vx, vy = global_to_vehicle((x, m * x + c), frame.x, frame.y, frame.yaw)
            assert abs(vy - (slope * vx + intercept)) <= 1e-9
        checked += 1


def test_circle_to_vehicle_translation_and_rotation():
    # The result is the center alone: the radius is the global circle's.
    assert circle_to_vehicle(Circle(0.0, 5.0, 5.0), 0.0, 0.5, 0.0) == (0.0, 4.5)
    cx, cy = circle_to_vehicle(Circle(0.0, 5.0, 5.0), 0.0, 0.0, math.pi / 2)
    assert cx == pytest.approx(5.0, abs=1e-15)
    assert cy == pytest.approx(0.0, abs=1e-15)


def test_circle_to_vehicle_points_keep_their_distance():
    rng = np.random.default_rng(23)
    for _ in range(1000):
        circle = Circle(*rng.uniform(-20.0, 20.0, size=2), rng.uniform(0.1, 10.0))
        frame = Pose(*rng.uniform(-20.0, 20.0, size=2), rng.uniform(-math.pi, math.pi))
        cx, cy = circle_to_vehicle(circle, frame.x, frame.y, frame.yaw)
        theta = rng.uniform(0.0, 2 * math.pi)
        gp = (circle.cx + circle.radius * math.cos(theta), circle.cy + circle.radius * math.sin(theta))
        vx, vy = global_to_vehicle(gp, frame.x, frame.y, frame.yaw)
        assert math.hypot(vx - cx, vy - cy) == pytest.approx(circle.radius, abs=1e-9)


def test_frame_transforms_reject_an_overflowing_result():
    # The vehicle-frame line and center are checked as StraightLine and Circle check theirs.
    with pytest.raises(ValueError, match="line coefficients must be finite"):
        line_to_vehicle(StraightLine(0.0, 1.5e308), 0.0, -1.5e308, 0.0)
    with pytest.raises(ValueError, match="circle fields must be finite"):
        circle_to_vehicle(Circle(1.5e308, 0.0, 1.0), -1.5e308, 0.0, 0.0)


def test_circle_requires_positive_radius():
    with pytest.raises(ValueError):
        Circle(0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        Circle(0.0, 0.0, -1.0)

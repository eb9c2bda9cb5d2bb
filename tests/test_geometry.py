import copy
import math
import pickle
from dataclasses import FrozenInstanceError, dataclass, fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from utpursuit import (
    Circle,
    PerpendicularLine,
    Pose,
    StraightLine,
    circle_to_vehicle,
    line_to_vehicle,
    normalize_angle,
)
from utpursuit.geometry import checked_pose

from conftest import global_to_vehicle, vehicle_to_global


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


@given(st.floats(allow_nan=False, allow_infinity=False))
@example(math.pi)
@example(-math.pi)
@example(-0.0)
@example(math.nextafter(math.pi, math.inf))
@example(math.nextafter(-math.pi, math.inf))
def test_pose_yaw_is_normalize_angle_bit_for_bit(yaw):
    # Pose wraps only a yaw outside (-pi, pi]; that must not move a single bit.
    assert Pose(0.0, 0.0, yaw).yaw.hex() == normalize_angle(yaw).hex()


@dataclass(frozen=True, slots=True)
class PostInitPose:
    """Pose as the dataclass built it before Pose had its own __init__: the oracle for that __init__."""

    x: float
    y: float
    yaw: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.yaw)):
            raise ValueError(f"pose fields must be finite, got {(self.x, self.y, self.yaw)}")
        if not -math.pi < self.yaw <= math.pi:
            object.__setattr__(self, "yaw", normalize_angle(self.yaw))


_NEAR_PI = [v for p in (math.pi, -math.pi) for v in (math.nextafter(p, -math.inf), p, math.nextafter(p, math.inf))]
pose_field = st.one_of(
    st.floats(),
    st.sampled_from((0.0, -0.0, 1e308, -1e308, math.inf, -math.inf, math.nan, *_NEAR_PI)),
    st.integers(),
    st.sampled_from((-(10**400), 10**400)),
    st.booleans(),
)


def _built(cls, args, by_name):
    """The fields of cls built from args, each by repr and type, or the error raised."""
    try:
        pose = cls(**dict(zip(("x", "y", "yaw"), args))) if by_name else cls(*args)
    except (ValueError, TypeError, OverflowError) as exc:
        return type(exc), str(exc)
    return [(repr(v), type(v)) for v in (pose.x, pose.y, pose.yaw)]


@settings(max_examples=500, derandomize=True)
@given(args=st.tuples(pose_field, pose_field, pose_field), by_name=st.booleans())
@example(args=(True, 0.5, 0.0), by_name=False)
@example(args=(0.0, 0.5, True), by_name=False)
@example(args=(1, 2, 4), by_name=True)
def test_pose_init_builds_what_the_post_init_oracle_builds(args, by_name):
    assert _built(Pose, args, by_name) == _built(PostInitPose, args, by_name)


@settings(max_examples=500, derandomize=True)
@given(args=st.tuples(pose_field, pose_field, pose_field))
@example(args=(0.0, 0.5, True))
@example(args=(math.inf, 0.0, 4.0))
def test_checked_pose_holds_what_the_post_init_oracle_holds(args):
    # The one finiteness check and yaw wrap, which Pose and the float-state
    # loop (advance_pose, sample_measured_pose, generate_sigma_points) share.
    try:
        triple = checked_pose(*args)
    except (ValueError, TypeError, OverflowError) as exc:
        got = type(exc), str(exc)
    else:
        got = [(repr(v), type(v)) for v in triple]
    assert got == _built(PostInitPose, args, False)


def _frozen_error(obj, action) -> str:
    with pytest.raises(FrozenInstanceError) as info:
        action(obj)
    return str(info.value)


@settings(max_examples=100, derandomize=True)
@given(args=st.tuples(st.floats(-1e308, 1e308), st.one_of(st.integers(), st.floats(-1.0, 1.0)), st.floats(-10.0, 10.0)))
def test_pose_keeps_the_dataclass_behaviour_of_the_oracle(args):
    pose, oracle = Pose(*args), PostInitPose(*args)
    # geometry.py postpones its annotations, so its field types are the strings.
    assert [(f.name, f.type) for f in fields(pose)] == [(f.name, f.type.__name__) for f in fields(oracle)]
    assert Pose.__match_args__ == PostInitPose.__match_args__ and Pose.__slots__ == PostInitPose.__slots__
    assert repr(pose) == repr(oracle).replace("PostInitPose", "Pose", 1)
    assert hash(pose) == hash(oracle) and pose == Pose(*args) and oracle == PostInitPose(*args)
    assert (pose != replace(pose, yaw=pose.yaw + 1.0)) == (oracle != replace(oracle, yaw=oracle.yaw + 1.0))

    def state(p):
        return type(p).__name__, [(repr(v), type(v)) for v in (p.x, p.y, p.yaw)]

    for copied, copied_oracle in (
        (replace(pose, yaw=4.0), replace(oracle, yaw=4.0)),
        (copy.copy(pose), copy.copy(oracle)),
        (pickle.loads(pickle.dumps(pose)), pickle.loads(pickle.dumps(oracle))),
    ):
        assert state(copied) == (state(copied_oracle)[0].replace("PostInitPose", "Pose"), state(copied_oracle)[1])
    for action in (lambda p: setattr(p, "x", 1.0), lambda p: delattr(p, "yaw")):
        assert _frozen_error(pose, action) == _frozen_error(oracle, action)


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

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from utpursuit import (
    Circle,
    Covariance3,
    NoiseModel,
    Pose,
    StraightLine,
    WaypointPath,
    advance_pose,
    clamp_to_road,
    lateral_deviation,
    sample_measured_pose,
)

from conftest import xyz


def fit_center(p0, p1, p2):
    lhs = np.array(
        [
            [2.0 * (p1[0] - p0[0]), 2.0 * (p1[1] - p0[1])],
            [2.0 * (p2[0] - p1[0]), 2.0 * (p2[1] - p1[1])],
        ]
    )
    rhs = np.array(
        [
            p1[0] ** 2 + p1[1] ** 2 - p0[0] ** 2 - p0[1] ** 2,
            p2[0] ** 2 + p2[1] ** 2 - p1[0] ** 2 - p1[1] ** 2,
        ]
    )
    return np.linalg.solve(lhs, rhs)


def test_advance_pose_straight_and_quarter_lock():
    assert advance_pose((0.0, 0.0, 0.0), 0.0, 1.0, 0.1, 1.0) == (0.1, 0.0, 0.0)
    x, y, yaw = advance_pose((0.0, 0.0, 0.0), math.pi / 4, 1.0, 0.1, 1.0)
    assert x == pytest.approx(0.0995004, abs=1e-7)
    assert y == pytest.approx(0.0099833, abs=1e-7)
    assert yaw == pytest.approx(0.1, rel=1e-12)


def test_advance_pose_uses_pre_update_yaw():
    # From a 90-degree heading the straight step moves along +y only.
    x, y, _ = advance_pose((1.0, 1.0, math.pi / 2), 0.0, 2.0, 0.5, 1.0)
    assert x == pytest.approx(1.0, abs=1e-12)
    assert y == pytest.approx(2.0, rel=1e-12)


def test_advance_pose_rejects_non_positive_dt():
    with pytest.raises(ValueError):
        advance_pose((0.0, 0.0, 0.0), 0.0, 1.0, 0.0, 1.0)


def test_constant_steering_traces_a_circle():
    # All positions stay equidistant from a fixed center; the radius is the
    # chord radius v dt / (2 sin(beta/2)), within O(beta^2) of v dt / beta.
    delta = math.atan(0.2)
    speed, dt, wheelbase = 1.0, 0.1, 1.0
    beta = (speed * dt / wheelbase) * math.tan(delta)
    poses = [(0.0, 0.0, 0.3)]
    for _ in range(200):
        poses.append(advance_pose(poses[-1], delta, speed, dt, wheelbase))
    pts = [(x, y) for x, y, _ in poses]
    center = fit_center(*pts[:3])
    radii = [math.hypot(x - center[0], y - center[1]) for x, y in pts]
    chord_radius = speed * dt / (2.0 * math.sin(beta / 2.0))
    for r in radii:
        assert r == pytest.approx(chord_radius, abs=1e-9)
    assert chord_radius == pytest.approx(speed * dt / beta, rel=1e-4)


def test_constant_steering_closes_the_loop():
    # beta chosen to divide the full turn exactly: 64 steps return to start.
    speed, dt, wheelbase = 1.0, 0.1, 1.0
    beta = 2.0 * math.pi / 64.0
    delta = math.atan(beta * wheelbase / (speed * dt))
    pose = start = (1.0, -2.0, 0.25)
    for _ in range(64):
        pose = advance_pose(pose, delta, speed, dt, wheelbase)
    assert math.hypot(pose[0] - start[0], pose[1] - start[1]) < 1e-3
    assert math.isclose(pose[2], start[2], abs_tol=1e-9)


def test_advance_pose_is_rigid_motion_equivariant():
    rng = np.random.default_rng(79)
    for _ in range(200):
        pose = Pose(rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(-3, 3))
        delta = rng.uniform(-1.2, 1.2)
        theta = rng.uniform(-math.pi, math.pi)
        tx, ty = rng.uniform(-10, 10, size=2)
        c, s = math.cos(theta), math.sin(theta)
        moved = Pose(c * pose.x - s * pose.y + tx, s * pose.x + c * pose.y + ty, pose.yaw + theta)
        a = Pose(*advance_pose(xyz(pose), delta, 1.0, 0.1, 1.0))
        b = Pose(*advance_pose(xyz(moved), delta, 1.0, 0.1, 1.0))
        assert b.x == pytest.approx(c * a.x - s * a.y + tx, abs=1e-9)
        assert b.y == pytest.approx(s * a.x + c * a.y + ty, abs=1e-9)
        assert math.isclose(math.sin(b.yaw - a.yaw - theta), 0.0, abs_tol=1e-12)


def _outcome(call):
    """call()'s (x, y, yaw) by repr, or the type and message of the ValueError it raised."""
    try:
        return [repr(v) for v in call()]
    except ValueError as exc:
        return ValueError, str(exc)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    pose=st.tuples(st.floats(-1.7e308, 1.7e308), st.floats(-1.7e308, 1.7e308), st.floats(-math.pi, math.pi)),
    # tan(delta) < 1.6, so that the heading change arc * tan(delta) stays
    # finite, as Scenario makes it for every command the clamp lets through.
    delta=st.floats(-1.0, 1.0),
    arc=st.sampled_from((0.1, 2.0, 1e308)),
)
@example(pose=(0.0, 0.0, math.pi - 0.01), delta=math.pi / 4, arc=0.1)
@example(pose=(1.7e308, 0.0, 0.0), delta=0.0, arc=1e308)
def test_advance_pose_holds_what_a_pose_of_its_unwrapped_values_holds(pose, delta, arc):
    # A step across the yaw seam wraps, and one that overflows raises Pose's
    # ValueError, message and all.
    x, y, yaw = pose
    beta = arc * math.tan(delta)
    tx, ty = arc * math.cos(beta), arc * math.sin(beta)
    c, s = math.cos(yaw), math.sin(yaw)
    expected = _outcome(lambda: xyz(Pose(x + c * tx - s * ty, y + s * tx + c * ty, yaw + beta)))
    assert _outcome(lambda: advance_pose(pose, delta, arc, 1.0, 1.0)) == expected


ROAD = StraightLine(0.0, 0.0)


def test_a_measured_pose_that_is_not_finite_raises_poses_error():
    noise = NoiseModel(cov=Covariance3(1.0, 0.0, 0.0), max_lateral_dev=0.3)
    draw = [math.inf, 0.0, 0.0]
    expected = _outcome(lambda: xyz(Pose(*clamp_to_road((math.inf, 0.0), ROAD, 0.3), 0.0)))
    assert expected[0] is ValueError
    assert _outcome(lambda: sample_measured_pose((0.0, 0.0, 0.0), noise, ROAD, draw)) == expected


def test_sampling_is_reproducible_and_seed_sensitive():
    noise = NoiseModel(cov=Covariance3(0.01, 0.01, 0.01), rng_seed=7)
    true = (1.0, 0.1, 0.05)
    seq1 = [sample_measured_pose(true, noise, ROAD, draw) for draw in noise.draws(50)]
    seq2 = [sample_measured_pose(true, noise, ROAD, draw) for draw in noise.draws(50)]
    assert seq1 == seq2
    draws3 = NoiseModel(cov=noise.cov, rng_seed=8).draws(50)
    seq3 = [sample_measured_pose(true, noise, ROAD, draw) for draw in draws3]
    assert seq1 != seq3


def test_sampling_statistics_match_the_covariance():
    # Raw draw spread (clamp disabled via a huge bound): stddevs within 2%.
    sigma_y, sigma_yaw = 0.1, math.radians(10.0)
    noise = NoiseModel(
        cov=Covariance3(0.0, sigma_y**2, sigma_yaw**2), max_lateral_dev=1e9, rng_seed=12345
    )
    true = (0.0, 0.0, 0.0)
    xs, ys, yaws = [], [], []
    for draw in noise.draws(100_000):
        x, y, yaw = sample_measured_pose(true, noise, ROAD, draw)
        xs.append(x)
        ys.append(y)
        yaws.append(yaw)
    assert np.std(xs) == 0.0
    assert abs(np.std(ys) - sigma_y) <= 0.02 * sigma_y
    assert abs(np.std(yaws) - sigma_yaw) <= 0.02 * sigma_yaw


def test_lateral_clamp_saturates_exactly():
    noise = NoiseModel(cov=Covariance3(0.0, 100.0, 0.0), max_lateral_dev=0.3, rng_seed=1)
    true = (0.0, 0.0, 0.0)
    saturated = 0
    for draw in noise.draws(100):
        x, y, _ = sample_measured_pose(true, noise, ROAD, draw)
        assert abs(y) <= 0.3
        if abs(y) == 0.3:
            saturated += 1
        assert x == 0.0
    assert saturated > 90  # sigma_y = 10 m, nearly every draw clamps


# The shipped sigmas: none along the road, 0.1 m across it and 10 deg of heading.
SHIPPED_COV = Covariance3(0.0, 0.1**2, math.radians(10.0) ** 2)


def _sigmas(cov):
    return [math.sqrt(cov.var_x), math.sqrt(cov.var_y), math.sqrt(cov.var_yaw)]


def _scaled(draws, cov):
    """A block of NoiseModel.draws scaled per axis as sample_measured_pose scales it."""
    return [[0.0 + sigma * g for sigma, g in zip(_sigmas(cov), row)] for row in draws]


def _scalar(rng, cov, steps):
    """The reference stream: one rng.normal(0.0, sigma) per axis per step."""
    return [[rng.normal(0.0, sigma) for sigma in _sigmas(cov)] for _ in range(steps)]


@pytest.mark.parametrize("steps", [300, 1])
def test_block_draws_equal_one_scalar_draw_per_axis_per_step(steps):
    # float.hex tells every bit apart, and the sign of a zero: on the x axis,
    # sigma 0, numpy's 0.0 + 0.0 * g is +0.0 whatever the sign of g.
    for seed in range(50):
        noise = NoiseModel(cov=SHIPPED_COV, rng_seed=seed)
        block = _scaled(noise.draws(steps), noise.cov)
        scalar = _scalar(noise.make_rng(), noise.cov, steps)
        assert [[v.hex() for v in row] for row in block] == [[v.hex() for v in row] for row in scalar]


def test_measured_pose_equals_the_scalar_draw_formula():
    noise = NoiseModel(cov=SHIPPED_COV, max_lateral_dev=1e9, rng_seed=3)
    rng = noise.make_rng()
    sx, sy, syaw = _sigmas(noise.cov)
    # At x = -0.0 only numpy's 0.0 + sigma * g, and not sigma * g alone, gives +0.0.
    true = Pose(-0.0, -0.2, 3.1)
    for draw in noise.draws(300):
        expected = Pose(
            true.x + rng.normal(0.0, sx), true.y + rng.normal(0.0, sy), true.yaw + rng.normal(0.0, syaw)
        )
        measured = sample_measured_pose(xyz(true), noise, ROAD, draw)
        assert [v.hex() for v in measured] == [
            v.hex() for v in (expected.x, expected.y, expected.yaw)
        ]


def test_a_perfect_sensor_draws_nothing(monkeypatch):
    noise = NoiseModel(cov=Covariance3(0.0, 0.0, 0.0), rng_seed=4)
    monkeypatch.setattr(NoiseModel, "make_rng", lambda self: pytest.fail("a zero covariance built a generator"))
    assert noise.draws(300) is None
    true = (8.0, 3.0, 0.5)
    assert sample_measured_pose(true, noise, ROAD, None) is true


def test_clamp_to_road_circle_and_polyline():
    circle = Circle(0.0, 0.0, 5.0)
    x, y = clamp_to_road((8.0, 0.0), circle, 0.3)
    assert math.hypot(x, y) == pytest.approx(5.3, rel=1e-12)
    x, y = clamp_to_road((4.0, 0.0), circle, 0.3)
    assert math.hypot(x, y) == pytest.approx(4.7, rel=1e-12)
    assert clamp_to_road((5.1, 0.0), circle, 0.3) == (5.1, 0.0)

    path = WaypointPath([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
    assert clamp_to_road((1.0, 2.0), path, 0.3) == (1.0, 0.3)
    assert clamp_to_road((1.0, 0.2), path, 0.3) == (1.0, 0.2)


def test_lateral_deviation_signs():
    assert lateral_deviation((0.0, 1.0), StraightLine(0.0, 0.0)) == 1.0
    assert lateral_deviation((0.0, -1.0), StraightLine(0.0, 0.0)) == -1.0
    circle = Circle(0.0, 0.0, 5.0)
    assert lateral_deviation((6.0, 0.0), circle) == pytest.approx(1.0, rel=1e-12)
    assert lateral_deviation((4.0, 0.0), circle) == pytest.approx(-1.0, rel=1e-12)
    path = WaypointPath([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
    assert lateral_deviation((1.5, -0.4), path) == pytest.approx(0.4, rel=1e-12)
    # Beyond the last segment the distance is to the endpoint.
    assert lateral_deviation((3.0, 0.0), path) == pytest.approx(1.0, rel=1e-12)


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(cov=Covariance3(0.0, 0.0, 0.0), max_lateral_dev=0.0)

import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from utpursuit import (
    Controller,
    Covariance3,
    DegenerateScaling,
    Pose,
    RoadGeometryFault,
    UtParams,
    derive_ut_params,
    generate_sigma_points,
    run,
    step_pp,
    weighted_steering,
)
from utpursuit.config import parse_config

from conftest import CONFIG_DIR

REF = derive_ut_params(3, 0.001, 0.0)


def test_covariance_rejects_negative_or_non_finite():
    with pytest.raises(ValueError):
        Covariance3(-1e-12, 0.0, 0.0)
    with pytest.raises(ValueError):
        Covariance3(0.0, math.nan, 0.0)


def test_unit_alpha_gives_plain_weights():
    p = derive_ut_params(3, 1.0, 0.0)
    assert p.lam == 0.0
    assert p.w0 == 0.0
    assert p.wi == pytest.approx(1.0 / 6.0, rel=1e-15)


def test_reference_params_weights():
    # lambda = alpha^2 (dim + kappa) - dim = 3e-6 - 3 for the reference setup.
    assert REF.lam == pytest.approx(3e-6 - 3.0, abs=1e-12)
    assert REF.w0 == pytest.approx(-999999.0, abs=1e-4)
    assert REF.wi == pytest.approx(166666.667, abs=1e-3)
    assert abs(REF.w0 + 6 * REF.wi - 1.0) <= 1e-9


def test_ut_params_are_alpha_and_kappa():
    assert [f.name for f in fields(UtParams) if f.init] == ["alpha", "kappa"]
    assert UtParams(0.001, 0.0) == REF
    # The pose dimension is 3; derive_ut_params is where a caller's dim is checked.
    with pytest.raises(ValueError, match="dimension 3"):
        derive_ut_params(2, 0.001, 0.0)


def test_degenerate_scaling_raises():
    with pytest.raises(DegenerateScaling):
        derive_ut_params(3, 1.0, -3.0)
    with pytest.raises(DegenerateScaling):
        derive_ut_params(3, 0.0, 0.0)
    # Scaling that only rounding makes degenerate.  1e-9 and 1e-160: dim +
    # lambda rounds to 0.  1e-7: w0 + 6 wi misses 1 by far more than the
    # tolerance.  1e200: alpha^2 overflows and w0 is NaN.
    for alpha in (1e-7, 1e-9, 1e-160, 1e200):
        with pytest.raises(DegenerateScaling):
            derive_ut_params(3, alpha, 0.0)


def test_sigma_points_lateral_only_covariance():
    points = generate_sigma_points(Pose(0.0, 0.0, 0.0), Covariance3(0.0, 0.01, 0.0), REF)
    assert len(points) == 7
    step = math.sqrt(3.0 + REF.lam) * 0.1
    assert step == pytest.approx(1.7320508e-4, rel=1e-7)
    assert points[0] == (0.0, 0.0, 0.0)
    assert points[3][1] == pytest.approx(step, rel=1e-12)
    assert points[4][1] == pytest.approx(-step, rel=1e-12)
    for i in (1, 2, 5, 6):
        assert points[i] == points[0]


def test_sigma_points_zero_covariance_all_coincide():
    mean = Pose(3.0, -2.0, 0.7)
    points = generate_sigma_points(mean, Covariance3(0.0, 0.0, 0.0), REF)
    assert all(p == (mean.x, mean.y, mean.yaw) for p in points)


def test_sigma_points_symmetric_pairs_and_mean_recovery():
    rng = np.random.default_rng(29)
    for _ in range(500):
        mean = Pose(rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(-3.0, 3.0))
        cov = Covariance3(*rng.uniform(0.0, 0.05, size=3))
        pts = generate_sigma_points(mean, cov, REF)
        assert pts[0] == (mean.x, mean.y, mean.yaw)
        for lo, hi, k, axis in ((1, 2, 0, "x"), (3, 4, 1, "y"), (5, 6, 2, "yaw")):
            a, b = pts[lo], pts[hi]
            assert a[k] - getattr(mean, axis) == pytest.approx(getattr(mean, axis) - b[k], abs=1e-15)
        for k, axis in enumerate(("x", "y", "yaw")):
            recovered = math.fsum([REF.w0 * pts[0][k]] + [REF.wi * p[k] for p in pts[1:]])
            # Each product w*coord rounds at ~|w0*coord|*eps before the
            # cancellation, so the achievable bound scales with the mean.
            tol = 1e-9 * max(1.0, 4.0 * abs(getattr(mean, axis)))
            assert abs(recovered - getattr(mean, axis)) <= tol


def test_weighted_steering_symmetric_inputs_cancel():
    deltas = [0.0, 0.01, -0.01, 0.02, -0.02, 0.03, -0.03]
    assert weighted_steering(deltas, REF) == pytest.approx(0.0, abs=1e-12)


def test_weighted_steering_identical_inputs_pass_through_exactly():
    assert weighted_steering([0.123456789] * 7, REF) == 0.123456789


angles = st.floats(-1.5, 1.5, allow_nan=False)
ut_params = st.sampled_from([REF, derive_ut_params(3, 1.0, 0.0), derive_ut_params(3, 0.5, 2.0)])


def _bits(*values: float) -> tuple[str, ...]:
    return tuple(v.hex() for v in values)


spreads = st.floats(0.0, 10.0)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    st.floats(-1e3, 1e3),
    st.floats(-1e3, 1e3),
    st.sampled_from([math.pi, -math.pi]),
    st.floats(-1e-12, 1e-12),
    spreads,
    spreads,
    spreads,
    ut_params,
)
def test_sigma_points_hold_the_fields_of_poses_built_from_their_unwrapped_values(
    x, y, edge, offset, spread_x, spread_y, spread_yaw, params
):
    # Mean yaws at the wrap seam, and spreads sqrt(3 + lambda) sigma of up to
    # 10 rad, which wrap the perturbed yaws by up to 1.6 turns.
    mean = Pose(x, y, edge + offset)
    scale = math.sqrt(3.0 + params.lam)
    cov = Covariance3((spread_x / scale) ** 2, (spread_y / scale) ** 2, (spread_yaw / scale) ** 2)
    sx, sy, syaw = (scale * math.sqrt(v) for v in (cov.var_x, cov.var_y, cov.var_yaw))
    unwrapped = [
        (mean.x, mean.y, mean.yaw),
        (mean.x + sx, mean.y, mean.yaw),
        (mean.x - sx, mean.y, mean.yaw),
        (mean.x, mean.y + sy, mean.yaw),
        (mean.x, mean.y - sy, mean.yaw),
        (mean.x, mean.y, mean.yaw + syaw),
        (mean.x, mean.y, mean.yaw - syaw),
    ]
    expected = [_bits(p.x, p.y, p.yaw) for p in (Pose(*u) for u in unwrapped)]
    assert [_bits(*point) for point in generate_sigma_points(mean, cov, params)] == expected


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.sampled_from(["x", "y"]), st.sampled_from([1.0, -1.0]), st.floats(1.7e308, 1.7976931348623157e308))
def test_sigma_points_raise_on_a_perturbation_that_overflows(axis, sign, big):
    # With alpha 1e153 the spread is at least 1.7e307 here, so the point that
    # moves the mean's field away from zero overflows to inf, as a Pose of it
    # would.  A yaw spread cannot overflow: it stays below the largest float.
    mean = Pose(sign * big if axis == "x" else 0.0, sign * big if axis == "y" else 0.0, 0.0)
    cov = Covariance3(big if axis == "x" else 0.0, big if axis == "y" else 0.0, 0.0)
    with pytest.raises(ValueError, match="pose fields must be finite"):
        generate_sigma_points(mean, cov, UtParams(1e153, 0.0))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(angles, min_size=7, max_size=7), st.sampled_from([(1, 2), (3, 4), (5, 6)]), ut_params)
def test_weighted_steering_swapping_a_pair_is_bit_identical(deltas, pair, params):
    swapped = list(deltas)
    i, j = pair
    swapped[i], swapped[j] = swapped[j], swapped[i]
    assert weighted_steering(swapped, params).hex() == weighted_steering(deltas, params).hex()


@settings(max_examples=300, derandomize=True, deadline=None)
@given(angles, ut_params)
def test_weighted_steering_equal_inputs_come_back_exactly(delta, params):
    assert weighted_steering([delta] * 7, params).hex() == delta.hex()


def test_weighted_steering_matches_direct_formula():
    rng = np.random.default_rng(31)
    for _ in range(200):
        base = rng.uniform(-0.5, 0.5)
        deltas = [base] + list(base + rng.uniform(-1e-4, 1e-4, size=6))
        expected = REF.w0 * deltas[0] + REF.wi * math.fsum(deltas[1:])
        assert weighted_steering(deltas, REF) == pytest.approx(expected, abs=1e-12)


def test_weighted_steering_clamps_to_limit():
    # Asymmetric inputs blow up under the huge weights; the clamp contains them.
    deltas = [0.1, 0.1, 0.1, 0.1, 0.1, 0.101, 0.1]
    limit = math.radians(35.0)
    assert weighted_steering(deltas, REF, steering_limit=limit) == limit


def test_weighted_steering_validates_inputs():
    with pytest.raises(ValueError):
        weighted_steering([0.0] * 6, REF)
    with pytest.raises(ValueError):
        weighted_steering([0.0] * 6 + [math.nan], REF)


def utpp_to_pp_distance_ratio(scenario, n_samples=4000, every=10):
    """Monte Carlo check of the UT's claim on one utpp run.

    On every `every`-th step, the mean of step_pp over n_samples seeded draws
    from N(measured pose, cov) stands for the expected pp command.  Returns
    mean |utpp - MC| / mean |pp - MC| over those steps, and the share of
    draws that faulted (they are left out of the mean).
    """
    records, _ = run(scenario)
    cov = scenario.noise.cov
    sd = np.sqrt([cov.var_x, cov.var_y, cov.var_yaw])
    ut_err, pp_err, faulted = [], [], 0
    for r in records[::every]:
        if r.fault is not None:
            continue
        pose = r.measured_pose
        rng = np.random.default_rng([scenario.noise.rng_seed, r.step])
        commands = []
        for x, y, yaw in rng.normal((pose.x, pose.y, pose.yaw), sd, size=(n_samples, 3)).tolist():
            try:
                commands.append(step_pp(Pose(x, y, yaw), scenario)[0])
            except RoadGeometryFault:
                faulted += 1
        mc = math.fsum(commands) / len(commands)
        ut_err.append(abs(r.delta - mc))
        pp_err.append(abs(step_pp(pose, scenario)[0] - mc))
    return math.fsum(ut_err) / math.fsum(pp_err), faulted / (n_samples * len(ut_err))


# Over run seeds 0-29 with 4000 draws per checked step, the ratio ranged
# 0.213-0.358 on straight.cfg and 0.174-0.290 on circle.cfg (alpha 1e-3).
# The bound adds a margin of about 40% to the larger maximum; utpp = pp reads 1.
MC_RATIO_BOUND = 0.5


@pytest.mark.parametrize("stem", ["straight", "circle"])
def test_utpp_command_is_closer_than_pp_to_the_monte_carlo_mean(stem):
    scenario = replace(parse_config(str(CONFIG_DIR / f"{stem}.cfg")), controller=Controller.UTPP)
    assert scenario.ut == REF
    ratio, fault_share = utpp_to_pp_distance_ratio(scenario)
    assert ratio < MC_RATIO_BOUND
    assert fault_share < 0.01

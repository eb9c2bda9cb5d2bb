import hashlib
import math
import random
from dataclasses import fields, replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from utpursuit import (
    Circle,
    CoincidentPoints,
    DegenerateCenter,
    NoForwardIntersection,
    PathOutOfReach,
    PerpendicularLine,
    RoadGeometryFault,
    VerticalRoad,
    ConfigInvalid,
    Controller,
    Covariance3,
    NoIntersection,
    NoiseModel,
    Pose,
    Scenario,
    StraightLine,
    TrajectoryRecord,
    UtParams,
    WaypointPath,
    circle_to_vehicle,
    cross_track_circle,
    cross_track_line,
    derive_ut_params,
    generate_sigma_points,
    line_to_vehicle,
    local_road,
    reduce_to_local_road,
    run,
    run_batch,
    select_lookahead_waypoint,
    steering_angle,
    step_pp,
    step_utpp,
    weighted_steering,
)
from utpursuit import sim, waypoints
from utpursuit.config import parse_config
from utpursuit.sim import aggregate, convergence_time

from conftest import (
    CIRCLE_ROAD,
    CONFIG_DIR,
    STRAIGHT_ROAD,
    make_scenario,
    reference_noise,
    stadium_path,
)


def zero_noise(seed: int = 0) -> NoiseModel:
    return NoiseModel(cov=Covariance3(0.0, 0.0, 0.0), rng_seed=seed)


def test_scenario_validation():
    with pytest.raises(ConfigInvalid):
        make_scenario(STRAIGHT_ROAD, speed=0.0)
    with pytest.raises(ConfigInvalid):
        make_scenario(STRAIGHT_ROAD, steps=0)
    with pytest.raises(ConfigInvalid):
        make_scenario(STRAIGHT_ROAD, dt=-0.1)
    with pytest.raises(ConfigInvalid):
        make_scenario(StraightLine(1e4, 0.0))  # steeper than the 89.9 deg bound
    # The steering-law fields are checked by the scenario itself.
    for name, value in (
        ("wheelbase", 0.0),
        ("wheelbase", math.nan),
        ("lookahead_gain", -1.0),
        ("steering_limit", math.pi / 2),
    ):
        with pytest.raises(ConfigInvalid, match=name):
            make_scenario(STRAIGHT_ROAD, **{name: value})
    with pytest.raises(ConfigInvalid, match="seed must be >= 0, got -1"):
        make_scenario(STRAIGHT_ROAD, noise=reference_noise(seed=-1))
    # Finite fields whose products overflow: the look-ahead and one step's distance.
    with pytest.raises(ConfigInvalid, match=r"^lookahead_gain \* speed must be finite, got 1e\+200 \* 1e\+200$"):
        make_scenario(STRAIGHT_ROAD, speed=1e200, lookahead_gain=1e200)
    with pytest.raises(ConfigInvalid, match=r"^speed \* dt must be finite, got 1e\+308 \* 10$"):
        make_scenario(STRAIGHT_ROAD, speed=1e308, dt=10, lookahead_gain=1e-308)
    make_scenario(STRAIGHT_ROAD, speed=1e154, dt=1e154, lookahead_gain=1e154, wheelbase=1e10)
    # One step's largest heading change, speed * dt / wheelbase * tan(steering_limit), overflows.
    with pytest.raises(
        ConfigInvalid,
        match=r"^speed \* dt / wheelbase \* tan\(steering_limit\) must be finite, got 1e\+300 \* 0\.1 / 1e-10 \* tan\(",
    ):
        make_scenario(STRAIGHT_ROAD, speed=1e300, wheelbase=1e-10, lookahead_gain=1e-300)
    # Fields of the wrong type are rejected, not coerced or run as something else.
    with pytest.raises(ConfigInvalid, match="controller"):
        make_scenario(STRAIGHT_ROAD, controller="utpp")
    with pytest.raises(ConfigInvalid, match="steps"):
        make_scenario(STRAIGHT_ROAD, steps=2.5)
    with pytest.raises(ConfigInvalid, match="seed"):
        make_scenario(STRAIGHT_ROAD, noise=reference_noise(seed=1.5))
    for name, value in (
        ("road", [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]),
        ("start_pose", (0.0, 0.5, 0.0)),
        ("paper_literal", "no"),
        ("ut", (0.001, 0.0)),
        ("noise", (0.0, 0.1**2, math.radians(10.0) ** 2)),
    ):
        with pytest.raises(ConfigInvalid, match=f"^{name} must be a "):
            make_scenario(**{"road": STRAIGHT_ROAD, name: value})
    # Numbers given as strings, and a bool where a number is asked for.
    for name, value in (
        ("speed", "1.0"),
        ("dt", "0.1"),
        ("wheelbase", "1"),
        ("lookahead_gain", "1"),
        ("steering_limit", "0.5"),
        ("speed", True),
        ("steps", True),
    ):
        with pytest.raises(ConfigInvalid, match=f"^{name} must be a "):
            make_scenario(**{"road": STRAIGHT_ROAD, name: value})
    with pytest.raises(ConfigInvalid, match="^noise.rng_seed must be a "):
        make_scenario(STRAIGHT_ROAD, noise=reference_noise(seed=True))
    # The fields of the pose, noise and UT parameters are checked as the scenario's own are.
    with pytest.raises(ConfigInvalid, match="^noise.cov must be a Covariance3, got tuple$"):
        make_scenario(STRAIGHT_ROAD, noise=NoiseModel((0.0, 0.01, 0.03)))
    cov = Covariance3(0.0, 0.01, 0.03)
    for name, value in (
        ("noise.cov.var_x", NoiseModel(Covariance3(True, 0.01, 0.03))),
        ("noise.cov.var_y", NoiseModel(Covariance3(0.0, True, 0.03))),
        ("noise.cov.var_yaw", NoiseModel(Covariance3(0.0, 0.01, True))),
        ("noise.max_lateral_dev", NoiseModel(cov, max_lateral_dev=True)),
        ("start_pose.x", Pose(True, 0.5, 0.0)),
        ("start_pose.y", Pose(0.0, True, 0.0)),
        ("start_pose.yaw", Pose(0.0, 0.5, True)),
        ("ut.alpha", UtParams(True, 0.0)),
        ("ut.kappa", UtParams(1.0, True)),
    ):
        field_name = name.split(".")[0]
        with pytest.raises(ConfigInvalid, match=f"^{name} must be a real number, got bool$"):
            make_scenario(**{"road": STRAIGHT_ROAD, field_name: value})


def test_lookahead_is_derived_from_gain_and_speed():
    scen = make_scenario(STRAIGHT_ROAD, speed=1.5, lookahead_gain=0.8)
    assert scen.lookahead == 0.8 * 1.5
    assert replace(scen, speed=2.5).lookahead == 0.8 * 2.5
    (lookahead,) = [f for f in fields(Scenario) if f.name == "lookahead"]
    assert not (lookahead.init or lookahead.compare or lookahead.repr)
    with pytest.raises(TypeError):
        Scenario(STRAIGHT_ROAD, scen.start_pose, 1.5, scen.wheelbase, 0.8, lookahead=9.0)
    assert "lookahead=" not in repr(scen)
    twin = replace(scen)
    object.__setattr__(twin, "lookahead", 9.0)
    assert twin == scen


def test_first_straight_road_command_is_quarter_lock():
    scen = make_scenario(STRAIGHT_ROAD)
    delta, y_e = step_pp(scen.start_pose, scen)
    assert delta == -math.pi / 4
    assert y_e == -0.5


def test_default_steering_limit_clamps_first_command():
    scen = make_scenario(STRAIGHT_ROAD, steering_limit=math.radians(35.0), steps=1)
    records, _ = run(scen)
    assert records[0].delta == -math.radians(35.0)


def test_step_utpp_clamps_the_combined_command_to_the_limit():
    # The mean pose is 0.1 m off a straight road and its y sigma poses 0.4 m
    # either side of it: the command of the pose 0.5 m off clamps, that of the
    # pose 0.3 m off on the other side does not, and the huge UT weights carry
    # that asymmetry far past the limit.
    limit = math.radians(35.0)
    noise = NoiseModel(Covariance3(0.0, (0.4 / math.sqrt(3e-6)) ** 2, 0.0))
    for sign in (1.0, -1.0):
        scen = make_scenario(STRAIGHT_ROAD, controller=Controller.UTPP, noise=noise, steering_limit=limit)
        pose = Pose(0.0, 0.1 * sign, 0.0)
        sigma = generate_sigma_points(pose, noise.cov, scen.ut)
        deltas = [step_pp(Pose(*p), scen)[0] for p in sigma]
        assert all(abs(d) <= limit for d in deltas) and sign * weighted_steering(deltas, scen.ut) > limit
        assert step_utpp(pose, scen)[0] == sign * limit


def test_single_step_run_yields_one_record():
    records, summary = run(make_scenario(STRAIGHT_ROAD, steps=1))
    assert len(records) == 1
    assert records[0].step == 0
    assert records[0].time == 0.0
    assert records[0].true_pose == Pose(0.0, 0.5, 0.0)
    assert summary.convergence_time is None  # hold window cannot fit


def test_records_are_contiguous_with_exact_times():
    scen = make_scenario(STRAIGHT_ROAD, steps=50)
    records, _ = run(scen)
    for k, r in enumerate(records):
        assert r.step == k
        assert r.time == k * scen.dt


def test_run_is_deterministic():
    scen = make_scenario(STRAIGHT_ROAD, noise=reference_noise(seed=5))
    r1, s1 = run(scen)
    r2, s2 = run(scen)
    assert r1 == r2
    assert s1 == s2


def test_different_seeds_differ():
    r1, _ = run(make_scenario(STRAIGHT_ROAD, noise=reference_noise(seed=1)))
    r2, _ = run(make_scenario(STRAIGHT_ROAD, noise=reference_noise(seed=2)))
    assert r1 != r2


@pytest.mark.parametrize("road", [STRAIGHT_ROAD, CIRCLE_ROAD], ids=["straight", "circle"])
def test_zero_covariance_utpp_equals_pp(road):
    pp = make_scenario(road, controller=Controller.PP, noise=zero_noise())
    ut = make_scenario(road, controller=Controller.UTPP, noise=zero_noise())
    rp, _ = run(pp)
    ru, _ = run(ut)
    for a, b in zip(rp, ru):
        assert a.true_pose == b.true_pose
        assert a.delta == b.delta
        assert a.y_e == b.y_e


def test_perpendicular_start_faults_every_step_and_holds_delta():
    scen = make_scenario(STRAIGHT_ROAD, start_pose=Pose(0.0, 0.0, math.pi / 2), steps=20)
    records, summary = run(scen)
    assert len(records) == 20
    assert all(r.fault == "PerpendicularLine" for r in records)
    assert all(r.delta == 0.0 for r in records)
    assert all(r.y_e is None for r in records)
    assert summary.fault_count == 20


def test_fault_holds_the_previous_command():
    # Heavy yaw noise makes the measured heading sporadically point away
    # from the road, so some steps see no forward intersection.  Every
    # faulted step must repeat the command of the step before it.
    noise = NoiseModel(
        cov=Covariance3(0.0, 0.09, math.radians(40.0) ** 2), rng_seed=7
    )
    scen = make_scenario(STRAIGHT_ROAD, noise=noise, steps=300)
    records, summary = run(scen)
    bad = [i for i, r in enumerate(records) if r.fault is not None]
    assert bad and bad[0] > 0
    assert summary.fault_count == len(bad)
    for i in bad:
        assert records[i].delta == records[i - 1].delta
        assert records[i].y_e is None


def without_variance(scen: Scenario, var: str) -> Scenario:
    """The same scenario with one axis's variance set to 0."""
    return replace(scen, noise=replace(scen.noise, cov=replace(scen.noise.cov, **{var: 0.0})))


def test_utpp_sigma_point_fallback_is_not_a_step_fault():
    # The road circle is tangent-close: the mean pose and the +y sigma pose
    # still reach it but the -y sigma pose does not, so the y axis falls back
    # as a pair: slots 3 and 4 both take the mean pose's command.  With x and
    # yaw at zero variance that leaves pp's command, +1.1071 rad, at every alpha.
    # Filling slot 4 alone would leave the +y pose's first-order term, which
    # the weights scale to -1.3963 rad at the reference alpha.
    noise = NoiseModel(cov=Covariance3(0.0, 0.01, 0.0), rng_seed=0)
    for alpha in (1e-3, 1.0):
        scen = make_scenario(
            Circle(0.0, 2.0, 1.000001),
            start_pose=Pose(0.0, 0.0, 0.0),
            controller=Controller.UTPP,
            noise=noise,
            ut=derive_ut_params(3, alpha, 0.0),
            steps=1,
        )
        d_l = scen.lookahead
        sigma = generate_sigma_points(scen.start_pose, noise.cov, scen.ut)
        cross_track_circle(*circle_to_vehicle(scen.road, *sigma[3]), scen.road.radius, d_l)
        with pytest.raises(NoIntersection):
            cross_track_circle(*circle_to_vehicle(scen.road, *sigma[4]), scen.road.radius, d_l)
        delta, y_e = step_utpp(scen.start_pose, scen)
        assert (delta, y_e) == step_pp(scen.start_pose, scen)
        assert (delta, y_e) == step_utpp(scen.start_pose, without_variance(scen, "var_y"))
        assert delta == pytest.approx(1.1071, abs=1e-4)
        records, summary = run(scen)
        assert records[0].fault is None
        assert summary.fault_count == 0


def test_paper_literal_mode_overwrites_the_true_pose():
    scen = make_scenario(
        STRAIGHT_ROAD, noise=reference_noise(seed=3), paper_literal=True, steps=30
    )
    records, _ = run(scen)
    assert records[0].true_pose == records[0].measured_pose == scen.start_pose
    for r in records[1:]:
        assert r.true_pose == r.measured_pose
    # And the draws actually moved the pose off the deterministic arc.
    plain, _ = run(replace(scen, paper_literal=False))
    assert [r.true_pose for r in records] != [r.true_pose for r in plain]


def test_waypoint_road_tracks_like_the_circle_it_samples():
    pts = []
    for k in range(181):
        th = math.radians(2.0 * k)
        pts.append((5.0 * math.sin(th), 5.0 - 5.0 * math.cos(th)))
    scen = make_scenario(WaypointPath(pts))
    records, summary = run(scen)
    late = [r for r in records if r.time > 15.0]
    assert max(abs(math.hypot(r.true_pose.x, r.true_pose.y - 5.0) - 5.0) for r in late) < 0.05
    assert summary.fault_count == 0
    assert summary.convergence_time is not None


def _rec(step, time, lat):
    pose = Pose(0.0, 0.0, 0.0)
    return TrajectoryRecord(step, time, pose, pose, 0.0, 0.0, lat, None)


def test_convergence_time_definition():
    dt = 1.0  # hold window of 2 s = 2 steps beyond the entry record
    lat = [0.1, 0.04, 0.04, 0.04, 0.1, 0.01, 0.01, 0.01, 0.01]
    records = [_rec(i, i * dt, v) for i, v in enumerate(lat)]
    assert convergence_time(records, dt) == 1.0
    # Entry at the tail without a full window does not count.
    records = [_rec(i, i * dt, v) for i, v in enumerate([0.1, 0.1, 0.1, 0.01, 0.01])]
    assert convergence_time(records, dt) is None
    records = [_rec(i, i * dt, v) for i, v in enumerate([0.1] * 5)]
    assert convergence_time(records, dt) is None


def _sliced_convergence_time(records, dt):
    """convergence_time's definition read literally: the first k whose window of records all lie in the band."""
    window = math.ceil(sim.CONVERGENCE_HOLD / dt - 1e-9)
    ok = [abs(r.lateral_error) < sim.CONVERGENCE_THRESHOLD for r in records]
    for k in range(len(records) - window):
        if all(ok[k : k + window + 1]):
            return records[k].time
    return None


@settings(max_examples=400, derandomize=True, deadline=None)
@given(dt=st.sampled_from([0.1, 0.5, 1.0, 3.0]), data=st.data())
def test_convergence_time_matches_the_sliced_definition(dt, data):
    window = math.ceil(sim.CONVERGENCE_HOLD / dt - 1e-9)
    # Lengths around the window, where a run just fits or just misses it.
    n = data.draw(st.integers(max(0, window - 2), window + 3) | st.integers(0, 3 * window + 6), label="n")
    shape = data.draw(st.sampled_from(["in", "out", "alternating", "any"]), label="shape")
    if shape == "any":
        band = (0.0, -0.0, 0.01, -0.0499, 0.05, -0.05, 0.2)
        lat = data.draw(st.lists(st.sampled_from(band), min_size=n, max_size=n), label="lat")
    else:
        cycle = {"in": (0.01,), "out": (0.1,), "alternating": (0.01, 0.1)}[shape]
        lat = [cycle[i % len(cycle)] for i in range(n)]
    records = [_rec(i, i * dt, v) for i, v in enumerate(lat)]
    assert convergence_time(records, dt) == _sliced_convergence_time(records, dt)


def test_run_batch_seeds_and_order_invariance():
    scen = make_scenario(STRAIGHT_ROAD, noise=reference_noise(), steps=120)
    summaries, stats = run_batch(scen, 10, base_seed=100)
    assert [s.seed for s in summaries] == list(range(100, 110))
    shuffled = summaries[:]
    random.Random(0).shuffle(shuffled)
    assert aggregate(shuffled, scen.controller) == stats
    assert stats.n_runs == 10


def test_run_batch_median_uses_inf_for_non_converged():
    pose = Pose(0.0, 0.0, 0.0)
    summaries, stats = run_batch(
        make_scenario(STRAIGHT_ROAD, start_pose=pose, noise=reference_noise(), steps=5), 4, 0
    )
    # 5 steps cannot fit the 2 s hold window, so nothing converges.
    assert stats.n_converged == 0
    assert math.isinf(stats.median_convergence_time)
    assert stats.mean_convergence_time is None


def test_summary_statistics_are_consistent_with_records():
    scen = make_scenario(STRAIGHT_ROAD, noise=reference_noise(seed=9), steps=80)
    records, summary = run(scen)
    assert summary.max_abs_delta == max(abs(r.delta) for r in records)
    assert summary.mean_abs_lateral_error == pytest.approx(
        sum(abs(r.lateral_error) for r in records) / len(records), rel=1e-12
    )
    assert summary.seed == 9


def step_utpp_oracle(pose: Pose, scenario: Scenario) -> tuple[float, float]:
    """step_utpp as seven independent poses, each with its own waypoint scan and reduction.

    A fault on either pose of a +/- pair puts the mean's command in both of its slots.
    """
    d_l = scenario.lookahead
    law = (scenario.wheelbase, scenario.steering_limit)

    def cross(p):
        road = scenario.road
        if isinstance(road, WaypointPath):
            road = reduce_to_local_road(road, Pose(*p), d_l)
        if isinstance(road, StraightLine):
            return cross_track_line(*line_to_vehicle(road, *p), d_l)
        return cross_track_circle(*circle_to_vehicle(road, *p), road.radius, d_l)

    def steer(p):
        return steering_angle(cross(p)[0], d_l, *law)

    mean, *others = generate_sigma_points(pose, scenario.noise.cov, scenario.ut)
    y_e = cross(mean)[0]
    delta0 = steering_angle(y_e, d_l, *law)
    deltas = [delta0]
    for plus, minus in zip(others[::2], others[1::2]):
        try:
            deltas += [steer(plus), steer(minus)]
        except RoadGeometryFault:
            deltas += [delta0, delta0]
    return max(-scenario.steering_limit, min(scenario.steering_limit, weighted_steering(deltas, scenario.ut))), y_e


def _outcome(step, pose, scen):
    try:
        return step(pose, scen)
    except RoadGeometryFault as exc:
        return type(exc).__name__


# The configs' noise, then every axis noisy at alpha = 1, where the sigma
# probes spread far enough to land on different waypoints.
WIDE_NOISE = NoiseModel(Covariance3(0.2**2, 0.2**2, math.radians(15.0) ** 2))


@pytest.mark.parametrize("where", ["waypoint_arc", "stadium"])
def test_step_utpp_matches_per_pose_oracle_on_waypoint_roads(where):
    if where == "stadium":
        base = make_scenario(stadium_path(), noise=reference_noise(), controller=Controller.UTPP)
    else:
        base = replace(parse_config(str(CONFIG_DIR / "waypoint_arc.cfg")), controller=Controller.UTPP)
    points = base.road.points
    rng = random.Random(17)
    variants = (base, replace(base, noise=WIDE_NOISE, ut=derive_ut_params(3, 1.0, 0.0)))
    for _ in range(300):
        i = rng.randrange(1, len(points) - 1)
        (ax, ay), (bx, by) = points[i - 1], points[i + 1]
        heading = math.atan2(by - ay, bx - ax)
        pose = Pose(
            points[i][0] + rng.uniform(-0.3, 0.3),
            points[i][1] + rng.uniform(-0.3, 0.3),
            heading + rng.uniform(-0.5, 0.5),
        )
        for scen in variants:
            assert _outcome(step_utpp, pose, scen) == _outcome(step_utpp_oracle, pose, scen)


@pytest.mark.parametrize("stem", ["straight", "circle", "waypoint_arc", "stadium"])
def test_utpp_runs_match_per_pose_oracle(stem, monkeypatch):
    if stem == "stadium":
        start = Pose(91.8, 0.1, 0.0)  # a metre before the leg bends into an arc
        base = make_scenario(stadium_path(), start_pose=start, noise=reference_noise(), steps=40)
    else:
        base = parse_config(str(CONFIG_DIR / f"{stem}.cfg"))
    scenarios = [
        replace(base, controller=Controller.UTPP, noise=replace(base.noise, rng_seed=seed)) for seed in range(5)
    ]
    shared = [run(scen) for scen in scenarios]
    monkeypatch.setattr(sim, "step_utpp", step_utpp_oracle)
    assert shared == [run(scen) for scen in scenarios]


def test_step_utpp_matches_per_pose_oracle_on_zero_axes_and_signed_zeros():
    # step_utpp leaves the two poses of a zero-variance axis unsteered; the
    # oracle steers all seven.  Road and pose fields are often 0.0 or -0.0,
    # so those poses differ from the mean in the sign of a zero.
    rng = random.Random(29)
    arc = parse_config(str(CONFIG_DIR / "waypoint_arc.cfg")).road
    flat = WaypointPath([(0.1 * k, -0.0) for k in range(40)])
    uts = (derive_ut_params(3, 1e-3, 0.0), derive_ut_params(3, 1.0, 0.0))

    def field(value):
        return rng.choice((0.0, -0.0, value, value))

    for _ in range(700):
        roads = (
            StraightLine(field(rng.uniform(-2.0, 2.0)), field(rng.uniform(-1.0, 1.0))),
            Circle(field(rng.uniform(-6.0, 6.0)), field(rng.uniform(-6.0, 6.0)), rng.uniform(0.5, 8.0)),
            arc,
            flat,
        )
        for road in roads:
            # -0.0 + z is z for every z, signed zeros included.
            x, y = rng.choice(road.points) if isinstance(road, WaypointPath) else (-0.0, -0.0)
            pose = Pose(x + field(rng.uniform(-1.0, 1.0)), y + field(rng.uniform(-1.0, 1.0)), field(rng.uniform(-3.2, 3.2)))
            cov = Covariance3(*(rng.choice((0.0, rng.uniform(0.0, 0.3) ** 2)) for _ in range(3)))
            for ut in uts:
                scen = make_scenario(road, controller=Controller.UTPP, noise=NoiseModel(cov), ut=ut)
                assert repr(_outcome(step_utpp, pose, scen)) == repr(_outcome(step_utpp_oracle, pose, scen))


def _check_sigma_fallback(path, start, var_x, fault, alpha):
    # With var_x chosen so that only the +x sigma pose (slot 1) probes the
    # faulting triple: both x slots take the mean's command, which is the
    # command of the same step with var_x = 0, and the step does not fault.
    # The covariance scales with 1 / alpha^2, so both alphas place the same poses.
    noise = NoiseModel(Covariance3(var_x / alpha**2, 0.0, math.radians(10.0) ** 2 / alpha**2))
    ut = derive_ut_params(3, alpha, 0.0)
    scen = make_scenario(path, start_pose=start, controller=Controller.UTPP, noise=noise, ut=ut, steps=1)
    d_l = scen.lookahead
    sigma = generate_sigma_points(scen.start_pose, noise.cov, ut)
    with pytest.raises(fault):
        local_road(path, select_lookahead_waypoint(path, Pose(*sigma[1]), d_l))
    deltas = []
    for i, pose in enumerate(sigma):
        if i in (1, 2):
            deltas.append(deltas[0])
        else:
            road = local_road(path, select_lookahead_waypoint(path, Pose(*pose), d_l))
            y_e = cross_track_line(*line_to_vehicle(road, *pose), d_l)[0]
            deltas.append(steering_angle(y_e, d_l, scen.wheelbase, scen.steering_limit))
    assert len(set(deltas)) > 1
    delta, y_e = step_utpp(scen.start_pose, scen)
    limit = scen.steering_limit
    assert (delta, y_e) == (max(-limit, min(limit, weighted_steering(deltas, ut))), -start.y)
    assert (delta, y_e) == step_utpp(scen.start_pose, without_variance(scen, "var_x"))
    records, summary = run(scen)
    assert records[0].fault is None and summary.fault_count == 0
    # The same triple under the mean pose faults the step.
    with pytest.raises(fault):
        step_utpp(Pose(*sigma[1]), scen)


def test_vertical_triple_on_a_sigma_pose_falls_back_to_the_mean():
    # A straight stretch along y = 0, then a vertical run at x = 20.  The
    # +x sigma pose probes (20, 0.4), whose waypoint triple is vertical.
    path = WaypointPath([(float(i), 0.0) for i in range(7)] + [(20.0, -1.0), (20.0, 0.0), (20.0, 1.0), (20.0, 2.0)])
    for alpha in (1e-3, 1.0):
        _check_sigma_fallback(path, Pose(1.0, 0.4, 0.0), 108.0, VerticalRoad, alpha)


def hairpin_path() -> WaypointPath:
    """Out along y = 0 to a tip at (5, 0), back along y = 5e-10: waypoints 4 and 6 coincide."""
    return WaypointPath([(float(i), 0.0) for i in range(6)] + [(float(i), 5e-10) for i in range(4, -1, -1)])


def test_coincident_triple_on_a_sigma_pose_falls_back_to_the_mean():
    # The +x sigma pose sits at (4.2, -0.4) and probes (5.2, -0.4), nearest to
    # the tip, whose triple (4, 0), (5, 0), (4, 5e-10) has no curvature.
    for alpha in (1e-3, 1.0):
        _check_sigma_fallback(hairpin_path(), Pose(1.0, -0.4, 0.0), 3.2**2 / 3.0, CoincidentPoints, alpha)


@pytest.mark.parametrize("controller", [Controller.PP, Controller.UTPP])
def test_coincident_triple_faults_the_step_and_the_run_goes_on(controller):
    scen = make_scenario(hairpin_path(), start_pose=Pose(0.0, 0.0, 0.0), controller=controller, noise=reference_noise())
    records, summary = run(scen)
    assert len(records) == scen.steps
    assert {r.fault for r in records} == {None, "CoincidentPoints"}
    assert summary.fault_count == sum(r.fault is not None for r in records)


def tilted_path() -> WaypointPath:
    """A straight stretch at slope 0.3: every local road is a fitted line whose cross term sxy is not 0."""
    return WaypointPath([(0.5 * i, 0.15 * i) for i in range(60)])


def test_hairpin_tip_raises_on_every_call_and_is_not_kept():
    path = hairpin_path()
    for _ in range(3):
        with pytest.raises(CoincidentPoints):
            local_road(path, 5)
    assert 5 not in path._roads
    # Its neighbours have roads, and those are kept.
    assert local_road(path, 4) is local_road(path, 4) == local_road(hairpin_path(), 4)


@pytest.mark.parametrize("where", ["waypoint_arc", "tilted", "hairpin"])
@pytest.mark.parametrize("controller", [Controller.PP, Controller.UTPP])
def test_batches_on_one_path_equal_runs_on_a_fresh_path_per_seed(where, controller, monkeypatch):
    # The path keeps its candidate lists and local roads from run to run and
    # batch to batch; a fresh path starts with none.
    if where == "waypoint_arc":
        base = replace(parse_config(str(CONFIG_DIR / "waypoint_arc.cfg")), controller=controller, steps=100)
    elif where == "tilted":
        base = make_scenario(tilted_path(), controller=controller, noise=reference_noise(), steps=80)
    else:
        base = make_scenario(hairpin_path(), start_pose=Pose(0.0, 0.0, 0.0), controller=controller, noise=reference_noise())
    points = base.road.points
    fresh = [
        _records_digest(*run(replace(base, road=WaypointPath(points), noise=replace(base.noise, rng_seed=seed))))
        for seed in range(4)
    ]
    digests = []
    run_once = sim.run

    def digested(scen):
        records, summary = run_once(scen)
        digests.append(_records_digest(records, summary))
        return records, summary

    monkeypatch.setattr(sim, "run", digested)
    summaries = [run_batch(base, 4, 0)[0] for _ in range(2)]
    assert digests == fresh + fresh
    assert summaries[0] == summaries[1]


def _count_cross_tracks(monkeypatch) -> list[int]:
    """Count the poses steered: cross-tracks of the scalar path, and poses of the line and circle kernels."""
    calls = [0]

    def counted(original):
        def call(*args):
            calls[0] += 1
            return original(*args)

        return call

    for name in ("cross_track_line", "cross_track_circle"):
        monkeypatch.setattr(sim, name, counted(getattr(sim, name)))
    for name in ("_line_steerer", "_circle_steerer"):
        monkeypatch.setattr(sim, name, lambda *args, factory=getattr(sim, name): counted(factory(*args)))
    return calls


@pytest.mark.parametrize("road", [STRAIGHT_ROAD, CIRCLE_ROAD, "waypoints"], ids=["straight", "circle", "waypoints"])
def test_sigma_poses_equal_to_the_mean_are_not_steered_again(road, monkeypatch):
    if road == "waypoints":
        road = WaypointPath([(0.1 * k, 0.0) for k in range(40)])
    pose = Pose(0.5, 0.3, 0.1)
    calls = _count_cross_tracks(monkeypatch)
    for noise, expected in ((zero_noise(), 1), (reference_noise(), 5)):
        scen = make_scenario(road, controller=Controller.UTPP, noise=noise)
        calls[0] = 0
        delta, y_e = step_utpp(pose, scen)
        assert calls[0] == expected
        assert (delta, y_e) == step_utpp_oracle(pose, scen)


def test_a_zero_variance_axis_is_not_steered_even_across_a_zero_sign(monkeypatch):
    # yaw -0.0 + 0.0 is 0.0: the +yaw pose differs from the mean in the sign
    # of a zero, but its axis has zero variance, so only the mean is steered.
    scen = make_scenario(
        Circle(-1.5, -0.0, 2.0),
        start_pose=Pose(0.0, 0.0, -0.0),
        controller=Controller.UTPP,
        noise=zero_noise(),
        ut=derive_ut_params(3, 1.0, 0.0),
    )
    calls = _count_cross_tracks(monkeypatch)
    delta, y_e = step_utpp(scen.start_pose, scen)
    assert calls[0] == 1
    assert (delta, y_e) == step_utpp_oracle(scen.start_pose, scen)
    # The centre sits straight behind the axle: an exact tie, which goes left
    # whichever sign the zero has.
    mean, *others = generate_sigma_points(scen.start_pose, scen.noise.cov, scen.ut)
    assert step_pp(Pose(*mean), scen)[0] == step_pp(Pose(*others[4]), scen)[0] > 0.0


def _bits_or_error(call):
    """call()'s (delta, y_e) as float.hex strings, or the type of the error it raised."""
    try:
        delta, y_e = call()
    except (RoadGeometryFault, ValueError) as exc:
        return type(exc)
    return delta.hex(), y_e.hex()


signed = st.one_of(st.sampled_from((0.0, -0.0)), st.floats(-10.0, 10.0))
kernel_roads = st.one_of(
    st.builds(StraightLine, st.one_of(st.sampled_from((0.0, -0.0)), st.floats(-50.0, 50.0)), signed),
    st.builds(Circle, signed, signed, st.floats(0.1, 10.0)),
)
spreads = st.one_of(st.just(0.0), st.floats(0.0, 3.0))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    road=kernel_roads,
    pose=st.tuples(signed, signed, st.floats(-math.pi, math.pi)),
    spread=st.tuples(spreads, spreads, spreads),
    vehicle=st.sampled_from(((1.0, 1.0), (1.7, 2.7), (0.9, 3.1))),
    fault=st.none(),
)
# One example per fault branch of the kernels, each on the mean pose (index
# 0) and on a sigma pose; spread holds the sigma poses' offsets along x, y
# and yaw, vehicle the look-ahead and the wheelbase, and fault the index and
# error that the example must reach.
# A line perpendicular to the vehicle axis:
@example(road=StraightLine(0.0, 0.0), pose=(0.0, -0.5, math.pi / 2), spread=(0.0, 0.0, 0.0), vehicle=(1.0, 1.0), fault=(0, PerpendicularLine))
@example(road=StraightLine(0.0, 0.0), pose=(0.0, -0.5, math.pi / 2 - 0.3), spread=(0.0, 0.0, 0.3), vehicle=(1.0, 1.0), fault=(5, PerpendicularLine))
# A vehicle-frame intercept that overflows: the mean's c - y, then the +yaw
# pose's division by cos(gap), with a look-ahead whose square overflows so
# that the mean's reach test sees inf - inf and passes.
@example(road=StraightLine(0.0, 1e308), pose=(0.0, -1e308, 0.0), spread=(0.0, 0.0, 0.0), vehicle=(1.0, 1.0), fault=(0, ValueError))
@example(road=StraightLine(0.0, 1e308), pose=(0.0, 0.0, 0.0), spread=(0.0, 0.0, 1.0), vehicle=(1e200, 1.0), fault=(5, ValueError))
# A flat line and a sloped line beyond the look-ahead:
@example(road=StraightLine(0.0, 0.0), pose=(0.0, 2.0, 0.0), spread=(0.0, 0.0, 0.0), vehicle=(1.0, 1.0), fault=(0, PathOutOfReach))
@example(road=StraightLine(0.0, 0.0), pose=(0.0, 0.5, 0.0), spread=(0.0, 1.0, 0.0), vehicle=(1.0, 1.0), fault=(3, PathOutOfReach))
@example(road=StraightLine(1.0, 0.0), pose=(0.0, 2.0, 0.0), spread=(0.0, 0.0, 0.0), vehicle=(1.0, 1.0), fault=(0, PathOutOfReach))
@example(road=StraightLine(1.0, 0.0), pose=(0.0, 0.5, math.pi / 4), spread=(0.0, 1.0, 0.0), vehicle=(1.0, 1.0), fault=(3, PathOutOfReach))
# A line that meets the look-ahead only behind the axle:
@example(road=StraightLine(0.0, 0.0), pose=(0.0, 0.8, math.pi / 2 - 0.1), spread=(0.0, 0.0, 0.0), vehicle=(1.0, 1.0), fault=(0, NoForwardIntersection))
@example(road=StraightLine(0.0, 0.0), pose=(0.0, -0.8, math.pi / 2 - 0.1), spread=(0.0, 1.6, 0.0), vehicle=(1.0, 1.0), fault=(3, NoForwardIntersection))
# A circle centred on the rear axle:
@example(road=Circle(0.0, 0.0, 1.0), pose=(0.0, 0.0, 0.0), spread=(0.0, 0.0, 0.0), vehicle=(1.0, 1.0), fault=(0, DegenerateCenter))
@example(road=Circle(0.0, 0.0, 0.8), pose=(0.0, -0.5, 0.0), spread=(0.0, 0.5, 0.0), vehicle=(1.0, 1.0), fault=(3, DegenerateCenter))
# A circle that the look-ahead does not meet:
@example(road=Circle(0.0, 5.0, 1.0), pose=(0.0, 0.0, 0.0), spread=(0.0, 0.0, 0.0), vehicle=(1.0, 1.0), fault=(0, NoIntersection))
@example(road=Circle(0.0, 5.0, 5.0), pose=(0.0, 0.5, 0.0), spread=(0.0, 2.0, 0.0), vehicle=(1.0, 1.0), fault=(3, NoIntersection))
# A circle met only behind the axle:
@example(road=Circle(0.0, 5.0, 4.5), pose=(0.0, 0.0, -math.pi / 2), spread=(0.0, 0.0, 0.0), vehicle=(1.0, 1.0), fault=(0, NoForwardIntersection))
@example(road=Circle(0.0, 5.0, 4.5), pose=(0.0, 0.0, 0.0), spread=(0.0, 0.0, math.pi / 2), vehicle=(1.0, 1.0), fault=(6, NoForwardIntersection))
# A vehicle-frame centre that overflows: the mean's dx, then the +yaw pose's
# rotation of a centre whose distance, and the radius's square, overflow
# for the mean, whose arccos argument is then NaN and clamps to 1.
@example(road=Circle(1e308, 0.0, 1.0), pose=(-1e308, 0.0, 0.0), spread=(0.0, 0.0, 0.0), vehicle=(1.0, 1.0), fault=(0, ValueError))
@example(road=Circle(1.5e308, 1.5e308, 1e300), pose=(0.0, 0.0, 0.0), spread=(0.0, 0.0, math.pi / 4), vehicle=(1.0, 1.0), fault=(5, ValueError))
# A centre straight behind the axle whose vehicle-frame cy is -0.0: the exact
# tie, which goes left.
@example(road=Circle(-1.5, -0.0, 2.0), pose=(0.0, 0.0, -0.0), spread=(0.0, 0.0, 0.0), vehicle=(1.0, 1.0), fault=None)
def test_the_line_and_circle_kernels_steer_each_pose_as_steer_does(road, pose, spread, vehicle, fault):
    # At alpha = 1 and kappa = 0 the sigma poses sit sqrt(3) * sqrt(var) from the mean.
    cov = Covariance3(*(s * s / 3.0 for s in spread))
    scen = make_scenario(
        road,
        start_pose=Pose(*pose),
        controller=Controller.UTPP,
        noise=NoiseModel(cov),
        ut=derive_ut_params(3, 1.0, 0.0),
        speed=vehicle[0],
        wheelbase=vehicle[1],
    )
    sigma = generate_sigma_points(scen.start_pose, cov, scen.ut)
    kernel = sim._line_steerer if isinstance(road, StraightLine) else sim._circle_steerer
    steer = kernel(road, sigma, scen)
    axes = ((1, cov.var_x), (3, cov.var_y), (5, cov.var_yaw))
    outcomes = {}
    for i in [0, *(j for i, var in axes if var > 0.0 for j in (i, i + 1))]:
        outcomes[i] = _bits_or_error(lambda: steer(i))
        assert outcomes[i] == _bits_or_error(lambda: sim._steer(road, *sigma[i], scen))
    step = _bits_or_error(lambda: step_utpp(scen.start_pose, scen))
    assert step == _bits_or_error(lambda: step_utpp_oracle(scen.start_pose, scen))
    if fault is not None:
        i, kind = fault
        assert outcomes[i] is kind
        if i == 0 or kind is ValueError:
            assert step is kind
        else:
            # The pair falls back to the mean's command, and the step does not fault.
            assert isinstance(step, tuple)


# SHA-256 of every record field (and the summary) of sim.run, floats written
# with float.hex so that every bit, and the sign of a zero, counts.  These
# change only in a change that states and measures its output drift.
RUN_DIGESTS = {
    ("straight", "pp", 0): "db13f30ee03e677231f1c35c53b6e1aa6b2504896a55c6cb79914582ba5fe5df",
    ("straight", "pp", 1): "d0b5df7267760ac15f7ba610ec06534270f2029807e63a55ba15579a5f87d334",
    ("straight", "utpp", 0): "84bc6ac308423066ca96d3b5fe92603ea0444e50f407265796018913c02d8202",
    ("straight", "utpp", 1): "ad7b6687a6802c0e536660bdb4803b376ef26df5b6df47b38a64fe8afe4d1442",
    ("circle", "pp", 0): "8a04b253ce0e0780efe64a6f2bd6bdeaaf4d5bb65db0102ebe693f3eb34eb010",
    ("circle", "pp", 1): "9c0496cc2fea2e5d008518dac1a6f2ee3a18400c28fbd9ffb345f9b9b600133a",
    ("circle", "utpp", 0): "c2d1e03a0c4fe8789d8ffaeb338786d4a0cc842dbdaea586d5538321da806dfd",
    ("circle", "utpp", 1): "ebd5bdc9473dbd0411f0b78e987b6f4d53e2d4bcc96571a459bfe641dac9a974",
    ("waypoint_arc", "pp", 0): "15a5251286ca1b4383b8ac892b83547893e81c7525e6a50826f9be9f63748d0d",
    ("waypoint_arc", "pp", 1): "ffb67cfeeac8831c00923cfd2193b4eec7ba750c86dabe0df5c5737fe1260e55",
    ("waypoint_arc", "utpp", 0): "82f9b5c5b07d75c4916064ce4b7f26f53cf5e41671209dab177623bb85eef831",
    ("waypoint_arc", "utpp", 1): "ba71b669125f74cac2ceeee688a15b782ae69154303e2baedec9654549e1b924",
    ("tilted_line", "pp", 0): "1624a5db668d4b3ae72f4dd86ec59bb18205b5a1b168fb78b048c1c40b713291",
    ("tilted_line", "pp", 1): "e6a174c2b39c5cd6ab99ca8d919a7d23933460d9802a14b3c48e52cc37c4b2b1",
    ("tilted_line", "utpp", 0): "5625dd8b706d03b7daa35117e761c7b096e7d10f9529d6dac84b70f5dd0847f7",
    ("tilted_line", "utpp", 1): "01381c536d8ef9ef873f2075d266caebdcf64565be6a7f221fc7daa0db24017d",
    ("off_axis_circle", "pp", 0): "24b6b36b8e6c9f9e4cfc0d65763a3f7d76422742c7b56f92ecdbb193aa7c0b15",
    ("off_axis_circle", "pp", 1): "46306f0db2b3579fa7b8dc1fea1ad0676976769be32563bd78a7c8c0511fb35b",
    ("off_axis_circle", "utpp", 0): "86df597806e1664e24eb8eb9a0225493f91c8d4610729fbcab171880089a9b22",
    ("off_axis_circle", "utpp", 1): "280a712285b4638a7124ef663353d56e38c58ac3a635ef6f3d28743ca5d3d885",
}


def _digest_text(value) -> str:
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, Pose):
        return " ".join(_digest_text(v) for v in (value.x, value.y, value.yaw))
    return repr(value)


# Stems that run a shipped config on another road: a tilted line, where
# sin(atan(slope)) is not 0, so the order of x sin + (c - y) cos counts, and a
# circle whose centre has two nonzero coordinates.
OFF_AXIS_ROADS = {
    "tilted_line": ("straight", StraightLine(0.3, 0.7)),
    "off_axis_circle": ("circle", Circle(1.2, 5.6, 5.0)),
}


@pytest.mark.parametrize("stem, controller, seed", sorted(RUN_DIGESTS))
def test_run_records_are_bit_identical_to_the_pinned_digests(stem, controller, seed):
    config, road = OFF_AXIS_ROADS.get(stem, (stem, None))
    base = parse_config(str(CONFIG_DIR / f"{config}.cfg"))
    if road is not None:
        base = replace(base, road=road)
    scen = replace(base, controller=Controller(controller), noise=replace(base.noise, rng_seed=seed))
    records, summary = run(scen)
    digest = hashlib.sha256()
    for row in (*records, summary):
        digest.update((",".join(_digest_text(getattr(row, f.name)) for f in fields(row)) + "\n").encode())
    assert digest.hexdigest() == RUN_DIGESTS[stem, controller, seed]


# The same digests of 40 steps along the stadium from a metre before its
# first leg bends into an arc, where a pose's local road is first a fitted line.
STADIUM_DIGESTS = {
    ("pp", 0): "c1367574879ed4e00f9e78d8b49c90c230567fcac7198c63ccf404afb112f60b",
    ("pp", 1): "88ac3d5ca347e2855459e42ea7b962876df368410debdb373cb317bc58587da8",
    ("utpp", 0): "ab17672b9a23c248a9e562d0a051a4f9b8f74c1d9e43480e16113a922ad39374",
    ("utpp", 1): "217868c767dfc6412c471af558bd00a4bde8b645777edc6f44df9e822d337c87",
}


@pytest.mark.parametrize("controller, seed", sorted(STADIUM_DIGESTS))
def test_stadium_records_are_bit_identical_to_the_pinned_digests(controller, seed, monkeypatch):
    fits = []
    fit_line = waypoints._fit_line
    monkeypatch.setattr(waypoints, "_fit_line", lambda *abc: fits.append(abc) or fit_line(*abc))
    scen = make_scenario(
        stadium_path(),
        start_pose=Pose(91.8, 0.1, 0.0),
        controller=Controller(controller),
        noise=reference_noise(seed),
        steps=40,
    )
    records, summary = run(scen)
    digest = hashlib.sha256()
    for row in (*records, summary):
        digest.update((",".join(_digest_text(getattr(row, f.name)) for f in fields(row)) + "\n").encode())
    assert fits
    assert digest.hexdigest() == STADIUM_DIGESTS[controller, seed]


def _records_digest(records, summary) -> str:
    digest = hashlib.sha256()
    for row in (*records, summary):
        digest.update((",".join(_digest_text(getattr(row, f.name)) for f in fields(row)) + "\n").encode())
    return digest.hexdigest()


# The same digests along tilted_path(), where every local road is a fitted
# line whose cross term sxy is not 0: unlike the stadium's axis-parallel
# legs, these pin how _fit_line sums its dot products.
TILTED_DIGESTS = {
    ("pp", 0): "c0106feefbb1d0e0ba42b85f047f9ed63c9421e0d05a2794ab610e612b3e381e",
    ("pp", 1): "a282597bad3665358ca6e6aa91be36851aaa62156562eb65e9bb6534df1d3e7c",
    ("utpp", 0): "bc6ca746102a8814fa5c56a424448bbc3b59107e103e2dd6ecabe1b03133f5bb",
    ("utpp", 1): "e3403e16377eb30605e7bc492fc32173a89f0026c380911b5a4b8d12b62ee8c0",
}


@pytest.mark.parametrize("controller, seed", sorted(TILTED_DIGESTS))
def test_tilted_stretch_records_are_bit_identical_to_the_pinned_digests(controller, seed, monkeypatch):
    fits = []
    fit_line = waypoints._fit_line
    monkeypatch.setattr(waypoints, "_fit_line", lambda *abc: fits.append(abc) or fit_line(*abc))
    scen = make_scenario(tilted_path(), controller=Controller(controller), noise=reference_noise(seed), steps=80)
    records, summary = run(scen)

    def sxy(a, b, c):
        mx, my = (a[0] + b[0] + c[0]) / 3.0, (a[1] + b[1] + c[1]) / 3.0
        return sum((x - mx) * (y - my) for x, y in (a, b, c))

    assert fits and all(sxy(*abc) != 0.0 for abc in fits)
    assert _records_digest(records, summary) == TILTED_DIGESTS[controller, seed]


# Digests of the loop branches that the shipped configs leave out: paper-literal
# mode, a perfect sensor that draws nothing, and leading steps that fault.
PAPER_LITERAL_DIGESTS = {
    0: "c1608fd63dabcc30f9a847c6b5f32d0cb9925565097acf3c039c01765bc64d1e",
    1: "0db264dfa63c70fe4e49a470e56e74befcf60dbbb18b54c2780c2f69c229068e",
}


@pytest.mark.parametrize("seed", sorted(PAPER_LITERAL_DIGESTS))
def test_paper_literal_records_are_bit_identical_to_the_pinned_digests(straight_scenario, seed):
    scen = replace(
        straight_scenario,
        controller=Controller.UTPP,
        noise=replace(straight_scenario.noise, rng_seed=seed),
        paper_literal=True,
    )
    assert _records_digest(*run(scen)) == PAPER_LITERAL_DIGESTS[seed]


def test_zero_covariance_records_are_bit_identical_to_the_pinned_digest(circle_scenario):
    scen = replace(circle_scenario, noise=replace(circle_scenario.noise, cov=Covariance3(0.0, 0.0, 0.0)))
    digest = "8876b71a8176972832c2fe4669fb9432da44f0829b0447cea965228d47d580a9"
    assert _records_digest(*run(scen)) == digest


# The start pose is 2 m outside the circle, heading for its centre, with a
# 1 m look-ahead.  A 5 m clamp lets the measured pose stay out there too, so
# the run's first 11 steps miss the road and hold the initial command.
FAR_START_DIGESTS = {
    "pp": "4e2bb9353784751092920606bd261aedfff1b0bc33e0e5a0863704e15f2e0f41",
    "utpp": "ff34a057de78e3286f0fb2bcbbb01f4ab87001cb75fccb36ddc4ed2b68c31bdf",
}


@pytest.mark.parametrize("controller", sorted(FAR_START_DIGESTS))
def test_far_start_records_are_bit_identical_to_the_pinned_digests(circle_scenario, controller):
    scen = replace(
        circle_scenario,
        controller=Controller(controller),
        start_pose=Pose(0.0, -2.0, math.pi / 2),
        noise=replace(circle_scenario.noise, max_lateral_dev=5.0),
    )
    records, summary = run(scen)
    assert [r.fault for r in records[:12]] == ["NoIntersection"] * 11 + [None]
    assert all(r.delta == 0.0 and r.y_e is None for r in records[:11])
    assert summary.fault_count == 11
    assert _records_digest(records, summary) == FAR_START_DIGESTS[controller]

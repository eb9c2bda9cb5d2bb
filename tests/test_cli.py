import hashlib
import json
import math
import re
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from utpursuit import (
    Circle,
    ConfigInvalid,
    Controller,
    Pose,
    RoadGeometryFault,
    StraightLine,
    WaypointPath,
    derive_ut_params,
    run,
)
from utpursuit.cli import main
from utpursuit.config import parse_config
from utpursuit.output import (
    BATCH_AGG_HEADER,
    BATCH_RUNS_HEADER,
    CSV_HEADER,
    emit_csv,
    emit_summary_json,
    emit_svg,
    format_float,
)
from utpursuit.sim import Trajectory

from conftest import (
    CONFIG_DIR,
    count_builds,
    emit_csv_oracle,
    emit_svg_oracle,
    make_scenario,
    read_csv,
    read_svg_polylines,
    reference_noise,
)

STRAIGHT_CFG = str(CONFIG_DIR / "straight.cfg")
CIRCLE_CFG = str(CONFIG_DIR / "circle.cfg")

MINIMAL_CFG = """\
[road]
type = line
slope = 0.0
intercept = 0.0

[vehicle]
start_x = 0.0
start_y = 0.5
start_yaw_deg = 0.0
speed = 1.0
wheelbase = 1.0

[sim]
dt = 0.1
steps = 20
lookahead_gain = 1.0
controller = pp
"""


def write_cfg(tmp_path, text, name="scen.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_straight_config_reference_values(straight_scenario):
    s = straight_scenario
    assert s.road == StraightLine(0.0, 0.0)
    assert s.start_pose == Pose(0.0, 0.5, 0.0)
    assert (s.speed, s.wheelbase, s.lookahead_gain) == (1.0, 1.0, 1.0)
    assert (s.dt, s.steps) == (0.1, 300)
    assert s.controller is Controller.PP
    assert s.steering_limit == math.radians(80.0)
    assert not s.paper_literal
    assert s.noise is not None
    assert s.noise.cov.var_x == 0.0
    assert s.noise.cov.var_y == 0.1**2
    assert s.noise.cov.var_yaw == math.radians(10.0) ** 2
    assert s.noise.max_lateral_dev == 0.3
    assert s.noise.rng_seed == 0
    assert s.ut == derive_ut_params(3, 0.001, 0.0)


def test_circle_config_reference_values(circle_scenario):
    assert circle_scenario.road == Circle(0.0, 5.0, 5.0)
    assert circle_scenario.start_pose == Pose(0.0, 0.5, 0.0)
    assert circle_scenario.noise is not None


def test_waypoint_config_resolves_file_next_to_it():
    scen = parse_config(str(CONFIG_DIR / "waypoint_arc.cfg"))
    assert isinstance(scen.road, WaypointPath)
    assert len(scen.road.points) == 181
    assert scen.road.points[0] == (0.0, 0.0)


def test_missing_required_key_names_it(tmp_path):
    text = MINIMAL_CFG.replace("speed = 1.0\n", "")
    with pytest.raises(ConfigInvalid, match=r"vehicle\.speed"):
        parse_config(write_cfg(tmp_path, text))


def test_unknown_key_and_section_are_rejected(tmp_path):
    with pytest.raises(ConfigInvalid, match=r"unknown key 'sim\.bogus'"):
        parse_config(write_cfg(tmp_path, MINIMAL_CFG + "bogus = 1\n"))
    with pytest.raises(ConfigInvalid, match=r"unknown section '\[extra\]'"):
        parse_config(write_cfg(tmp_path, MINIMAL_CFG + "\n[extra]\nx = 1\n"))
    # A waypoint road's line/circle threshold is a constant, not a key.
    road = f"[road]\ntype = waypoints\nfile = {CONFIG_DIR / 'waypoint_arc.txt'}\nstraight_eps = 0.001\n"
    text = MINIMAL_CFG.replace("[road]\ntype = line\nslope = 0.0\nintercept = 0.0\n", road)
    with pytest.raises(ConfigInvalid, match=r"unknown key 'road\.straight_eps'"):
        parse_config(write_cfg(tmp_path, text))


def test_malformed_values_are_rejected(tmp_path):
    text = MINIMAL_CFG.replace("speed = 1.0", "speed = fast")
    with pytest.raises(ConfigInvalid, match=r"'vehicle\.speed': expected a number"):
        parse_config(write_cfg(tmp_path, text))
    text = MINIMAL_CFG.replace("controller = pp", "controller = lqr")
    with pytest.raises(ConfigInvalid, match=r"expected pp or utpp"):
        parse_config(write_cfg(tmp_path, text))
    text = MINIMAL_CFG.replace("steps = 20", "steps = 2.5")
    with pytest.raises(ConfigInvalid, match=r"'sim\.steps': expected an integer"):
        parse_config(write_cfg(tmp_path, text))


ROAD_LINE = "[road]\ntype = line\nslope = 0.0\nintercept = 0.0\n"


@pytest.mark.parametrize(
    "old, new, message",
    [
        (ROAD_LINE, "[road]\ntype = spiral\n", r"^'road\.type': expected line, circle or waypoints, got 'spiral'$"),
        (
            ROAD_LINE,
            "[road]\ntype = circle\ncenter_x = 0\ncenter_y = 5\nradius = -1\n",
            r"^\[road\]: circle radius must be positive, got -1\.0$",
        ),
        ("[road]\n", "speed = 1.0\n[road]\n", r"^malformed config '.*scen\.cfg': File contains no section headers\."),
        (
            "wheelbase = 1.0\n",
            "wheelbase = 1.0\nspeed = 2.0\n",
            r"^malformed config '.*scen\.cfg': .*option 'speed' in section 'vehicle' already exists$",
        ),
        (MINIMAL_CFG[MINIMAL_CFG.index("[sim]") :], "", r"^missing required section '\[sim\]'$"),
    ],
    ids=["unknown_road_type", "bad_circle", "key_before_section", "duplicate_key", "missing_section"],
)
def test_malformed_files_and_roads_are_rejected(tmp_path, old, new, message):
    assert old in MINIMAL_CFG
    with pytest.raises(ConfigInvalid, match=message):
        parse_config(write_cfg(tmp_path, MINIMAL_CFG.replace(old, new, 1)))


def test_boolean_keys_take_the_eight_configparser_words(tmp_path):
    for word, value in (("Yes", True), ("on", True), ("1", True), ("TRUE", True)):
        scen = parse_config(write_cfg(tmp_path, MINIMAL_CFG + f"paper_literal = {word}\n"))
        assert scen.paper_literal is value
    for word in ("no", "Off", "0", "false"):
        text = MINIMAL_CFG + f"\n[noise]\nenabled = {word}\nsigma_y = 0.1\n"
        assert parse_config(write_cfg(tmp_path, text)).noise.cov.is_zero()
    with pytest.raises(ConfigInvalid, match=r"^'sim\.paper_literal': expected a boolean, got 'maybe'$"):
        parse_config(write_cfg(tmp_path, MINIMAL_CFG + "paper_literal = maybe\n"))


def test_unreadable_config_reports_the_path(tmp_path):
    with pytest.raises(ConfigInvalid, match="cannot read config"):
        parse_config(str(tmp_path / "nope.cfg"))


def test_noise_section_is_optional_and_can_be_disabled(tmp_path):
    seeded = MINIMAL_CFG + "seed = 3\n"
    disabled = seeded + "\n[noise]\nenabled = false\nsigma_x = 0\nsigma_y = 0.1\nsigma_yaw_deg = 10\n"
    for text in (seeded, disabled):
        noise = parse_config(write_cfg(tmp_path, text)).noise
        assert noise.cov.is_zero()
        assert noise.rng_seed == 3


@pytest.mark.parametrize(
    "key,value,message",
    [
        ("sigma_x", "abc", "expected a number"),
        ("sigma_y", "-1", "must be >= 0"),
        ("sigma_yaw_deg", "nan", "must be finite"),
        ("max_lateral_dev", "0", "max_lateral_dev must be positive"),
    ],
)
def test_disabled_noise_section_values_are_checked(tmp_path, key, value, message):
    text = MINIMAL_CFG + f"\n[noise]\nenabled = false\n{key} = {value}\n"
    with pytest.raises(ConfigInvalid, match=message):
        parse_config(write_cfg(tmp_path, text))


@pytest.mark.parametrize("key,value", [("sigma_x", "-0.5"), ("sigma_y", "-0.1"), ("sigma_yaw_deg", "-10")])
def test_negative_sigma_is_rejected(tmp_path, key, value):
    sigmas = {"sigma_x": "0", "sigma_y": "0.1", "sigma_yaw_deg": "10", key: value}
    text = MINIMAL_CFG + "\n[noise]\n" + "".join(f"{k} = {v}\n" for k, v in sigmas.items())
    with pytest.raises(ConfigInvalid, match=rf"'noise\.{key}': must be >= 0"):
        parse_config(write_cfg(tmp_path, text))


def test_utpp_without_noise_section_equals_pp(tmp_path):
    scen = parse_config(write_cfg(tmp_path, MINIMAL_CFG.replace("controller = pp", "controller = utpp")))
    assert scen.controller is Controller.UTPP
    ut_records, _ = run(scen)
    pp_records, _ = run(replace(scen, controller=Controller.PP))
    assert ut_records == pp_records


def test_csv_round_trip(tmp_path):
    scen = make_scenario(
        parse_config(STRAIGHT_CFG).road, noise=reference_noise(seed=4), steps=40
    )
    records, _ = run(scen)
    path = str(tmp_path / "t.csv")
    emit_csv(records, path)
    with open(path, encoding="utf-8") as fh:
        assert fh.readline().rstrip("\n") == CSV_HEADER
    back = read_csv(path)
    assert len(back) == len(records)
    for a, b in zip(records, back):
        assert (a.step, a.fault) == (b.step, b.fault)
        assert b.time == pytest.approx(a.time, rel=1e-8, abs=1e-12)
        assert b.true_pose.x == pytest.approx(a.true_pose.x, rel=1e-8, abs=1e-12)
        assert b.measured_pose.yaw == pytest.approx(a.measured_pose.yaw, rel=1e-8, abs=1e-12)
        assert b.delta == pytest.approx(a.delta, rel=1e-8, abs=1e-12)
        assert b.y_e == pytest.approx(a.y_e, rel=1e-8, abs=1e-12)


def test_csv_faulted_steps_leave_cells_empty(tmp_path):
    scen = make_scenario(StraightLine(0.0, 0.0), start_pose=Pose(0.0, 0.0, math.pi / 2), steps=3)
    records, _ = run(scen)
    path = str(tmp_path / "f.csv")
    emit_csv(records, path)
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    cells = lines[1].split(",")
    assert cells[8] == ""
    assert cells[11] == "PerpendicularLine"
    back = read_csv(path)
    assert back[0].y_e is None
    assert back[0].fault == "PerpendicularLine"


def test_read_csv_rejects_foreign_files(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
    with pytest.raises(ValueError, match="unexpected CSV header"):
        read_csv(str(bad))
    bad.write_text(CSV_HEADER + "\n1,2,3\n", encoding="utf-8")
    with pytest.raises(ValueError, match="expected 12 cells"):
        read_csv(str(bad))


def test_summary_json_contents(tmp_path):
    scen = make_scenario(StraightLine(0.0, 0.0), noise=reference_noise(seed=2), steps=60)
    records, summary = run(scen)
    path = str(tmp_path / "s.json")
    emit_summary_json(summary, scen, path)
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    assert payload["controller"] == "pp"
    assert payload["steps"] == 60
    assert payload["dt"] == 0.1
    assert payload["seed"] == 2
    assert payload["rng"] == "numpy-pcg64"
    assert payload["fault_count"] == summary.fault_count
    assert payload["max_abs_delta"] == summary.max_abs_delta


def test_svg_polylines_match_the_records(tmp_path):
    scen = make_scenario(StraightLine(0.1, -0.2), noise=reference_noise(seed=1), steps=30)
    records, _ = run(scen)
    path = str(tmp_path / "p.svg")
    emit_svg(records, scen.road, path)
    road, meas, true, delta = read_svg_polylines(path)
    assert len(true) == len(meas) == len(records)
    for (x, y), r in zip(true, records):
        assert x == pytest.approx(r.true_pose.x, rel=1e-8, abs=1e-12)
        assert y == pytest.approx(r.true_pose.y, rel=1e-8, abs=1e-12)
    for (x, y), r in zip(meas, records):
        assert x == pytest.approx(r.measured_pose.x, rel=1e-8, abs=1e-12)
    for x, y in road:
        assert y == pytest.approx(0.1 * x - 0.2, rel=1e-7, abs=1e-9)
    for (t, d), r in zip(delta, records):
        assert t == pytest.approx(r.time, rel=1e-8, abs=1e-12)
        assert d == pytest.approx(r.delta, rel=1e-8, abs=1e-12)


def test_svg_circle_road_uses_a_circle_element(tmp_path):
    scen = make_scenario(Circle(0.0, 5.0, 5.0), steps=20)
    records, _ = run(scen)
    path = str(tmp_path / "c.svg")
    emit_svg(records, scen.road, path)
    text = Path(path).read_text(encoding="utf-8")
    assert '<circle cx="0" cy="5" r="5"' in text
    assert len(read_svg_polylines(path)) == 3  # measured, true, delta(t)


def test_svg_of_a_constant_command_pads_its_zero_span(tmp_path):
    # On the road and heading along it, every command is 0 and every y is 0:
    # a zero span is widened to [-1, 1] before the 8% pad, so the delta(t)
    # panel's 380 px cover [-1.16, 1.16] and its zero sits mid-panel, at 240.
    scen = make_scenario(StraightLine(0.0, 0.0), start_pose=Pose(0.0, 0.0, 0.0), steps=20)
    records, _ = run(scen)
    assert {r.delta for r in records} == {0.0}
    path = str(tmp_path / "z.svg")
    emit_svg(records, scen.road, path)
    text = Path(path).read_text(encoding="utf-8")
    assert re.search(r'<g transform="translate\([^,]+,240\) scale\([^,]+,-163\.793103\)">', text), text
    assert [y for _, y in read_svg_polylines(path)[-1]] == [0.0] * 20


def test_cli_svg_of_a_far_off_run_keeps_a_finite_transform(tmp_path, capsys):
    # At x = 1e17 a step of 0.1 m rounds away, so every x is the start's, and
    # the zero span's [-1, 1] widening and its 8% pad round away too; the
    # panel still gets an x range of nonzero width.
    text = (CONFIG_DIR / "straight.cfg").read_text(encoding="utf-8")
    cfg = write_cfg(tmp_path, re.sub(r"(?m)^start_x = .*$", "start_x = 1e17", text), "far.cfg")
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--svg", "--out-dir", str(out)]) == 0
    for name in ("far_pp_0_trajectory.csv", "far_pp_0_summary.json", "far_pp_0.svg"):
        assert (out / name).stat().st_size > 0
    svg = str(out / "far_pp_0.svg")
    assert {x for x, _ in read_svg_polylines(svg)[2]} == {1e17}
    transforms = re.findall(r'transform="translate\(([^,]+),([^)]+)\) scale\(([^,]+),([^)]+)\)"', Path(svg).read_text())
    assert len(transforms) == 2
    assert all(math.isfinite(float(v)) for t in transforms for v in t)
    assert all(float(v) != 0.0 for _, _, *scale in transforms for v in scale)


# Finite floats, with -0.0, subnormals, the ends of the float range and whole numbers drawn often.
_EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e308, -1e308, 1.7976931348623157e308, 2.0**53)
_CELL = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(_EDGE_FLOATS),
    st.integers(-(10**6), 10**6).map(float),
)
# The loop keeps every yaw in (-pi, pi], so a record's Pose holds the column's yaw as it is.
_YAW = st.one_of(
    st.floats(-math.pi, math.pi, exclude_min=True),
    st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 1.0, -3.0, math.pi)),
)
_FAULTS = sorted(cls.__name__ for cls in RoadGeometryFault.__subclasses__())
_ROAD_CELL = st.floats(-1e6, 1e6)


@st.composite
def _waypoint_paths(draw):
    # x climbs by at least 0.5 per waypoint, so consecutive waypoints stay apart.
    n = draw(st.integers(3, 8))
    return WaypointPath([(i + draw(st.floats(0.0, 0.5)), draw(_ROAD_CELL)) for i in range(n)])


_ROADS = st.one_of(
    st.builds(StraightLine, _ROAD_CELL, _ROAD_CELL),
    st.builds(Circle, _ROAD_CELL, _ROAD_CELL, st.floats(1e-3, 1e6)),
    _waypoint_paths(),
)


@st.composite
def _trajectories(draw):
    n = draw(st.integers(1, 40))

    def column(cells):
        return draw(st.lists(cells, min_size=n, max_size=n))

    pose = st.tuples(_CELL, _CELL, _YAW)
    dt = draw(st.one_of(st.floats(min_value=0.0, max_value=1e300, exclude_min=True), st.integers(1, 10).map(float)))
    return Trajectory(
        dt,
        column(pose),
        column(pose),
        column(st.one_of(st.none(), _CELL)),
        column(_CELL),
        column(_CELL),
        column(st.one_of(st.none(), st.sampled_from(_FAULTS))),
    )


def _written(emit, *args):
    """The bytes that emit(*args) writes to its last argument, or ZeroDivisionError if it raises that."""
    path = Path(args[-1])
    try:
        emit(*args)
    except ZeroDivisionError:
        return ZeroDivisionError
    return path.read_bytes()


@settings(max_examples=300, derandomize=True, deadline=None)
@given(trajectory=_trajectories(), road=_ROADS)
def test_emitters_write_the_oracles_bytes_from_the_columns(tmp_path_factory, trajectory, road):
    # Written from the columns, the files equal those of the record oracles
    # fed the same trajectory's records; a plot whose points all sit where a
    # pad of one metre is lost to rounding fails alike on both sides.
    d = tmp_path_factory.mktemp("emit")
    records = list(trajectory)
    assert _written(emit_csv, trajectory, d / "a.csv") == _written(emit_csv_oracle, records, d / "b.csv")
    assert _written(emit_svg, trajectory, road, d / "a.svg") == _written(emit_svg_oracle, records, road, d / "b.svg")


@pytest.mark.parametrize("stem", ["straight", "circle", "waypoint_arc"])
def test_cli_run_builds_no_record_and_only_the_start_pose(tmp_path, monkeypatch, capsys, stem):
    # The emitters read the run's columns: the config's start pose is the one Pose built.
    built = count_builds(monkeypatch)
    for controller in ("pp", "utpp"):
        argv = ["run", "--config", str(CONFIG_DIR / f"{stem}.cfg"), "--controller", controller, "--svg"]
        assert main(argv + ["--steps", "80", "--out-dir", str(tmp_path / controller)]) == 0
    assert built == {"Pose": 2, "TrajectoryRecord": 0}


def test_format_float_handles_infinities():
    assert format_float(math.inf) == "inf"
    assert format_float(-math.inf) == "-inf"
    assert format_float(0.1) == "0.1"


def test_cli_run_writes_the_expected_files(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(
        ["run", "--config", STRAIGHT_CFG, "--out-dir", str(out), "--steps", "50", "--svg"]
    )
    assert rc == 0
    csv_path = out / "straight_pp_0_trajectory.csv"
    assert csv_path.exists()
    assert (out / "straight_pp_0_summary.json").exists()
    assert (out / "straight_pp_0.svg").exists()
    assert len(read_csv(str(csv_path))) == 50
    stdout = capsys.readouterr().out
    assert "pp: 50 steps" in stdout
    assert stdout.count("wrote ") == 3


def test_cli_outputs_are_byte_identical_across_invocations(tmp_path):
    args = ["run", "--config", CIRCLE_CFG, "--steps", "40", "--svg", "--out-dir"]
    main(args + [str(tmp_path / "a")])
    main(args + [str(tmp_path / "b")])
    for name in ("circle_pp_0_trajectory.csv", "circle_pp_0_summary.json", "circle_pp_0.svg"):
        first = (tmp_path / "a" / name).read_bytes()
        second = (tmp_path / "b" / name).read_bytes()
        assert first == second


def test_cli_controller_and_seed_overrides(tmp_path):
    out = tmp_path / "out"
    rc = main(
        [
            "run", "--config", STRAIGHT_CFG, "--out-dir", str(out),
            "--controller", "utpp", "--seed", "7", "--steps", "30",
        ]
    )
    assert rc == 0
    payload = json.loads((out / "straight_utpp_7_summary.json").read_text(encoding="utf-8"))
    assert payload["controller"] == "utpp"
    assert payload["seed"] == 7


def test_cli_noise_off_zeroes_the_covariance(tmp_path):
    out = tmp_path / "out"
    rc = main(
        ["run", "--config", STRAIGHT_CFG, "--out-dir", str(out), "--noise", "off", "--steps", "30"]
    )
    assert rc == 0
    for r in read_csv(str(out / "straight_pp_0_trajectory.csv")):
        assert r.measured_pose == r.true_pose


def test_cli_noise_on_needs_a_noise_section(tmp_path):
    cfg = write_cfg(tmp_path, MINIMAL_CFG)
    rc = main(["run", "--config", cfg, "--out-dir", str(tmp_path / "out"), "--noise", "on"])
    assert rc == 2


def test_cli_noise_on_rejects_a_zero_covariance(tmp_path, capsys):
    out = str(tmp_path / "out")
    zero = write_cfg(tmp_path, MINIMAL_CFG + "\n[noise]\nsigma_x = 0\nsigma_y = 0\nsigma_yaw_deg = 0\n")
    assert main(["run", "--config", zero, "--out-dir", out, "--noise", "on"]) == 2
    assert "covariance is zero" in capsys.readouterr().err
    assert main(["run", "--config", STRAIGHT_CFG, "--out-dir", out, "--noise", "on", "--steps", "5"]) == 0


@pytest.mark.parametrize("controller", ["pp", "utpp"])
def test_cli_perfect_sensor_spellings_write_identical_files(tmp_path, controller):
    noisy = MINIMAL_CFG + "\n[noise]\nsigma_x = 0\nsigma_y = 0.1\nsigma_yaw_deg = 10\n"
    spellings = {
        "missing": (MINIMAL_CFG, []),
        "disabled": (noisy.replace("[noise]\n", "[noise]\nenabled = false\n"), []),
        "noise_off": (noisy, ["--noise", "off"]),
    }
    outputs = {}
    for label, (text, flags) in spellings.items():
        cfg_dir = tmp_path / label
        cfg_dir.mkdir()
        cfg = write_cfg(cfg_dir, text)
        out = cfg_dir / "out"
        argv = ["run", "--config", cfg, "--out-dir", str(out), "--controller", controller, "--seed", "4"]
        assert main(argv + flags) == 0
        outputs[label] = [
            (out / f"scen_{controller}_4_{name}").read_bytes() for name in ("trajectory.csv", "summary.json")
        ]
    assert outputs["missing"] == outputs["disabled"] == outputs["noise_off"]


def test_cli_seed_without_noise_still_runs(tmp_path):
    cfg = write_cfg(tmp_path, MINIMAL_CFG)
    out = tmp_path / "out"
    rc = main(["run", "--config", cfg, "--out-dir", str(out), "--seed", "5"])
    assert rc == 0
    assert (out / "scen_pp_5_trajectory.csv").exists()


def test_cli_road_override(tmp_path):
    out = tmp_path / "out"
    rc = main(
        [
            "run", "--config", STRAIGHT_CFG, "--out-dir", str(out),
            "--road", "circle:0,5,5", "--steps", "20",
        ]
    )
    assert rc == 0
    assert main(
        ["run", "--config", STRAIGHT_CFG, "--out-dir", str(out), "--road", "spiral:1"]
    ) == 2
    assert main(
        ["run", "--config", STRAIGHT_CFG, "--out-dir", str(out), "--road", "line:abc,0"]
    ) == 2


@pytest.mark.parametrize(
    "spec, road",
    [
        ("line:0.1,-0.2", StraightLine(0.1, -0.2)),
        ("waypoints:{wp}", WaypointPath([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)])),
    ],
    ids=["line", "waypoints"],
)
def test_cli_road_override_takes_a_line_or_a_waypoint_file(tmp_path, capsys, spec, road):
    wp = tmp_path / "wp.txt"
    wp.write_text("0,0\n1,0\n2,0\n3,0\n", encoding="utf-8")
    out = tmp_path / "out"
    argv = ["run", "--config", STRAIGHT_CFG, "--out-dir", str(out), "--steps", "5"]
    assert main(argv + ["--road", spec.format(wp=wp)]) == 0
    assert "pp: 5 steps, convergence none" in capsys.readouterr().out
    records, _ = run(replace(parse_config(STRAIGHT_CFG), road=road, steps=5))
    emit_csv(records, str(tmp_path / "expected.csv"))
    assert (out / "straight_pp_0_trajectory.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()


def test_cli_error_exit_codes(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.cfg"), "--out-dir", str(tmp_path)]) == 2
    blocker = tmp_path / "file"
    blocker.write_text("x", encoding="utf-8")
    assert main(["run", "--config", STRAIGHT_CFG, "--out-dir", str(blocker)]) == 1


def test_cli_batch_outputs(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(
        [
            "batch", "--config", STRAIGHT_CFG, "--out-dir", str(out),
            "--runs", "4", "--base-seed", "10", "--steps", "80",
        ]
    )
    assert rc == 0
    runs_lines = (out / "straight_batch_runs.csv").read_text(encoding="utf-8").splitlines()
    assert runs_lines[0] == BATCH_RUNS_HEADER
    assert len(runs_lines) == 1 + 8
    rows = [line.split(",") for line in runs_lines[1:]]
    assert [r[0] for r in rows] == ["pp"] * 4 + ["utpp"] * 4
    assert [int(r[2]) for r in rows[:4]] == [10, 11, 12, 13]
    assert [int(r[1]) for r in rows[:4]] == [0, 1, 2, 3]
    agg_lines = (out / "straight_batch_aggregate.csv").read_text(encoding="utf-8").splitlines()
    assert agg_lines[0] == BATCH_AGG_HEADER
    assert len(agg_lines) == 3
    assert agg_lines[1].startswith("pp,4,")
    assert agg_lines[2].startswith("utpp,4,")
    stdout = capsys.readouterr().out
    assert "pp:" in stdout and "utpp:" in stdout


def test_cli_batch_without_noise_section(tmp_path):
    cfg = write_cfg(tmp_path, MINIMAL_CFG)
    out = tmp_path / "out"
    rc = main(["batch", "--config", cfg, "--out-dir", str(out), "--runs", "2"])
    assert rc == 0
    for name, n_runs in (("scen_batch_runs.csv", 2), ("scen_batch_aggregate.csv", 1)):
        rows = [line.split(",") for line in (out / name).read_text(encoding="utf-8").splitlines()[1:]]
        assert [r[0] for r in rows] == ["pp"] * n_runs + ["utpp"] * n_runs
        assert [r[1:] for r in rows[:n_runs]] == [r[1:] for r in rows[n_runs:]]


# SHA-256 of the runs and aggregate CSVs of `batch --runs 3`.  These change
# only in a change that states and measures its output drift.
BATCH_DIGESTS = {
    ("straight", 0): (
        "a30eff89641aeebfa5e57a168cee91ec421d127b1227dc025c96f3fbfb9b075b",
        "c37d1bd317090e5f5095f3c21d0791177a823afca08824a1d8b5adc1853c72fe",
    ),
    ("straight", 5): (
        "582739916cf8357fe5a4311c04831481823c09d0857ff32482f197d8e0da938e",
        "a34afd57559ac36ac704566bcb10c880cee9dc7120d4096a8514e50a40a86818",
    ),
    ("circle", 0): (
        "e4c1bc6a8d4dc79cace5bb9048a0306cc0b4b15b506a50782723478129d088e0",
        "5811e8553049ff2f0287ef4c9ec7cc75831cda5321fcb33abee86fe8b18136d7",
    ),
    ("circle", 5): (
        "a5fedc45a34e76c1ad2a3cbe43cd807f20763502acac80dbe4ab284137fa03ea",
        "ddc00f486c9687eb846d64086ae3c1acc072131824cdb78ea8c2362869ac7fdc",
    ),
    ("waypoint_arc", 0): (
        "c4e0e4fcbd2dc2774e1d63fd31e3e0367b74a14c5e4f38bb3ee588972e069444",
        "53d2a8040a2d1ef262d0e81c6afc8e6d9bef1f4bbcc83004200be545139b1cd6",
    ),
    ("waypoint_arc", 5): (
        "7ce36817ea68d5eab8d68ae4716519474c73175aeb421cad2900cd59e3fff4aa",
        "8af72b69581054275fd67d467d279f7f4a43a803a554378360f6be2f0eb4128d",
    ),
}


@pytest.mark.parametrize("stem, base_seed", sorted(BATCH_DIGESTS))
def test_cli_batch_files_match_the_pinned_digests(tmp_path, stem, base_seed):
    out = tmp_path / "out"
    argv = ["batch", "--config", str(CONFIG_DIR / f"{stem}.cfg"), "--out-dir", str(out)]
    assert main(argv + ["--runs", "3", "--base-seed", str(base_seed)]) == 0
    digests = tuple(
        hashlib.sha256((out / f"{stem}_batch_{kind}.csv").read_bytes()).hexdigest()
        for kind in ("runs", "aggregate")
    )
    assert digests == BATCH_DIGESTS[stem, base_seed]


# SHA-256 of the trajectory CSV, summary JSON and SVG of `run --svg` at seed 0,
# keyed by config, controller and extra flags.  A perfect sensor makes the
# measured poses the true ones.  The far circle's start faults: noisy, the
# clamp pulls the measured pose onto the road after step 0; perfect, every
# step faults, so every y_e cell is empty and the command stays 0.  These
# change only in a change that states and measures its output drift.
RUN_FILE_DIGESTS = {
    ("straight", "pp", ()): (
        "4b7a1fb96ad9e15301795a66b2e9caa0a4e172c45a2a52219c905ae67d6524e5",
        "5898a0d628f7e81510c4bd1a7de63e86f6752ada1674f7664fe31ecfc56f083d",
        "6f4c52c4804df5aebe1903117238c825802c60f8b8190d530c275442636e1785",
    ),
    ("straight", "utpp", ()): (
        "9e2c46e14ef5cab4a78b2a834e19fe50a201819b098194274d63241b9998f1f8",
        "daea4a798e27addf9b8a1b30225b214113d23ce485d56ac089da465e7b84871e",
        "67a4361eec277848d5ab3b6010b319ca9293d42553d769c7369ca271705f362b",
    ),
    ("circle", "pp", ()): (
        "0d046dd3eb7b23b759ee086c90c59bde77e24c5d3e2bf3c0c6fb986de79dd89d",
        "4878b23423803c77054b7a12c97eefca687bc1ce431c691c84b4598afcd4192d",
        "0c91d026b0d3598414a6c034f18bbd215e1a2dbe0a9017d20dd739397d207a0a",
    ),
    ("circle", "utpp", ()): (
        "3c80a587366cce1a4caeb042228c79b485d945be2f50cfc6df343a53ab32c3e4",
        "bc453212b400299515592ea92e259cf0b085ee815a3bedf781b26ba6e5d20338",
        "db8e20e9316c8cf11a63bfa73170778b3c771bae2679916b505b5c6506eaa221",
    ),
    ("waypoint_arc", "pp", ()): (
        "ac18dbfd5da9dd30f9e49801a66aa1ccdbe5b6777605bee82b173f1266bebc57",
        "383a3ffa583c293a3c0edc30de95ed286f69d2ecaedc31547b67f33a4f374338",
        "f2a30acf4e50186d6708e3d08c8b89d5117d563537dc40b35eb65c3c0eb403ab",
    ),
    ("waypoint_arc", "utpp", ()): (
        "862b0eafc7efdf2c1c88cf01ea536a70f4c11fd55b1d7a275643039088077cf8",
        "810fb4c9d083af47e4d8e1a2944e98a3ba4d918e19757621037556a4d27e648d",
        "9a13aa6bf53f1717e99219432d23edfbf8256d0c3ebc9a589ed897b8c4f39505",
    ),
    ("straight", "utpp", ("--noise", "off")): (
        "b57bf1d22825942771c062cd0076b621c79feb68dc4ffc6265226066ffaeea61",
        "ad805a307a38d1c9ea3a11537b2db4caa4752aa0754f16b19f06138d58d38a1b",
        "4c9092a37fed6559acd081ca452479d16c90aaa27b83b59e6d911c7a29df2e17",
    ),
    ("straight", "pp", ("--road", "circle:0,40,5")): (
        "50bb00174cfea21eaa452bf60935d88b820560d5d7dc2b4506e9a99fe8e2e07e",
        "a82c47a864e8d9aff04e5bae41e8d9285888a9e11129c919fbfd6f45662e2341",
        "db95c7f106df0bc8a32f32e823fc922c773307c9c47f032ba73958999387bc43",
    ),
    ("straight", "pp", ("--road", "circle:0,40,5", "--noise", "off")): (
        "af6f194bc9574efc006a96080eb03c28c604059db11820dd451dc269f42be210",
        "49defa8da7835b40cc24608321e47b3b5742cfdfc1b610ee374f4763a3689ebc",
        "1f52dd10f423f0ae7774ff44bcfd87886b570562f4dcd0a0938784aca32f69fa",
    ),
}


@pytest.mark.parametrize(
    "stem, controller, flags",
    list(RUN_FILE_DIGESTS),
    ids=lambda v: (" ".join(v) or "default") if isinstance(v, tuple) else v,
)
def test_cli_run_files_match_the_pinned_digests(tmp_path, capsys, stem, controller, flags):
    out = tmp_path / "out"
    argv = ["run", "--config", str(CONFIG_DIR / f"{stem}.cfg"), "--controller", controller, "--svg"]
    assert main(argv + list(flags) + ["--out-dir", str(out)]) == 0
    digests = tuple(
        hashlib.sha256((out / f"{stem}_{controller}_0{suffix}").read_bytes()).hexdigest()
        for suffix in ("_trajectory.csv", "_summary.json", ".svg")
    )
    assert digests == RUN_FILE_DIGESTS[stem, controller, flags]


@pytest.mark.parametrize("alpha", ["1e-7", "1e-9", "1e-160"])
def test_cli_degenerate_ut_scaling_is_a_config_error(tmp_path, capsys, alpha):
    text = (CONFIG_DIR / "straight.cfg").read_text(encoding="utf-8")
    cfg = write_cfg(tmp_path, text.replace("alpha = 0.001", f"alpha = {alpha}"))
    rc = main(["run", "--config", cfg, "--out-dir", str(tmp_path / "out"), "--steps", "5"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: [ut]: ")


def test_cli_batch_rejects_seed(tmp_path, capsys):
    # batch seeds run i with --base-seed + i; a --seed would be ignored.
    argv = ["batch", "--config", STRAIGHT_CFG, "--out-dir", str(tmp_path), "--runs", "2", "--seed", "7"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 7" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_cli_batch_rejects_controller(tmp_path, capsys):
    # batch always runs pp and then utpp; a --controller would be ignored.
    argv = ["batch", "--config", STRAIGHT_CFG, "--out-dir", str(tmp_path), "--runs", "2", "--controller", "utpp"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --controller utpp" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_cli_batch_with_no_runs_is_a_config_error(tmp_path, capsys):
    assert main(["batch", "--config", STRAIGHT_CFG, "--out-dir", str(tmp_path / "out"), "--runs", "0"]) == 2
    assert capsys.readouterr().err == "error: n_runs must be >= 1, got 0\n"
    assert not (tmp_path / "out").exists()


def test_cli_negative_seed_is_a_config_error(tmp_path, capsys):
    out = str(tmp_path / "out")
    text = (CONFIG_DIR / "straight.cfg").read_text(encoding="utf-8")
    cfg = write_cfg(tmp_path, text.replace("seed = 0", "seed = -1"))
    for argv, seed in (
        (["run", "--config", STRAIGHT_CFG, "--out-dir", out, "--seed", "-1"], -1),
        (["batch", "--config", STRAIGHT_CFG, "--out-dir", out, "--runs", "2", "--base-seed", "-3"], -3),
        (["run", "--config", cfg, "--out-dir", out], -1),
    ):
        assert main(argv) == 2
        assert f"seed must be >= 0, got {seed}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "old, new, message",
    [
        # A byte that is not UTF-8, even in a comment.
        (b"[road]\n", b"# caf\xe9\n[road]\n", "cannot read config .*scen.cfg.*can't decode byte 0xe9"),
        # A "%" is read as written, not as configparser's interpolation.
        (b"speed = 1.0", b"speed = 1%", r"'vehicle\.speed': expected a number, got '1%'"),
        (b"start_x = 0.0", b"start_x = %(start_y)s", r"'vehicle\.start_x': expected a number, got '%\(start_y\)s'"),
        (b"type = line\nslope = 0.0\nintercept = 0.0", b"type = waypoints\nfile = 100%.txt", r"'road\.file': .*100%\.txt"),
    ],
    ids=["non_utf8_comment", "percent_in_number", "interpolation_syntax", "percent_in_file_name"],
)
def test_cli_reads_the_config_as_written(tmp_path, capsys, old, new, message):
    cfg = tmp_path / "scen.cfg"
    cfg.write_bytes(MINIMAL_CFG.encode().replace(old, new, 1))
    assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and re.search(message, err), err


@pytest.mark.parametrize(
    "edits, message",
    [
        # One step's distance, speed * dt, overflows, which advance_pose would
        # turn into a pose of NaNs.
        (
            {b"speed = 1.0": b"speed = 1e308", b"dt = 0.1": b"dt = 10"},
            r"^error: speed \* dt must be finite, got 1e\+308 \* 10",
        ),
        # The look-ahead, lookahead_gain * speed, overflows.
        (
            {b"speed = 1.0": b"speed = 1e200", b"lookahead_gain = 1.0": b"lookahead_gain = 1e200"},
            r"^error: lookahead_gain \* speed must be finite, got 1e\+200 \* 1e\+200",
        ),
        # One step's largest heading change overflows, which advance_pose
        # would hand to math.cos as an infinite angle.
        (
            {
                b"speed = 1.0": b"speed = 1e300",
                b"wheelbase = 1.0": b"wheelbase = 1e-10",
                b"lookahead_gain = 1.0": b"lookahead_gain = 1e-300",
            },
            r"^error: speed \* dt / wheelbase \* tan\(steering_limit\) must be finite, got 1e\+300 \* 0\.1 / 1e-10 \* tan\(",
        ),
    ],
    ids=["step_distance", "lookahead", "heading_change"],
)
def test_cli_rejects_products_that_overflow(tmp_path, capsys, edits, message):
    text = (CONFIG_DIR / "straight.cfg").read_bytes()
    for old, new in edits.items():
        assert old in text
        text = text.replace(old, new, 1)
    cfg = tmp_path / "straight.cfg"
    cfg.write_bytes(text)
    assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert re.search(message, err), err
    assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())


def _copy_configs(stem, dest, prefix=b""):
    """Copy the shipped config `stem` and its waypoint file, if any, with `prefix` before each file's bytes."""
    for src in CONFIG_DIR.glob(f"{stem}.*"):
        (dest / src.name).write_bytes(prefix + src.read_bytes())
    return dest / f"{stem}.cfg"


@pytest.mark.parametrize("stem", ["straight", "waypoint_arc"])
def test_cli_reads_files_that_start_with_a_utf8_byte_order_mark(tmp_path, stem):
    bom_dir = tmp_path / "bom"
    bom_dir.mkdir()
    cfg = _copy_configs(stem, bom_dir, prefix=b"\xef\xbb\xbf")
    shipped = CONFIG_DIR / f"{stem}.cfg"
    assert parse_config(str(cfg)) == parse_config(str(shipped))
    for config, out in ((cfg, bom_dir / "out"), (shipped, tmp_path / "out")):
        assert main(["run", "--config", str(config), "--svg", "--out-dir", str(out)]) == 0
    written = sorted(p.name for p in (bom_dir / "out").iterdir())
    assert len(written) == 3 and written == sorted(p.name for p in (tmp_path / "out").iterdir())
    for name in written:
        assert (bom_dir / "out" / name).read_bytes() == (tmp_path / "out" / name).read_bytes()


def test_cli_rejects_a_waypoint_file_that_is_not_utf8(tmp_path, capsys):
    cfg = _copy_configs("waypoint_arc", tmp_path)
    txt = tmp_path / "waypoint_arc.txt"
    txt.write_bytes(b"# caf\xe9\n" + txt.read_bytes())
    assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: 'road.file': ") and "can't decode byte 0xe9" in err, err


def test_cli_rejects_a_waypoint_coordinate_over_1e150(tmp_path, capsys):
    # Its squared distances would overflow: numpy would warn, and the local road come out NaN.
    cfg = _copy_configs("waypoint_arc", tmp_path)
    (tmp_path / "waypoint_arc.txt").write_text("0,0\n1,0\n2,0\n3,0\n1e160,1e160\n")
    assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: 'road.file': waypoint 4 has a coordinate over 1e+150 in magnitude"), err

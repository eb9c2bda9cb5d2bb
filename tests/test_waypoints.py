import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from utpursuit import (
    Circle,
    CoincidentPoints,
    Pose,
    StraightLine,
    TooFewWaypoints,
    WaypointIndex,
    WaypointPath,
    build_index,
    load_waypoints,
    menger_curvature,
    reduce_to_local_road,
    select_lookahead_waypoint,
)
from utpursuit.waypoints import circumcenter

from conftest import CONFIG_DIR


def circumcenter_oracle(a, b, c):
    # Solve the perpendicular-bisector system instead of the closed form.
    lhs = np.array(
        [
            [2.0 * (b[0] - a[0]), 2.0 * (b[1] - a[1])],
            [2.0 * (c[0] - b[0]), 2.0 * (c[1] - b[1])],
        ]
    )
    rhs = np.array(
        [
            b[0] ** 2 + b[1] ** 2 - a[0] ** 2 - a[1] ** 2,
            c[0] ** 2 + c[1] ** 2 - b[0] ** 2 - b[1] ** 2,
        ]
    )
    return tuple(np.linalg.solve(lhs, rhs))


def arc_path(radius=5.0, cy=5.0, step_deg=2.0, n=181):
    pts = []
    for k in range(n):
        th = math.radians(step_deg * k)
        pts.append((radius * math.sin(th), cy - radius * math.cos(th)))
    return WaypointPath(pts)


def test_waypoint_path_validation():
    with pytest.raises(TooFewWaypoints):
        WaypointPath([(0.0, 0.0), (1.0, 0.0)])
    with pytest.raises(ValueError):
        WaypointPath([(0.0, 0.0), (0.0, 0.0), (1.0, 0.0)])
    with pytest.raises(ValueError):
        WaypointPath([(0.0, 0.0), (math.nan, 0.0), (1.0, 0.0)])


def test_waypoint_path_is_frozen_with_a_tuple_of_points():
    points = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.5)]
    path = WaypointPath(points)
    assert path.points == tuple(points) and isinstance(path.points, tuple)
    index = path.spatial_index()
    # Neither a new list nor a too-short one can replace the checked points
    # under the index built from them.
    with pytest.raises(dataclasses.FrozenInstanceError):
        path.points = [(0.0, 0.0), (0.0, 0.0)]
    points.append((3.0, 1.0))
    assert len(path) == 3
    assert path.spatial_index() is index and index.xs.tolist() == [0.0, 1.0, 2.0]


def test_waypoint_path_builds_its_own_index_once():
    path = arc_path()
    other = WaypointPath([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
    # Another path's index cannot be handed in, so queries always scan this path.
    with pytest.raises(TypeError):
        WaypointPath(path.points, other.spatial_index())
    with pytest.raises(TypeError):
        WaypointPath(path.points, _index=other.spatial_index())
    index = path.spatial_index()
    assert path.spatial_index() is index
    assert index is not other.spatial_index()
    assert index.xs.tolist() == [x for x, _ in path.points]


@pytest.mark.parametrize(
    "points, bad",
    [
        ([(math.nan, 0.0), (1.0, 0.0), (2.0, 0.0)], 0),
        ([(0.0, 0.0), (1.0, 0.0), (math.inf, 0.0)], 2),
        ([(0.0, 0.0), (1.0, math.nan), (2.0, 0.0)], 1),
    ],
)
def test_waypoint_path_names_the_non_finite_waypoint(points, bad):
    with pytest.raises(ValueError, match=rf"^waypoint {bad} is not finite$"):
        WaypointPath(points)


def test_index_matches_linear_scan():
    rng = np.random.default_rng(53)
    pts = rng.uniform(-100.0, 100.0, size=(500, 2))
    index = build_index(WaypointPath([tuple(p) for p in pts]))
    for _ in range(1000):
        q = rng.uniform(-120.0, 120.0, size=2)
        expected = int(np.argmin(((pts - q) ** 2).sum(axis=1)))
        assert index.nearest_group([tuple(q)])[0] == expected


def nearest_waypoint_oracle(query, points):
    # Strict-< scan with Python floats, whose `**` calls libm pow.
    qx, qy = query
    return min(range(len(points)), key=lambda i: (points[i][0] - qx) ** 2 + (points[i][1] - qy) ** 2)


@pytest.mark.parametrize(
    "query, a, b",
    [
        # b is a rotated 90 degrees about the query: the two squared
        # distances agree to the last bit, where `**` and a multiply can
        # round them in opposite directions.
        ((-6.59058364241705, 5.527065425681911), (8.989228999491239, -0.01481864957576029), (-1.0486995671593782, 21.106878067590202)),
        ((-8.113028004045637, 6.985876495542907), (-3.881499811923823, -8.819993863822646), (7.692842355319916, 11.217404687664722)),
        ((7.008818525461436, -6.253699690922239), (-4.317399417458303, 9.05975918985311), (-8.304640355313914, -17.579917633841976)),
    ],
)
def test_index_matches_scalar_scan_on_near_ties(query, a, b):
    for pts in ([a, b, (100.0, 100.0)], [b, a, (100.0, 100.0)]):
        assert build_index(WaypointPath(pts)).nearest_group([query])[0] == nearest_waypoint_oracle(query, pts)


def test_index_tie_breaks_to_lowest_index():
    index = build_index(WaypointPath([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]))
    # (0.5, 0.3) is exactly equidistant from waypoints 0 and 1.
    assert index.nearest_group([(0.5, 0.3)])[0] == 0
    assert index.nearest_group([(1.5, -0.25)])[0] == 1


def test_index_many_duplicate_coordinates():
    # Heavy x-coordinate ties: many queries are equidistant from several waypoints.
    pts = [(float(i % 5), float(i // 5)) for i in range(25)]
    index = build_index(WaypointPath(pts))
    arr = np.array(pts)
    rng = np.random.default_rng(59)
    for _ in range(200):
        q = rng.uniform(-1.0, 5.0, size=2)
        d2 = ((arr - q) ** 2).sum(axis=1)
        expected = int(np.argmin(d2))
        assert index.nearest_group([tuple(q)])[0] == expected


def test_loop_seam_resolves_to_first_waypoint_and_clamps():
    # waypoint_arc.txt closes on itself: waypoints 0 and 180 are both the origin.
    path = load_waypoints(str(CONFIG_DIR / "waypoint_arc.txt"))
    assert path.points[0] == path.points[-1] == (0.0, 0.0)
    index = build_index(path)
    assert index.nearest_group([(0.0, -0.1)])[0] == 0
    # The probe (-1 + 1, -0.1) lands on the same seam query and clamps to 1,
    # so the local triple never wraps across the seam.
    assert select_lookahead_waypoint(path, Pose(-1.0, -0.1, 0.0), 1.0) == 1


@st.composite
def probe_groups(draw):
    """Waypoints and a group of probes around the first: (points, probes).

    Either random points with probes spread from 0 to 1e3 around an anchor,
    or an integer grid with half-integer probes, where exact ties abound.
    Everything is then scaled, up to coordinates of 1e150 or down to ones
    whose squares are subnormal or underflow.
    """
    scale = draw(st.sampled_from([1.0, 1e-3, 1e147, 1e-157, 1e-161]))
    if draw(st.booleans()):
        cell = st.integers(-4, 4).map(float)
        points = draw(st.lists(st.tuples(cell, cell), min_size=1, max_size=30))
        half = st.integers(-10, 10).map(lambda v: v / 2.0)
        probes = draw(st.lists(st.tuples(half, half), min_size=1, max_size=7))
    else:
        coord = st.floats(-1e3, 1e3, allow_nan=False)
        points = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=30))
        ax, ay = draw(st.tuples(coord, coord))
        spread = draw(st.sampled_from([0.0, 1e-8, 1e-4, 1e-2, 1.0, 1e3]))
        unit = st.floats(-1.0, 1.0, allow_nan=False)
        offsets = draw(st.lists(st.tuples(unit, unit), max_size=6))
        probes = [(ax, ay)] + [(ax + spread * u, ay + spread * v) for u, v in offsets]
    return (
        [(x * scale, y * scale) for x, y in points],
        [(x * scale, y * scale) for x, y in probes],
    )


@settings(max_examples=500, derandomize=True, deadline=None)
@given(probe_groups())
# Probes 0.9 and 1.6 have different nearest waypoints, so the shortlist holds
# more than one; (0.5, 0) is exactly between waypoints 0 and 1.
@example(([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)], [(0.9, 0.0), (1.6, 0.0), (0.5, 0.0)]))
# A shortlist of one waypoint, which answers every probe.
@example(([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)], [(1.0, 0.1), (1.0, 0.2), (1.1, 0.0)]))
# Two identical probes, each exactly between waypoints 1 and 2.
@example(([(0.0, 0.0), (1.0, 1.0), (1.0, -1.0), (2.0, 0.0)], [(1.0, 0.0), (1.0, 0.0), (0.5, 0.0)]))
# The second probe ties waypoints 0 and 1 exactly, and waypoint 0 sits exactly
# d0 + 2 delta from the first probe, so an unwidened radius rounds it out ...
@example(([(87.0, 227.0), (-51.0, -49.0)], [(-17.0, 19.0), (18.0, 89.0)]))
# ... and with subnormal squares a relative widening alone is not enough.
@example(([(2.4e-160, 1.65e-160), (1.8e-161, -5.7e-161)], [(2.7e-161, -4.8e-161), (1.29e-160, 5.4e-161)]))
def test_nearest_group_equals_nearest_per_probe(group):
    points, probes = group
    index = WaypointIndex(points)
    got = index.nearest_group(probes)
    assert got == [index.nearest_group([q])[0] for q in probes]
    assert got == [nearest_waypoint_oracle(q, points) for q in probes]


def test_select_lookahead_waypoint_probes_ahead_and_clamps():
    path = WaypointPath([(float(i), 0.0) for i in range(10)])
    assert select_lookahead_waypoint(path, Pose(3.1, 0.0, 0.0), 1.0) == 4
    # Probing backwards from the start clamps to index 1.
    assert select_lookahead_waypoint(path, Pose(0.0, 0.0, math.pi), 1.0) == 1
    # Probing past the end clamps to len-2.
    assert select_lookahead_waypoint(path, Pose(9.0, 0.0, 0.0), 3.0) == 8


def test_menger_curvature_signs_and_collinear():
    assert menger_curvature((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0)) == pytest.approx(1.0, rel=1e-12)
    assert menger_curvature((1.0, 0.0), (0.0, -1.0), (-1.0, 0.0)) == pytest.approx(-1.0, rel=1e-12)
    assert menger_curvature((0.0, 0.0), (1.0, 1.0), (2.0, 2.0)) == 0.0
    with pytest.raises(CoincidentPoints):
        menger_curvature((0.0, 0.0), (0.0, 0.0), (1.0, 0.0))


def test_menger_curvature_on_sampled_circles():
    rng = np.random.default_rng(61)
    for _ in range(300):
        R = rng.uniform(0.5, 50.0)
        cx, cy = rng.uniform(-20.0, 20.0, size=2)
        t0 = rng.uniform(0.0, 2 * math.pi)
        t1 = t0 + rng.uniform(0.1, 1.0)
        t2 = t1 + rng.uniform(0.1, 1.0)
        pts = [(cx + R * math.cos(t), cy + R * math.sin(t)) for t in (t0, t1, t2)]
        kappa = menger_curvature(*pts)
        assert abs(kappa) == pytest.approx(1.0 / R, abs=1e-9)
        assert kappa > 0  # increasing angle walks counter-clockwise
        kappa_cw = menger_curvature(*pts[::-1])
        assert kappa_cw == pytest.approx(-kappa, rel=1e-12)


def test_circumcenter_against_bisector_oracle():
    rng = np.random.default_rng(67)
    checked = 0
    while checked < 300:
        pts = [tuple(rng.uniform(-50.0, 50.0, size=2)) for _ in range(3)]
        det = (pts[1][0] - pts[0][0]) * (pts[2][1] - pts[1][1]) - (pts[1][1] - pts[0][1]) * (
            pts[2][0] - pts[1][0]
        )
        # Skip glancing triangles where both routes lose digits the same way.
        if abs(det) < 500.0:
            continue
        center = circumcenter(*pts)
        ox, oy = circumcenter_oracle(*pts)
        assert center[0] == pytest.approx(ox, rel=1e-9, abs=1e-6)
        assert center[1] == pytest.approx(oy, rel=1e-9, abs=1e-6)
        checked += 1


def test_reduce_collinear_path_gives_matching_line():
    path = WaypointPath([(float(i), 2.0 * i + 1.0) for i in range(8)])
    road = reduce_to_local_road(path, Pose(2.0, 5.0, math.atan(2.0)), 1.0)
    assert isinstance(road, StraightLine)
    assert road.slope == pytest.approx(2.0, abs=1e-12)
    assert road.intercept == pytest.approx(1.0, abs=1e-12)


def test_reduce_arc_path_recovers_circle():
    path = arc_path()
    road = reduce_to_local_road(path, Pose(0.0, 0.5, 0.0), 1.0)
    assert isinstance(road, Circle)
    assert road.cx == pytest.approx(0.0, abs=1e-6)
    assert road.cy == pytest.approx(5.0, abs=1e-6)
    assert road.radius == pytest.approx(5.0, abs=1e-6)


def test_reduce_huge_radius_arc_falls_back_to_line():
    # Curvature 5e-4 sits below the default straight threshold of 1e-3.
    path = arc_path(radius=2000.0, cy=2000.0, step_deg=0.02, n=20)
    road = reduce_to_local_road(path, Pose(0.0, 0.1, 0.0), 1.0)
    assert isinstance(road, StraightLine)


def test_reduce_is_rigid_motion_equivariant():
    rng = np.random.default_rng(71)
    base = arc_path()
    base_road = reduce_to_local_road(base, Pose(0.0, 0.5, 0.0), 1.0)
    assert isinstance(base_road, Circle)
    for _ in range(50):
        theta = rng.uniform(-math.pi, math.pi)
        tx, ty = rng.uniform(-30.0, 30.0, size=2)
        c, s = math.cos(theta), math.sin(theta)

        def move(p):
            return (c * p[0] - s * p[1] + tx, s * p[0] + c * p[1] + ty)

        moved = WaypointPath([move(p) for p in base.points])
        pose = Pose(*move((0.0, 0.5)), theta)
        road = reduce_to_local_road(moved, pose, 1.0)
        assert isinstance(road, Circle)
        ex, ey = move((base_road.cx, base_road.cy))
        assert road.cx == pytest.approx(ex, abs=1e-9)
        assert road.cy == pytest.approx(ey, abs=1e-9)
        assert road.radius == pytest.approx(base_road.radius, abs=1e-9)


def test_reduce_line_fit_is_rigid_motion_equivariant():
    # Near-collinear points: the orthogonal fit must move with the frame.
    pts = [(0.0, 0.0), (1.0, 1e-5), (2.0, 0.0), (3.0, 1e-5), (4.0, 0.0)]
    base = WaypointPath(pts)
    pose = Pose(1.0, 0.1, 0.0)
    base_road = reduce_to_local_road(base, pose, 1.0)
    assert isinstance(base_road, StraightLine)
    rng = np.random.default_rng(73)
    for _ in range(50):
        theta = rng.uniform(-1.0, 1.0)
        tx, ty = rng.uniform(-10.0, 10.0, size=2)
        c, s = math.cos(theta), math.sin(theta)

        def move(p):
            return (c * p[0] - s * p[1] + tx, s * p[0] + c * p[1] + ty)

        moved = WaypointPath([move(p) for p in pts])
        road = reduce_to_local_road(moved, Pose(*move((1.0, 0.1)), theta), 1.0)
        assert isinstance(road, StraightLine)
        # Compare the lines geometrically: moved base-line points must sit on it.
        for x in (-1.0, 1.0, 3.0):
            gx, gy = move((x, base_road.slope * x + base_road.intercept))
            assert gy == pytest.approx(road.slope * gx + road.intercept, abs=1e-9)


def test_load_waypoints(tmp_path):
    p = tmp_path / "wp.txt"
    p.write_text("# header comment\n0.0,0.0\n1.0,0.5  # inline\n\n2.0,1.0\n")
    path = load_waypoints(str(p))
    assert path.points == ((0.0, 0.0), (1.0, 0.5), (2.0, 1.0))

    bad = tmp_path / "bad.txt"
    bad.write_text("0.0,0.0\n1.0\n2.0,1.0\n")
    with pytest.raises(ValueError):
        load_waypoints(str(bad))

    nan = tmp_path / "nan.txt"
    nan.write_text("0.0,0.0\n1.0,nan\n2.0,1.0\n")
    with pytest.raises(ValueError):
        load_waypoints(str(nan))

    short = tmp_path / "short.txt"
    short.write_text("0.0,0.0\n1.0,0.0\n")
    with pytest.raises(TooFewWaypoints):
        load_waypoints(str(short))

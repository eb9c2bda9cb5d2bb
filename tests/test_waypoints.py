import dataclasses
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from utpursuit import (
    Circle,
    CoincidentPoints,
    Controller,
    StraightLine,
    TooFewWaypoints,
    VerticalRoad,
    WaypointIndex,
    WaypointPath,
    build_index,
    load_waypoints,
    local_road,
    menger_curvature,
    reduce_to_local_road,
    run_batch,
    select_lookahead_waypoint,
)
from utpursuit import waypoints
from utpursuit.config import parse_config
from utpursuit.waypoints import (
    _LIST_BUDGET,
    _MAX_CELLS,
    _SHORTLIST_ABS,
    _SHORTLIST_REL,
    MIN_WAYPOINT_SPACING,
    circumcenter,
)

from conftest import CONFIG_DIR, stadium_path
from test_roads import nearest_point_on_polyline_oracle


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


def test_waypoint_path_copies_each_point():
    rows = [[0.0, 0.0], [1.0, 0.0], [2.0, 0.5]]
    path = WaypointPath(rows)
    index = path.spatial_index()
    # Moving a row the caller kept moves no waypoint: not the path's, not its index's.
    rows[1][0] = 0.0
    assert path.points == ((0.0, 0.0), (1.0, 0.0), (2.0, 0.5))
    assert path.spatial_index() is index and index.xs.tolist() == [0.0, 1.0, 2.0]
    # A row that is not a pair is still rejected.
    for bad in ([0.0, 0.0, 0.0], [0.0]):
        with pytest.raises(ValueError):
            WaypointPath([[0.0, 0.0], bad, [2.0, 0.5]])


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


def test_waypoint_coordinates_are_bounded_by_1e150():
    # 1e150 keeps every squared distance between waypoints finite; it is allowed, one ulp more is not.
    over = math.nextafter(1e150, math.inf)
    WaypointPath([(0.0, 0.0), (1e150, -1e150), (-1e150, 1e150)])
    for bad in ((over, 0.0), (0.0, -over), (-1e160, 1e160)):
        with pytest.raises(ValueError, match=r"^waypoint 1 has a coordinate over 1e\+150 in magnitude$"):
            WaypointPath([(0.0, 0.0), bad, (2.0, 0.0)])


def test_load_waypoints_rejects_a_coordinate_over_1e150(tmp_path):
    wp = tmp_path / "far.txt"
    wp.write_text("0,0\n1,0\n2,0\n3,0\n1e160,1e160\n")
    with pytest.raises(ValueError, match=r"^waypoint 4 has a coordinate over 1e\+150 in magnitude$"):
        load_waypoints(str(wp))


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
    assert select_lookahead_waypoint(path, (-1.0, -0.1, 0.0), 1.0) == 1


@st.composite
def probe_groups(draw):
    """Waypoints and a group of probes around the first: (points, probes).

    Either random points with probes spread from 0 to 1e3 around an anchor,
    or an integer grid with half-integer probes, where exact ties abound.
    Everything is then scaled, up to coordinates of 1e150 or down by 1e-3;
    a path rejects waypoints closer than 1e-9 m, so no further.
    """
    scale = draw(st.sampled_from([1.0, 1e-3, 1e147]))
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
# The second probe ties waypoints 0 and 1 exactly; waypoint 2 is far from both.
@example(([(87.0, 227.0), (-51.0, -49.0), (1e3, 1e3)], [(-17.0, 19.0), (18.0, 89.0)]))
# Squares in the subnormal range: waypoints 0 and 2, 1e-160 m apart, are
# not consecutive, so the path keeps both.
@example(([(2.4e-160, 1.65e-160), (1.0, 0.0), (1.8e-161, -5.7e-161)], [(2.7e-161, -4.8e-161), (1.29e-160, 5.4e-161)]))
def test_nearest_group_equals_nearest_per_probe(group):
    points, probes = group
    try:
        index = WaypointPath(points).spatial_index()
    except (TooFewWaypoints, ValueError):
        assume(False)
    got = index.nearest_group(probes)
    assert got == [index.nearest_group([q])[0] for q in probes]
    assert got == [nearest_waypoint_oracle(q, points) for q in probes]


def test_waypoint_spacing_threshold_is_decided_to_the_ulp():
    above = math.nextafter(MIN_WAYPOINT_SPACING, 1.0)
    # Exactly the minimum spacing apart is too close, one ulp more is not.
    for x0 in (0.0, MIN_WAYPOINT_SPACING):
        with pytest.raises(ValueError, match=r"^waypoints 1 and 2 are closer than 1e-09 m$"):
            WaypointPath([(0.0, 5.0), (x0, 0.0), (x0 + MIN_WAYPOINT_SPACING, 0.0), (1.0, 0.0)])
    WaypointPath([(0.0, 5.0), (0.0, 0.0), (above, 0.0), (1.0, 0.0)])
    # The same pairs along y, and in coordinates that are not floats.
    with pytest.raises(ValueError, match=r"^waypoints 0 and 1 are closer"):
        WaypointPath([(2.0, 0.0), (2.0, MIN_WAYPOINT_SPACING), (1.0, 0.0)])
    WaypointPath([(2.0, 0.0), (2.0, above), (1.0, 0.0)])
    with pytest.raises(ValueError, match=r"^waypoints 0 and 1 are closer"):
        WaypointPath([(np.float64(0.0), 0.0), (np.float64(MIN_WAYPOINT_SPACING), 0), (1, 0)])


def test_waypoint_path_rejects_a_string_and_names_the_first_bad_row():
    # A coordinate given as a string is a TypeError, not parsed as a number.
    with pytest.raises(TypeError):
        WaypointPath([(0.0, 0.0), ("1.0", 0.0), (2.0, 0.0)])
    # The first bad row is named, whatever is wrong with a later one.
    with pytest.raises(ValueError, match=r"^waypoint 1 is not finite$"):
        WaypointPath([(0.0, 0.0), (math.inf, 0.0), (2.0, math.nan), (3.0, 0.0)])
    with pytest.raises(ValueError, match=r"^waypoint 1 is not finite$"):
        WaypointPath([(0.0, 0.0), (math.nan, 0.0), (2.0, 0.0, 1.0), (3.0, 0.0)])
    with pytest.raises(ValueError, match="unpack"):
        WaypointPath([(0.0, 0.0), (1.0,), (math.nan, 0.0)])


@st.composite
def grid_stress_paths(draw):
    """Waypoints that stress the index's fine cells, and queries around them: (kind, points, queries).

    A unit-step walk with one segment 100 to 10^4 times longer; the same walk
    on to a waypoint 3.7e19 m away, more than _MAX_CELLS median segments
    off, which widens the fine cells; or a zigzag between two spots, which
    puts every waypoint in two fine cells.  The queries sit around the
    waypoints at spreads from 0 to 30 m, with one far off.
    """
    kind = draw(st.sampled_from(["long_segment", "wide", "zigzag"]))
    angle = st.floats(0.0, 2.0 * math.pi)
    jitter = st.floats(-0.1, 0.1)
    if kind == "zigzag":
        points = [(i % 2 + draw(jitter), draw(jitter)) for i in range(draw(st.integers(3, 30)))]
    else:
        # The wide path has more unit segments than long ones, so its median segment is 1 m.
        points = [(0.0, 0.0)]
        for _ in range(draw(st.integers(5 if kind == "wide" else 2, 30))):
            a = draw(angle)
            points.append((points[-1][0] + math.cos(a), points[-1][1] + math.sin(a)))
        if kind == "wide":
            # Last, so the long segment starts near the queries: a foot measured
            # from a waypoint 3.7e19 m away is rounded to nothing like the point.
            points.append((3.7e19, draw(st.sampled_from([0.0, 3.7e19]))))
        else:
            i, a, jump = draw(st.integers(0, len(points) - 1)), draw(angle), draw(st.sampled_from([1e2, 1e4]))
            points[i + 1 :] = [(px + jump * math.cos(a), py + jump * math.sin(a)) for px, py in points[i + 1 :]]
    spread = draw(st.sampled_from([0.0, 1e-3, 0.3, 3.0, 30.0]))
    unit = st.floats(-1.0, 1.0)
    queries = [(x + spread * draw(unit), y + spread * draw(unit)) for x, y in points]
    queries.append((draw(st.floats(-1e6, 1e6)), draw(st.floats(-1e6, 1e6))))
    return kind, points, queries


@settings(max_examples=300, derandomize=True, deadline=None)
@given(grid_stress_paths())
def test_grid_queries_match_the_scalar_oracles(case):
    kind, points, queries = case
    index = WaypointPath(points).spatial_index()
    # Each kind reaches the part of the fine cells it is meant to stress.
    if kind == "zigzag":
        assert {index._cell(*p) for p in points} <= {(0, 0), (1, 0)}
    for q in queries:
        assert index.nearest_group([q]) == [nearest_waypoint_oracle(q, points)]
        assert index.project(q) == nearest_point_on_polyline_oracle(q, SimpleNamespace(points=points))
    assert index.nearest_group(queries) == [nearest_waypoint_oracle(q, points) for q in queries]
    if kind == "wide":
        # Fine cells widened to span the path in _MAX_CELLS - 1 widths, so
        # every waypoint lands in one, and lists read as on any path.
        assert index._fine >= 3.7e19 / _MAX_CELLS and None not in {index._cell(*p) for p in points}
        assert index._waypoint_lists and index._segment_lists


def _count_scans(monkeypatch, index):
    calls = []
    scan = index._near
    monkeypatch.setattr(index, "_near", lambda qx, qy, *margin: calls.append((qx, qy)) or scan(qx, qy, *margin))
    return calls


def test_grid_queries_around_the_stadium_match_the_scalar_oracles(monkeypatch):
    path = stadium_path()
    index = path.spatial_index()
    scans = _count_scans(monkeypatch, index)
    rng = np.random.default_rng(101)
    for _ in range(200):
        x, y = path.points[rng.integers(len(path))]
        q = (float(x + rng.normal(0.0, 0.5)), float(y + rng.normal(0.0, 0.5)))
        assert index.nearest_group([q]) == [nearest_waypoint_oracle(q, path.points)]
        assert index.project(q) == nearest_point_on_polyline_oracle(q, path)
    # Every scan built a list that its fine cell kept: no query scanned itself.
    assert len(scans) == len(index._waypoint_lists) + len(index._segment_lists)


def test_loop_centre_query_takes_the_numpy_scan(monkeypatch):
    # The stadium's centre is 50 m, 10^4 median segments, from every point
    # of its legs: each query builds its fine cell's list from one scan of
    # the cell's centre; asked again, neither query scans.
    path = stadium_path()
    index = path.spatial_index()
    scans = _count_scans(monkeypatch, index)
    centre = (92.9 / 2, 50.0)
    c = index._centre(index._cell(*centre))[:2]
    for _ in range(2):
        assert index.project(centre) == nearest_point_on_polyline_oracle(centre, path)
        assert index.nearest_group([centre]) == [nearest_waypoint_oracle(centre, path.points)]
        assert scans == [c, c]
        monkeypatch.setattr(index, "_near", _no_scan)


def test_a_cell_past_the_rings_cap_keeps_its_lists_and_scans_once(monkeypatch):
    # The stadium's centre lies 50 m from the path: its fine cell keeps a
    # non-empty list of each kind, each built by one scan of the cell's
    # centre and charged its length, and no later query there scans.
    path = stadium_path()
    index = path.spatial_index()
    scans = _count_scans(monkeypatch, index)
    centre = (92.9 / 2, 50.0)
    key = index._cell(*centre)
    c = index._centre(key)[:2]
    budget = index._budget
    for _ in range(3):
        assert index.project(centre) == nearest_point_on_polyline_oracle(centre, path)
        assert index.nearest_group([centre]) == [nearest_waypoint_oracle(centre, path.points)]
    assert list(index._waypoint_lists) == [key] and list(index._segment_lists) == [key]
    waypoint_list, segment_list = index._waypoint_lists[key], index._segment_lists[key]
    assert waypoint_list and segment_list
    assert index._budget == budget - len(waypoint_list) - len(segment_list)
    assert scans == [c, c]


@pytest.mark.parametrize("centre_first", [False, True])
def test_a_group_that_meets_a_marked_cell_takes_one_group_scan(centre_first, monkeypatch):
    # Two probes near the stadium's lower leg read their fine cells' lists.
    # A third, at the loop's centre or 2 m below the lower leg, lies far from
    # the path: its cell's waypoint list is built by one scan, by the group
    # itself or by a lone query beforehand, and kept, as every new cell's
    # is.  Asked again, the group and project there scan nothing.
    path = stadium_path()
    listed = [(40.0, 0.01), (40.05, -0.01)]
    for third in [(92.9 / 2, 50.0), (40.0, -2.0)]:
        index = WaypointPath(path.points).spatial_index()
        scans = _count_scans(monkeypatch, index)
        probes = [listed[0], third, listed[1]]
        expected = [nearest_waypoint_oracle(q, path.points) for q in probes]
        foot = nearest_point_on_polyline_oracle(third, path)
        if centre_first:
            assert index.nearest_group([third]) == [expected[1]]
        assert index.nearest_group(probes) == expected
        # One scan of each new fine cell's centre, in the order its first probe came.
        cells = dict.fromkeys(index._cell(*q) for q in [third] * centre_first + probes)
        assert scans == [index._centre(key)[:2] for key in cells]
        assert all(index._waypoint_lists[index._cell(*q)] for q in probes)
        assert index.project(third) == foot
        assert index._segment_lists[index._cell(*third)]
        monkeypatch.setattr(index, "_near", _no_scan)
        assert index.nearest_group(probes) == expected
        assert index.project(third) == foot


def test_queries_past_the_rings_cap_read_their_cells_lists_on_a_second_pass(monkeypatch):
    # Queries scattered 3 m around the stadium's waypoints, so that many lie
    # over 32 median segments, 1.6 m, from the path.  A second pass answers
    # as a fresh index and the scalar oracles do, and no query whose cell
    # kept its lists scans again.
    path = stadium_path()
    index = path.spatial_index()
    far = 32 * index._fine
    rng = np.random.default_rng(113)
    queries = []
    for _ in range(60):
        x, y = path.points[rng.integers(len(path))]
        queries.append((float(x + rng.normal(0.0, 3.0)), float(y + rng.normal(0.0, 3.0))))
    for q in queries:
        index.project(q)
        index.nearest_group([q])
    scans = _count_scans(monkeypatch, index)
    far_off = 0
    for q in queries:
        fresh = WaypointPath(path.points).spatial_index()
        expected = nearest_waypoint_oracle(q, path.points)
        assert index.nearest_group([q]) == fresh.nearest_group([q]) == [expected]
        assert index.project(q) == fresh.project(q) == nearest_point_on_polyline_oracle(q, path)
        key = index._cell(*q)
        if key in index._waypoint_lists and key in index._segment_lists:
            assert scans == [], (q, scans)
            far_off += math.dist(q, path.points[expected]) > far
        scans.clear()
    assert far_off >= 20


def test_queries_outside_the_grid_within_the_rings_cap_read_lists(monkeypatch):
    # 0.5 m and 2 m below the stadium's lower leg, 10 and 40 median segments
    # outside the waypoints' bounding box: both queries read their cell's
    # lists, and asked again, alone or in a group with two probes on the leg,
    # scan nothing.
    path = stadium_path()
    for q in [(40.0, -0.5), (40.0, -2.0)]:
        index = WaypointPath(path.points).spatial_index()
        key = index._cell(*q)
        group = [(40.0, 0.01), q, (40.05, -0.01)]
        for _ in range(2):
            assert index.project(q) == nearest_point_on_polyline_oracle(q, path)
            assert index.nearest_group([q]) == [nearest_waypoint_oracle(q, path.points)]
            assert index.nearest_group(group) == [nearest_waypoint_oracle(p, path.points) for p in group]
            monkeypatch.setattr(index, "_near", _no_scan)
        assert index._segment_lists[key] and index._waypoint_lists[key]


def near_oracle(points, q, extra, segments=False):
    """_near by its definition, in plain Python: (d, indices).

    d is the least squared distance's square root times _SHORTLIST_REL; the
    waypoints within d + extra are those whose square is at most the
    square of d + extra, and a segment is listed when an end j is within
    d + extra + reach[j], where reach[j] is half the longer segment at j,
    times _SHORTLIST_REL.  Every square is a multiply, as the scan's are.
    """
    qx, qy = q
    d2 = [(x - qx) * (x - qx) + (y - qy) * (y - qy) for x, y in points]
    d = math.sqrt(min(d2)) * _SHORTLIST_REL
    if not segments:
        return d, [j for j, q2 in enumerate(d2) if q2 <= (d + extra) * (d + extra)]
    steps = [(bx - ax, by - ay) for (ax, ay), (bx, by) in zip(points, points[1:])]
    half = [0.5 * math.sqrt(dx * dx + dy * dy) for dx, dy in steps]
    reach = [max(a, b) * _SHORTLIST_REL for a, b in zip([0.0] + half, half + [0.0])]
    marked = [q2 <= (d + extra + r) * (d + extra + r) for q2, r in zip(d2, reach)]
    return d, [k for k in range(len(points) - 1) if marked[k] or marked[k + 1]]


@st.composite
def near_cases(draw):
    """A path, queries and margins for _near: (points, queries, extras).

    Random points, or a circle of 3 to 60 waypoints closed on itself, its
    last waypoint its first, queried at its centre and at the seam.  The
    queries sit on and around the waypoints at spreads from 0 to 100 m, with
    one far off; the margins are 0, _SHORTLIST_ABS, a random one and the
    longest reach.
    """
    coord = st.floats(-1e3, 1e3)
    if draw(st.booleans()):
        n, radius, cx, cy = draw(st.integers(3, 60)), draw(st.floats(0.1, 100.0)), draw(coord), draw(coord)
        angles = [2.0 * math.pi * k / n for k in range(n)]
        points = [(cx + radius * math.cos(a), cy + radius * math.sin(a)) for a in angles]
        points.append(points[0])
        queries = [(cx, cy), points[0]]
    else:
        points = draw(st.lists(st.tuples(coord, coord), min_size=3, max_size=40))
        queries = []
    spread = draw(st.sampled_from([0.0, 1e-3, 1.0, 100.0]))
    unit = st.floats(-1.0, 1.0)
    for _ in range(draw(st.integers(1, 6))):
        x, y = points[draw(st.integers(0, len(points) - 1))]
        queries.append((x + spread * draw(unit), y + spread * draw(unit)))
    queries.append((draw(st.floats(-1e6, 1e6)), draw(st.floats(-1e6, 1e6))))
    return points, queries, [0.0, _SHORTLIST_ABS, draw(st.floats(0.0, 10.0))]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(near_cases())
def test_near_equals_its_definition(case):
    points, queries, extras = case
    try:
        index = WaypointPath(points).spatial_index()
    except ValueError:
        assume(False)
    for q in queries:
        for extra in extras + [float(index.reach.max())]:
            assert index._near(*q, extra) == near_oracle(points, q, extra)
            assert index._near(*q, extra, True) == near_oracle(points, q, extra, True)


@st.composite
def memo_cases(draw):
    """A path, queries around it and how each was placed: (points, [(where, query)]).

    The path is a random walk of steps from 0.05 to 2 m, evenly spaced or
    not, with one step 20 to 500 times the shortest among the others.  The
    queries sit near waypoints, at the centres of empty fine cells up to 32
    cells outside the waypoints' bounding box, on the long segment's
    midpoint, far from every waypoint, and 44 fine cells left of the box.
    """
    n = draw(st.integers(3, 40))
    if draw(st.booleans()):
        lengths = [draw(st.floats(0.05, 2.0))] * (n - 1)
    else:
        lengths = draw(st.lists(st.floats(0.05, 2.0), min_size=n - 1, max_size=n - 1))
    long = draw(st.integers(0, n - 2))
    lengths[long] = min(lengths) * draw(st.sampled_from([1.0, 20.0, 500.0]))
    points = [(draw(st.floats(-50.0, 50.0)), draw(st.floats(-50.0, 50.0)))]
    heading = draw(st.floats(0.0, 2.0 * math.pi))
    for length in lengths:
        heading += draw(st.floats(-1.5, 1.5))
        x, y = points[-1]
        points.append((x + length * math.cos(heading), y + length * math.sin(heading)))
    unit = st.floats(-1.0, 1.0)
    queries = []
    for _ in range(draw(st.integers(1, 6))):
        x, y = points[draw(st.integers(0, n - 1))]
        queries.append(("near", (x + 0.5 * draw(unit), y + 0.5 * draw(unit))))
    (ax, ay), (bx, by) = points[long], points[long + 1]
    queries.append(("long", ((ax + bx) / 2.0, (ay + by) / 2.0)))
    index = WaypointPath(points).spatial_index()
    x0, y0, fine = index._x0, index._y0, index._fine
    # Fine cells around the waypoints' bounding box, by their column and row.
    occupied = {index._cell(*p) for p in points}
    columns = math.floor((max(x for x, _ in points) - x0) / fine) + 1
    rows = math.floor((max(y for _, y in points) - y0) / fine) + 1
    for _ in range(draw(st.integers(1, 6))):
        i, j = draw(st.integers(-32, columns + 31)), draw(st.integers(-32, rows + 31))
        if (i, j) not in occupied:
            queries.append(("empty cell", (x0 + (i + 0.5) * fine, y0 + (j + 0.5) * fine)))
    beyond = 44 * fine
    queries.append(("outside", (x0 - beyond, y0 + draw(unit) * beyond)))
    queries.append(("far", (draw(st.sampled_from([-1e4, 1e4])), draw(st.floats(-1e4, 1e4)))))
    return points, queries


@settings(max_examples=200, derandomize=True, deadline=None)
@given(memo_cases())
def test_warm_queries_equal_fresh_ones_and_the_scalar_oracles(case):
    points, queries = case
    warm = WaypointPath(points)
    index = warm.spatial_index()
    for _ in range(2):
        for _, q in queries:
            fresh = WaypointPath(points).spatial_index()
            for extra in (0.0, 0.6, float(index.reach.max())):
                assert index._near(*q, extra) == fresh._near(*q, extra)
            assert index._near(*q, 0.0, True) == fresh._near(*q, 0.0, True)
            assert index.nearest_group([q]) == fresh.nearest_group([q]) == [nearest_waypoint_oracle(q, points)]
            assert index.project(q) == fresh.project(q) == nearest_point_on_polyline_oracle(q, warm)
    assert index.nearest_group([q for _, q in queries]) == [nearest_waypoint_oracle(q, points) for _, q in queries]
    # Each local road is derived once and kept, equal to a fresh path's; a
    # triple that has none raises on every call and is not kept.
    for w in range(1, len(points) - 1):
        outcomes = []
        for path in (warm, warm, WaypointPath(points)):
            try:
                outcomes.append(local_road(path, w))
            except (CoincidentPoints, VerticalRoad) as exc:
                outcomes.append(type(exc))
        kept, again, fresh = outcomes
        assert kept == again == fresh
        assert again is kept if w in warm._roads else isinstance(kept, type)


def test_both_scans_apply_each_waypoints_reach_margin():
    # 100 unit segments, then one of 100 m: within d + the longest reach, 50 m,
    # lie waypoints 0 to 55; within d + each one's own reach lie only 5 and 6,
    # the ends of segments 4 to 6.
    q = (5.3, 0.2)
    points = [(float(i), 0.0) for i in range(101)] + [(200.0, 0.0)]
    index = WaypointPath(points).spatial_index()
    d, near = index._near(*q, 0.0, True)
    assert near == [4, 5, 6]
    assert index._near(*q, float(index.reach.max()))[1] == list(range(56))
    # With a last segment of 10 m, the waypoints within d + 5 m are 0 to 10,
    # and the same two are within their own reach.
    points[-1] = (110.0, 0.0)
    index = WaypointPath(points).spatial_index()
    assert index._near(*q, 0.0, True) == (d, [4, 5, 6])
    assert index._near(*q, float(index.reach.max()))[1] == list(range(11))


class _CountingPoints(tuple):
    """A path's points, or a cell's list, that count their reads by index, and the loops over them."""

    reads = loops = 0

    def __getitem__(self, i):
        self.reads += 1
        return tuple.__getitem__(self, i)

    def __iter__(self):
        self.loops += 1
        return tuple.__iter__(self)


def _no_scan(*args):
    raise AssertionError(f"scanned at {args}")


def test_a_second_batch_on_a_dense_arc_builds_no_list_and_scans_nothing(monkeypatch):
    # configs/waypoint_arc.txt's circle sampled every 0.02 degrees, 18,001
    # waypoints written to 9 decimals, under waypoint_arc.cfg's vehicle and
    # noise: a second batch of 3 seeds per controller on the same path gives
    # the first batch's rows, builds no list and makes no _near call.
    builds, scans = [], []
    for name in ("_build_waypoints", "_build_segments"):
        build = getattr(WaypointIndex, name)
        monkeypatch.setattr(WaypointIndex, name, lambda self, key, build=build: builds.append(key) or build(self, key))
    near = WaypointIndex._near

    def counted(self, qx, qy, *margin):
        scans.append((qx, qy))
        return near(self, qx, qy, *margin)

    monkeypatch.setattr(WaypointIndex, "_near", counted)
    arc = [math.radians(i * 0.02) for i in range(18001)]
    path = WaypointPath([(float(f"{5.0 * math.sin(t):.9f}"), float(f"{5.0 - 5.0 * math.cos(t):.9f}")) for t in arc])
    base = dataclasses.replace(parse_config(str(CONFIG_DIR / "waypoint_arc.cfg")), road=path)
    batches = []
    for _ in range(2):
        before, scanned = len(builds), len(scans)
        rows = [run_batch(dataclasses.replace(base, controller=c), 3, 5)[0] for c in (Controller.PP, Controller.UTPP)]
        batches.append((rows, len(builds) - before, len(scans) - scanned))
    (first, first_builds, _), (second, second_builds, second_scans) = batches
    assert second == first
    assert first_builds > 0 and second_builds == 0, (first_builds, second_builds)
    assert second_scans == 0


def test_project_loops_only_over_the_segments_near_the_query(monkeypatch):
    # 100 unit segments, then one of 100 m, whose reach of 50 m widens the
    # scan that builds the lists.  The query's fine cell is [5, 6) x [0, 1),
    # one median segment wide; its centre c = (5.5, 0.5) is D_c = 0.5 m from
    # the polyline, and 2h is the cell's diagonal, widened, about 1.414 m.  Only
    # segments 3 to 7 come within D_c + 2h of c: 1.58 m for 3 and 7, 2.55 m for 2 and 8.
    points = [(float(i), 0.0) for i in range(101)] + [(200.0, 0.0)]
    index = WaypointPath(points).spatial_index()
    q = (5.3, 0.2)
    expected = nearest_point_on_polyline_oracle(q, SimpleNamespace(points=points))
    assert index.project(q) == expected
    key = index._cell(*q)
    assert list(index._segment_lists) == [key] and index._waypoint_lists == {}
    segments = index._segment_lists[key]
    assert segments == tuple((float(k), 0.0, 1.0, 0.0) for k in range(3, 8))
    # Asked again, project loops once over that list and reads no waypoint
    # but points[0], the loop's starting value; it scans nothing.
    counted, listed = _CountingPoints(index.points), _CountingPoints(segments)
    monkeypatch.setattr(index, "points", counted)
    monkeypatch.setitem(index._segment_lists, key, listed)
    monkeypatch.setattr(index, "_near", _no_scan)
    assert index.project(q) == expected
    assert (counted.reads, listed.loops) == (1, 1)


@pytest.mark.parametrize("spread", [0.0, 1e-4, 0.3, 3.0])
def test_each_probe_reads_only_its_own_cells_list(spread, monkeypatch):
    # Five probes within 2 cm of the 10^4-waypoint stadium, 0.05 m apart, at
    # waypoints up to spread metres apart along it: however far apart they
    # are, each probe loops once over its own fine cell's waypoint list, no
    # other list and no waypoint of the path is read, and nothing is scanned.
    path = stadium_path()
    index = path.spatial_index()
    rng = np.random.default_rng(107)
    first, step = int(rng.integers(len(path) - 100)), round(spread / 0.05 / 4)
    probes = []
    for k in range(5):
        x, y = path.points[first + k * step]
        u, v = rng.uniform(-0.02, 0.02, 2)
        probes.append((float(x + u), float(y + v)))
    expected = index.nearest_group(probes)
    assert expected == [nearest_waypoint_oracle(q, path.points) for q in probes]
    keys = [index._cell(*q) for q in probes]
    assert None not in keys
    counted = {key: _CountingPoints(index._waypoint_lists[key]) for key in set(keys)}
    for key, listed in counted.items():
        monkeypatch.setitem(index._waypoint_lists, key, listed)
    points = _CountingPoints(index.points)
    monkeypatch.setattr(index, "points", points)
    monkeypatch.setattr(index, "_near", _no_scan)
    assert index.nearest_group(probes) == expected
    assert {key: listed.loops for key, listed in counted.items()} == {key: keys.count(key) for key in counted}
    assert points.reads == 0
    # The lists are short near the path, whatever the spread: each holds the
    # few waypoints within d_c + 2h of its cell's centre, 2h about 0.07 m here.
    assert all(len(listed) <= 6 for listed in counted.values())


@st.composite
def fine_cell_cases(draw):
    """A memo_cases or grid_stress_paths path, and queries on its fine cells: (points, queries).

    Around a few waypoints, a fine cell up to two cells away is picked; the
    queries sit on its lower-left corner and on its left and lower edges, on
    both sides of each (math.nextafter), and at its centre.  The path's own
    queries come too.
    """
    if draw(st.booleans()):
        points, placed = draw(memo_cases())
        queries = [q for _, q in placed]
    else:
        _, points, queries = draw(grid_stress_paths())
    index = WaypointPath(points).spatial_index()
    fine = index._fine
    for _ in range(draw(st.integers(1, 4))):
        x, y = points[draw(st.integers(0, len(points) - 1))]
        i = math.floor((x - index._x0) / fine) + draw(st.integers(-2, 2))
        j = math.floor((y - index._y0) / fine) + draw(st.integers(-2, 2))
        edge_x, edge_y = index._x0 + i * fine, index._y0 + j * fine
        xs = [math.nextafter(edge_x, -math.inf), edge_x, math.nextafter(edge_x, math.inf), edge_x + fine / 2]
        ys = [math.nextafter(edge_y, -math.inf), edge_y, math.nextafter(edge_y, math.inf), edge_y + fine / 2]
        queries += [(qx, qy) for qx in xs for qy in ys]
    return points, queries


@settings(max_examples=150, derandomize=True, deadline=None)
@given(fine_cell_cases())
def test_fine_cell_edges_and_centres_match_fresh_indexes_and_the_scalar_oracles(case):
    points, queries = case
    index = WaypointPath(points).spatial_index()
    built = []
    for name in ("_build_waypoints", "_build_segments"):
        build = getattr(index, name)
        setattr(index, name, lambda key, build=build, name=name: built.append((name, key)) or build(key))
    for _ in range(2):
        for q in queries:
            fresh = WaypointPath(points).spatial_index()
            assert index.nearest_group([q]) == fresh.nearest_group([q]) == [nearest_waypoint_oracle(q, points)]
            expected = nearest_point_on_polyline_oracle(q, SimpleNamespace(points=points))
            assert index.project(q) == fresh.project(q) == expected
    assert index.nearest_group(queries) == [nearest_waypoint_oracle(q, points) for q in queries]
    kept = {"_build_waypoints": index._waypoint_lists, "_build_segments": index._segment_lists}
    # Each kept list was built once, on the first query in its cell, and none is empty.
    assert all(built.count(b) == 1 for b in built if b[1] in kept[b[0]])
    assert all(found for lists in kept.values() for found in lists.values())
    # Each list holds the shared entries, in index order.
    segment_of = {id(e): k for k, e in enumerate(index._segment_entries) if e is not None}
    for found in index._waypoint_lists.values():
        assert all(e is index._waypoint_entries[e[2]] for e in found)
        assert [e[2] for e in found] == sorted({e[2] for e in found})
    for found in index._segment_lists.values():
        assert [segment_of[id(e)] for e in found] == sorted({segment_of[id(e)] for e in found})
    # Within the budget, which every kept entry is counted against.
    found = [*index._waypoint_lists.values(), *index._segment_lists.values()]
    assert index._budget == _LIST_BUDGET * len(points) - sum(map(len, found)) >= 0


def test_lists_stop_at_the_budget_and_later_queries_take_the_scan(monkeypatch):
    # A budget of one entry per waypoint, 181 for the arc, runs out after a
    # few dozen cells; queries in cells without lists then take the scan.
    monkeypatch.setattr(waypoints, "_LIST_BUDGET", 1)
    path = arc_path()
    index = path.spatial_index()
    rng = np.random.default_rng(109)
    cells = set()
    for _ in range(400):
        x, y = path.points[rng.integers(len(path))]
        q = (float(x + rng.normal(0.0, 0.3)), float(y + rng.normal(0.0, 0.3)))
        cells.add(index._cell(*q))
        assert index.nearest_group([q]) == [nearest_waypoint_oracle(q, path.points)]
        assert index.project(q) == nearest_point_on_polyline_oracle(q, path)
    entries = sum(map(len, index._waypoint_lists.values())) + sum(map(len, index._segment_lists.values()))
    assert index._budget == 0 and entries <= len(path)
    assert len(index._waypoint_lists) < len(cells) and len(index._segment_lists) < len(cells)
    # A group of five probes spread 0.3 m, some in cells without a list: each
    # probe takes its own scan, and each answer is the oracle's.
    x, y = path.points[90]
    probes = [(float(x + u), float(y + v)) for u, v in rng.uniform(-0.3, 0.3, (5, 2))]
    assert any(index._cell(*q) not in index._waypoint_lists for q in probes)
    assert index.nearest_group(probes) == [nearest_waypoint_oracle(q, path.points) for q in probes]
    # Once the budget is spent, a probe halfway between two waypoints of a
    # zigzag ties them exactly, whichever fine cell each lies in, and takes
    # the lower index; 1e-7 m towards the higher one, it takes that one.
    # Alone or in a group, each probe is decided over its own scan.
    line = WaypointPath([(float(40 - i), 0.5 * (i % 2)) for i in range(41)])
    index = line.spatial_index()
    index._budget = 0
    probes = [(x + 0.5 - shift, 0.25) for x in range(40) for shift in (0.0, 1e-7)]
    expected = [nearest_waypoint_oracle(q, line.points) for q in probes]
    assert [index.nearest_group([q])[0] for q in probes] == index.nearest_group(probes) == expected
    assert index._waypoint_lists == {}


def test_circumcenter_rejects_collinear_points():
    message = r"^no circumcircle through collinear points \(0\.0, 0\.0\), \(1\.0, 1\.0\), \(2\.0, 2\.0\)$"
    with pytest.raises(CoincidentPoints, match=message):
        circumcenter((0.0, 0.0), (1.0, 1.0), (2.0, 2.0))


def test_load_waypoints_names_the_line_of_an_unparsable_row(tmp_path):
    p = tmp_path / "wp.txt"
    p.write_text("0,0\n# a comment\na,b\n2,0\n", encoding="utf-8")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(p))}:3: could not convert string to float: 'a'$"):
        load_waypoints(str(p))


def test_select_lookahead_waypoint_probes_ahead_and_clamps():
    path = WaypointPath([(float(i), 0.0) for i in range(10)])
    assert select_lookahead_waypoint(path, (3.1, 0.0, 0.0), 1.0) == 4
    # Probing backwards from the start clamps to index 1.
    assert select_lookahead_waypoint(path, (0.0, 0.0, math.pi), 1.0) == 1
    # Probing past the end clamps to len-2.
    assert select_lookahead_waypoint(path, (9.0, 0.0, 0.0), 3.0) == 8


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
    road = reduce_to_local_road(path, (2.0, 5.0, math.atan(2.0)), 1.0)
    assert isinstance(road, StraightLine)
    assert road.slope == pytest.approx(2.0, abs=1e-12)
    assert road.intercept == pytest.approx(1.0, abs=1e-12)


def test_reduce_arc_path_recovers_circle():
    path = arc_path()
    road = reduce_to_local_road(path, (0.0, 0.5, 0.0), 1.0)
    assert isinstance(road, Circle)
    assert road.cx == pytest.approx(0.0, abs=1e-6)
    assert road.cy == pytest.approx(5.0, abs=1e-6)
    assert road.radius == pytest.approx(5.0, abs=1e-6)


def test_reduce_huge_radius_arc_falls_back_to_line():
    # Curvature 5e-4 sits below the default straight threshold of 1e-3.
    path = arc_path(radius=2000.0, cy=2000.0, step_deg=0.02, n=20)
    road = reduce_to_local_road(path, (0.0, 0.1, 0.0), 1.0)
    assert isinstance(road, StraightLine)


def test_reduce_is_rigid_motion_equivariant():
    rng = np.random.default_rng(71)
    base = arc_path()
    base_road = reduce_to_local_road(base, (0.0, 0.5, 0.0), 1.0)
    assert isinstance(base_road, Circle)
    for _ in range(50):
        theta = rng.uniform(-math.pi, math.pi)
        tx, ty = rng.uniform(-30.0, 30.0, size=2)
        c, s = math.cos(theta), math.sin(theta)

        def move(p):
            return (c * p[0] - s * p[1] + tx, s * p[0] + c * p[1] + ty)

        moved = WaypointPath([move(p) for p in base.points])
        pose = (*move((0.0, 0.5)), theta)
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
    pose = (1.0, 0.1, 0.0)
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
        road = reduce_to_local_road(moved, (*move((1.0, 0.1)), theta), 1.0)
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

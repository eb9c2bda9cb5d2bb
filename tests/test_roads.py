import math

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from utpursuit import WaypointPath, load_waypoints
from utpursuit.roads import nearest_point_on_polyline
from utpursuit.waypoints import MIN_WAYPOINT_SPACING

from conftest import CONFIG_DIR, stadium_path


def nearest_point_on_polyline_oracle(point, path):
    # Reference: a scalar loop over every segment, in Python floats.
    px, py = point
    best_d2 = math.inf
    best = path.points[0]
    for (x0, y0), (x1, y1) in zip(path.points, path.points[1:]):
        dx, dy = x1 - x0, y1 - y0
        t = ((px - x0) * dx + (py - y0) * dy) / (dx * dx + dy * dy)
        t = min(1.0, max(0.0, t))
        qx, qy = x0 + t * dx, y0 + t * dy
        d2 = (px - qx) ** 2 + (py - qy) ** 2
        if d2 < best_d2:
            best_d2, best = d2, (qx, qy)
    return best


def test_projection_matches_scalar_loop_around_waypoint_arc():
    path = load_waypoints(str(CONFIG_DIR / "waypoint_arc.txt"))
    rng = np.random.default_rng(83)
    for _ in range(2500):
        # Queries near a random waypoint: on either side of the arc, near
        # vertices and, at the origin, across the loop seam.
        x, y = path.points[rng.integers(len(path))]
        q = (float(x + rng.normal(0.0, 0.5)), float(y + rng.normal(0.0, 0.5)))
        assert nearest_point_on_polyline(q, path) == nearest_point_on_polyline_oracle(q, path)


def test_projection_matches_scalar_loop_on_random_polyline():
    rng = np.random.default_rng(89)
    path = WaypointPath([tuple(map(float, p)) for p in rng.uniform(-20.0, 20.0, size=(300, 2))])
    for _ in range(2000):
        q = tuple(map(float, rng.uniform(-25.0, 25.0, size=2)))
        assert nearest_point_on_polyline(q, path) == nearest_point_on_polyline_oracle(q, path)


def test_projection_matches_scalar_loop_around_dense_stadium():
    # 10^4 segments about 0.05 m long.  The oracle runs on the 601 waypoints
    # around the query's: the test checks that every waypoint outside them is
    # farther from the query than the oracle's answer plus the longest
    # segment, so no segment with an endpoint outside can hold a closer point.
    path = stadium_path()
    xy = np.array(path.points)
    longest = float(np.max(np.hypot(*np.diff(xy, axis=0).T)))
    rng = np.random.default_rng(97)
    for _ in range(3000):
        i = int(rng.integers(300, len(path) - 301))
        q = (float(xy[i, 0] + rng.normal(0.0, 1.0)), float(xy[i, 1] + rng.normal(0.0, 1.0)))
        qx, qy = nearest_point_on_polyline_oracle(q, WaypointPath(path.points[i - 300 : i + 301]))
        outside = np.delete(np.hypot(xy[:, 0] - q[0], xy[:, 1] - q[1]), np.s_[i - 300 : i + 301])
        assert outside.min() > math.hypot(q[0] - qx, q[1] - qy) + longest
        assert nearest_point_on_polyline(q, path) == (qx, qy)


def test_projection_tie_breaks_to_earlier_segment():
    path = WaypointPath([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)])
    # (0.5, 0.5) is 0.5 from both segments: feet (0.5, 0) and (1, 0.5).
    assert nearest_point_on_polyline((0.5, 0.5), path) == (0.5, 0.0)


# Up to 1e150 keeps every squared distance finite.
coords = st.floats(min_value=-1e150, max_value=1e150, allow_nan=False, allow_infinity=False)
points = st.tuples(coords, coords)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(points, min_size=3, max_size=12), points)
# A hairpin whose two feet differ in the last bit: the squared distances tie
# to within one rounding, and the loop's `**` (libm pow) decides between them.
@example(
    pts=[(0.0, 2.9954265041655284e16), (0.0, 6.0), (0.0, 2.9954265041655284e16)],
    query=(2.995426504165528e16, 4.597711025322533e16),
)
# A 20 m segment between 0.1 m ones, with the nearest waypoint 1 m from the
# query but the foot 0.5 m away on the long segment, three quarters along it
# and then a quarter along it: the long segment is found through the reach
# of its far endpoint in one, of its near endpoint in the other.
@example(
    pts=[(-0.1, 0.0), (0.0, 0.0), (20.0, 0.0), (20.1, 0.0), (15.1, 1.5), (15.0, 1.5), (14.9, 1.5)],
    query=(15.0, 0.5),
)
@example(
    pts=[(-0.1, 0.0), (0.0, 0.0), (20.0, 0.0), (20.1, 0.0), (5.1, 1.5), (5.0, 1.5), (4.9, 1.5)],
    query=(5.0, 0.5),
)
# Squared distances in the subnormal range: a query 4e-162 from a waypoint,
# and one 1e-161 from a segment's interior.
@example(pts=[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)], query=(3e-162, -2e-162))
@example(pts=[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)], query=(0.5, 1e-161))
# The centre of a closed square: all four feet are exactly 1 away, and the
# first segment's wins.
@example(pts=[(1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0), (1.0, 1.0)], query=(0.0, 0.0))
# Micrometre segments seen from 1e10 m: the waypoints' squared distances
# differ in the last bits only, and the radius d + reach rounds to d.
@example(pts=[(0.0, 0.0), (1e-06, 0.0), (2e-06, 0.0)], query=(9997582044.0, 219893761.0))
def test_projection_matches_scalar_loop_on_generated_polylines(pts, query):
    assume(all(math.hypot(b[0] - a[0], b[1] - a[1]) > MIN_WAYPOINT_SPACING for a, b in zip(pts, pts[1:])))
    path = WaypointPath(pts)
    assert nearest_point_on_polyline(query, path) == nearest_point_on_polyline_oracle(query, path)

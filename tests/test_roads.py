import math

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from utpursuit import WaypointPath, load_waypoints
from utpursuit.roads import nearest_point_on_polyline
from utpursuit.waypoints import MIN_WAYPOINT_SPACING

from conftest import CONFIG_DIR


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
def test_projection_matches_scalar_loop_on_generated_polylines(pts, query):
    assume(all(math.hypot(b[0] - a[0], b[1] - a[1]) > MIN_WAYPOINT_SPACING for a, b in zip(pts, pts[1:])))
    path = WaypointPath(pts)
    assert nearest_point_on_polyline(query, path) == nearest_point_on_polyline_oracle(query, path)

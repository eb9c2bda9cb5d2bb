"""Waypoint paths and their per-step reduction to a local line or circle.

A waypoint road is handled by probing one look-ahead distance in front of
the rear axle, finding the nearest waypoint, and fitting the waypoint triple
around it: a triple whose |Menger curvature| is under STRAIGHT_EPS becomes
a straight line, any other its circumcircle; the curvature's sign
(counter-clockwise positive) is kept for diagnostics.  Every query takes
the WaypointPath, which builds and keeps its own WaypointIndex.

Both path queries follow one rule: a candidate list is made, and the
scalar loop of the tests' oracle decides, over that list only, in index
order.  A query takes its list from a table kept per fine cell; where there
is none, from a scan.  The scan is WaypointIndex._near, which measures every
waypoint with numpy: for a query and a margin extra it returns d, the
nearest waypoint's distance times _SHORTLIST_REL, and every waypoint within
d + extra, or, for the segments, every segment with an end j within
d + extra + reach[j] (see project, below).

The candidate lists.  Square fine cells tile the plane from the waypoints'
lower-left corner, each one median segment wide, or, on a path more than
_MAX_CELLS - 1 of those across, extent / (_MAX_CELLS - 1) wide, so that
every waypoint lands in one.  A fine cell with centre c keeps two lists,
each built by one scan of c when its query first lands in the cell: its
waypoints, those within (d_c + 2h) * _SHORTLIST_REL + _SHORTLIST_ABS of c,
where d_c is the distance from c to its nearest waypoint, and its segments,
those within (D_c + 2h) * _SHORTLIST_REL of c, where D_c is the distance
from c to the polyline.  h bounds the distance from c to any query that
lands in the cell.  For such a query q, the nearest waypoint is within
d_c + h of q, so within d_c + 2h of c; the closest point on the polyline
likewise lies within D_c + 2h of c.  So each list holds the answer, and the
scalar loop over it, in index order, returns what the loop over every
waypoint or segment would.  This rests on the assumption the scan makes
too: that each scalar foot is within rounding of exact.  A query lands in a
fine cell wherever its fine indices, (q - corner) / width, lie within
_MAX_CELLS of the corner; two roundings move each by at most 2**-52 of
that, so by under 2**-19 fine cells, and h is half the cell's diagonal
widened by _CELL_SLACK fine cells, plus a bound on what rounding moved c
by.  The segment scan marks each end j within d_c + 2h + reach[j], which
holds every segment within D_c + 2h <= d_c + 2h of c; the foot from c of
each of those then decides.  Both lists hold shared entry tuples, (x, y, j)
and (x0, y0, dx, dy), which the loops unpack as they are.

Every fine cell keeps its lists, however far c lies from the path, so a
cell far off, such as the centre of a loop, pays its scans once.  All lists
fit a budget of _LIST_BUDGET entries per waypoint (an entry is one slot
pointing to a shared tuple: about 25 bytes, cell overheads included).  A
query with no list, past the fine cells' bound or once the budget is spent,
takes the scan of the query itself: nearest_group decides each such probe
over the waypoints within its own d + _SHORTLIST_ABS, and project over the
segments below.

project's closest point is at most d0 away, and a segment holding a point
within d0 has its nearer endpoint within d0 + L/2, where L is its length.  So
waypoint i is marked within d0 + reach_i, where reach_i is half the longer
segment at waypoint i, which keeps one long segment from putting every
other segment on the list; segments with a marked end go through the loop.

A WaypointPath also keeps local_road's line or circle of each waypoint it
was asked for, so a waypoint's triple is fitted once per path.  Neither that
nor the index's lists changes any result: each gives exactly what would be
derived again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import CoincidentPoints, TooFewWaypoints, VerticalRoad
from .geometry import Circle, Point2, StraightLine

# Anything closer than this is treated as the same physical point.
MIN_WAYPOINT_SPACING = 1e-9
# No waypoint coordinate is larger in magnitude: squared distances between waypoints stay finite.
_MAX_COORDINATE = 1e150
# |curvature| below this (1/m) means the local waypoint triple is a straight stretch.
STRAIGHT_EPS = 1e-3
# A fitted line direction this close to vertical has no usable slope form.
VERTICAL_COS_EPS = 1e-12

LocalRoad = StraightLine | Circle


# The scan's nearest distance d, and so every radius built on it, are widened
# by a relative margin for rounded distances and squares.  The scan squares by
# an exact-rounded multiply, but the scalar loop's ** calls libm pow, which
# rounds about one square in a thousand the other way; sums of two squares
# then differ by under 2**-50 relative, far inside the margin.  The waypoint
# radii also get an absolute one for squares rounded in the subnormal range,
# whose error of a few 2**-1075 is up to about 2**-536 in distance; the
# segment radii need none, since every segment of a WaypointPath is longer
# than MIN_WAYPOINT_SPACING, which makes their relative margin at least
# 5e-16 m.
_SHORTLIST_REL = 1.0 + 1e-6
_SHORTLIST_ABS = 2.0**-530

# The most fine cells (see the module docstring) along either axis.
_MAX_CELLS = 2**32
# In fine cells: well over the 2**-19 that the rounding of a query's fine
# indices can move it by.
_CELL_SLACK = 2.0**-16
# The most list entries (waypoints and segments) one index keeps, per waypoint.
_LIST_BUDGET = 128
# A fine cell's candidate lists, in index order: (x, y, j) of each waypoint
# that can be nearest to a query in the cell, and (x0, y0, dx, dy) of each
# segment that can hold its closest point.
_Waypoints = tuple[tuple[float, float, int], ...]
_Segments = tuple[tuple[float, float, float, float], ...]


def _nearest(px: float, py: float, waypoints: _Waypoints | list[tuple[float, float, int]]) -> int:
    # The scalar loop: the first waypoint, in the given order, with the least (x - px)**2 + (y - py)**2.
    best_d2, best = math.inf, waypoints[0][2]
    for x, y, j in waypoints:
        q2 = (x - px) ** 2 + (y - py) ** 2
        if q2 < best_d2:
            best_d2, best = q2, j
    return best


class WaypointIndex:
    """A path's waypoints as float64 arrays, and candidate lists per fine cell.

    Every query returns what a scalar loop over all waypoints or segments
    with a strict < would: ties resolve to the lowest index.  The scalar
    loops read the WaypointPath's points as they are, which its checks keep
    at 3 or more, finite, bounded by 1e150 so that squared distances do not
    overflow, and each more than MIN_WAYPOINT_SPACING from the next.  Two
    dicts fill in as queries land in fine cells: their waypoint lists and
    their segment lists.
    """

    def __init__(self, path: WaypointPath):
        points = self.points = path.points
        xy = np.fromiter(chain.from_iterable(points), np.float64, 2 * len(points))
        self.xs, self.ys = xy[0::2].copy(), xy[1::2].copy()
        dx, dy = np.diff(self.xs), np.diff(self.ys)
        length = np.sqrt(dx * dx + dy * dy)
        # Half the longer of the segments at waypoint i, widened: waypoint i
        # is marked when it lies within (d0 + reach_i) * _SHORTLIST_REL.
        half = 0.5 * length
        self.reach = np.maximum(np.r_[half, 0.0], np.r_[0.0, half]) * _SHORTLIST_REL
        # Each waypoint's and segment's list entry, made when first listed and
        # then shared by every list, and every scalar loop, that holds it.
        self._waypoint_entries: list[tuple[float, float, int] | None] = [None] * len(points)
        self._segment_entries: list[tuple[float, float, float, float] | None] = [None] * len(points)
        # The fine cells' corner and width: the median segment, the upper one
        # of an even count, widened on a path more than _MAX_CELLS - 1 of
        # those across.
        x0, y0 = self._x0, self._y0 = float(self.xs.min()), float(self.ys.min())
        extent = max(float(self.xs.max()) - x0, float(self.ys.max()) - y0)
        median = float(np.partition(length, len(length) // 2)[len(length) // 2])
        self._fine = max(median, extent / (_MAX_CELLS - 1))
        # A query's fine indices lie within this many fine cells of the
        # corner, or it has no fine cell (see the module docstring).
        self._fine_bound = float(_MAX_CELLS)
        # Half a fine cell's diagonal, widened by the rounding of a query's fine indices.
        self._half_diagonal = (0.5 + _CELL_SLACK) * math.sqrt(2.0) * self._fine
        # Each fine cell's (column, row) waypoint and segment lists, each built
        # when its first query lands there (see the module docstring).
        self._waypoint_lists: dict[tuple[int, int], _Waypoints] = {}
        self._segment_lists: dict[tuple[int, int], _Segments] = {}
        # Entries the lists may still take.
        self._budget = _LIST_BUDGET * len(points)

    def _waypoint_entry(self, j: int) -> tuple[float, float, int]:
        entry = self._waypoint_entries[j] = (*self.points[j], j)
        return entry

    def _segment_entry(self, k: int) -> tuple[float, float, float, float]:
        (x0, y0), (x1, y1) = self.points[k], self.points[k + 1]
        entry = self._segment_entries[k] = x0, y0, x1 - x0, y1 - y0
        return entry

    def _near(self, qx: float, qy: float, extra: float, segments: bool = False) -> tuple[float, list[int]]:
        """The nearest waypoint's distance d, times _SHORTLIST_REL, and the
        index, in order, of every waypoint within d + extra; with segments,
        of every segment with an end j within d + extra + reach[j].  One
        numpy pass over every waypoint, in place but for the segments' margins.
        """
        d2 = self.xs - qx
        d2 *= d2
        dy2 = self.ys - qy
        dy2 *= dy2
        d2 += dy2
        d = math.sqrt(float(d2.min())) * _SHORTLIST_REL
        r = d + extra
        if segments:
            r = r + self.reach
        r *= r
        near = d2 <= r
        if segments:
            near = near[:-1] | near[1:]
        return d, near.nonzero()[0].tolist()

    def _cell(self, qx: float, qy: float) -> tuple[int, int] | None:
        """The (column, row) of the fine cell that (qx, qy) lands in, or None
        past _MAX_CELLS fine cells from the corner.
        """
        gx, gy = (qx - self._x0) / self._fine, (qy - self._y0) / self._fine
        bound = self._fine_bound
        if abs(gx) < bound and abs(gy) < bound:
            return math.floor(gx), math.floor(gy)
        return None

    def _centre(self, key: tuple[int, int]) -> tuple[float, float, float] | None:
        """The centre c of the fine cell key, and 2h, widened, where h bounds
        the distance from c to any query in the cell; None once the budget
        is spent.
        """
        if self._budget <= 0:
            return None
        i, j = key
        x0, y0 = self._x0, self._y0
        cx, cy = x0 + (i + 0.5) * self._fine, y0 + (j + 0.5) * self._fine
        # Half the diagonal, widened, plus what rounding moved c by.
        h = self._half_diagonal + (abs(cx) + abs(cy) + abs(x0) + abs(y0)) * 2.0**-50
        return cx, cy, 2.0 * h * _SHORTLIST_REL

    def _build_waypoints(self, key: tuple[int, int]) -> _Waypoints | None:
        # The waypoints within (d_c + 2h) * _SHORTLIST_REL + _SHORTLIST_ABS of c, kept.
        centre = self._centre(key)
        if centre is None:
            return None
        cx, cy, extra = centre
        entries = self._waypoint_entries
        near = self._near(cx, cy, extra + _SHORTLIST_ABS)[1]
        return self._keep(self._waypoint_lists, key, tuple([entries[j] or self._waypoint_entry(j) for j in near]))

    def _build_segments(self, key: tuple[int, int]) -> _Segments | None:
        # The segments within (D_c + 2h) * _SHORTLIST_REL of c, kept: of those
        # with an end j within d_c + 2h + reach[j] of c, which holds them all,
        # the ones whose foot from c, as the scalar loop finds it, is that near.
        centre = self._centre(key)
        if centre is None:
            return None
        cx, cy, extra = centre
        entries = self._segment_entries
        feet = []
        for k in self._near(cx, cy, extra, True)[1]:
            entry = entries[k] or self._segment_entry(k)
            ax, ay, dx, dy = entry
            ex, ey = cx - ax, cy - ay
            t = (ex * dx + ey * dy) / (dx * dx + dy * dy)
            if t > 1.0:
                t = 1.0
            elif not t > 0.0:
                t = 0.0
            ex -= t * dx
            ey -= t * dy
            feet.append((ex * ex + ey * ey, entry))
        r = math.sqrt(min(q2 for q2, _ in feet)) * _SHORTLIST_REL + extra
        r *= r
        return self._keep(self._segment_lists, key, tuple([segment for q2, segment in feet if q2 <= r]))

    def _keep(self, lists: dict, key: tuple[int, int], found: tuple) -> tuple | None:
        # A list costs its entries; a list that would overrun the budget is
        # not kept, and no list is built after it.
        if len(found) > self._budget:
            self._budget = 0
            return None
        self._budget -= len(found)
        lists[key] = found
        return found

    def nearest_group(self, probes: list[Point2]) -> list[int]:
        """Index of the waypoint nearest to each probe.

        Each probe is decided by the scalar loop, in index order with a
        strict < and Python's **, over its own fine cell's waypoint list.
        Where its cell keeps no list, the loop runs over the probe's own
        scan: the waypoints within d of it, widened (see the module docstring).
        """
        found = []
        for px, py in probes:
            key = self._cell(px, py)
            waypoints = key is not None and self._waypoint_lists.get(key)
            if waypoints is None:
                waypoints = self._build_waypoints(key)
            if not waypoints:
                entries = self._waypoint_entries
                near = self._near(px, py, _SHORTLIST_ABS)[1]
                waypoints = [entries[j] or self._waypoint_entry(j) for j in near]
            found.append(_nearest(px, py, waypoints))
        return found

    def project(self, point: Point2) -> Point2:
        """Closest point on the polyline, segment interiors included.

        The scalar loop runs over the segments of the query's fine cell, in
        index order with a strict <: t = ((p - a) . d) / (d . d) clipped to
        [0, 1], the foot a + t d, and its squared distance with Python's **.
        Every other segment's foot is farther, so the result is that loop's
        over all segments.  Where the cell keeps no list, the loop runs over
        the segments with an end on the scan's shortlist (see the module
        docstring).  Near the path a query costs a few us whatever the
        path's length.  The worst case is a cell whose list holds every
        segment, such as the centre of a 10^4-point circle: its first query
        scans every waypoint to build the list, and each query there loops
        over every segment, about 3 ms (Python 3.11 on a shared 2-core Xeon).
        """
        px, py = point
        key = self._cell(px, py)
        segments = key is not None and self._segment_lists.get(key)
        if segments is None:
            segments = self._build_segments(key)
        if not segments:
            entries = self._segment_entries
            segments = [entries[k] or self._segment_entry(k) for k in self._near(px, py, 0.0, True)[1]]
        best_d2, best = math.inf, self.points[0]
        for x0, y0, dx, dy in segments:
            t = ((px - x0) * dx + (py - y0) * dy) / (dx * dx + dy * dy)
            # min(1.0, max(0.0, t)) to the bit, NaN and -0.0 included, without two calls.
            if not t > 0.0:
                t = 0.0
            elif not t < 1.0:
                t = 1.0
            qx, qy = x0 + t * dx, y0 + t * dy
            q2 = (px - qx) ** 2 + (py - qy) ** 2
            if q2 < best_d2:
                best_d2, best = q2, (qx, qy)
        return best


@dataclass(frozen=True)
class WaypointPath:
    """Ordered waypoints in the global frame, consecutive points distinct.

    Frozen, with the points held as a tuple of (x, y) tuples, so the checks
    below and the index built from the points hold for the path's whole life.
    """

    points: tuple[Point2, ...]
    # Built from points on first use; never passed in, so they are always this path's.
    _index: WaypointIndex | None = field(default=None, init=False, repr=False, compare=False)
    # local_road's line or circle of each waypoint that has been asked for and has one.
    _roads: dict[int, LocalRoad] = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", tuple(self.points))
        if len(self.points) < 3:
            raise TooFewWaypoints(f"need at least 3 waypoints, got {len(self.points)}")
        # Each row copied into a tuple, so no row the caller keeps, a list say, can
        # move a waypoint; the loop below rejects a row that is not a pair.
        object.__setattr__(self, "points", tuple(map(tuple, self.points)))
        for i, (x, y) in enumerate(self.points):
            if not (abs(x) <= _MAX_COORDINATE and abs(y) <= _MAX_COORDINATE):
                if math.isfinite(x) and math.isfinite(y):
                    raise ValueError(f"waypoint {i} has a coordinate over {_MAX_COORDINATE:g} in magnitude")
                raise ValueError(f"waypoint {i} is not finite")
        for i in range(len(self.points) - 1):
            (x0, y0), (x1, y1) = self.points[i], self.points[i + 1]
            if math.hypot(x1 - x0, y1 - y0) <= MIN_WAYPOINT_SPACING:
                raise ValueError(f"waypoints {i} and {i + 1} are closer than {MIN_WAYPOINT_SPACING} m")

    def spatial_index(self) -> WaypointIndex:
        if self._index is None:
            object.__setattr__(self, "_index", build_index(self))
        return self._index

    def __getstate__(self) -> dict:
        # The index, its arrays and kept lists, is derived from the points
        # alone: a pickle leaves it out, and a copy builds its own on first use.
        return {**self.__dict__, "_index": None}

    def __len__(self) -> int:
        return len(self.points)


def build_index(path: WaypointPath) -> WaypointIndex:
    """Build the nearest-waypoint and projection index over a path."""
    return WaypointIndex(path)


def select_lookahead_waypoint(path: WaypointPath, pose: tuple[float, float, float], d_l: float) -> int:
    """Pick the waypoint nearest to the probe point one look-ahead ahead.

    The probe sits at (x, y) + d_l (cos yaw, sin yaw) of the pose (x, y,
    yaw); the returned index is clamped into [1, len - 2] so it always has
    both neighbors.
    """
    return select_lookahead_waypoints(path, [pose], d_l)[0]


def select_lookahead_waypoints(
    path: WaypointPath, poses: list[tuple[float, float, float]], d_l: float
) -> list[int]:
    """select_lookahead_waypoint for each (x, y, yaw) pose, in one nearest_group call."""
    probes = [(x + d_l * math.cos(yaw), y + d_l * math.sin(yaw)) for x, y, yaw in poses]
    last = len(path) - 2
    return [min(max(i, 1), last) for i in path.spatial_index().nearest_group(probes)]


def menger_curvature(a: Point2, b: Point2, c: Point2) -> float:
    """Signed Menger curvature of three points, counter-clockwise positive.

    kappa = 4 * signed_area(a, b, c) / (|ab| |bc| |ca|); collinear points
    give exactly 0.  Raises CoincidentPoints if any two points are closer
    than the minimum waypoint spacing.
    """
    ab = math.dist(a, b)
    bc = math.dist(b, c)
    ca = math.dist(c, a)
    if min(ab, bc, ca) <= MIN_WAYPOINT_SPACING:
        raise CoincidentPoints(f"curvature undefined for points {a}, {b}, {c}")
    cross = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return 2.0 * cross / (ab * bc * ca)


def circumcenter(a: Point2, b: Point2, c: Point2) -> Point2:
    """Center of the circle through three non-collinear points."""
    # Working relative to b keeps the squared terms small for far-away paths.
    ax, ay = a[0] - b[0], a[1] - b[1]
    cx, cy = c[0] - b[0], c[1] - b[1]
    d = 2.0 * (ax * cy - ay * cx)
    if d == 0.0:
        raise CoincidentPoints(f"no circumcircle through collinear points {a}, {b}, {c}")
    a2 = ax * ax + ay * ay
    c2 = cx * cx + cy * cy
    ux = (cy * a2 - ay * c2) / d
    uy = (ax * c2 - cx * a2) / d
    return (ux + b[0], uy + b[1])


def _fit_line(a: Point2, b: Point2, c: Point2) -> StraightLine:
    # Orthogonal least squares: the principal axis of the three points.
    # Unlike a y-on-x regression this commutes with rigid motions.
    pts = np.array([a, b, c], dtype=float)
    centroid = pts.mean(axis=0)
    dx, dy = (pts - centroid).T
    sxx = float(dx @ dx)
    syy = float(dy @ dy)
    sxy = float(dx @ dy)
    theta = 0.5 * math.atan2(2.0 * sxy, sxx - syy)
    if abs(math.cos(theta)) < VERTICAL_COS_EPS:
        raise VerticalRoad(f"local road through {a}, {b}, {c} is vertical")
    slope = math.tan(theta)
    return StraightLine(slope, float(centroid[1]) - slope * float(centroid[0]))


def reduce_to_local_road(path: WaypointPath, pose: tuple[float, float, float], d_l: float) -> LocalRoad:
    """Collapse the waypoints around the look-ahead of the pose (x, y, yaw) into a line or circle."""
    return local_road(path, select_lookahead_waypoint(path, pose, d_l))


def local_road(path: WaypointPath, w: int) -> LocalRoad:
    """The line or circle through waypoints w - 1, w and w + 1.

    Both results stay in the global frame.  |Menger curvature| of the
    waypoint triple below STRAIGHT_EPS selects the least-squares line;
    otherwise the triple's circumcircle (radius 1 / |kappa|) is returned.
    Each waypoint's road is derived once per path and kept; a triple that
    has none raises every time it is asked for.
    """
    road = path._roads.get(w)
    if road is None:
        a, b, c = path.points[w - 1], path.points[w], path.points[w + 1]
        kappa = menger_curvature(a, b, c)
        if abs(kappa) < STRAIGHT_EPS:
            road = _fit_line(a, b, c)
        else:
            cx, cy = circumcenter(a, b, c)
            road = Circle(cx, cy, 1.0 / abs(kappa))
        path._roads[w] = road
    return road


def load_waypoints(path: str) -> WaypointPath:
    """Read a UTF-8 waypoint file (BOM or not): one "x,y" pair per line, '#' starts a comment.

    Malformed or non-finite rows raise ValueError naming the line; the
    WaypointPath built from the rows raises TooFewWaypoints for fewer than
    three.
    """
    points: list[Point2] = []
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.split("#", 1)[0].strip()
            if not text:
                continue
            parts = text.split(",")
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'x,y', got {raw.strip()!r}")
            try:
                x, y = float(parts[0]), float(parts[1])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError(f"{path}:{lineno}: non-finite waypoint {text!r}")
            points.append((x, y))
    return WaypointPath(points)

"""Waypoint paths and their per-step reduction to a local line or circle.

A waypoint road is handled by probing one look-ahead distance in front of
the rear axle, finding the nearest waypoint with an exact vectorised scan
over all waypoints, and fitting the waypoint triple around it: three nearly
collinear points become a straight line, anything else becomes the
circumcircle.  Menger curvature decides which, and its sign
(counter-clockwise positive) is kept for diagnostics.

Nearby probes, such as those of one step's sigma poses, share one scan
(WaypointIndex.nearest_group).  Only the first probe is scanned against every
waypoint; its nearest waypoint is d0 away.  Every other probe lies within
delta of the first, so that waypoint is at most d0 + delta from it, and so is
the probe's own nearest waypoint, which therefore lies within d0 + 2 delta of
the first probe.  Only this shortlist, with its radius widened for rounding,
is rescored for the other probes; when it holds a single waypoint, that is
every probe's answer.

Projecting a point onto the polyline uses the same idea.  The nearest
waypoint is a point of the polyline d away, so the closest point is at most
d away too.  A segment holding a point within d of the query has its nearer
endpoint within d + L/2, where L is the segment's length.  So one scan marks
every waypoint i within d + reach_i, where reach_i is half the longer of the
two segments at waypoint i, widened for rounding, and only the segments with a
marked endpoint go through the scalar per-segment loop.  The per-waypoint
reach keeps one long segment from putting every other segment on the list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CoincidentPoints, TooFewWaypoints, VerticalRoad
from .geometry import Circle, Point2, Pose, StraightLine

# Anything closer than this is treated as the same physical point.
MIN_WAYPOINT_SPACING = 1e-9
# |curvature| below this means the local waypoint triple is a straight stretch.
DEFAULT_STRAIGHT_EPS = 1e-3
# A fitted line direction this close to vertical has no usable slope form.
VERTICAL_COS_EPS = 1e-12

LocalRoad = StraightLine | Circle


# numpy squares by an exact-rounded multiply, but Python's float ** calls libm
# pow, which rounds about one square in a thousand the other way.  Sums of two
# squares then differ by under 2**-50 relative (plus a few subnormal steps),
# so rescoring what lies within this of the minimum reproduces the scalar
# result exactly.
_NEAR_TIE_REL = 2.0**-48
_NEAR_TIE_ABS = 2.0**-1070
# The shortlist radii, d0 + 2 delta and d + reach, are widened by a relative
# margin for rounded distances and squares.  The group radius also gets an
# absolute one for squares rounded in the subnormal range, whose error of a few
# 2**-1075 is up to about 2**-536 in distance; the projection radius needs
# none, since every segment of a WaypointPath is longer than
# MIN_WAYPOINT_SPACING, which makes its relative margin at least 5e-16 m.
_SHORTLIST_REL = 1.0 + 1e-6
_SHORTLIST_ABS = 2.0**-530


def _first_min_d2(ex: np.ndarray, ey: np.ndarray, d2: np.ndarray | None = None) -> int:
    """First index minimising ex**2 + ey**2 as Python floats compute it."""
    if d2 is None:
        d2 = ex**2 + ey**2
    # The method skips np.argmin's dispatch, which costs more than a short scan.
    k = int(d2.argmin())
    near = (d2 <= float(d2[k]) * (1.0 + _NEAR_TIE_REL) + _NEAR_TIE_ABS).nonzero()[0]
    if len(near) <= 1:
        return k
    # min keeps the first of equal keys: the lowest index, as a strict < scan.
    return min(near.tolist(), key=lambda j: float(ex[j]) ** 2 + float(ey[j]) ** 2)


class WaypointIndex:
    """A path's waypoints and segments as float64 arrays, scanned exactly.

    Every query returns what a scalar loop over all waypoints or segments
    with a strict < would: ties resolve to the lowest index.  Inputs must be
    finite, with squared distances that do not overflow.
    """

    def __init__(self, points: list[Point2]):
        self.xs = np.array([p[0] for p in points], dtype=np.float64)
        self.ys = np.array([p[1] for p in points], dtype=np.float64)
        # Row k is segment k, from waypoint k to k + 1: x0, y0, dx, dy, |d|^2.
        dx, dy = np.diff(self.xs), np.diff(self.ys)
        len2 = dx * dx + dy * dy
        self.segments = np.stack([self.xs[:-1], self.ys[:-1], dx, dy, len2], axis=1)
        # Half the longer of the segments at waypoint i, widened: waypoint i
        # is marked when it lies within (d + reach_i) * _SHORTLIST_REL.
        half = 0.5 * np.sqrt(len2)
        self.reach = np.zeros_like(self.xs)
        self.reach[:-1] = half
        np.maximum(self.reach[1:], half, out=self.reach[1:])
        self.reach *= _SHORTLIST_REL

    def nearest(self, query: Point2) -> int:
        """Index of the waypoint nearest to query."""
        return self.nearest_group([query])[0]

    def nearest_group(self, probes: list[Point2]) -> list[int]:
        """Index of the waypoint nearest to each probe, in one scan.

        probes[0] is scanned against every waypoint; the others are rescored
        on the shortlist of waypoints within d0 + 2 delta of it (see the
        module docstring), which keeps index order and so the tie-breaking.
        """
        qx, qy = probes[0]
        ex, ey = self.xs - qx, self.ys - qy
        d2 = ex**2 + ey**2
        k = _first_min_d2(ex, ey, d2)
        if len(probes) == 1:
            return [k]
        others = probes[1:]
        spread = max(math.hypot(px - qx, py - qy) for px, py in others)
        radius = (math.sqrt(float(d2[k])) + 2.0 * spread) * _SHORTLIST_REL + _SHORTLIST_ABS
        shortlist = (d2 <= radius * radius).nonzero()[0]
        if len(shortlist) == 1:
            return [k] * len(probes)
        xs, ys = self.xs[shortlist], self.ys[shortlist]
        return [k] + [int(shortlist[_first_min_d2(xs - px, ys - py)]) for px, py in others]

    def project(self, point: Point2) -> Point2:
        """Closest point on the polyline, segment interiors included.

        The segments with an endpoint on the shortlist (see the module
        docstring) go through the scalar loop, in index order with a
        strict <: t = ((p - a) . d) / (d . d) clipped to [0, 1], the foot
        a + t d, and its squared distance with Python's **.  Every other
        segment's foot is farther, so the result is that loop's over all
        segments.  Near the path the shortlist holds a few segments, but a
        query about equally far from most waypoints, such as the centre of
        a circular loop, puts every segment through the loop: about 12 ms on
        a 10^4-point circle, against about 35 us for a query 0.3 m from a
        10^4-point path (Python 3.11 on a shared 2-core Xeon).
        """
        px, py = point
        # In place, so each call allocates two float arrays instead of seven.
        d2 = self.xs - px
        d2 *= d2
        r2 = self.ys - py
        r2 *= r2
        d2 += r2
        np.add(self.reach, math.sqrt(float(d2.min())) * _SHORTLIST_REL, out=r2)
        r2 *= r2
        near = d2 <= r2
        best_d2, best = math.inf, (float(self.xs[0]), float(self.ys[0]))
        seg = (near[:-1] | near[1:]).nonzero()[0]
        for x0, y0, dx, dy, l2 in self.segments.take(seg, axis=0).tolist():
            t = min(1.0, max(0.0, ((px - x0) * dx + (py - y0) * dy) / l2))
            qx, qy = x0 + t * dx, y0 + t * dy
            q2 = (px - qx) ** 2 + (py - qy) ** 2
            if q2 < best_d2:
                best_d2, best = q2, (qx, qy)
        return best

    def __len__(self) -> int:
        return len(self.xs)


@dataclass
class WaypointPath:
    """Ordered waypoints in the global frame, consecutive points distinct."""

    points: list[Point2]
    _index: WaypointIndex | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.points) < 3:
            raise TooFewWaypoints(f"need at least 3 waypoints, got {len(self.points)}")
        for i in range(len(self.points) - 1):
            (x0, y0), (x1, y1) = self.points[i], self.points[i + 1]
            if not all(map(math.isfinite, (x0, y0, x1, y1))):
                raise ValueError(f"waypoint {i if math.isfinite(x0 + y0) else i + 1} is not finite")
            if math.hypot(x1 - x0, y1 - y0) <= MIN_WAYPOINT_SPACING:
                raise ValueError(f"waypoints {i} and {i + 1} are closer than {MIN_WAYPOINT_SPACING} m")

    def spatial_index(self) -> WaypointIndex:
        if self._index is None:
            self._index = build_index(self)
        return self._index

    def __len__(self) -> int:
        return len(self.points)


def build_index(path: WaypointPath) -> WaypointIndex:
    """Build the nearest-waypoint and projection index over a path."""
    return WaypointIndex(path.points)


def select_lookahead_waypoint(index: WaypointIndex, pose: Pose, d_l: float) -> int:
    """Pick the waypoint nearest to the probe point one look-ahead ahead.

    The probe sits at pose + d_l (cos yaw, sin yaw); the returned index is
    clamped into [1, len - 2] so it always has both neighbors.
    """
    return select_lookahead_waypoints(index, [pose], d_l)[0]


def select_lookahead_waypoints(index: WaypointIndex, poses: list[Pose], d_l: float) -> list[int]:
    """select_lookahead_waypoint for each pose, with one shared nearest-waypoint scan."""
    probes = [(p.x + d_l * math.cos(p.yaw), p.y + d_l * math.sin(p.yaw)) for p in poses]
    last = len(index) - 2
    return [min(max(i, 1), last) for i in index.nearest_group(probes)]


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


def reduce_to_local_road(
    path: WaypointPath,
    index: WaypointIndex,
    pose: Pose,
    d_l: float,
    straight_eps: float = DEFAULT_STRAIGHT_EPS,
) -> LocalRoad:
    """Collapse the waypoints around the look-ahead into a line or circle."""
    return local_road(path, select_lookahead_waypoint(index, pose, d_l), straight_eps)


def local_road(path: WaypointPath, w: int, straight_eps: float = DEFAULT_STRAIGHT_EPS) -> LocalRoad:
    """The line or circle through waypoints w - 1, w and w + 1.

    Both results stay in the global frame.  |Menger curvature| of the
    waypoint triple below straight_eps selects the least-squares line;
    otherwise the triple's circumcircle (radius 1 / |kappa|) is returned.
    """
    a, b, c = path.points[w - 1], path.points[w], path.points[w + 1]
    kappa = menger_curvature(a, b, c)
    if abs(kappa) < straight_eps:
        return _fit_line(a, b, c)
    cx, cy = circumcenter(a, b, c)
    return Circle(cx, cy, 1.0 / abs(kappa))


def load_waypoints(path: str) -> WaypointPath:
    """Read a waypoint file: one "x,y" pair per line, '#' starts a comment.

    Values must be finite; fewer than three rows raises TooFewWaypoints and
    malformed rows raise ValueError naming the line.
    """
    points: list[Point2] = []
    with open(path, encoding="utf-8") as fh:
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
    if len(points) < 3:
        raise TooFewWaypoints(f"{path}: need at least 3 waypoints, got {len(points)}")
    return WaypointPath(points)

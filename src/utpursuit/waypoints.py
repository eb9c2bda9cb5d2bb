"""Waypoint paths and their per-step reduction to a local line or circle.

A waypoint road is handled by probing one look-ahead distance in front of
the rear axle, finding the nearest waypoint, and fitting the waypoint triple
around it: a triple whose |Menger curvature| is under STRAIGHT_EPS becomes
a straight line, any other its circumcircle; the curvature's sign
(counter-clockwise positive) is kept for diagnostics.  Every query takes
the WaypointPath, which builds and keeps its own WaypointIndex.

Both path queries follow one rule: numpy shortlists, the scalar loop of the
tests' oracle decides.  One vectorised scan gives the nearest waypoint's
distance d0 and a shortlist, widened for rounding, of every waypoint that
could hold the answer; the loop runs over that shortlist only.

nearest_group serves nearby probes, such as one step's sigma poses.  Each
lies within delta of the first probe, so the first probe's nearest waypoint
is within d0 + delta of it, and so is its own nearest waypoint, which thus
lies within d0 + 2 delta of the first probe.  A one-waypoint shortlist
answers every probe.

project's closest point is at most d0 away, and a segment holding a point
within d0 has its nearer endpoint within d0 + L/2, where L is its length.  So
waypoint i is shortlisted within d0 + reach_i, where reach_i is half the
longer segment at waypoint i, which keeps one long segment from putting every
other segment on the list; segments with a shortlisted endpoint go through
the loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CoincidentPoints, TooFewWaypoints, VerticalRoad
from .geometry import Circle, Point2, Pose, StraightLine

# Anything closer than this is treated as the same physical point.
MIN_WAYPOINT_SPACING = 1e-9
# |curvature| below this (1/m) means the local waypoint triple is a straight stretch.
STRAIGHT_EPS = 1e-3
# A fitted line direction this close to vertical has no usable slope form.
VERTICAL_COS_EPS = 1e-12

LocalRoad = StraightLine | Circle


# The shortlist radii, d0 + 2 delta and d0 + reach, are widened by a relative
# margin for rounded distances and squares.  numpy squares by an exact-rounded
# multiply, but the scalar loop's ** calls libm pow, which rounds about one
# square in a thousand the other way; sums of two squares then differ by under
# 2**-50 relative, far inside the margin.  The group radius also gets an
# absolute one for squares rounded in the subnormal range, whose error of a few
# 2**-1075 is up to about 2**-536 in distance; the projection radius needs
# none, since every segment of a WaypointPath is longer than
# MIN_WAYPOINT_SPACING, which makes its relative margin at least 5e-16 m.
_SHORTLIST_REL = 1.0 + 1e-6
_SHORTLIST_ABS = 2.0**-530


class WaypointIndex:
    """A path's waypoints and segments as float64 arrays, scanned exactly.

    Every query returns what a scalar loop over all waypoints or segments
    with a strict < would: ties resolve to the lowest index.  Inputs must be
    finite, with squared distances that do not overflow.
    """

    def __init__(self, points: tuple[Point2, ...]):
        self.xs = np.array([p[0] for p in points], dtype=np.float64)
        self.ys = np.array([p[1] for p in points], dtype=np.float64)
        # Row k is segment k, from waypoint k to k + 1: x0, y0, dx, dy, |d|^2.
        dx, dy = np.diff(self.xs), np.diff(self.ys)
        len2 = dx * dx + dy * dy
        self.segments = np.stack([self.xs[:-1], self.ys[:-1], dx, dy, len2], axis=1)
        # Half the longer of the segments at waypoint i, widened: waypoint i
        # is marked when it lies within (d0 + reach_i) * _SHORTLIST_REL.
        half = 0.5 * np.sqrt(len2)
        self.reach = np.zeros_like(self.xs)
        self.reach[:-1] = half
        np.maximum(self.reach[1:], half, out=self.reach[1:])
        self.reach *= _SHORTLIST_REL

    def _squared_distances(self, qx: float, qy: float) -> tuple[np.ndarray, np.ndarray]:
        # Each waypoint's squared distance to (qx, qy), in place: a call allocates
        # two float arrays, and the second, the y terms, is the caller's scratch.
        d2 = self.xs - qx
        d2 *= d2
        scratch = self.ys - qy
        scratch *= scratch
        d2 += scratch
        return d2, scratch

    def nearest_group(self, probes: list[Point2]) -> list[int]:
        """Index of the waypoint nearest to each probe, in one scan.

        Only probes[0] is scanned against every waypoint.  Each probe, the
        first included, is then decided by the scalar loop, in index order
        with a strict < and Python's **, over the shortlist of waypoints
        within d0 + 2 delta of probes[0] (see the module docstring).
        """
        qx, qy = probes[0]
        d2 = self._squared_distances(qx, qy)[0]
        # The method skips np.argmin's dispatch, which costs more than a short scan.
        k = int(d2.argmin())
        spread = 0.0
        for px, py in probes[1:]:
            spread = max(spread, math.hypot(px - qx, py - qy))
        radius = (math.sqrt(float(d2[k])) + 2.0 * spread) * _SHORTLIST_REL + _SHORTLIST_ABS
        shortlist = (d2 <= radius * radius).nonzero()[0]
        if len(shortlist) == 1:
            return [k] * len(probes)
        near = list(zip(shortlist.tolist(), self.xs[shortlist].tolist(), self.ys[shortlist].tolist()))
        found = []
        for px, py in probes:
            best_d2, best = math.inf, k
            for j, x, y in near:
                q2 = (x - px) ** 2 + (y - py) ** 2
                if q2 < best_d2:
                    best_d2, best = q2, j
            found.append(best)
        return found

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
        d2, r2 = self._squared_distances(px, py)
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


@dataclass(frozen=True)
class WaypointPath:
    """Ordered waypoints in the global frame, consecutive points distinct.

    Frozen, with the points held as a tuple, so the checks below and the
    index built from the points hold for the path's whole life.
    """

    points: tuple[Point2, ...]
    # Built from points on first use; never passed in, so it is always this path's.
    _index: WaypointIndex | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", tuple(self.points))
        if len(self.points) < 3:
            raise TooFewWaypoints(f"need at least 3 waypoints, got {len(self.points)}")
        for i, (x, y) in enumerate(self.points):
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError(f"waypoint {i} is not finite")
        for i in range(len(self.points) - 1):
            (x0, y0), (x1, y1) = self.points[i], self.points[i + 1]
            if math.hypot(x1 - x0, y1 - y0) <= MIN_WAYPOINT_SPACING:
                raise ValueError(f"waypoints {i} and {i + 1} are closer than {MIN_WAYPOINT_SPACING} m")

    def spatial_index(self) -> WaypointIndex:
        if self._index is None:
            object.__setattr__(self, "_index", build_index(self))
        return self._index

    def __len__(self) -> int:
        return len(self.points)


def build_index(path: WaypointPath) -> WaypointIndex:
    """Build the nearest-waypoint and projection index over a path."""
    return WaypointIndex(path.points)


def select_lookahead_waypoint(path: WaypointPath, pose: Pose, d_l: float) -> int:
    """Pick the waypoint nearest to the probe point one look-ahead ahead.

    The probe sits at pose + d_l (cos yaw, sin yaw); the returned index is
    clamped into [1, len - 2] so it always has both neighbors.
    """
    return select_lookahead_waypoints(path, [(pose.x, pose.y, pose.yaw)], d_l)[0]


def select_lookahead_waypoints(
    path: WaypointPath, poses: list[tuple[float, float, float]], d_l: float
) -> list[int]:
    """select_lookahead_waypoint for each (x, y, yaw) pose, with one shared nearest-waypoint scan."""
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


def reduce_to_local_road(path: WaypointPath, pose: Pose, d_l: float) -> LocalRoad:
    """Collapse the waypoints around the look-ahead into a line or circle."""
    return local_road(path, select_lookahead_waypoint(path, pose, d_l))


def local_road(path: WaypointPath, w: int) -> LocalRoad:
    """The line or circle through waypoints w - 1, w and w + 1.

    Both results stay in the global frame.  |Menger curvature| of the
    waypoint triple below STRAIGHT_EPS selects the least-squares line;
    otherwise the triple's circumcircle (radius 1 / |kappa|) is returned.
    """
    a, b, c = path.points[w - 1], path.points[w], path.points[w + 1]
    kappa = menger_curvature(a, b, c)
    if abs(kappa) < STRAIGHT_EPS:
        return _fit_line(a, b, c)
    cx, cy = circumcenter(a, b, c)
    return Circle(cx, cy, 1.0 / abs(kappa))


def load_waypoints(path: str) -> WaypointPath:
    """Read a waypoint file: one "x,y" pair per line, '#' starts a comment.

    Malformed or non-finite rows raise ValueError naming the line; the
    WaypointPath built from the rows raises TooFewWaypoints for fewer than
    three.
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
    return WaypointPath(points)

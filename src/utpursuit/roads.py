"""Road models and point-to-road distance helpers.

A road is a global-frame StraightLine, Circle or WaypointPath.  Lines and
circles carry a signed lateral deviation (left of the line / outside the
circle is positive); a waypoint polyline only has an unsigned distance, so
its deviation is reported non-negative.
"""

from __future__ import annotations

import math

from .geometry import Circle, Point2, StraightLine
from .waypoints import WaypointPath

RoadModel = StraightLine | Circle | WaypointPath


def nearest_point_on_polyline(point: Point2, path: WaypointPath) -> Point2:
    """Closest point on the waypoint polyline (segment interiors included).

    Ties go to the earlier segment.
    """
    return path.spatial_index().project(point)


def lateral_deviation(point: Point2, road: RoadModel) -> float:
    """Deviation of a point from the road, in meters.

    Signed for lines (positive left) and circles (positive outside),
    unsigned for waypoint polylines.
    """
    x, y = point
    if isinstance(road, StraightLine):
        return (y - road.slope * x - road.intercept) / math.sqrt(1.0 + road.slope * road.slope)
    if isinstance(road, Circle):
        return math.hypot(x - road.cx, y - road.cy) - road.radius
    qx, qy = nearest_point_on_polyline(point, road)
    return math.hypot(x - qx, y - qy)


def clamp_to_road(point: Point2, road: RoadModel, max_dev: float) -> Point2:
    """Pull a point back toward the road when its deviation exceeds max_dev.

    The point moves along the local lateral direction only; within the bound
    it is returned unchanged.
    """
    x, y = point
    if isinstance(road, StraightLine):
        dev = lateral_deviation(point, road)
        if abs(dev) <= max_dev:
            return point
        norm = math.sqrt(1.0 + road.slope * road.slope)
        nx, ny = -road.slope / norm, 1.0 / norm
        foot = (x - dev * nx, y - dev * ny)
        clamped = math.copysign(max_dev, dev)
        return (foot[0] + clamped * nx, foot[1] + clamped * ny)
    if isinstance(road, Circle):
        dist = math.hypot(x - road.cx, y - road.cy)
        dev = dist - road.radius
        if abs(dev) <= max_dev or dist < 1e-12:
            # On-center points have no radial direction to project along.
            return point
        ux, uy = (x - road.cx) / dist, (y - road.cy) / dist
        r = road.radius + math.copysign(max_dev, dev)
        return (road.cx + r * ux, road.cy + r * uy)
    qx, qy = nearest_point_on_polyline(point, road)
    dist = math.hypot(x - qx, y - qy)
    if dist <= max_dev or dist < 1e-12:
        return point
    ux, uy = (x - qx) / dist, (y - qy) / dist
    return (qx + max_dev * ux, qy + max_dev * uy)

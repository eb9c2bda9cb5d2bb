"""Planar rigid-frame primitives and global/vehicle frame conversions.

The vehicle frame is anchored at the rear axle: +x points along the heading,
+y points to the left.  A pose (x_t, y_t, psi) places that frame in the
global frame, so a vehicle-frame point p maps to R(psi) @ p + t and back with
the transpose rotation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import PerpendicularLine

# Slope form cannot represent near-vertical lines; cos of the heading gap
# below this threshold means the road runs perpendicular to the vehicle axis.
PERPENDICULAR_COS_EPS = 1e-9

Point2 = tuple[float, float]

TWO_PI = 2.0 * math.pi


def normalize_angle(angle: float) -> float:
    """Wrap an angle in radians into (-pi, pi]."""
    r = math.fmod(angle, TWO_PI)
    if r <= -math.pi:
        r += TWO_PI
    elif r > math.pi:
        r -= TWO_PI
    return r


@dataclass(frozen=True, slots=True)
class Pose:
    """Rear-axle position and heading in the global frame (m, m, rad)."""

    x: float
    y: float
    yaw: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.yaw)):
            raise ValueError(f"pose fields must be finite, got {(self.x, self.y, self.yaw)}")
        object.__setattr__(self, "yaw", normalize_angle(self.yaw))


@dataclass(frozen=True, slots=True)
class StraightLine:
    """y = slope * x + intercept in whichever frame it is expressed."""

    slope: float
    intercept: float

    def __post_init__(self) -> None:
        _check_line(self.slope, self.intercept)


@dataclass(frozen=True, slots=True)
class Circle:
    """Circle with center (cx, cy) and radius > 0."""

    cx: float
    cy: float
    radius: float

    def __post_init__(self) -> None:
        _check_circle(self.cx, self.cy, self.radius)

    @property
    def center(self) -> Point2:
        return (self.cx, self.cy)


def _check_line(slope: float, intercept: float) -> None:
    if not (math.isfinite(slope) and math.isfinite(intercept)):
        raise ValueError(f"line coefficients must be finite, got {(slope, intercept)}")


def _check_circle(cx: float, cy: float, radius: float) -> None:
    if not (math.isfinite(cx) and math.isfinite(cy) and math.isfinite(radius)):
        raise ValueError("circle fields must be finite")
    if radius <= 0.0:
        raise ValueError(f"circle radius must be positive, got {radius}")


def global_to_vehicle(point: Point2, x: float, y: float, yaw: float) -> Point2:
    """Map a global-frame point into the vehicle frame of the pose (x, y, yaw)."""
    c, s = math.cos(yaw), math.sin(yaw)
    dx, dy = point[0] - x, point[1] - y
    return (c * dx + s * dy, -s * dx + c * dy)


def line_to_vehicle(line: StraightLine, x: float, y: float, yaw: float) -> tuple[float, float]:
    """Express a global slope-intercept line in the vehicle frame of (x, y, yaw).

    Returns the vehicle-frame (slope, intercept).  The slope maps through
    the heading difference, tan(psi_m - yaw) with psi_m = arctan(slope).
    Raises PerpendicularLine when the line runs within ~1e-9 of
    perpendicular to the vehicle x-axis, where the slope form has no finite
    representation, and ValueError when a coefficient overflows.
    """
    psi_m = math.atan(line.slope)
    gap = psi_m - yaw
    cos_gap = math.cos(gap)
    if abs(cos_gap) < PERPENDICULAR_COS_EPS:
        raise PerpendicularLine(
            f"line at heading {psi_m:.6f} rad is perpendicular to vehicle yaw {yaw:.6f} rad"
        )
    slope_v = math.tan(gap)
    intercept_v = (x * math.sin(psi_m) + (line.intercept - y) * math.cos(psi_m)) / cos_gap
    _check_line(slope_v, intercept_v)
    return slope_v, intercept_v


def circle_to_vehicle(circle: Circle, x: float, y: float, yaw: float) -> Point2:
    """Express a global circle's center in the vehicle frame of (x, y, yaw).

    Returns the vehicle-frame (cx, cy); the radius is invariant.  Raises
    ValueError when the center overflows.
    """
    cx, cy = global_to_vehicle(circle.center, x, y, yaw)
    _check_circle(cx, cy, circle.radius)
    return cx, cy

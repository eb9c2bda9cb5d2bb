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
        if not (math.isfinite(self.slope) and math.isfinite(self.intercept)):
            raise ValueError(f"line coefficients must be finite, got {(self.slope, self.intercept)}")


@dataclass(frozen=True, slots=True)
class Circle:
    """Circle with center (cx, cy) and radius > 0."""

    cx: float
    cy: float
    radius: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.cx) and math.isfinite(self.cy) and math.isfinite(self.radius)):
            raise ValueError("circle fields must be finite")
        if self.radius <= 0.0:
            raise ValueError(f"circle radius must be positive, got {self.radius}")

    @property
    def center(self) -> Point2:
        return (self.cx, self.cy)


def global_to_vehicle(point: Point2, frame: Pose) -> Point2:
    """Map a global-frame point into the vehicle frame."""
    c, s = math.cos(frame.yaw), math.sin(frame.yaw)
    dx, dy = point[0] - frame.x, point[1] - frame.y
    return (c * dx + s * dy, -s * dx + c * dy)


def line_to_vehicle(line: StraightLine, frame: Pose) -> StraightLine:
    """Express a global slope-intercept line in the vehicle frame.

    The slope maps through the heading difference, tan(psi_m - psi) with
    psi_m = arctan(slope).  Raises PerpendicularLine when the line runs
    within ~1e-9 of perpendicular to the vehicle x-axis, where the slope
    form has no finite representation.
    """
    psi_m = math.atan(line.slope)
    gap = psi_m - frame.yaw
    cos_gap = math.cos(gap)
    if abs(cos_gap) < PERPENDICULAR_COS_EPS:
        raise PerpendicularLine(
            f"line at heading {psi_m:.6f} rad is perpendicular to vehicle yaw {frame.yaw:.6f} rad"
        )
    slope_v = math.tan(gap)
    intercept_v = (
        frame.x * math.sin(psi_m) + (line.intercept - frame.y) * math.cos(psi_m)
    ) / cos_gap
    return StraightLine(slope_v, intercept_v)


def circle_to_vehicle(circle: Circle, frame: Pose) -> Circle:
    """Express a global circle in the vehicle frame; the radius is invariant."""
    cx, cy = global_to_vehicle(circle.center, frame)
    return Circle(cx, cy, circle.radius)

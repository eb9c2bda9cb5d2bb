"""Planar rigid-frame primitives and global/vehicle frame conversions.

The vehicle frame is anchored at the rear axle: +x points along the heading,
+y points to the left.  A pose (x_t, y_t, psi) places that frame in the
global frame, so a vehicle-frame point p maps to R(psi) @ p + t and back with
the transpose rotation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


def checked_pose(x: float, y: float, yaw: float) -> tuple[float, float, float]:
    """The pose (x, y, yaw) as a Pose holds it: every field finite, else
    ValueError, and a yaw outside (-pi, pi] wrapped into it.

    normalize_angle returns an in-range float unchanged, so only a yaw
    outside the range is wrapped; a bool yaw stays a bool for Scenario to
    reject.  The simulation loop keeps its poses as these triples.
    """
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(yaw)):
        raise ValueError(f"pose fields must be finite, got {(x, y, yaw)}")
    if not -math.pi < yaw <= math.pi:
        yaw = normalize_angle(yaw)
    return x, y, yaw


@dataclass(frozen=True, slots=True)
class Pose:
    """Rear-axle position and heading in the global frame (m, m, rad)."""

    x: float
    y: float
    yaw: float

    # Written by hand (dataclass keeps a class's own __init__): the slots'
    # descriptors store the checked fields at about half the cost of the
    # generated __init__'s object.__setattr__ calls, which counts where a
    # run's records are built, one true and one measured pose per step.
    def __init__(self, x: float, y: float, yaw: float) -> None:
        x, y, yaw = checked_pose(x, y, yaw)
        _SET_X(self, x)
        _SET_Y(self, y)
        _SET_YAW(self, yaw)


# The slots' own stores, which a frozen class's __setattr__ does not reach.
_SET_X, _SET_Y, _SET_YAW = Pose.x.__set__, Pose.y.__set__, Pose.yaw.__set__


@dataclass(frozen=True, slots=True)
class StraightLine:
    """y = slope * x + intercept in whichever frame it is expressed."""

    slope: float
    intercept: float
    # The line's heading atan(slope) and that angle's sine and cosine, derived
    # once per line for line_to_vehicle.
    heading: float = field(init=False, compare=False, repr=False)
    sin_heading: float = field(init=False, compare=False, repr=False)
    cos_heading: float = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        _check_line(self.slope, self.intercept)
        heading = math.atan(self.slope)
        object.__setattr__(self, "heading", heading)
        object.__setattr__(self, "sin_heading", math.sin(heading))
        object.__setattr__(self, "cos_heading", math.cos(heading))


@dataclass(frozen=True, slots=True)
class Circle:
    """Circle with center (cx, cy) and radius > 0."""

    cx: float
    cy: float
    radius: float

    def __post_init__(self) -> None:
        _check_circle(self.cx, self.cy, self.radius)


def _check_line(slope: float, intercept: float) -> None:
    if not (math.isfinite(slope) and math.isfinite(intercept)):
        raise ValueError(f"line coefficients must be finite, got {(slope, intercept)}")


def _check_circle(cx: float, cy: float, radius: float) -> None:
    if not (math.isfinite(cx) and math.isfinite(cy) and math.isfinite(radius)):
        raise ValueError("circle fields must be finite")
    if radius <= 0.0:
        raise ValueError(f"circle radius must be positive, got {radius}")


def line_to_vehicle(line: StraightLine, x: float, y: float, yaw: float) -> tuple[float, float]:
    """Express a global slope-intercept line in the vehicle frame of (x, y, yaw).

    Returns the vehicle-frame (slope, intercept).  The slope maps through
    the heading difference, tan(psi_m - yaw) with psi_m = line.heading =
    arctan(slope).  Raises PerpendicularLine when the line runs within ~1e-9
    of perpendicular to the vehicle x-axis, where the slope form has no
    finite representation, and ValueError when a coefficient overflows.
    """
    gap = line.heading - yaw
    cos_gap = math.cos(gap)
    if abs(cos_gap) < PERPENDICULAR_COS_EPS:
        raise PerpendicularLine(
            f"line at heading {line.heading:.6f} rad is perpendicular to vehicle yaw {yaw:.6f} rad"
        )
    slope_v = math.tan(gap)
    intercept_v = (x * line.sin_heading + (line.intercept - y) * line.cos_heading) / cos_gap
    # Every steered pose comes through here: the checker is called only to raise.
    if not (math.isfinite(slope_v) and math.isfinite(intercept_v)):
        _check_line(slope_v, intercept_v)
    return slope_v, intercept_v


def circle_to_vehicle(circle: Circle, x: float, y: float, yaw: float) -> Point2:
    """Express a global circle's center in the vehicle frame of (x, y, yaw).

    Returns the vehicle-frame (cx, cy); the radius is invariant.  Raises
    ValueError when the center overflows.
    """
    # The centre's offset turned by -yaw; every steered pose on a circle
    # comes through here, so the checker is called only to raise.
    c, s = math.cos(yaw), math.sin(yaw)
    dx, dy = circle.cx - x, circle.cy - y
    cx, cy = c * dx + s * dy, -s * dx + c * dy
    if not (math.isfinite(cx) and math.isfinite(cy)):
        _check_circle(cx, cy, circle.radius)
    return cx, cy

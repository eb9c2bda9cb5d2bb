"""Pure-pursuit steering law and look-ahead cross-track computation.

All geometry here lives in the vehicle frame.  The look-ahead circle has
radius d_l = lookahead_gain * speed around the rear axle; the goal point is
its forward intersection with the local road, and the bicycle steering
angle follows delta = arctan(2 y_e L / d_l^2).
"""

from __future__ import annotations

import math

from .errors import DegenerateCenter, NoForwardIntersection, NoIntersection, PathOutOfReach

# Below this slope magnitude the local road is treated as axis-parallel.
FLAT_SLOPE_EPS = 1e-12
# Allowance for arccos arguments that drift past +/-1 by float rounding.
COS_ARG_SLACK = 1e-12
# A road circle's centre closer than this to the rear axle has no bearing.
DEGENERATE_CENTER_EPS = 1e-12

DEFAULT_STEERING_LIMIT = math.radians(35.0)


# Each reach and forward test below is written so that NaN fails it: a square
# that overflows (an offset, look-ahead, distance or radius above about
# 1.3e154) gives inf - inf, and such a road is reported out of reach rather
# than steered at a NaN goal.


def cross_track_line(slope: float, intercept: float, d_l: float) -> tuple[float, float]:
    """Intersect the look-ahead circle with the vehicle-frame line y = slope x + intercept.

    Returns the goal point (y_e, x_e): y_e lateral, x_e >= 0 forward.  For
    |slope| < 1e-12 the lateral error is the intercept itself.  Otherwise
    the forward root of the circle/line system is taken:
    y_e = (c2 + m sqrt((1 + m^2) d_l^2 - c2^2)) / (1 + m^2).

    Raises PathOutOfReach when the circle misses the line entirely and
    NoForwardIntersection when both intersections lie behind the rear axle.
    """
    m, c2 = slope, intercept
    if abs(m) < FLAT_SLOPE_EPS:
        forward_sq = d_l * d_l - c2 * c2
        if not forward_sq >= 0.0:
            raise PathOutOfReach(f"flat line at offset {c2} beyond look-ahead {d_l}")
        return c2, math.sqrt(forward_sq)
    one_m2 = 1.0 + m * m
    disc = one_m2 * d_l * d_l - c2 * c2
    if not disc >= 0.0:
        raise PathOutOfReach(f"line (m={m}, c={c2}) beyond look-ahead {d_l}")
    root = math.sqrt(disc)
    y_e = (c2 + m * root) / one_m2
    x_e = (root - m * c2) / one_m2
    if not x_e >= 0.0:
        raise NoForwardIntersection(f"line (m={m}, c={c2}) crosses look-ahead only behind the axle")
    return y_e, x_e


def cross_track_circle(cx: float, cy: float, radius: float, d_l: float) -> tuple[float, float]:
    """Intersect the look-ahead circle with a road circle of vehicle-frame center (cx, cy).

    Returns the goal point (y_e, x_e), as cross_track_line does.  With rho
    the distance to the road center, the half-angle subtended by the
    intersection chord is alpha_1 = arccos((rho^2 + d_l^2 - R^2) /
    (2 d_l rho)) and the center bearing is alpha_2 = atan2(cy, cx).  Of the
    two candidate bearings alpha_2 +/- alpha_1 the one with the smaller
    magnitude is kept, sign intact, so right-hand roads steer right.  An
    exact magnitude tie picks the positive (left) candidate.

    Raises DegenerateCenter when the center sits on the rear axle,
    NoIntersection when the circles do not meet, and NoForwardIntersection
    when both meeting points lie behind the axle.
    """
    rho = math.hypot(cx, cy)
    if rho < DEGENERATE_CENTER_EPS:
        raise DegenerateCenter("road circle centered on the rear axle")
    cos_arg = (rho * rho + d_l * d_l - radius * radius) / (2.0 * d_l * rho)
    if not abs(cos_arg) <= 1.0 + COS_ARG_SLACK:
        raise NoIntersection(
            f"road circle (center ({cx}, {cy}), R={radius}) misses look-ahead {d_l}"
        )
    alpha_1 = math.acos(max(-1.0, min(1.0, cos_arg)))
    # cy + 0.0 turns -0.0 into 0.0: a centre straight behind the axle is the
    # exact tie below, whichever zero its frame transform produced.
    alpha_2 = math.atan2(cy + 0.0, cx)
    # alpha_1 >= 0, so plus >= minus: a magnitude tie keeps plus, the left candidate.
    plus, minus = alpha_2 + alpha_1, alpha_2 - alpha_1
    alpha = plus if abs(plus) <= abs(minus) else minus
    x_e = d_l * math.cos(alpha)
    if not x_e >= 0.0:
        raise NoForwardIntersection(
            f"road circle (center ({cx}, {cy}), R={radius}) meets look-ahead only behind the axle"
        )
    return d_l * math.sin(alpha), x_e


def steering_angle(y_e: float, d_l: float, wheelbase: float, steering_limit: float) -> float:
    """delta = arctan(2 y_e wheelbase / d_l^2), clamped to +/- steering_limit."""
    delta = math.atan(2.0 * y_e * wheelbase / (d_l * d_l))
    return max(-steering_limit, min(steering_limit, delta))

import math

import numpy as np
import pytest

from utpursuit import (
    DegenerateCenter,
    NoForwardIntersection,
    NoIntersection,
    PathOutOfReach,
    cross_track_circle,
    cross_track_line,
    steering_angle,
)

# The steering law's wheelbase and steering limit.
LAW = (1.0, math.radians(80.0))


# --- independent intersection oracles -------------------------------------
#
# The line oracle solves d sin(t) = m d cos(t) + c by bisection over the
# look-ahead circle's angle parameter; the circle oracle intersects the two
# circles through their radical line.  Both avoid the closed forms used by
# the implementation.


def line_circle_intersections(m, c, d, n_grid=4096):
    def f(t):
        return d * math.sin(t) - (m * d * math.cos(t) + c)

    ts = np.linspace(-math.pi, math.pi, n_grid)
    roots = []
    for a, b in zip(ts, ts[1:]):
        fa, fb = f(a), f(b)
        if fa == 0.0:
            roots.append(a)
            continue
        if fa * fb < 0.0:
            lo, hi = a, b
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if f(lo) * f(mid) <= 0.0:
                    hi = mid
                else:
                    lo = mid
            roots.append(0.5 * (lo + hi))
    return [(d * math.cos(t), d * math.sin(t)) for t in roots]


def two_circle_intersections(a, b, R, d):
    rho2 = a * a + b * b
    k = (d * d - R * R + rho2) / 2.0
    h2 = d * d - k * k / rho2
    if h2 < 0.0:
        return []
    fx, fy = k * a / rho2, k * b / rho2
    h = math.sqrt(h2)
    rho = math.sqrt(rho2)
    ux, uy = -b / rho, a / rho
    return [(fx + h * ux, fy + h * uy), (fx - h * ux, fy - h * uy)]


def test_cross_track_flat_line_below_vehicle():
    y_e, x_e = cross_track_line(0.0, -0.5, 1.0)
    assert y_e == -0.5
    assert x_e == pytest.approx(math.sqrt(0.75), rel=1e-15)


def test_cross_track_diagonal_line_through_origin():
    y_e, x_e = cross_track_line(1.0, 0.0, 1.0)
    assert y_e == pytest.approx(math.sqrt(0.5), rel=1e-12)
    assert x_e == pytest.approx(math.sqrt(0.5), rel=1e-12)


def test_cross_track_line_out_of_reach():
    with pytest.raises(PathOutOfReach):
        cross_track_line(0.0, 2.0, 1.0)
    with pytest.raises(PathOutOfReach):
        cross_track_line(1.0, 2.0, 1.0)
    # Squares that overflow: the reach test sees inf - inf, a NaN, which must
    # fail it, for a flat and a sloped line alike.
    for slope in (0.0, 1.0):
        with pytest.raises(PathOutOfReach):
            cross_track_line(slope, 1e308, 1e200)


def test_cross_track_line_behind_vehicle():
    # m c > 0 with |c| > d: both intersections sit behind the rear axle.
    with pytest.raises(NoForwardIntersection):
        cross_track_line(1.0, 1.2, 1.0)


def test_cross_track_line_against_bisection_oracle():
    rng = np.random.default_rng(37)
    checked = 0
    while checked < 1000:
        d = rng.uniform(0.5, 3.0)
        m = rng.uniform(-10.0, 10.0)
        c = rng.uniform(-0.95, 0.95) * math.sqrt(1.0 + m * m) * d
        points = line_circle_intersections(m, c, d)
        if len(points) != 2:
            continue
        forward_most = max(points, key=lambda p: p[0])
        if forward_most[0] < 1e-6 * d:
            continue
        y_e, x_e = cross_track_line(m, c, d)
        assert x_e == pytest.approx(forward_most[0], abs=1e-6)
        assert y_e == pytest.approx(forward_most[1], abs=1e-6)
        assert x_e * x_e + y_e * y_e == pytest.approx(d * d, abs=1e-9)
        checked += 1


def test_cross_track_circle_on_circle_fixed_point():
    # Rear axle on the circle, heading tangent: y_e = d^2 / (2 R) exactly.
    for cy in (5.0, -5.0):
        y_e, x_e = cross_track_circle(0.0, cy, 5.0, 1.0)
        assert y_e == pytest.approx(math.copysign(0.1, cy), abs=1e-12)
        assert x_e == pytest.approx(math.sqrt(1.0 - 0.01), rel=1e-12)


def test_cross_track_circle_errors():
    with pytest.raises(NoIntersection):
        cross_track_circle(0.0, 10.0, 5.0, 1.0)
    # rho and R*R overflow, so the arccos argument is NaN: no intersection found.
    with pytest.raises(NoIntersection):
        cross_track_circle(1.5e308, 1.5e308, 1e300, 1.0)
    with pytest.raises(DegenerateCenter):
        cross_track_circle(0.0, 0.0, 5.0, 1.0)
    # Both crossings behind: a circle hugging the region behind the axle.
    with pytest.raises(NoForwardIntersection):
        cross_track_circle(-10.0, 0.0, 9.5, 1.0)


def test_cross_track_circle_bearing_tie_turns_left():
    # Heading straight at the center both crossings are mirror images; the
    # positive (left) one wins.
    y_e, _ = cross_track_circle(2.0, 0.0, 1.5, 1.0)
    assert y_e > 0.0
    # So are they with the center straight behind the axle, whichever sign
    # its zero offset has.
    behind = [cross_track_circle(-1.5, cy, 2.0, 1.0) for cy in (0.0, -0.0)]
    assert behind[0] == behind[1] and behind[0][0] > 0.0


def test_cross_track_circle_against_radical_line_oracle():
    rng = np.random.default_rng(41)
    checked = 0
    while checked < 1000:
        d = rng.uniform(0.5, 2.0)
        a, b = rng.uniform(-3.0, 3.0, size=2)
        rho = math.hypot(a, b)
        R = rng.uniform(0.1, 4.0)
        if rho < 0.05 or not (abs(rho - R) + 1e-3 < d < rho + R - 1e-3):
            continue
        points = two_circle_intersections(a, b, R, d)
        assert len(points) == 2
        bearings = sorted((math.atan2(y, x) for x, y in points), key=abs)
        best = bearings[0]
        if math.cos(best) < 1e-6:
            continue
        y_e, x_e = cross_track_circle(a, b, R, d)
        assert x_e == pytest.approx(d * math.cos(best), abs=1e-6)
        assert y_e == pytest.approx(d * math.sin(best), abs=1e-6)
        # The goal point lies on both circles.
        assert math.hypot(x_e - a, y_e - b) == pytest.approx(R, abs=1e-6)
        checked += 1


def test_cross_track_circle_mirror_symmetry():
    rng = np.random.default_rng(43)
    for _ in range(300):
        a = rng.uniform(0.2, 2.0)
        b = rng.uniform(-1.5, 1.5)
        R = rng.uniform(0.5, 3.0)
        d = 1.0
        rho = math.hypot(a, b)
        if not (abs(rho - R) + 1e-3 < d < rho + R - 1e-3):
            continue
        try:
            up_y, up_x = cross_track_circle(a, b, R, d)
            down_y, down_x = cross_track_circle(a, -b, R, d)
        except NoForwardIntersection:
            continue
        assert up_y == pytest.approx(-down_y, abs=1e-12)
        assert up_x == pytest.approx(down_x, abs=1e-12)


def test_steering_angle_values_and_clamp():
    assert steering_angle(-0.5, 1.0, *LAW) == -math.pi / 4
    assert steering_angle(0.1, 1.0, *LAW) == pytest.approx(math.atan(0.2), rel=1e-15)
    tight = (1.0, math.radians(35.0))
    assert steering_angle(-0.5, 1.0, *tight) == -math.radians(35.0)


def test_steering_angle_odd_in_lateral_error():
    rng = np.random.default_rng(47)
    for _ in range(200):
        y_e = rng.uniform(-1.0, 1.0)
        d = rng.uniform(0.5, 3.0)
        assert steering_angle(y_e, d, *LAW) == pytest.approx(-steering_angle(-y_e, d, *LAW), abs=1e-15)


def test_cross_tracks_return_y_e_then_x_e():
    # A flat line 0.6 m to the left, and a circle of radius 0.5 m centred at
    # (0.8, 1.1), both meet the unit look-ahead circle at (x_e, y_e) = (0.8, 0.6).
    assert cross_track_line(0.0, 0.6, 1.0) == (0.6, 0.8)
    assert cross_track_circle(0.8, 1.1, 0.5, 1.0) == pytest.approx((0.6, 0.8), abs=1e-12)

"""Trajectory serialization: CSV logs, a summary JSON and a static SVG plot.

Everything written here is byte-deterministic: floats are formatted with 9
significant digits, newlines are always "\\n", and the SVG contains no
timestamps, random ids or external assets.  Plot geometry is emitted in data
coordinates under a fixed affine transform so readers (and tests) can match
polyline points against the records directly.
"""

from __future__ import annotations

import json
from dataclasses import asdict

from .geometry import Circle, StraightLine
from .roads import RoadModel
from .sim import RunSummary, Scenario, TrajectoryRecord
from .vehicle import RNG_NAME
from .waypoints import WaypointPath

CSV_HEADER = "step,time,x_true,y_true,psi_true,x_meas,y_meas,psi_meas,y_e,delta,lat_err,fault"

_SVG_W, _SVG_H = 960, 480
_PANELS = ((50.0, 50.0, 450.0, 430.0), (540.0, 50.0, 940.0, 430.0))

ROAD_COLOR = "#2a9d2a"
TRUE_COLOR = "#1f77b4"
MEAS_COLOR = "#ff7f0e"


def format_float(value: float) -> str:
    """The 9-significant-digit float format used by every emitter ("inf" and "-inf" included)."""
    return format(value, ".9g")


def emit_csv(records: list[TrajectoryRecord], path: str) -> None:
    """Write the per-step log; y_e and fault cells are empty when absent."""
    lines = [CSV_HEADER]
    for r in records:
        lines.append(
            ",".join(
                (
                    str(r.step),
                    format_float(r.time),
                    format_float(r.true_pose.x),
                    format_float(r.true_pose.y),
                    format_float(r.true_pose.yaw),
                    format_float(r.measured_pose.x),
                    format_float(r.measured_pose.y),
                    format_float(r.measured_pose.yaw),
                    "" if r.y_e is None else format_float(r.y_e),
                    format_float(r.delta),
                    format_float(r.lateral_error),
                    r.fault or "",
                )
            )
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def emit_summary_json(summary: RunSummary, scenario: Scenario, path: str) -> None:
    payload = asdict(summary)
    payload.update(
        controller=scenario.controller.value,
        steps=scenario.steps,
        dt=scenario.dt,
        rng=RNG_NAME,
    )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _bounds(values: list[float], pad_frac: float = 0.08) -> tuple[float, float]:
    lo, hi = min(values), max(values)
    span = hi - lo
    if span < 1e-9:
        lo, hi, span = lo - 1.0, hi + 1.0, 2.0
    return lo - pad_frac * span, hi + pad_frac * span


def _panel_transform(panel, x0, x1, y0, y1, uniform):
    px0, py0, px1, py1 = panel
    sx = (px1 - px0) / (x1 - x0)
    sy = (py1 - py0) / (y1 - y0)
    if uniform:
        sx = sy = min(sx, sy)
    tx = 0.5 * (px0 + px1) - sx * 0.5 * (x0 + x1)
    ty = 0.5 * (py0 + py1) + sy * 0.5 * (y0 + y1)
    return f"translate({format_float(tx)},{format_float(ty)}) scale({format_float(sx)},{format_float(-sy)})"


def _polyline(points: list[tuple[float, float]], color: str, width: float = 1.5) -> str:
    coords = " ".join(f"{format_float(x)},{format_float(y)}" for x, y in points)
    return (
        f'<polyline points="{coords}" fill="none" stroke="{color}" '
        f'stroke-width="{width}" vector-effect="non-scaling-stroke"/>'
    )


def _road_element(road: RoadModel, x0: float, x1: float) -> str:
    if isinstance(road, StraightLine):
        pts = [(x0, road.slope * x0 + road.intercept), (x1, road.slope * x1 + road.intercept)]
        return _polyline(pts, ROAD_COLOR, 2.0)
    if isinstance(road, Circle):
        return (
            f'<circle cx="{format_float(road.cx)}" cy="{format_float(road.cy)}" '
            f'r="{format_float(road.radius)}" '
            f'fill="none" stroke="{ROAD_COLOR}" stroke-width="2" vector-effect="non-scaling-stroke"/>'
        )
    return _polyline(road.points, ROAD_COLOR, 2.0)


def _text(x: float, y: float, s: str, anchor: str = "middle") -> str:
    return (
        f'<text x="{format_float(x)}" y="{format_float(y)}" font-size="13" '
        f'text-anchor="{anchor}">{s}</text>'
    )


def emit_svg(records: list[TrajectoryRecord], road: RoadModel, path: str) -> None:
    """Write the two-panel plot: xy trajectories over the road, and delta(t)."""
    true_xy = [(r.true_pose.x, r.true_pose.y) for r in records]
    meas_xy = [(r.measured_pose.x, r.measured_pose.y) for r in records]
    xs = [p[0] for p in true_xy + meas_xy]
    ys = [p[1] for p in true_xy + meas_xy]
    if isinstance(road, Circle):
        xs += [road.cx - road.radius, road.cx + road.radius]
        ys += [road.cy - road.radius, road.cy + road.radius]
    elif isinstance(road, WaypointPath):
        xs += [p[0] for p in road.points]
        ys += [p[1] for p in road.points]
    x0, x1 = _bounds(xs)
    ys_with_road = ys + (
        [road.slope * x0 + road.intercept, road.slope * x1 + road.intercept]
        if isinstance(road, StraightLine)
        else []
    )
    y0, y1 = _bounds(ys_with_road)

    times = [r.time for r in records]
    deltas = [r.delta for r in records]
    t0, t1 = _bounds(times, 0.02)
    d0, d1 = _bounds(deltas)

    left, right = _PANELS
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{_SVG_W}" '
        f'height="{_SVG_H}" viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect x="0" y="0" width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<g transform="{_panel_transform(left, x0, x1, y0, y1, uniform=True)}">',
        _road_element(road, x0, x1),
        _polyline(meas_xy, MEAS_COLOR, 1.0),
        _polyline(true_xy, TRUE_COLOR),
        "</g>",
        f'<g transform="{_panel_transform(right, t0, t1, d0, d1, uniform=False)}">',
        _polyline(list(zip(times, deltas)), TRUE_COLOR),
        "</g>",
    ]
    for (px0, py0, px1, py1), title in zip(_PANELS, ("trajectory [m]", "steering angle [rad]")):
        parts.append(
            f'<rect x="{format_float(px0)}" y="{format_float(py0)}" width="{format_float(px1 - px0)}" '
            f'height="{format_float(py1 - py0)}" fill="none" stroke="black"/>'
        )
        parts.append(_text(0.5 * (px0 + px1), py0 - 14.0, title))
    parts.append(_text(0.5 * (left[0] + left[2]), left[3] + 24.0, f"x: {x0:.4g} to {x1:.4g} m"))
    parts.append(_text(0.5 * (right[0] + right[2]), right[3] + 24.0, f"time: 0 to {max(times):.4g} s"))
    parts.append(
        _text(right[0] - 6.0, 0.5 * (right[1] + right[3]), f"{d0:.4g} to {d1:.4g} rad", anchor="end")
    )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")

"""Every file the program writes: a run's CSV log, summary JSON and static
SVG plot, and a batch's per-run and aggregate CSVs.

Everything written here is byte-deterministic: floats are formatted with 9
significant digits, every file is UTF-8 with "\\n" newlines, the last one
included, and the SVG contains no timestamps, random ids or external
assets.  Plot geometry is emitted in data coordinates under a fixed affine
transform so readers (and tests) can match polyline points against the
records directly.

A run's CSV and SVG are written from the Trajectory that sim.run returns,
read through its columns, so no record or Pose is built to write them; a
list of records is not accepted.  Each CSV row and each polyline is one %
over a template built from the one float format, _FLOAT.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import asdict

from .geometry import Circle, StraightLine
from .roads import RoadModel
from .sim import BatchStats, RunSummary, Scenario, Trajectory
from .vehicle import RNG_NAME
from .waypoints import WaypointPath

CSV_HEADER = "step,time,x_true,y_true,psi_true,x_meas,y_meas,psi_meas,y_e,delta,lat_err,fault"
BATCH_RUNS_HEADER = "controller,run_index,seed,convergence_time,mean_abs_lateral_error,max_abs_delta,fault_count"
BATCH_AGG_HEADER = (
    "controller,n_runs,n_converged,median_convergence_time,mean_convergence_time,"
    "mean_abs_lateral_error,mean_fault_count"
)

_SVG_W, _SVG_H = 960, 480
_PANELS = ((50.0, 50.0, 450.0, 430.0), (540.0, 50.0, 940.0, 430.0))

ROAD_COLOR = "#2a9d2a"
TRUE_COLOR = "#1f77b4"
MEAS_COLOR = "#ff7f0e"


# The 9-significant-digit float format of every emitter ("inf" and "-inf" included).
_FLOAT = "%.9g"
# A trajectory CSV row: step, time, the true and measured poses, y_e, delta, lateral error, fault.
_CSV_ROW = ",".join(("%d", *[_FLOAT] * 7, "%s", _FLOAT, _FLOAT, "%s"))
# One polyline point.
_POINT = f"{_FLOAT},{_FLOAT}"


def format_float(value: float) -> str:
    """One float in the emitters' format, _FLOAT."""
    return _FLOAT % value


def _optional(value: float | None) -> str:
    return "" if value is None else format_float(value)


def _write_lines(lines: list[str], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def emit_csv(trajectory: Trajectory, path: str) -> None:
    """Write the per-step log, one row per step at time k * dt; y_e and fault cells are empty when absent."""
    dt, true, measured, y_es, deltas, lateral, faults = trajectory.columns
    lines = [CSV_HEADER]
    lines += [
        _CSV_ROW % (k, k * dt, *t, *m, "" if y_e is None else _FLOAT % y_e, delta, lat, fault or "")
        for k, (t, m, y_e, delta, lat, fault) in enumerate(zip(true, measured, y_es, deltas, lateral, faults))
    ]
    _write_lines(lines, path)


def emit_batch_csvs(batches: list[tuple[list[RunSummary], BatchStats]], runs_path: str, agg_path: str) -> None:
    """Write run_batch results: one row per run, and one aggregate row per batch."""
    runs, agg = [BATCH_RUNS_HEADER], [BATCH_AGG_HEADER]
    for summaries, stats in batches:
        for i, s in enumerate(summaries):
            runs.append(
                f"{stats.controller},{i},{s.seed},{_optional(s.convergence_time)},"
                f"{format_float(s.mean_abs_lateral_error)},{format_float(s.max_abs_delta)},{s.fault_count}"
            )
        agg.append(
            f"{stats.controller},{stats.n_runs},{stats.n_converged},"
            f"{format_float(stats.median_convergence_time)},{_optional(stats.mean_convergence_time)},"
            f"{format_float(stats.mean_abs_lateral_error)},{format_float(stats.mean_fault_count)}"
        )
    _write_lines(runs, runs_path)
    _write_lines(agg, agg_path)


def emit_summary_json(summary: RunSummary, scenario: Scenario, path: str) -> None:
    payload = asdict(summary)
    payload.update(
        controller=scenario.controller.value,
        steps=scenario.steps,
        dt=scenario.dt,
        rng=RNG_NAME,
    )
    _write_lines([json.dumps(payload, sort_keys=True, indent=2)], path)


def _bounds(values: list[float], pad_frac: float = 0.08) -> tuple[float, float]:
    """The padded range (lo, hi) of values, with hi > lo."""
    lo, hi = min(values), max(values)
    span = hi - lo
    if span < 1e-9:
        lo, hi, span = lo - 1.0, hi + 1.0, 2.0
    lo, hi = lo - pad_frac * span, hi + pad_frac * span
    # Far from the origin the widening and the pad can round away (about
    # 1e16 and up): step each end out by one unit in the last place.
    if not hi > lo:
        lo, hi = lo - math.ulp(lo), hi + math.ulp(hi)
    return lo, hi


def _panel_transform(panel, x0, x1, y0, y1, uniform):
    px0, py0, px1, py1 = panel
    sx = (px1 - px0) / (x1 - x0)
    sy = (py1 - py0) / (y1 - y0)
    if uniform:
        sx = sy = min(sx, sy)
    tx = 0.5 * (px0 + px1) - sx * 0.5 * (x0 + x1)
    ty = 0.5 * (py0 + py1) + sy * 0.5 * (y0 + y1)
    return f"translate({format_float(tx)},{format_float(ty)}) scale({format_float(sx)},{format_float(-sy)})"


def _polyline(xs: Sequence[float], ys: Sequence[float], color: str, width: float = 1.5) -> str:
    """The polyline through the points (xs[i], ys[i])."""
    flat = [0.0] * (2 * len(xs))
    flat[::2], flat[1::2] = xs, ys
    coords = " ".join([_POINT] * len(xs)) % tuple(flat)
    return (
        f'<polyline points="{coords}" fill="none" stroke="{color}" '
        f'stroke-width="{width}" vector-effect="non-scaling-stroke"/>'
    )


def _road_element(road: RoadModel, x0: float, x1: float) -> str:
    if isinstance(road, StraightLine):
        ys = (road.slope * x0 + road.intercept, road.slope * x1 + road.intercept)
        return _polyline((x0, x1), ys, ROAD_COLOR, 2.0)
    if isinstance(road, Circle):
        return (
            f'<circle cx="{format_float(road.cx)}" cy="{format_float(road.cy)}" '
            f'r="{format_float(road.radius)}" '
            f'fill="none" stroke="{ROAD_COLOR}" stroke-width="2" vector-effect="non-scaling-stroke"/>'
        )
    return _polyline(*zip(*road.points), ROAD_COLOR, 2.0)


def _text(x: float, y: float, s: str, anchor: str = "middle") -> str:
    return (
        f'<text x="{format_float(x)}" y="{format_float(y)}" font-size="13" '
        f'text-anchor="{anchor}">{s}</text>'
    )


def emit_svg(trajectory: Trajectory, road: RoadModel, path: str) -> None:
    """Write the two-panel plot: xy trajectories over the road, and delta(t)."""
    dt, true, measured, _, deltas, _, _ = trajectory.columns
    true_xs, true_ys, _ = zip(*true)
    meas_xs, meas_ys, _ = zip(*measured)
    xs = [*true_xs, *meas_xs]
    ys = [*true_ys, *meas_ys]
    if isinstance(road, Circle):
        xs += [road.cx - road.radius, road.cx + road.radius]
        ys += [road.cy - road.radius, road.cy + road.radius]
    elif isinstance(road, WaypointPath):
        road_xs, road_ys = zip(*road.points)
        xs += road_xs
        ys += road_ys
    x0, x1 = _bounds(xs)
    ys_with_road = ys + (
        [road.slope * x0 + road.intercept, road.slope * x1 + road.intercept]
        if isinstance(road, StraightLine)
        else []
    )
    y0, y1 = _bounds(ys_with_road)

    times = [k * dt for k in range(len(deltas))]
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
        _polyline(meas_xs, meas_ys, MEAS_COLOR, 1.0),
        _polyline(true_xs, true_ys, TRUE_COLOR),
        "</g>",
        f'<g transform="{_panel_transform(right, t0, t1, d0, d1, uniform=False)}">',
        _polyline(times, deltas, TRUE_COLOR),
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
    _write_lines(parts, path)

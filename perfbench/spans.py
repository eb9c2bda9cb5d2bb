"""Span tracing by wrapping the program's functions where their callers look them up.

Nothing under src/ knows about this.  install() replaces, for example,
utpursuit.sim.cross_track_circle (the name sim.py calls) with a wrapper that
records a span: name, start, end, parent and run id.  Spans stay in memory
until the end of each benchmark call, when fold() turns them into per-name
totals and drops them.

The wrapper costs time.  calibrate() measures two parts of it on a no-op:
c_in, the part that falls inside the span's own [start, end] window, and
c_full, the whole extra cost of one wrapped call.  A wrapper's result or
error hook runs after its span ends but inside its parent's window, so it is
timed on every call.  A span's corrected duration removes its own c_in, and
c_full plus the measured hook time of every wrapper nested under it; its self
time further removes its children's corrected durations.
"""

from __future__ import annotations

import importlib
import os
import statistics
from collections import Counter
from time import perf_counter_ns
from typing import Callable

from utpursuit.errors import RoadGeometryFault
from utpursuit.geometry import Circle


def _count_steps(tracer: "Tracer", args: tuple, result) -> None:
    tracer.counts["sim.steps"] += len(result[0])


def _count_circle(tracer: "Tracer", args: tuple, result) -> None:
    if isinstance(result, Circle):
        tracer.counts["waypoints.circle_results"] += 1


def _count_clamp(tracer: "Tracer", args: tuple, result) -> None:
    # clamp_to_road hands back the very point it was given when it does not fire.
    if result is not args[0]:
        tracer.counts["roads.clamp_fired"] += 1


def _count_output(name: str) -> Callable:
    def hook(tracer: "Tracer", args: tuple, result) -> None:
        tracer.counts["output.bytes_written"] += os.path.getsize(args[-1])
        if name != "output.emit_summary_json":
            tracer.counts[f"{name}.records"] += len(args[0])

    return hook


def _count_fault(tracer: "Tracer", exc: BaseException) -> None:
    if isinstance(exc, RoadGeometryFault):
        tracer.counts["pursuit.cross_track.faults"] += 1


# (module, attribute where the caller looks it up, span name, result hook, error hook)
TARGETS = (
    ("utpursuit.sim", "run_batch", "sim.run_batch", None, None),
    ("utpursuit.sim", "run", "sim.run", _count_steps, None),
    ("utpursuit.cli", "run", "sim.run", _count_steps, None),
    ("utpursuit.sim", "step_pp", "sim.step_pp", None, None),
    ("utpursuit.sim", "step_utpp", "sim.step_utpp", None, None),
    ("utpursuit.sim", "cross_track_line", "pursuit.cross_track_line", None, _count_fault),
    ("utpursuit.sim", "cross_track_circle", "pursuit.cross_track_circle", None, _count_fault),
    ("utpursuit.sim", "steering_angle", "pursuit.steering_angle", None, None),
    ("utpursuit.sim", "line_to_vehicle", "geometry.line_to_vehicle", None, None),
    ("utpursuit.sim", "circle_to_vehicle", "geometry.circle_to_vehicle", None, None),
    ("utpursuit.sim", "generate_sigma_points", "uncertainty.generate_sigma_points", None, None),
    ("utpursuit.sim", "weighted_steering", "uncertainty.weighted_steering", None, None),
    ("utpursuit.sim", "advance_pose", "vehicle.advance_pose", None, None),
    ("utpursuit.sim", "sample_measured_pose", "vehicle.sample_measured_pose", None, None),
    ("utpursuit.sim", "lateral_deviation", "roads.lateral_deviation", None, None),
    ("utpursuit.roads", "lateral_deviation", "roads.lateral_deviation", None, None),
    ("utpursuit.vehicle", "clamp_to_road", "roads.clamp_to_road", _count_clamp, None),
    ("utpursuit.roads", "nearest_point_on_polyline", "roads.nearest_point_on_polyline", None, None),
    ("utpursuit.sim", "reduce_to_local_road", "waypoints.reduce_to_local_road", _count_circle, None),
    ("utpursuit.waypoints", "select_lookahead_waypoint", "waypoints.select_lookahead_waypoint", None, None),
    ("utpursuit.waypoints", "KdTree.nearest", "waypoints.KdTree.nearest", None, None),
    ("utpursuit.waypoints", "build_index", "waypoints.build_index", None, None),
    ("utpursuit.config", "load_waypoints", "waypoints.load_waypoints", None, None),
    ("utpursuit.cli", "load_waypoints", "waypoints.load_waypoints", None, None),
    ("utpursuit.config", "parse_config", "config.parse_config", None, None),
    ("utpursuit.cli", "parse_config", "config.parse_config", None, None),
    ("utpursuit.cli", "emit_csv", "output.emit_csv", _count_output("output.emit_csv"), None),
    ("utpursuit.cli", "emit_svg", "output.emit_svg", _count_output("output.emit_svg"), None),
    ("utpursuit.cli", "emit_summary_json", "output.emit_summary_json", _count_output("output.emit_summary_json"), None),
    ("utpursuit.cli", "main", "cli.main", None, None),
)

def _noop(*args):
    return None


class Tracer:
    """Records spans from wrapped functions and folds them into per-name totals."""

    def __init__(self) -> None:
        # Spans of the current benchmark call, one column per field and in start
        # order, so a parent always precedes its children.  Flat lists of
        # strings and ints create no objects for the garbage collector to scan.
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.run_ids: list[int] = []
        # ns from the span's end to the end of its hook, 0 without a hook.
        self.hooks: list[int] = []
        self._stack: list[int] = []
        self.run_id = 0
        # name -> [calls, corrected ns, self ns]
        self.totals: dict[str, list] = {}
        self.counts: Counter = Counter()
        self.c_in = 0.0
        self.c_full = 0.0
        self._installed: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, on_result: Callable | None = None,
             on_error: Callable | None = None) -> Callable:
        names, starts, ends, parents, run_ids = self.names, self.starts, self.ends, self.parents, self.run_ids
        hooks, stack = self.hooks, self._stack

        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            run_ids.append(self.run_id)
            ends.append(0)
            hooks.append(0)
            stack.append(i)
            starts.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[i] = perf_counter_ns()
                stack.pop()
                if on_error is not None:
                    on_error(self, exc)
                    hooks[i] = perf_counter_ns() - ends[i]
                raise
            ends[i] = perf_counter_ns()
            stack.pop()
            if on_result is not None:
                on_result(self, args, result)
                hooks[i] = perf_counter_ns() - ends[i]
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every TARGETS entry; returns the ones the program no longer has."""
        missing = []
        for module_name, attr, name, on_result, on_error in TARGETS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                missing.append(f"{module_name}.{attr}")
                continue
            setattr(owner, leaf, self.wrap(name, original, on_result, on_error))
            self._installed.append((owner, leaf, original))
        return missing

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._installed):
            setattr(owner, leaf, original)
        self._installed.clear()

    def calibrate(self, calls: int = 20000, repeats: int = 9) -> None:
        """Measure c_in and c_full (ns) on a no-op, taking medians over repeats."""
        wrapped = self.wrap("calibration", _noop)
        full, inside = [], []
        for _ in range(repeats):
            t0 = perf_counter_ns()
            for _ in range(calls):
                pass
            t1 = perf_counter_ns()
            for _ in range(calls):
                _noop(1, 2)
            t2 = perf_counter_ns()
            for _ in range(calls):
                wrapped(1, 2)
            t3 = perf_counter_ns()
            full.append((t3 - t2 - (t2 - t1)) / calls)
            # The window also holds the no-op's own call, which the caller pays untraced.
            call = (t2 - t1 - (t1 - t0)) / calls
            inside.append(statistics.fmean(map(int.__sub__, self.ends, self.starts)) - call)
            self._clear()
        self.c_full = statistics.median(full)
        self.c_in = max(0.0, statistics.median(inside))

    def fold(self) -> None:
        """Turn the current call's spans into per-name totals, then drop them."""
        n = len(self.names)
        child_ns = [0.0] * n
        # Wrapper and hook ns of the spans nested in each span, inside its window.
        nested_ns = [0.0] * n
        totals = self.totals
        for i in range(n - 1, -1, -1):
            name, parent = self.names[i], self.parents[i]
            corrected = self.ends[i] - self.starts[i] - self.c_in - nested_ns[i]
            total = totals.get(name)
            if total is None:
                total = totals[name] = [0, 0.0, 0.0]
            total[0] += 1
            total[1] += corrected
            total[2] += corrected - child_ns[i]
            if parent >= 0:
                child_ns[parent] += corrected
                nested_ns[parent] += nested_ns[i] + self.c_full + self.hooks[i]
        self._clear()
        self.run_id += 1

    def _clear(self) -> None:
        for column in (self.names, self.starts, self.ends, self.parents, self.run_ids, self.hooks):
            column.clear()

    def take(self) -> tuple[dict[str, list], Counter]:
        """Return the totals and counts so far and start new ones."""
        totals, counts = self.totals, self.counts
        self.totals, self.counts = {}, Counter()
        return totals, counts


MODULES = ("sim", "pursuit", "geometry", "uncertainty", "waypoints", "roads", "vehicle", "output", "config", "cli")
# Spans the benchmark's set-up calls; their per-call figures include set-up.
SETUP_SPANS = ("waypoints.build_index", "waypoints.load_waypoints", "config.parse_config")

# metric -> (unit, span whose calls it needs, or None when it is not per span)
PER_LAYER = {
    "sim.run.self_us_per_step": ("us", "sim.run"),
    "sim.step_pp.us_per_call": ("us", "sim.step_pp"),
    "sim.step_utpp.us_per_call": ("us", "sim.step_utpp"),
    "sim.steps": ("count", None),
    **{
        f"{span}.{stat}": (unit, span)
        for span in (
            "pursuit.cross_track_line",
            "pursuit.cross_track_circle",
            "pursuit.steering_angle",
            "geometry.line_to_vehicle",
            "geometry.circle_to_vehicle",
        )
        for stat, unit in (("us_per_call", "us"), ("calls", "count"))
    },
    "pursuit.cross_track.fault_ratio": ("ratio", None),
    "uncertainty.generate_sigma_points.us_per_call": ("us", "uncertainty.generate_sigma_points"),
    "uncertainty.weighted_steering.us_per_call": ("us", "uncertainty.weighted_steering"),
    "waypoints.reduce_to_local_road.us_per_call": ("us", "waypoints.reduce_to_local_road"),
    "waypoints.reduce_to_local_road.calls": ("count", "waypoints.reduce_to_local_road"),
    "waypoints.select_lookahead_waypoint.us_per_call": ("us", "waypoints.select_lookahead_waypoint"),
    "waypoints.KdTree.nearest.us_per_call": ("us", "waypoints.KdTree.nearest"),
    "waypoints.build_index.ms": ("ms", "waypoints.build_index"),
    "waypoints.load_waypoints.ms": ("ms", "waypoints.load_waypoints"),
    "waypoints.circle_ratio": ("ratio", "waypoints.reduce_to_local_road"),
    "roads.lateral_deviation.us_per_call": ("us", "roads.lateral_deviation"),
    "roads.clamp_to_road.us_per_call": ("us", "roads.clamp_to_road"),
    "roads.nearest_point_on_polyline.us_per_call": ("us", "roads.nearest_point_on_polyline"),
    "roads.nearest_point_on_polyline.calls": ("count", "roads.nearest_point_on_polyline"),
    "roads.clamp_fired_ratio": ("ratio", "roads.clamp_to_road"),
    "vehicle.advance_pose.us_per_call": ("us", "vehicle.advance_pose"),
    "vehicle.sample_measured_pose.self_us_per_call": ("us", "vehicle.sample_measured_pose"),
    "output.emit_csv.us_per_record": ("us", "output.emit_csv"),
    "output.emit_svg.us_per_record": ("us", "output.emit_svg"),
    "output.emit_summary_json.us_per_call": ("us", "output.emit_summary_json"),
    "output.bytes_written": ("bytes", None),
    "config.parse_config.us_per_call": ("us", "config.parse_config"),
    "cli.main.self_us_per_call": ("us", "cli.main"),
    **{f"{module}.self_share": ("ratio", None) for module in MODULES},
    "trace.overhead_ratio": ("ratio", None),
}


def layer_metrics(
    timed: dict[str, list], setup: dict[str, list], counts: Counter, cycles: int, overhead_ratio: float | None
) -> dict[str, float | None]:
    """Derive every PER_LAYER metric; None marks one that had nothing to measure.

    Times are per call (or per step or record) in the timed cycles; the
    set-up spans also include the set-up calls.  Counts are per cycle.
    """

    def calls(span: str) -> int:
        return timed[span][0] if span in timed else 0

    def per(span: str, field: int, scale: float, denominator: float | None = None) -> float | None:
        """totals[field] / scale per call, or per `denominator` when given."""
        total = timed.get(span)
        if span in SETUP_SPANS and span in setup:
            total = [a + b for a, b in zip(total or (0, 0.0, 0.0), setup[span])]
        if total is None:
            return None
        denominator = total[0] if denominator is None else denominator
        return total[field] / denominator / scale if denominator else None

    def ratio(numerator: float, denominator: float) -> float | None:
        return numerator / denominator if denominator else None

    self_ns = {m: sum(t[2] for name, t in timed.items() if name.startswith(m + ".")) for m in MODULES}
    all_self = sum(self_ns.values())
    line, circle = "pursuit.cross_track_line", "pursuit.cross_track_circle"
    out: dict[str, float | None] = {}
    for metric, (unit, span) in PER_LAYER.items():
        stat = metric.rsplit(".", 1)[1]
        if stat == "us_per_call":
            value = per(span, 1, 1e3)
        elif stat == "self_us_per_call":
            value = per(span, 2, 1e3)
        elif stat == "ms":
            value = per(span, 1, 1e6)
        elif stat == "calls":
            value = calls(span) / cycles
        elif stat == "us_per_record":
            value = per(span, 1, 1e3, counts[f"{span}.records"])
        elif metric == "sim.run.self_us_per_step":
            value = per(span, 2, 1e3, counts["sim.steps"])
        elif metric == "sim.steps":
            value = counts["sim.steps"] / cycles
        elif metric == "output.bytes_written":
            value = counts["output.bytes_written"] / cycles
        elif metric == "pursuit.cross_track.fault_ratio":
            value = ratio(counts["pursuit.cross_track.faults"], calls(line) + calls(circle))
        elif metric == "waypoints.circle_ratio":
            value = ratio(counts["waypoints.circle_results"], calls(span))
        elif metric == "roads.clamp_fired_ratio":
            value = ratio(counts["roads.clamp_fired"], calls(span))
        elif stat == "self_share":
            module = metric.split(".", 1)[0]
            value = ratio(self_ns[module], all_self) if any(n.startswith(module + ".") for n in timed) else None
        else:
            value = overhead_ratio
        out[metric] = value
    return out

"""Measurement, output checks and reporting for one workload run.

An untraced run repeats the workload's set-up SETUPS times (set-up time is
their median), then calls the jobs unit after unit until --seconds have
passed and reports the end-to-end metrics.  A traced run alternates one
untraced and one traced schedule cycle until --seconds have passed and
reports the per-layer metrics.  Both check every run's summary.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import shutil
import statistics
import tempfile
import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import NamedTuple

import numpy as np

import spans
import workloads
from utpursuit.sim import Controller

SETUPS = 7
REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
# Co-tenants on a shared host slow every instruction stream on it, by up to
# 2x, for a fraction of a second to minutes.  Each call is therefore timed
# between two runs of host_probe(), and its time is scaled by
# PROBE_NOMINAL_S / (the probe's mean time around it): times are reported as
# on a host where the probe takes PROBE_NOMINAL_S.  A 2-core Xeon VM ran at
# 0.6-1.15 of that speed.  The raw times are printed too.  This holds only
# for a single-threaded program: work it left running after a call would slow
# the probe and so make the program read faster, so a call that leaves a
# thread behind fails.
PROBE_NOMINAL_S = 1.0e-3
# End-to-end metrics of an untraced run and their units.
END_TO_END = {
    "steps_per_s": "1/s",
    "pp_steps_per_s": "1/s",
    "utpp_steps_per_s": "1/s",
    "run_ms_p50": "ms",
    "run_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_frac": "ratio",
}
# The tolerance the CLI tests use for floats read back from output files.
REL_TOL, ABS_TOL = 1e-8, 1e-12


def environment() -> dict:
    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


class _Point:
    __slots__ = ("x", "y", "yaw")

    def __init__(self, x: float, y: float, yaw: float):
        self.x, self.y, self.yaw = x, y, yaw


def _probe_work(n: int = 2000) -> float:
    # Pure Python in the program's style (small objects, libm calls) but none
    # of its code, so no change to the program can change this work.
    acc = 0.0
    for i in range(n):
        t = i * 1e-3
        p = _Point(math.cos(t), math.sin(t), t)
        acc += math.atan2(p.y, p.x) + math.hypot(p.x, p.y)
    return acc


def host_probe() -> float:
    """Seconds the fixed probe work takes now: the mean of three tries.

    The mean, not the best: the program's own time includes the short
    interruptions a best-of-three would drop, and with them left out the
    probe over-corrected on a contended host (windows of the same work
    spread 5.4% instead of 2.8%).
    """
    start = perf_counter()
    for _ in range(3):
        _probe_work()
    return (perf_counter() - start) / 3


def load_reference(workload: str, seed: int) -> dict[str, list] | None:
    """Reference outcomes of every run of one cycle, by job label; None if absent."""
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        reference = json.load(fh)
    return reference["seeds"].get(str(seed), {}).get(workload)


def _same(a: tuple, b: tuple) -> bool:
    """Convergence time and fault count exactly, the two float fields within REL_TOL."""
    return (
        a[0] == b[0]
        and a[3] == b[3]
        and all(math.isclose(x, y, rel_tol=REL_TOL, abs_tol=ABS_TOL) for x, y in zip(a[1:3], b[1:3]))
    )


class Checker:
    """Checks each run's outcome; returns a reason when the run fails.

    Every run must be plausible for its scenario and repeat the outcome of
    its seed's first run exactly.  With a reference for this seed it must
    also match the reference.
    """

    def __init__(self, reference: dict[str, list] | None, prepared: workloads.Prepared):
        self.reference = reference
        self.limit = prepared.steering_limit
        self.dt = prepared.dt
        self.first: dict[tuple[str, int], tuple] = {}

    def check(self, job: workloads.Job, index: int, out: tuple) -> str | None:
        conv, mean_err, max_delta, faults = out
        steps = job.steps_per_run
        if not (0 <= faults <= steps and math.isfinite(mean_err) and mean_err >= 0.0
                and 0.0 <= max_delta <= self.limit + 1e-12
                and (conv is None or 0.0 <= conv <= steps * self.dt)):
            return f"{job.label} run {index}: implausible summary {out}"
        first = self.first.setdefault((job.label, index), out)
        if first != out:
            return f"{job.label} run {index}: {out} differs from the same seed's earlier {first}"
        if self.reference is not None:
            expected = tuple(self.reference[job.label][index])
            if not _same(out, expected):
                return f"{job.label} run {index}: {out} does not match the reference {expected}"
        return None


class Call(NamedTuple):
    """One successful, timed job call."""

    unit: int
    job: str
    slot: int
    controller: Controller
    scaled_s: float
    raw_s: float
    runs: int
    steps: int


@dataclass
class Tally:
    """Timed calls and failures of one part of a run."""

    calls: list[Call] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def steps_per_s(self, controller: Controller | None = None, raw: bool = False) -> float:
        """Median over units of the unit's steps per second; 0 without a
        successful call.

        A median, because one unit that the host-speed probe misjudged should
        not move the result.
        """
        steps: dict[int, int] = {}
        seconds: dict[int, float] = {}
        for call in self.calls:
            if controller in (None, call.controller):
                steps[call.unit] = steps.get(call.unit, 0) + call.steps
                seconds[call.unit] = seconds.get(call.unit, 0.0) + (call.raw_s if raw else call.scaled_s)
        if not steps:
            return 0.0
        return statistics.median(steps[u] / seconds[u] for u in steps)

    def run_ms(self, raw: bool = False) -> list[float]:
        """Host ms per run of each distinct call (job and slot): the median
        over the call's repeats, divided by the runs it holds.

        The same job and slot run the same seeds every cycle, so the median
        over repeats keeps the spread between calls and drops most of the
        host's.  A call of several runs is one measurement, their average.
        """
        repeats: dict[tuple[str, int], list[float]] = {}
        runs: dict[tuple[str, int], int] = {}
        for call in self.calls:
            repeats.setdefault((call.job, call.slot), []).append(call.raw_s if raw else call.scaled_s)
            runs[call.job, call.slot] = call.runs
        return [1e3 * statistics.median(times) / runs[key] for key, times in repeats.items()]


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of quantile p: a Beta-weighted mean of every
    order statistic; 0 when nothing was measured.

    Half of analytic_batch's calls are pp and half utpp, two clusters a gap
    apart, so a plain median is the midpoint of the slowest pp call and the
    fastest utpp call: two extremes that host noise moves by 10%.  This
    estimate weights the ~10 calls nearest the quantile instead.
    """
    if not values:
        return 0.0
    xs = np.sort(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    # Beta(a, b) mass of each interval [(i-1)/n, i/n], by the midpoint rule.
    t = (np.arange(64 * n) + 0.5) / (64 * n)
    log_pdf = (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
    weights = np.exp(log_pdf - log_pdf.max()).reshape(n, 64).sum(axis=1)
    return float(weights @ xs / weights.sum())


def run_units(
    prepared: workloads.Prepared,
    cycle: int,
    checker: Checker,
    tally: Tally,
    *,
    seconds: float | None = None,
    units: int | None = None,
    tracer: spans.Tracer | None = None,
) -> None:
    """Call every job once per unit, until `units` units or `seconds` have passed."""
    deadline = perf_counter() + seconds if seconds is not None else math.inf
    unit = 0
    first_key = tally.calls[-1].unit + 1 if tally.calls else 0
    probe = host_probe()
    while True:
        slot = unit % cycle
        for job in prepared.jobs:
            tally.attempted += job.runs_per_call
            start = perf_counter()
            try:
                outs = job.call(slot)
                if threading.active_count() > 1:
                    raise RuntimeError(f"{threading.active_count() - 1} thread(s) still running after the call")
            except Exception as exc:  # a failed run is counted and reported, never fatal
                outs = None
                tally.failed += job.runs_per_call
                tally.errors.append(f"{job.label} slot {slot}: {type(exc).__name__}: {exc}")
            elapsed = perf_counter() - start
            before, probe = probe, host_probe()
            if tracer is not None:
                tracer.fold()
            if outs is None:
                continue
            scaled = elapsed * PROBE_NOMINAL_S / ((before + probe) / 2)
            tally.calls.append(Call(first_key + unit, job.label, slot, job.controller, scaled, elapsed,
                                    job.runs_per_call, job.runs_per_call * job.steps_per_run))
            if len(outs) == job.runs_per_call:
                reasons = [checker.check(job, slot * job.runs_per_call + k, out) for k, out in enumerate(outs)]
            else:
                reasons = [f"{job.label} slot {slot}: {len(outs)} summaries for {job.runs_per_call} runs"]
            bad = [r for r in reasons if r]
            tally.failed += min(len(bad), job.runs_per_call)
            tally.errors.extend(bad)
        unit += 1
        if unit >= (units or math.inf) or perf_counter() >= deadline:
            return


def set_up(workload: workloads.Workload, root: str, seed: int, out_dir: str,
           tracer: spans.Tracer | None = None) -> tuple[workloads.Prepared, float]:
    """Run the workload's set-up SETUPS times; returns the last and the median seconds."""
    times = []
    probe = host_probe()
    for _ in range(SETUPS):
        start = perf_counter()
        prepared = workload.setup(root, seed, out_dir)
        for job in prepared.jobs:
            job.warm_up()
        elapsed = perf_counter() - start
        if tracer is not None:
            tracer.fold()
        after = host_probe()
        times.append(elapsed * PROBE_NOMINAL_S / ((probe + after) / 2))
        probe = after
    return prepared, statistics.median(times)


def _load() -> float:
    return os.getloadavg()[0]


def _print_load(label: str, before: float, after: float, nproc: int) -> None:
    flag = "  [LOADED: 1-min load above nproc]" if max(before, after) > nproc else ""
    print(f"load {label}: {before:.2f} -> {after:.2f}{flag}")


def _print_simulated(checker: Checker, prepared: workloads.Prepared) -> None:
    """Simulated statistics per job over its distinct runs: these must not move
    when only host speed changes."""
    for job in prepared.jobs:
        outs = [out for (label, _), out in checker.first.items() if label == job.label]
        if not outs:
            continue
        conv = statistics.median(math.inf if o[0] is None else o[0] for o in outs)
        print(
            f"simulated {job.label}: {len(outs)} distinct runs, median convergence {conv} s, "
            f"mean |lateral error| {statistics.fmean(o[1] for o in outs):.9g} m, "
            f"fault steps {sum(o[3] for o in outs)}"
        )


def _print_checks(reference: dict | None, seed: int, tally: Tally) -> None:
    if reference is None:
        print(f"reference: none stored for seed {seed}; runs checked for plausibility "
              "and determinism only, not against reference values")
    else:
        print(f"reference: seed {seed} checked against stored reference values")
    for error in tally.errors[:20]:
        print(f"FAILED {error}")
    if len(tally.errors) > 20:
        print(f"... and {len(tally.errors) - 20} more failures")


def _print_unmeasured(tally: Tally, label: str = "") -> None:
    for controller in workloads.CONTROLLERS:
        if not any(call.controller is controller for call in tally.calls):
            print(f"NOT MEASURED {label}{controller.value}: every call failed, so its steps/s reads 0")


def main(name: str, seed: int, seconds: float, traced: bool, root: str) -> int:
    workload = workloads.WORKLOADS[name]
    env = environment()
    print(f"workload {name} (seed {seed}, {seconds:g} s, trace {int(traced)}): {workload.why}")
    print("env: " + json.dumps(env))
    reference = load_reference(name, seed)
    out_dir = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
    try:
        if traced:
            tally, metrics = _traced(workload, root, seed, seconds, out_dir, reference, env)
        else:
            tally, metrics = _untraced(workload, root, seed, seconds, out_dir, reference, env)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


def _untraced(workload, root, seed, seconds, out_dir, reference, env):
    prepared, setup_s = set_up(workload, root, seed, out_dir)
    checker = Checker(reference, prepared)
    tally = Tally()
    before = _load()
    run_units(prepared, workload.cycle, checker, tally, seconds=seconds)
    _print_load("over the timed part", before, _load(), env["nproc"])
    _print_simulated(checker, prepared)
    _print_checks(reference, seed, tally)
    _print_unmeasured(tally)
    run_ms = tally.run_ms()
    p50, p90 = quantile(run_ms, 0.5), quantile(run_ms, 0.9)
    runs_per_call = sorted({job.runs_per_call for job in prepared.jobs})
    print(f"timed {sum(call.runs for call in tally.calls)} runs in {len(tally.calls)} calls of "
          f"{'/'.join(map(str, runs_per_call))} run(s): {len(run_ms)} distinct calls, "
          f"{len(tally.calls) / max(len(run_ms), 1):.1f} repeats each on average; run_ms is per call, "
          f"and p90 has {sum(ms > p90 for ms in run_ms)} measured values beyond it")
    raw_ms = tally.run_ms(raw=True)
    raw_p50, raw_p90 = quantile(raw_ms, 0.5), quantile(raw_ms, 0.9)
    scaled = tally.steps_per_s()
    speed = f"{tally.steps_per_s(raw=True) / scaled:.3f}" if scaled else "unknown"
    print(f"unscaled: steps_per_s {tally.steps_per_s(raw=True):.6g} 1/s, pp {tally.steps_per_s(Controller.PP, True):.6g}, "
          f"utpp {tally.steps_per_s(Controller.UTPP, True):.6g}, run_ms p50 {raw_p50:.6g}, p90 {raw_p90:.6g}; "
          f"host ran at {speed} of nominal speed")
    values = {
        "steps_per_s": scaled,
        "pp_steps_per_s": tally.steps_per_s(Controller.PP),
        "utpp_steps_per_s": tally.steps_per_s(Controller.UTPP),
        "run_ms_p50": p50,
        "run_ms_p90": p90,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "pass_frac": (tally.attempted - tally.failed) / tally.attempted,
    }
    for metric, value in values.items():
        print(f"{metric} = {value:.6g} {END_TO_END[metric]}")
    return tally, {m: {"value": v, "unit": END_TO_END[m]} for m, v in values.items()}


def _traced(workload, root, seed, seconds, out_dir, reference, env):
    tracer = spans.Tracer()
    tracer.calibrate()
    print(f"wrapper cost: {tracer.c_in:.0f} ns inside a span, {tracer.c_full:.0f} ns per call in all")
    deadline = perf_counter() + seconds
    missing = tracer.install()
    try:
        prepared, _ = set_up(workload, root, seed, out_dir, tracer)
        setup_totals, _ = tracer.take()
        checker = Checker(reference, prepared)
        plain, traced, cycles = Tally(), Tally(), 0
        while cycles == 0 or perf_counter() < deadline:
            tracer.uninstall()
            before = _load()
            run_units(prepared, workload.cycle, checker, plain, units=workload.cycle)
            tracer.install()
            run_units(prepared, workload.cycle, checker, traced, units=workload.cycle, tracer=tracer)
            _print_load(f"over cycle pair {cycles}", before, _load(), env["nproc"])
            cycles += 1
    finally:
        tracer.uninstall()
    for target in missing:
        print(f"NOT WRAPPED {target}: the program has no such name any more")
    timed_totals, counts = tracer.take()
    _print_simulated(checker, prepared)
    tally = Tally(plain.calls + traced.calls, plain.attempted + traced.attempted,
                  plain.failed + traced.failed, plain.errors + traced.errors)
    _print_checks(reference, seed, tally)
    _print_unmeasured(plain, "untraced ")
    _print_unmeasured(traced, "traced ")
    print(f"traced {cycles} cycle(s) of {workload.cycle} units; counts below are per cycle")
    for span in sorted(workload.expected):
        if span not in timed_totals and span not in setup_totals:
            print(f"BYPASS {span}: no calls on a workload where calls are expected")
    for label, part in (("untraced", plain), ("traced", traced)):
        print(f"{label} cycles: steps_per_s pp {part.steps_per_s(Controller.PP):.6g}, "
              f"utpp {part.steps_per_s(Controller.UTPP):.6g} (unscaled pp "
              f"{part.steps_per_s(Controller.PP, True):.6g}, utpp {part.steps_per_s(Controller.UTPP, True):.6g})")
    overhead = traced.steps_per_s() / plain.steps_per_s() if plain.steps_per_s() else None
    values = spans.layer_metrics(timed_totals, setup_totals, counts, cycles, overhead)
    metrics = {}
    for metric, value in values.items():
        unit, span = spans.PER_LAYER[metric]
        if value is None:
            why = "BYPASS, expected calls" if span in workload.expected else "no calls on this workload"
            print(f"{metric} = not measured ({why}); reported as -1")
            value = -1.0
        else:
            print(f"{metric} = {value:.6g} {unit}")
        metrics[metric] = {"value": value, "unit": unit}
    return tally, metrics

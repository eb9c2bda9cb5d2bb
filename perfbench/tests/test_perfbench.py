"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path
from time import perf_counter, perf_counter_ns

import pytest

HERE = Path(__file__).resolve().parent
BENCH_DIR = HERE.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import bench  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from utpursuit import config, sim  # noqa: E402
from utpursuit.waypoints import WaypointPath  # noqa: E402


def test_dense_loop_is_deterministic_per_seed_and_valid():
    assert workloads.stadium_points() == workloads.stadium_points()
    assert workloads.dense_start_pose(5) == workloads.dense_start_pose(5)
    assert workloads.dense_start_pose(5) != workloads.dense_start_pose(6)
    scenario = workloads.dense_scenario(5)
    assert scenario == workloads.dense_scenario(5)
    # WaypointPath validates spacing and finiteness on construction.
    path = WaypointPath(list(scenario.road.points))
    assert 9_900 <= len(path) <= 10_100


@pytest.mark.parametrize("seed", range(6))
def test_dense_loop_runs_reduce_to_both_lines_and_circles(seed):
    tracer = spans.Tracer()
    tracer.install()
    try:
        sim.run(workloads.dense_scenario(seed))
    finally:
        tracer.uninstall()
    tracer.fold()
    totals, counts = tracer.take()
    reductions = totals["waypoints.reduce_to_local_road"][0]
    assert 0 < counts["waypoints.circle_results"] < reductions


def test_traced_self_times_sum_to_wall_time_within_calibrated_overhead():
    # utpp on a straight road: ~27 spans per step of ~70 us, so the wrapper
    # overhead is a sizeable share of the wall time and leaving it out, or
    # counting a child twice, lands far outside the tolerance.
    scenario = replace(config.parse_config(str(ROOT / "configs" / "straight.cfg")),
                       controller=sim.Controller.UTPP, steps=30)
    tracer = spans.Tracer()
    residuals = []
    for _ in range(5):
        tracer.calibrate(calls=5000, repeats=5)
        tracer.install()
        try:
            start = perf_counter_ns()
            sim.run_batch(scenario, 1, 0)
            wall = perf_counter_ns() - start
        finally:
            tracer.uninstall()
        n_spans, hook_ns = len(tracer.names), sum(tracer.hooks)
        tracer.fold()
        totals, _ = tracer.take()
        self_sum = sum(t[2] for t in totals.values())
        # Untraced, the same work would take the summed self times; the rest
        # of the wall time is the calibrated cost of each wrapper and the
        # measured time of its hooks.
        overhead = n_spans * tracer.c_full + hook_ns
        residuals.append(abs(wall - self_sum - overhead) / overhead)
    assert sorted(residuals)[2] < 0.5


def _spin(seconds: float) -> None:
    end = perf_counter() + seconds
    while perf_counter() < end:
        pass


def test_hook_time_is_not_charged_to_the_parent():
    tracer = spans.Tracer()
    tracer.calibrate(calls=2000, repeats=3)
    child = tracer.wrap("child", lambda: None, on_result=lambda *_: _spin(2e-3))
    parent = tracer.wrap("parent", lambda: [child() for _ in range(3)])
    parent()
    tracer.fold()
    totals, _ = tracer.take()
    # The hooks take 6 ms inside the parent's window; none of it is its own.
    assert totals["parent"][2] < 1e6


def test_missing_program_name_is_reported_not_wrapped(monkeypatch):
    from utpursuit import waypoints as wp

    monkeypatch.delattr(wp, "select_lookahead_waypoint")
    tracer = spans.Tracer()
    try:
        missing = tracer.install()
    finally:
        tracer.uninstall()
    assert missing == ["utpursuit.waypoints.select_lookahead_waypoint"]


def test_name_without_calls_is_not_measured_rather_than_zero():
    values = spans.layer_metrics({}, {}, spans.Counter(), 1, 0.5)
    assert values["pursuit.cross_track_circle.us_per_call"] is None
    assert values["pursuit.cross_track_circle.calls"] == 0
    assert values["trace.overhead_ratio"] == 0.5


def _one_unit(prepared, reference):
    checker = bench.Checker(reference, prepared)
    tally = bench.Tally()
    bench.run_units(prepared, 1, checker, tally, units=1)
    return tally


def test_corrupted_reference_value_counts_as_failed_run(tmp_path):
    prepared = workloads.setup_analytic(str(ROOT), 3, str(tmp_path))
    reference = {job.label: [list(o) for o in job.call(0)] for job in prepared.jobs}
    runs = sum(job.runs_per_call for job in prepared.jobs)

    clean = _one_unit(prepared, reference)
    assert (clean.attempted, clean.failed) == (runs, 0)

    # Within the CLI tests' relative tolerance still passes.
    reference["straight/pp"][2][1] *= 1 + 1e-10
    assert _one_unit(prepared, reference).failed == 0

    reference["circle/utpp"][4][1] *= 1 + 1e-6
    reference["straight/pp"][3][3] += 1
    corrupted = _one_unit(prepared, reference)
    assert (corrupted.attempted, corrupted.failed) == (runs, 2)
    assert any("circle/utpp run 4" in e for e in corrupted.errors)
    assert any("straight/pp run 3" in e for e in corrupted.errors)


def _with_jobs(*calls):
    """A one-unit workload whose jobs run the given callables, pp then utpp."""
    jobs = [
        workloads.Job(f"fake/{c.value}", c, 1, 10, call, lambda: None)
        for c, call in zip(workloads.CONTROLLERS, calls)
    ]
    prepared = workloads.Prepared(jobs, 1.0, 0.1)
    return workloads.Workload("fake", "", 1, lambda *_: prepared, frozenset())


def _raise(slot):
    raise RuntimeError("broken")


def _good(slot):
    return [(None, 0.1, 0.2, 0)]


@pytest.mark.parametrize("calls", [(_good, _raise), (_raise, _raise)])
def test_a_job_that_always_raises_is_reported_as_failed(calls, tmp_path):
    tally, metrics = bench._untraced(_with_jobs(*calls), str(ROOT), 0, 0.05, str(tmp_path), None,
                                     bench.environment())
    assert tally.failed > 0
    assert metrics["utpp_steps_per_s"]["value"] == 0.0
    assert metrics["pass_frac"]["value"] < 1.0
    assert set(metrics) == set(bench.END_TO_END)


def test_a_call_that_leaves_a_thread_running_fails():
    stop = threading.Event()
    worker = threading.Thread(target=stop.wait)

    def leaves_thread(slot):
        worker.start()
        return _good(slot)

    prepared = _with_jobs(_good, leaves_thread).setup()
    tally = bench.Tally()
    try:
        bench.run_units(prepared, 1, bench.Checker(None, prepared), tally, units=1)
    finally:
        stop.set()
        worker.join()
    assert (tally.attempted, tally.failed) == (2, 1)
    assert "thread(s) still running" in tally.errors[0]


def test_reference_covers_every_run_of_every_workload():
    with open(bench.REFERENCE_FILE, encoding="utf-8") as fh:
        seeds = json.load(fh)["seeds"]
    assert set(seeds) == {"0", "1"}
    for by_workload in seeds.values():
        assert set(by_workload) == set(workloads.WORKLOADS)
        for name, runs in by_workload.items():
            workload = workloads.WORKLOADS[name]
            per_call = workloads.ANALYTIC_RUNS_PER_CALL if name == "analytic_batch" else 1
            assert all(len(outcomes) == workload.cycle * per_call for outcomes in runs.values())


def test_benchmark_json_matches_the_metrics_reported():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: v[0] for k, v in spans.PER_LAYER.items()}
    wrapped = {target[2] for target in spans.TARGETS}
    assert wrapped >= set().union(*(w.expected for w in workloads.WORKLOADS.values()))


def test_fails_without_printing_a_result_when_the_program_is_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "analytic_batch", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout

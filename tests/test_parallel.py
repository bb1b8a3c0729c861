"""Unit tests for the parallel runner, plan capture, and disk cache."""

import pytest

from repro.config import scaled_config
from repro.core import builder
from repro.harness import experiments as exp
from repro.harness.diskcache import ResultDiskCache
from repro.harness.parallel import (
    JOBS_ENV,
    ParallelRunner,
    PlanningContext,
    RunTask,
    capture_plan,
    make_context,
    resolve_jobs,
)
from repro.harness.runner import ExperimentContext
from repro.harness.supervisor import _next_ready, _TaskState
from repro.metrics.export import (
    result_from_json_dict,
    result_to_json_dict,
    run_to_dict,
)
from repro.workloads.spec import WorkloadScale

#: A minuscule scale so parallel tests run in milliseconds per simulation.
MICRO = WorkloadScale(name="micro", cta_cap=24, footprint_lines=2048,
                      ops_scale=0.25)

SUBSET = ("Lonestar-SP", "Rodinia-Hotspot")


@pytest.fixture()
def ctx():
    return ExperimentContext(sms_per_socket=2, scale=MICRO)


# ---------------------------------------------------------------------------
# jobs resolution
# ---------------------------------------------------------------------------

def test_resolve_jobs_explicit_wins(monkeypatch):
    monkeypatch.setenv(JOBS_ENV, "7")
    assert resolve_jobs(3) == 3


def test_resolve_jobs_env(monkeypatch):
    monkeypatch.setenv(JOBS_ENV, "5")
    assert resolve_jobs(None) == 5


def test_resolve_jobs_default_serial(monkeypatch):
    monkeypatch.delenv(JOBS_ENV, raising=False)
    assert resolve_jobs(None) == 1


def test_resolve_jobs_zero_means_cpu_count():
    import os

    assert resolve_jobs(0) == (os.cpu_count() or 1)


def test_resolve_jobs_rejects_garbage(monkeypatch):
    monkeypatch.setenv(JOBS_ENV, "lots")
    with pytest.raises(ValueError):
        resolve_jobs(None)
    with pytest.raises(ValueError):
        resolve_jobs(-2)


# ---------------------------------------------------------------------------
# plan capture
# ---------------------------------------------------------------------------

def test_capture_plan_enumerates_figure3_grid(ctx):
    plan = capture_plan(ctx, [lambda c: exp.figure3(c, workloads=SUBSET)])
    # 2 workloads x {single, traditional, locality, hypothetical}.
    assert len(plan) == 8
    assert {t.workload for t in plan} == set(SUBSET)
    assert all(isinstance(t, RunTask) for t in plan)
    assert not any(t.record_timelines for t in plan)


def test_capture_plan_deduplicates_shared_baselines(ctx):
    # figure3 and figure10 share the single-GPU baseline per workload.
    plan = capture_plan(ctx, [
        lambda c: exp.figure3(c, workloads=SUBSET),
        lambda c: exp.figure10(c, workloads=SUBSET),
    ])
    keys = {
        ctx.cache_key(t.workload, t.config, t.record_timelines) for t in plan
    }
    assert len(keys) == len(plan)  # no duplicates survive capture


def test_capture_plan_records_timeline_flag(ctx):
    plan = capture_plan(
        ctx, [lambda c: exp.figure5(c, workload="Lonestar-SP", n_windows=4)]
    )
    assert len(plan) == 1
    assert plan[0].record_timelines


def test_planning_context_runs_nothing(ctx):
    planner = PlanningContext.from_context(ctx)
    result = exp.figure3(planner, workloads=SUBSET)
    assert len(planner.tasks) == 8
    # Stub results flow through the driver arithmetic without simulating.
    assert all(r.traditional == 1.0 for r in result.rows)


# ---------------------------------------------------------------------------
# parallel == serial
# ---------------------------------------------------------------------------

def test_parallel_prewarm_matches_serial_bit_for_bit(ctx):
    drivers = [
        lambda c: exp.figure3(c, workloads=SUBSET),
        lambda c: exp.figure6(c, workloads=SUBSET, sample_times=(1000,)),
    ]
    serial_results = [d(ctx) for d in drivers]

    par_ctx = ExperimentContext(sms_per_socket=2, scale=MICRO)
    runner = ParallelRunner(par_ctx, jobs=2)
    executed = runner.prewarm_experiments(drivers)
    assert executed == par_ctx.cached_runs == ctx.cached_runs
    parallel_results = [d(par_ctx) for d in drivers]
    # No additional simulations ran while computing the figures.
    assert par_ctx.cached_runs == executed

    f3_s, f3_p = serial_results[0], parallel_results[0]
    assert [
        (r.workload, r.traditional, r.locality, r.hypothetical)
        for r in f3_s.rows
    ] == [
        (r.workload, r.traditional, r.locality, r.hypothetical)
        for r in f3_p.rows
    ]
    assert serial_results[1].per_workload == parallel_results[1].per_workload


# ---------------------------------------------------------------------------
# workload-affine execution order and trace-memo telemetry
# ---------------------------------------------------------------------------

TRIO = ("Lonestar-SP", "Rodinia-Hotspot", "Rodinia-BFS")

#: figure3 then figure10 over TRIO: 15 tasks planned A*4 B*4 C*4 A B C.
INTERLEAVED = [
    lambda c: exp.figure3(c, workloads=TRIO),
    lambda c: exp.figure10(c, workloads=TRIO),
]


@pytest.fixture()
def cold_trace_memo(monkeypatch):
    """No test starts with (or leaks) the previous test's trace set."""
    monkeypatch.setattr(builder, "_last_traces", None)


def _plan_order_reference():
    """Figures and results of the INTERLEAVED drivers run in plan order."""
    ref = ExperimentContext(sms_per_socket=2, scale=MICRO)
    figures = [driver(ref) for driver in INTERLEAVED]
    return figures, ref._cache


def test_serial_grid_builds_one_trace_set_per_workload(ctx, cold_trace_memo):
    plan = capture_plan(ctx, INTERLEAVED)
    workloads = [t.workload for t in plan]
    assert workloads[12:] == list(TRIO)  # interleaved: each recurs
    runner = ParallelRunner(ctx, jobs=1)
    runner.prewarm(plan)
    telemetry = runner.report.telemetry
    assert telemetry["totals"]["trace_builds"] == len(TRIO)
    assert telemetry["totals"]["trace_hits"] == len(plan) - len(TRIO)
    samples = telemetry["workers"]["serial"]["tasks"]
    # Executed grouped by workload, groups in first-appearance order.
    executed = [s["key"].split("@")[0] for s in samples]
    assert executed == sorted(workloads, key=TRIO.index)
    assert [s["trace_built"] for s in samples] == [
        i in (0, 5, 10) for i in range(len(plan))
    ]
    # Same results and figures as running the plan in its own order.
    figures, cache = _plan_order_reference()
    assert ctx._cache == cache
    assert [driver(ctx) for driver in INTERLEAVED] == figures


def test_pool_grid_builds_at_most_one_trace_set_per_worker_and_workload(
        ctx, cold_trace_memo):
    plan = capture_plan(ctx, INTERLEAVED)
    runner = ParallelRunner(ctx, jobs=2)
    runner.prewarm(plan)
    totals = runner.report.telemetry["totals"]
    assert totals["trace_builds"] <= 2 * len(TRIO)
    assert totals["trace_builds"] + totals["trace_hits"] == len(plan)
    figures, cache = _plan_order_reference()
    assert ctx._cache == cache
    assert [driver(ctx) for driver in INTERLEAVED] == figures


def test_idle_worker_prefers_its_last_workload():
    config = scaled_config()
    waiting = [
        _TaskState(index=i, task=RunTask(name, config), key=str(i))
        for i, name in enumerate(("A", "B", "A", "B"))
    ]
    assert _next_ready(waiting, "B", now=0.0) == 1
    assert _next_ready(waiting, None, now=0.0) == 0
    assert _next_ready(waiting, "C", now=0.0) == 0
    # A task waiting out its retry backoff is not ready yet.
    waiting[1].ready_at = 5.0
    assert _next_ready(waiting, "B", now=0.0) == 3
    for state in waiting:
        state.ready_at = 5.0
    assert _next_ready(waiting, "B", now=0.0) is None


def test_prewarm_skips_cached_tasks(ctx):
    drivers = [lambda c: exp.figure3(c, workloads=("Lonestar-SP",))]
    runner = ParallelRunner(ctx, jobs=1)
    first = runner.prewarm_experiments(drivers)
    assert first == 4
    second = runner.prewarm_experiments(drivers)
    assert second == 0
    assert runner.skipped == 4


def test_prewarm_serial_path(ctx):
    runner = ParallelRunner(ctx, jobs=1)
    n = runner.prewarm_experiments(
        [lambda c: exp.figure3(c, workloads=("Lonestar-SP",))]
    )
    assert n == 4 and ctx.cached_runs == 4


# ---------------------------------------------------------------------------
# RunResult JSON round-trip
# ---------------------------------------------------------------------------

def test_result_json_round_trip(ctx):
    result = ctx.run("Lonestar-SP", ctx.config_locality(),
                     record_timelines=True)
    clone = result_from_json_dict(result_to_json_dict(result))
    assert clone == result  # dataclass equality covers every field
    assert run_to_dict(clone) == run_to_dict(result)


# ---------------------------------------------------------------------------
# disk cache
# ---------------------------------------------------------------------------

def test_disk_cache_round_trip(tmp_path, ctx):
    cache = ResultDiskCache(tmp_path)
    config = ctx.config_single_gpu()
    result = ctx.run("Lonestar-SP", config)
    cache.put("Lonestar-SP", MICRO.name, False, config, result)
    assert len(cache) == 1
    loaded = cache.get("Lonestar-SP", MICRO.name, False, config)
    assert loaded == result
    assert cache.hits == 1


def test_disk_cache_miss_on_different_config(tmp_path, ctx):
    cache = ResultDiskCache(tmp_path)
    config = ctx.config_single_gpu()
    cache.put("Lonestar-SP", MICRO.name, False, config,
              ctx.run("Lonestar-SP", config))
    assert cache.get("Lonestar-SP", MICRO.name, False,
                     ctx.config_locality()) is None
    assert cache.get("Rodinia-Hotspot", MICRO.name, False, config) is None
    assert cache.get("Lonestar-SP", "tiny", False, config) is None
    assert cache.get("Lonestar-SP", MICRO.name, True, config) is None


def test_disk_cache_corrupt_entry_is_quarantined(tmp_path, ctx):
    """Regression: corrupt entries used to be silently counted as plain
    misses and left in place, so every later run re-read and re-failed
    the same broken file. They must be moved aside and counted."""
    cache = ResultDiskCache(tmp_path)
    config = ctx.config_single_gpu()
    path = cache.put("Lonestar-SP", MICRO.name, False, config,
                     ctx.run("Lonestar-SP", config))
    path.write_text("{not json")
    assert cache.get("Lonestar-SP", MICRO.name, False, config) is None
    assert cache.corrupt == 1
    assert cache.misses == 0  # quarantine is not a plain miss
    assert not path.exists()
    assert path.with_suffix(".corrupt").exists()
    # The broken entry is gone: the next lookup is an ordinary miss.
    assert cache.get("Lonestar-SP", MICRO.name, False, config) is None
    assert cache.corrupt == 1
    assert cache.misses == 1


def test_disk_cache_checksum_mismatch_is_quarantined(tmp_path, ctx):
    import json

    cache = ResultDiskCache(tmp_path)
    config = ctx.config_single_gpu()
    path = cache.put("Lonestar-SP", MICRO.name, False, config,
                     ctx.run("Lonestar-SP", config))
    # Valid JSON, valid envelope shape — but the payload was tampered
    # with after the checksum was computed (silent bit-rot model).
    envelope = json.loads(path.read_text())
    envelope["payload"]["cycles"] = envelope["payload"]["cycles"] + 1
    path.write_text(json.dumps(envelope))
    assert cache.get("Lonestar-SP", MICRO.name, False, config) is None
    assert cache.corrupt == 1
    assert path.with_suffix(".corrupt").exists()


def test_disk_cache_pre_envelope_entry_is_quarantined(tmp_path, ctx):
    import json

    cache = ResultDiskCache(tmp_path)
    config = ctx.config_single_gpu()
    result = ctx.run("Lonestar-SP", config)
    path = cache.put("Lonestar-SP", MICRO.name, False, config, result)
    # A bare payload with no checksum envelope (the pre-hardening disk
    # format) must not be trusted.
    path.write_text(json.dumps(result_to_json_dict(result)))
    assert cache.get("Lonestar-SP", MICRO.name, False, config) is None
    assert cache.corrupt == 1


def test_disk_cache_put_degrades_when_root_unwritable(tmp_path, ctx):
    # The cache root path is an existing *file*, so mkdir fails with an
    # OSError regardless of privileges (chmod tricks don't bind as root).
    blocker = tmp_path / "blocker"
    blocker.write_text("in the way")
    cache = ResultDiskCache(blocker)
    config = ctx.config_single_gpu()
    result = ctx.run("Lonestar-SP", config)
    with pytest.warns(RuntimeWarning, match="result cache write failed"):
        assert cache.put("Lonestar-SP", MICRO.name, False, config,
                         result) is None
    assert cache.put_errors == 1
    # Degraded, not dead: the warning fires once, the counter keeps going.
    import warnings as warnings_module

    with warnings_module.catch_warnings(record=True) as caught:
        warnings_module.simplefilter("always")
        assert cache.put("Lonestar-SP", MICRO.name, False, config,
                         result) is None
    assert caught == []
    assert cache.put_errors == 2
    # Reads against the unwritable root are plain misses, not crashes.
    assert cache.get("Lonestar-SP", MICRO.name, False, config) is None
    assert cache.misses == 1


def test_disk_cache_put_degrades_on_enospc(tmp_path, ctx, monkeypatch):
    import errno

    cache = ResultDiskCache(tmp_path)
    config = ctx.config_single_gpu()
    result = ctx.run("Lonestar-SP", config)

    def replace_enospc(src, dst):
        raise OSError(errno.ENOSPC, "no space left on device")

    monkeypatch.setattr("repro.harness.diskcache.os.replace", replace_enospc)
    with pytest.warns(RuntimeWarning, match="No space left|no space left"):
        assert cache.put("Lonestar-SP", MICRO.name, False, config,
                         result) is None
    assert cache.put_errors == 1
    assert len(cache) == 0


def test_disk_cache_keyed_by_package_version(tmp_path, ctx, monkeypatch):
    import repro

    cache = ResultDiskCache(tmp_path)
    config = ctx.config_single_gpu()
    cache.put("Lonestar-SP", MICRO.name, False, config,
              ctx.run("Lonestar-SP", config))
    monkeypatch.setattr(repro, "__version__", "0.0.0-test")
    assert cache.get("Lonestar-SP", MICRO.name, False, config) is None


def test_context_uses_disk_cache_across_instances(tmp_path):
    first = make_context(MICRO, cache_dir=tmp_path, sms_per_socket=2)
    a = first.run("Lonestar-SP", first.config_single_gpu())
    assert len(first.disk_cache) == 1

    second = make_context(MICRO, cache_dir=tmp_path, sms_per_socket=2)
    b = second.run("Lonestar-SP", second.config_single_gpu())
    assert b == a
    assert second.disk_cache.hits == 1


def test_make_context_without_cache():
    ctx = make_context(MICRO, cache_dir=None)
    assert ctx.disk_cache is None


def test_clear_removes_entries(tmp_path, ctx):
    cache = ResultDiskCache(tmp_path)
    config = ctx.config_single_gpu()
    cache.put("Lonestar-SP", MICRO.name, False, config,
              ctx.run("Lonestar-SP", config))
    assert cache.clear() == 1
    assert len(cache) == 0

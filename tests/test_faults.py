"""Chaos tests: deterministic fault injection under the supervisor.

Every test here follows the same shape: activate a seeded fault plan,
run a real experiment grid under supervision, and assert that

* the final results are **bit-identical** to a fault-free run, and
* the attempt transcript matches the plan's closed-form prediction
  exactly (which faults fired, in which order, with which backoff).

The serial (``jobs=1``) and pool (``jobs>1``) paths are exercised
against the *same* plans so the parity contract — identical failure
reports in both modes — is tested directly rather than assumed.
"""

import gc
import os
import signal
import time

import pytest

from repro.errors import ExecutionError
from repro.gpu.system import NumaGpuSystem
from repro.harness import experiments as exp
from repro.harness import faults
from repro.harness.diskcache import ResultDiskCache
from repro.harness.faults import (
    FAULT_PLAN_ENV,
    FaultPlan,
    FaultPlanError,
    InjectedCrash,
    InjectedTransientError,
    parse_fault_plan,
)
from repro.harness.parallel import ParallelRunner, RunTask, capture_plan
from repro.harness.runner import ExperimentContext
from repro.harness.supervisor import (
    RetryPolicy,
    repro_command_for,
    run_supervised,
    task_key,
)
from repro.workloads.spec import WorkloadScale

MICRO = WorkloadScale(name="micro", cta_cap=24, footprint_lines=2048,
                      ops_scale=0.25)

SUBSET = ("Lonestar-SP", "Rodinia-Hotspot")

#: The figure-3 grid over SUBSET: 2 workloads x 4 configs = 8 tasks.
DRIVERS = [lambda c: exp.figure3(c, workloads=SUBSET)]


@pytest.fixture(autouse=True)
def no_ambient_plan(monkeypatch):
    """No test inherits (or leaks) a fault plan through the environment."""
    monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)


@pytest.fixture()
def ctx():
    return ExperimentContext(sms_per_socket=2, scale=MICRO)


def activate(monkeypatch, spec: str) -> FaultPlan:
    monkeypatch.setenv(FAULT_PLAN_ENV, spec)
    return parse_fault_plan(spec)


def run_chaos(ctx, jobs: int, policy: RetryPolicy):
    runner = ParallelRunner(ctx, jobs=jobs, policy=policy)
    runner.prewarm_experiments(DRIVERS)
    return runner


_REFERENCE_CACHE: dict = {}


def fault_free_reference():
    """The bit-identity baseline: the same grid with chaos off.

    Computed once per test session (read-only afterwards) — every chaos
    test compares against the identical fault-free memo cache.
    """
    if not _REFERENCE_CACHE:
        ref = ExperimentContext(sms_per_socket=2, scale=MICRO)
        ParallelRunner(ref, jobs=1).prewarm_experiments(DRIVERS)
        _REFERENCE_CACHE.update(ref._cache)
    return _REFERENCE_CACHE


def normalized(report):
    """A mode-independent view of a report's transcripts."""
    return sorted(
        (t.key, t.status, t.outcomes(), t.backoff_schedule())
        for t in report.tasks
    )


# ---------------------------------------------------------------------------
# plan parsing and deterministic draws
# ---------------------------------------------------------------------------

def test_parse_round_trips_through_spec():
    plan = parse_fault_plan(
        "seed=42;crash=0.1;transient_nth=1,4;hang_seconds=30;"
        "faulted_attempts=2"
    )
    assert plan.seed == 42
    assert plan.crash == 0.1
    assert plan.transient_nth == (1, 4)
    assert plan.hang_seconds == 30.0
    assert plan.faulted_attempts == 2
    assert parse_fault_plan(plan.to_spec()) == plan
    assert parse_fault_plan(FaultPlan().to_spec()) == FaultPlan()


@pytest.mark.parametrize("spec", [
    "crash=1.5",             # rate outside [0, 1]
    "warp_drive=0.1",        # unknown key
    "crash",                 # not key=value
    "crash=lots",            # not a number
    "faulted_attempts=0",    # retries could never converge
])
def test_parse_rejects_bad_specs(spec):
    with pytest.raises(FaultPlanError):
        parse_fault_plan(spec)


def test_draws_are_pure_and_seed_dependent():
    a = FaultPlan(seed=1, transient=0.5)
    b = FaultPlan(seed=2, transient=0.5)
    keys = [f"task-{i}" for i in range(64)]
    first = [a.task_fault(k, i, 0) for i, k in enumerate(keys)]
    again = [a.task_fault(k, i, 0) for i, k in enumerate(keys)]
    assert first == again  # pure: no hidden RNG state
    assert first != [b.task_fault(k, i, 0) for i, k in enumerate(keys)]
    assert all(FaultPlan(crash=1.0).task_fault(k, i, 0) == "crash"
               for i, k in enumerate(keys))
    assert not any(FaultPlan().task_fault(k, i, 0) for i, k in enumerate(keys))


def test_fault_kind_precedence_and_nth_directives():
    plan = FaultPlan(crash_nth=(3,), hang_nth=(3, 4), transient_nth=(3, 5))
    assert plan.task_fault("k", 3, 0) == "crash"   # crash > hang > transient
    assert plan.task_fault("k", 4, 0) == "hang"
    assert plan.task_fault("k", 5, 0) == "transient"
    assert plan.task_fault("k", 6, 0) is None


def test_faults_stop_after_faulted_attempts():
    plan = FaultPlan(transient_nth=(0,), faulted_attempts=2)
    assert plan.task_fault("k", 0, 0) == "transient"
    assert plan.task_fault("k", 0, 1) == "transient"
    assert plan.task_fault("k", 0, 2) is None  # retry budget converges


def test_active_plan_reads_environment(monkeypatch):
    assert faults.active_plan() is None
    plan = activate(monkeypatch, "seed=9;transient=0.25")
    assert faults.active_plan() == plan
    monkeypatch.delenv(FAULT_PLAN_ENV)
    assert faults.active_plan() is None


def test_inject_in_process(monkeypatch):
    activate(monkeypatch, "crash_nth=0;transient_nth=1")
    with pytest.raises(InjectedCrash):
        faults.inject_task_fault("k", 0, 0, in_process=True)
    with pytest.raises(InjectedTransientError):
        faults.inject_task_fault("k", 1, 0, in_process=True)
    faults.inject_task_fault("k", 2, 0, in_process=True)  # no fault planned


# ---------------------------------------------------------------------------
# chaos recovery: transcripts exact, results bit-identical
# ---------------------------------------------------------------------------

def test_serial_chaos_recovers_bit_identical(ctx, monkeypatch):
    activate(monkeypatch, "transient_nth=1,4")
    policy = RetryPolicy(max_retries=2, base_delay=0.01)
    runner = run_chaos(ctx, jobs=1, policy=policy)
    report = runner.report
    assert report.ok()
    assert report.executed == report.total == 8
    assert [t.status for t in report.tasks] == ["recovered", "recovered"]
    assert {t.index for t in report.tasks} == {1, 4}
    for task in report.tasks:
        assert task.outcomes() == ["error", "ok"]
        assert task.backoff_schedule() == [policy.delay_after(0)]
        assert [a.attempt for a in task.attempts] == [0, 1]
        assert "InjectedTransientError" in task.attempts[0].detail
    assert ctx._cache == fault_free_reference()


def test_parallel_crash_recovers_bit_identical(ctx, monkeypatch):
    activate(monkeypatch, "crash_nth=0,5")
    policy = RetryPolicy(max_retries=2, base_delay=0.01)
    runner = run_chaos(ctx, jobs=2, policy=policy)
    report = runner.report
    assert report.ok()
    assert report.executed == report.total == 8
    assert {t.index for t in report.tasks} == {0, 5}
    for task in report.tasks:
        assert task.status == "recovered"
        assert task.outcomes() == ["crash", "ok"]
        # A real worker process died with the injected exit code.
        assert f"exit code {faults.INJECTED_CRASH_EXIT}" in (
            task.attempts[0].detail
        )
        assert "(injected)" in task.attempts[0].detail
    assert ctx._cache == fault_free_reference()


@pytest.mark.parametrize("jobs", [1, 3])
def test_hang_is_killed_and_retried(ctx, monkeypatch, jobs):
    activate(monkeypatch, "hang_nth=2;hang_seconds=30")
    policy = RetryPolicy(max_retries=1, base_delay=0.01, task_timeout=1.5)
    runner = run_chaos(ctx, jobs=jobs, policy=policy)
    report = runner.report
    assert report.ok()
    (hung,) = report.tasks
    assert hung.index == 2
    assert hung.outcomes() == ["timeout", "ok"]
    assert "1.5" in hung.attempts[0].detail
    assert ctx._cache == fault_free_reference()
    assert gc.isenabled()


@pytest.mark.parametrize("kind", ["timeout", "crash"])
def test_serial_fault_inside_the_drain_lifts_the_gc_pause(
        ctx, monkeypatch, kind):
    # Injected faults fire before a cell starts; these fire mid-drain,
    # inside the cell-wide GC pause, which must still be lifted.
    drain = NumaGpuSystem._drain
    calls = []

    def faulty_drain(self):
        calls.append(gc.isenabled())
        if len(calls) == 1:
            if kind == "timeout":
                time.sleep(30)
            raise InjectedCrash("crash inside the drain")
        return drain(self)

    monkeypatch.setattr(NumaGpuSystem, "_drain", faulty_drain)
    policy = RetryPolicy(max_retries=1, base_delay=0.01, task_timeout=1.5)
    runner = run_chaos(ctx, jobs=1, policy=policy)
    report = runner.report
    assert report.ok()
    assert [t.outcomes() for t in report.tasks] == [[kind, "ok"]]
    assert not any(calls)  # every drain ran with GC paused
    assert gc.isenabled()
    assert ctx._cache == fault_free_reference()


def test_serial_and_parallel_reports_are_identical(monkeypatch):
    activate(monkeypatch, "seed=11;transient_nth=0;crash_nth=3,6")
    policy = RetryPolicy(max_retries=2, base_delay=0.01)
    reports = []
    for jobs in (1, 3):
        ctx = ExperimentContext(sms_per_socket=2, scale=MICRO)
        reports.append(run_chaos(ctx, jobs=jobs, policy=policy).report)
    serial, parallel = reports
    assert normalized(serial) == normalized(parallel)
    assert serial.executed == parallel.executed
    assert serial.ok() and parallel.ok()
    assert gc.isenabled()


# ---------------------------------------------------------------------------
# exhausted budgets: keep-going vs fail-fast
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("jobs", [1, 2])
def test_exhausted_budget_keep_going_completes_the_rest(
        ctx, monkeypatch, jobs):
    # faulted_attempts > max_attempts: task 3 can never succeed.
    activate(monkeypatch, "transient_nth=3;faulted_attempts=9")
    policy = RetryPolicy(max_retries=1, base_delay=0.01, keep_going=True)
    runner = run_chaos(ctx, jobs=jobs, policy=policy)
    report = runner.report
    assert not report.ok()
    assert not report.aborted  # keep-going: the run itself finished
    assert report.executed == 7  # every other task completed
    (dead,) = report.failed
    assert dead.index == 3
    assert dead.outcomes() == ["error", "error"]
    assert dead.backoff_schedule() == [policy.delay_after(0)]
    assert dead.repro_command.startswith("repro run ")
    assert not report.unfinished


@pytest.mark.parametrize("jobs", [1, 2])
def test_exhausted_budget_fail_fast_aborts(ctx, monkeypatch, jobs):
    activate(monkeypatch, "transient_nth=0;faulted_attempts=9")
    policy = RetryPolicy(max_retries=1, base_delay=0.01, keep_going=False)
    runner = ParallelRunner(ctx, jobs=jobs, policy=policy)
    with pytest.raises(ExecutionError) as excinfo:
        runner.prewarm_experiments(DRIVERS)
    report = excinfo.value.report
    assert report is runner.report
    assert report.aborted and not report.ok()
    assert len(report.failed) == 1
    assert report.unfinished  # the abort left tasks unstarted
    assert "FAILED" in report.headline()
    assert "fail-fast" in report.headline()


# ---------------------------------------------------------------------------
# report artifacts
# ---------------------------------------------------------------------------

def test_failure_report_render_and_json(ctx, monkeypatch, tmp_path):
    activate(monkeypatch, "transient_nth=2")
    runner = run_chaos(
        ctx, jobs=1, policy=RetryPolicy(max_retries=2, base_delay=0.01)
    )
    report = runner.report
    rendered = report.render()
    assert "recovered" in rendered
    assert "error -> ok" in rendered
    assert "repro run " in rendered

    out = report.write_json(tmp_path / "failures.json")
    import json

    data = json.loads(out.read_text())
    assert data["ok"] is True
    assert data["policy"]["max_retries"] == 2
    (task,) = data["tasks"]
    assert task["status"] == "recovered"
    assert [a["outcome"] for a in task["attempts"]] == ["error", "ok"]


def test_task_key_and_repro_command(ctx):
    task = RunTask("Lonestar-SP", ctx.config_single_gpu())
    key = task_key(task, MICRO.name)
    assert key.startswith("Lonestar-SP@micro/")
    command = repro_command_for(task, MICRO.name)
    assert command.startswith("repro run Lonestar-SP --scale micro")
    assert "--sockets 1" in command

    timeline = RunTask("Lonestar-SP", ctx.config_single_gpu(),
                       record_timelines=True)
    assert "+tl/" in task_key(timeline, MICRO.name)


# ---------------------------------------------------------------------------
# storage faults
# ---------------------------------------------------------------------------

def test_injected_enospc_degrades_put(ctx, monkeypatch, tmp_path):
    activate(monkeypatch, "enospc=1.0")
    cache = ResultDiskCache(tmp_path)
    config = ctx.config_single_gpu()
    result = ctx.run("Lonestar-SP", config)
    with pytest.warns(RuntimeWarning, match="no space left"):
        assert cache.put("Lonestar-SP", MICRO.name, False, config,
                         result) is None
    assert cache.put_errors == 1
    assert len(cache) == 0


def test_injected_corruption_is_quarantined_on_get(ctx, monkeypatch,
                                                   tmp_path):
    activate(monkeypatch, "corrupt=1.0")
    cache = ResultDiskCache(tmp_path)
    config = ctx.config_single_gpu()
    result = ctx.run("Lonestar-SP", config)
    path = cache.put("Lonestar-SP", MICRO.name, False, config, result)
    assert path is not None and path.exists()  # written, then garbled

    assert cache.get("Lonestar-SP", MICRO.name, False, config) is None
    assert cache.corrupt == 1
    assert not path.exists()  # moved aside, never re-read
    assert path.with_suffix(".corrupt").exists()


# ---------------------------------------------------------------------------
# graceful interruption (SIGINT/SIGTERM)
# ---------------------------------------------------------------------------

def _interrupting_merge(merged: list):
    """A merge callback that raises SIGINT after the first completion."""
    def merge(task, result):
        merged.append(task)
        if len(merged) == 1:
            os.kill(os.getpid(), signal.SIGINT)
    return merge


def test_sigint_stops_serial_run_with_partial_report(ctx):
    tasks = capture_plan(ctx, DRIVERS)
    merged: list = []
    report = run_supervised(
        tasks, MICRO, 1, RetryPolicy(), _interrupting_merge(merged)
    )
    assert report.interrupted
    assert not report.ok()
    assert report.executed == 1 and len(merged) == 1
    # Every other task lands in unfinished — the caller prints them and
    # the --resume command.
    assert len(report.unfinished) == len(tasks) - 1
    assert "INTERRUPTED" in report.headline()
    assert f"{report.executed}/{len(tasks)}" in report.headline()
    assert report.to_json_dict()["interrupted"] is True


@pytest.mark.parametrize("jobs", [2])
def test_sigterm_stops_pool_run_and_kills_workers(ctx, jobs):
    tasks = capture_plan(ctx, DRIVERS)
    merged: list = []

    def merge(task, result):
        merged.append(task)
        if len(merged) == 1:
            os.kill(os.getpid(), signal.SIGTERM)

    report = run_supervised(tasks, MICRO, jobs, RetryPolicy(), merge)
    assert report.interrupted and not report.ok()
    # In-flight results may still land while workers are being killed,
    # but the run must stop well short of the full grid.
    assert 1 <= report.executed < len(tasks)
    assert report.unfinished
    assert report.executed + len(report.unfinished) == len(tasks)


def test_signal_handlers_are_restored_after_the_run(ctx):
    before = (signal.getsignal(signal.SIGINT),
              signal.getsignal(signal.SIGTERM))
    tasks = capture_plan(ctx, DRIVERS)[:1]
    report = run_supervised(tasks, MICRO, 1, RetryPolicy(),
                            lambda task, result: None)
    assert report.ok() and not report.interrupted
    assert (signal.getsignal(signal.SIGINT),
            signal.getsignal(signal.SIGTERM)) == before


# ---------------------------------------------------------------------------
# fault-plan indices are plan positions, whatever the execution order
# ---------------------------------------------------------------------------

#: figure3 then figure10 over SUBSET: 10 tasks planned A*4 B*4 A B, so
#: the grouped execution order (A*5 B*5) differs from plan order.
INTERLEAVED = [
    lambda c: exp.figure3(c, workloads=SUBSET),
    lambda c: exp.figure10(c, workloads=SUBSET),
]


@pytest.mark.parametrize("jobs", [1, 2])
def test_fault_plan_fires_on_plan_positions_in_grouped_order(monkeypatch,
                                                             jobs):
    activate(monkeypatch, "crash_nth=1,8;transient_nth=5")
    ctx = ExperimentContext(sms_per_socket=2, scale=MICRO)
    plan = capture_plan(ctx, INTERLEAVED)
    assert [t.workload for t in plan][8:] == list(SUBSET)
    runner = ParallelRunner(
        ctx, jobs=jobs, policy=RetryPolicy(max_retries=1, base_delay=0.01)
    )
    runner.prewarm(plan)
    report = runner.report
    assert report.ok() and report.executed == len(plan)
    # report.tasks stays in plan order and names the planned cells.
    assert [t.index for t in report.tasks] == [1, 5, 8]
    assert [t.key for t in report.tasks] == [
        task_key(plan[i], MICRO.name) for i in (1, 5, 8)
    ]
    assert [t.outcomes() for t in report.tasks] == [
        ["crash", "ok"], ["error", "ok"], ["crash", "ok"],
    ]
    # Recovered results and figures equal a fault-free plan-order run.
    monkeypatch.delenv(FAULT_PLAN_ENV)
    ref = ExperimentContext(sms_per_socket=2, scale=MICRO)
    figures = [driver(ref) for driver in INTERLEAVED]
    assert ctx._cache == ref._cache
    assert [driver(ctx) for driver in INTERLEAVED] == figures

"""Parallel experiment execution over a process pool.

The experiment drivers in :mod:`repro.harness.experiments` are pure grids:
the set of ``(workload, config, record_timelines)`` simulations they
request never depends on simulation *results*. That makes a two-phase
strategy exact rather than heuristic:

1. **Capture** — run the drivers against a :class:`PlanningContext`, a
   context whose ``run()`` records the requested simulation and returns a
   stub result. This enumerates the full simulation grid without
   maintaining a parallel copy of each driver's loop (which could drift —
   the same bug class the content-addressed config key eliminates).
2. **Execute** — fan the captured, deduplicated grid out over the
   supervised worker pool (:mod:`repro.harness.supervisor`), which runs
   cells grouped by workload rather than in plan order so the trace
   memo hits; each worker builds a fresh system, runs one simulation,
   and returns a picklable :class:`RunResult`. The parent merges
   results into the shared :class:`ExperimentContext` memo cache (and
   the on-disk cache, if one is attached). The supervisor isolates per-task failures: a crashed,
   hung, or excepting worker marks only its own cell failed, is retried
   with exponential backoff under a bounded attempt budget, and every
   non-clean run ends with a structured
   :class:`~repro.harness.supervisor.FailureReport`.

Afterwards the drivers are run for real and hit a warm cache, so a
parallel invocation produces **bit-identical** figures to a serial one:
every simulation is single-threaded and deterministic for a given
(workload, config, scale) triple, and nothing about pool scheduling can
reorder events *inside* a simulation (see DESIGN.md, "Determinism
contract"). The serial (``jobs <= 1``) path runs the same supervision
state machine in-process, so ``--jobs 1`` and ``--jobs N`` report
failures identically.

Worker count resolution: an explicit ``jobs`` argument wins, then the
``REPRO_JOBS`` environment variable, then 1 (serial). ``jobs=0`` means
"one worker per CPU".
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.config import SystemConfig
from repro.core.builder import TRACE_MEMO, run_workload_on
from repro.errors import ExecutionError
from repro.harness.runner import ExperimentContext
from repro.metrics.report import RunResult
from repro.sim.instrumentation import SIM_TALLY
from repro.workloads.spec import WorkloadScale
from repro.workloads.suite import get_workload

#: Environment variable providing the default worker count.
JOBS_ENV = "REPRO_JOBS"

#: One experiment driver: a callable taking a context (figure3, power, ...).
Driver = Callable[[ExperimentContext], object]


def resolve_jobs(jobs: int | None = None) -> int:
    """Worker count from ``jobs``, else ``REPRO_JOBS``, else 1 (serial)."""
    if jobs is None:
        env = os.environ.get(JOBS_ENV, "").strip()
        if not env:
            return 1
        try:
            jobs = int(env)
        except ValueError:
            raise ValueError(f"{JOBS_ENV}={env!r} is not an integer") from None
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


@dataclass(frozen=True)
class RunTask:
    """One simulation of the experiment grid (picklable)."""

    workload: str
    config: SystemConfig
    record_timelines: bool = False


def _execute_task(task: RunTask, scale: WorkloadScale) -> RunResult:
    """Worker entry point: one fresh, deterministic simulation."""
    workload = get_workload(task.workload)
    return run_workload_on(
        task.config, workload, scale,
        record_timelines=task.record_timelines,
    )


def _execute_measured(
    task: RunTask, scale: WorkloadScale,
) -> "tuple[RunResult, dict]":
    """:func:`_execute_task` plus a per-task harness telemetry sample.

    The sample carries the task's wall-clock span (``time.monotonic()``,
    comparable across processes on Linux), the
    :data:`~repro.sim.instrumentation.SIM_TALLY` delta the task produced
    in *this* process, and whether the task built its trace set or
    reused the trace memo's. Pool workers ship it back over the
    supervisor's result pipe so the parent can absorb worker-side run
    totals and build the study's worker-utilization timeline (see
    :mod:`repro.harness.supervisor` and DESIGN.md, "Observability
    contract").
    """
    before = (SIM_TALLY.runs, SIM_TALLY.events, SIM_TALLY.cycles,
              SIM_TALLY.wall_seconds)
    builds_before = TRACE_MEMO.builds
    t_start = time.monotonic()
    result = _execute_task(task, scale)
    t_end = time.monotonic()
    sample = {
        "t_start": t_start,
        "t_end": t_end,
        "runs": SIM_TALLY.runs - before[0],
        "events": SIM_TALLY.events - before[1],
        "cycles": SIM_TALLY.cycles - before[2],
        "sim_wall_seconds": SIM_TALLY.wall_seconds - before[3],
        "trace_built": TRACE_MEMO.builds > builds_before,
    }
    return result, sample


def _stub_result(workload_name: str, config: SystemConfig) -> RunResult:
    """A placeholder result for plan capture (never rendered)."""
    return RunResult(
        workload=workload_name,
        config_label="<planning>",
        cycles=1,
        n_sockets=config.n_sockets,
        sockets=[],
        switch_bytes=0,
        migrations=0,
        kernels=1,
        kernel_launch_times=[0],
    )


@dataclass
class PlanningContext(ExperimentContext):
    """A context that records requested simulations instead of running them.

    Drivers executed against it behave normally (their arithmetic sees
    stub results) while every distinct ``run()`` request is appended to
    :attr:`tasks` exactly once, in first-request order.
    """

    tasks: list[RunTask] = field(default_factory=list)

    @classmethod
    def from_context(cls, ctx: ExperimentContext) -> "PlanningContext":
        return cls(
            n_sockets=ctx.n_sockets,
            sms_per_socket=ctx.sms_per_socket,
            scale=ctx.scale,
            record_timelines=ctx.record_timelines,
        )

    def run(self, workload_name: str, config: SystemConfig,
            record_timelines: bool | None = None) -> RunResult:
        record = (
            self.record_timelines if record_timelines is None
            else record_timelines
        )
        key = self.cache_key(workload_name, config, record)
        cached = self._cache.get(key)
        if cached is None:
            cached = _stub_result(workload_name, config)
            self._cache[key] = cached
            self.tasks.append(
                RunTask(workload_name, config, record_timelines=record)
            )
        return cached


def capture_plan(ctx: ExperimentContext,
                 drivers: Iterable[Driver]) -> list[RunTask]:
    """Enumerate the deduplicated simulation grid the drivers will need.

    Tasks already present in ``ctx``'s memo cache are still included —
    :meth:`ParallelRunner.prewarm` is responsible for skipping them, so a
    captured plan is reusable across contexts.
    """
    planner = PlanningContext.from_context(ctx)
    for driver in drivers:
        driver(planner)
    return planner.tasks


class ParallelRunner:
    """Fans a simulation grid out over processes into a context's cache.

    Execution is supervised (:mod:`repro.harness.supervisor`): per-task
    failures are retried with exponential backoff under ``policy``, hung
    workers are killed after ``policy.task_timeout``, and the attempt
    transcripts of every non-clean task land in :attr:`report`. With
    ``policy.keep_going`` (the default) a permanently failing task marks
    only its own cell failed; with fail-fast the first exhausted task
    raises :class:`~repro.errors.ExecutionError` carrying the report.
    """

    def __init__(self, ctx: ExperimentContext, jobs: int | None = None,
                 policy: "RetryPolicy | None" = None,
                 journal: "StudyJournal | None" = None) -> None:
        from repro.harness.supervisor import RetryPolicy

        self.ctx = ctx
        self.jobs = resolve_jobs(jobs)
        self.policy = policy if policy is not None else RetryPolicy()
        #: optional study journal (crash-resumable suites; see
        #: :mod:`repro.harness.checkpoint`).
        self.journal = journal
        #: simulations actually executed by the last prewarm call.
        self.executed = 0
        #: tasks satisfied from the memo or disk cache instead.
        self.skipped = 0
        #: failure report of the last prewarm call (None before any).
        self.report: "FailureReport | None" = None

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    def _journal_key(self, task: RunTask) -> str:
        from repro.harness.checkpoint import cell_key

        return cell_key(task.workload, self.ctx.scale.name,
                        task.record_timelines, task.config)

    def _missing(self, tasks: Sequence[RunTask]) -> list[RunTask]:
        """Deduplicate and drop tasks the caches or journal already cover.

        Missing tasks are logged to the study journal (when one is
        attached) as ``start`` lines before execution, so a killed run
        knows on resume which cells were in flight and must re-run.
        """
        ctx = self.ctx
        missing: list[RunTask] = []
        seen: set[tuple] = set()
        for task in tasks:
            key = ctx.cache_key(task.workload, task.config,
                                task.record_timelines)
            if key in seen:
                continue
            seen.add(key)
            if ctx.is_cached(key):
                self.skipped += 1
                continue
            if self.journal is not None:
                stored = self.journal.done_result(self._journal_key(task))
                if stored is not None:
                    ctx.seed_cache(task.workload, task.config,
                                   task.record_timelines, stored)
                    self.skipped += 1
                    continue
            if ctx.disk_cache is not None:
                stored = ctx.disk_cache.get(
                    task.workload, ctx.scale.name,
                    task.record_timelines, task.config,
                )
                if stored is not None:
                    ctx.seed_cache(task.workload, task.config,
                                   task.record_timelines, stored)
                    self.skipped += 1
                    continue
            if self.journal is not None:
                self.journal.record_start(self._journal_key(task))
            missing.append(task)
        return missing

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def prewarm(self, tasks: Sequence[RunTask],
                progress: Callable[[int, int], None] | None = None) -> int:
        """Run every uncached task under supervision; merge into the context.

        Returns the number of simulations actually executed. ``progress``
        (if given) is called as ``progress(done, total)`` after each
        completed simulation. The full attempt accounting of the run is
        left in :attr:`report`; under a fail-fast policy an exhausted
        task raises :class:`~repro.errors.ExecutionError` instead.
        """
        from repro.harness.supervisor import run_supervised

        self.executed = 0
        self.skipped = 0
        self.report = None
        ctx = self.ctx
        missing = self._missing(tasks)

        def merge(task: RunTask, result: RunResult) -> None:
            ctx.seed_cache(task.workload, task.config,
                           task.record_timelines, result)
            if self.journal is not None:
                self.journal.record_done(self._journal_key(task), result)
            if ctx.disk_cache is not None:
                ctx.disk_cache.put(
                    task.workload, ctx.scale.name,
                    task.record_timelines, task.config, result,
                )

        report = run_supervised(
            missing, ctx.scale, self.jobs, self.policy, merge,
            progress=progress,
        )
        report.cache = ctx.cache_stats()
        self.report = report
        self.executed = report.executed
        if not report.ok() and not self.policy.keep_going:
            raise ExecutionError(report)
        return self.executed

    def prewarm_experiments(
        self, drivers: Iterable[Driver],
        progress: Callable[[int, int], None] | None = None,
    ) -> int:
        """Capture the drivers' grid, then :meth:`prewarm` it."""
        return self.prewarm(capture_plan(self.ctx, drivers), progress=progress)


def make_context(
    scale: WorkloadScale,
    cache_dir: "str | os.PathLike | None" = None,
    **kwargs,
) -> ExperimentContext:
    """An :class:`ExperimentContext`, optionally with a disk cache attached.

    ``cache_dir=None`` disables persistence; any other value (including
    ``""``, meaning "the default location") attaches a
    :class:`~repro.harness.diskcache.ResultDiskCache`.
    """
    from repro.harness.diskcache import ResultDiskCache

    disk = None
    if cache_dir is not None:
        disk = ResultDiskCache(cache_dir if str(cache_dir) else None)
    return ExperimentContext(scale=scale, disk_cache=disk, **kwargs)


__all__ = [
    "JOBS_ENV",
    "ParallelRunner",
    "PlanningContext",
    "RunTask",
    "capture_plan",
    "make_context",
    "resolve_jobs",
]

"""One study of one benchmark workload, run in a fresh process.

``python3 -m perfbench.study --workload NAME --seed N --spawned-at T
--workdir DIR [--jobs J] [--trace] [--setup-only] [--size full|smoke]``

``T`` is the parent's ``time.monotonic()`` reading just before it spawned
this process (the clock is system-wide on Linux), so ``setup_s`` covers
interpreter start, ``import repro`` and plan construction. The study
prints one JSON object as its last line of standard output.

The three workloads (see ``perfbench/README.md`` for why each exists):

* ``paper-grid`` - the paper's crossbar figure drivers over a slice of
  ``COMPACT_SET``, serial, cold context, fresh disk cache and journal;
* ``fabric-pool`` - ``topology_sweep`` + ``locality_sweep`` on routed
  fabrics through the supervised worker pool (two workers);
* ``deep-dive`` - two workloads at ``medium``'s footprint over one
  configuration column, workload-major, bypassing the grid harness.

All timings are host time; simulated quantities carry ``sim``/cycle
names. The model has no hardware reference results, so nothing here is
an accuracy figure.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from perfbench import DEFAULT_SEED, NAMES
from repro.config import CacheArch
from repro.harness import experiments as E
from repro.harness.checkpoint import StudyJournal
from repro.harness.parallel import ParallelRunner, RunTask, capture_plan, make_context
from repro.harness.runner import ExperimentContext
from repro.harness.supervisor import RetryPolicy, task_key
from repro.metrics.export import run_to_dict
from repro.metrics.report import RunResult
from repro.sim.instrumentation import SIM_TALLY
from repro.workloads import suite
from repro.workloads.spec import WorkloadScale

#: Below ``tiny``: a footprint of 8,192 lines (1x the modelled aggregate
#: L2) and fewer, shorter CTAs, so one whole grid fits a benchmark run;
#: pages still get enough touches for the migration policy to re-home.
GRID_SCALE = WorkloadScale(name="bench-tiny", cta_cap=64,
                           footprint_lines=8192, ops_scale=0.375)
#: ``medium``'s footprint (49,152 lines, ~6x the aggregate L2) and burst
#: size with a lower CTA cap: the caches run their miss/evict side.
DEEP_SCALE = WorkloadScale(name="bench-medium", cta_cap=96,
                           footprint_lines=49152, ops_scale=0.75)
#: A few-cell scale for the benchmark's own tests (``--size smoke``).
SMOKE_SCALE = WorkloadScale(name="bench-smoke", cta_cap=16,
                            footprint_lines=1024, ops_scale=0.125)


@dataclass(frozen=True)
class Grid:
    """What one workload runs: scale, workload names, worker count."""

    scale: WorkloadScale
    workloads: tuple[str, ...]
    jobs: int


GRIDS: dict[str, dict[str, Grid]] = {
    "full": {
        "paper-grid": Grid(GRID_SCALE, (
            "ML-GoogLeNet-cudnn-Lev2", "Rodinia-BFS", "HPC-AMG"), jobs=1),
        "fabric-pool": Grid(GRID_SCALE, (
            "Rodinia-BFS", "HPC-RSBench"), jobs=2),
        "deep-dive": Grid(DEEP_SCALE, ("HPC-AMG", "Rodinia-BFS"), jobs=1),
    },
    "smoke": {
        "paper-grid": Grid(SMOKE_SCALE, ("Rodinia-BFS", "HPC-AMG"), jobs=1),
        "fabric-pool": Grid(SMOKE_SCALE, ("Rodinia-BFS",), jobs=2),
        "deep-dive": Grid(SMOKE_SCALE, ("HPC-AMG",), jobs=1),
    },
}

Driver = Callable[[ExperimentContext], object]


def figure_drivers(names: tuple[str, ...]) -> list[Driver]:
    """The paper's crossbar figures over ``names`` (``paper-grid``)."""
    return [
        lambda c: E.figure3(c, workloads=names),
        lambda c: E.figure6(c, workloads=names),
        lambda c: E.figure8(c, workloads=names),
        lambda c: E.figure9(c, workloads=names),
        lambda c: E.figure10(c, workloads=names),
        lambda c: E.figure11(c, workloads=names),
        lambda c: E.writeback_sensitivity(c, workloads=names),
        lambda c: E.power_analysis(c, workloads=names),
    ]


def fabric_drivers(names: tuple[str, ...]) -> list[Driver]:
    """Routed-fabric sweeps over ``names`` (``fabric-pool``)."""
    return [
        lambda c: E.topology_sweep(c, workloads=names,
                                   kinds=("ring", "mesh2d", "switch_tree"),
                                   socket_counts=(8, 16)),
        lambda c: E.locality_sweep(c, workloads=names,
                                   kinds=("ring", "mesh2d"),
                                   socket_counts=(8, 16)),
    ]


def deep_column(ctx: ExperimentContext) -> list[tuple[str, object]]:
    """The ``deep-dive`` configuration column, single GPU first."""
    return [
        ("single_gpu", ctx.config_single_gpu()),
        ("locality", ctx.config_locality()),
        ("numa_aware", ctx.config_cache(CacheArch.NUMA_AWARE)),
        ("shared_coherent", ctx.config_cache(CacheArch.SHARED_COHERENT)),
        ("dynamic_links", ctx.config_dynamic_link()),
        ("combined", ctx.config_combined()),
        ("ring16", ctx.config_topology("ring", n_sockets=16)),
    ]


def apply_seed(seed: int) -> None:
    """Give every suite workload ``seed`` before anything is planned.

    Pool workers fork from this process and inherit the reseeded suite.
    """
    for name, spec in list(suite.SUITE.items()):
        suite.SUITE[name] = dataclasses.replace(spec, seed=seed)


# ---------------------------------------------------------------------------
# digests and simulated counts
# ---------------------------------------------------------------------------
def cell_digest(result: RunResult) -> str:
    """Hash of one cell's exported result (canonical JSON)."""
    text = json.dumps(run_to_dict(result), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def figures_digest(figures: list[object]) -> str:
    """Hash of the figure values the reduction produced."""
    text = "\n".join(
        repr(dataclasses.asdict(f) if dataclasses.is_dataclass(f) else f)
        for f in figures
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def simulated_counts(results: list[RunResult]) -> dict[str, float]:
    """Simulated (deterministic) totals over every cell of the study."""
    sockets = [s for r in results for s in r.sockets]
    l1 = sum(s.l1_hits for s in sockets), sum(s.l1_misses for s in sockets)
    l2 = sum(s.l2_hits for s in sockets), sum(s.l2_misses for s in sockets)
    local = sum(s.local_accesses for s in sockets)
    remote = sum(s.remote_accesses for s in sockets)
    hops = [(h, c) for r in results for h, c in r.hop_histogram.items()]
    packets = sum(c for _, c in hops)
    return {
        "sim.cycles": sum(r.cycles for r in results),
        "memory.l1_hit_rate": l1[0] / sum(l1) if sum(l1) else 0.0,
        "memory.l2_hit_rate": l2[0] / sum(l2) if sum(l2) else 0.0,
        "memory.remote_frac": remote / (local + remote) if local + remote else 0.0,
        "memory.dram_bytes": sum(r.total_dram_bytes for r in results),
        "memory.page_migrations": sum(r.migrations for r in results),
        "interconnect.bytes": sum(r.switch_bytes for r in results),
        "topology.mean_hops": sum(h * c for h, c in hops) / packets if packets else 0.0,
        "locality.re_homed_pages": sum(r.re_homed_pages for r in results),
    }


def telemetry_metrics(telemetry: dict, prewarm_s: float) -> dict[str, float]:
    """Harness metrics from the supervisor's per-task telemetry."""
    workers = telemetry["workers"].values()
    spans = [t["t_end"] - t["t_start"] for w in workers for t in w["tasks"]]
    drain = sum(t["wall_seconds"] for w in workers for t in w["tasks"])
    idle = [prewarm_s - sum(t["t_end"] - t["t_start"] for t in w["tasks"])
            for w in workers]
    deciles = statistics.quantiles(spans, n=10) if len(spans) > 1 else spans * 9
    return {
        "harness.dispatch_s": statistics.fmean(idle) if idle else 0.0,
        "harness.task_s_p50": statistics.median(spans) if spans else 0.0,
        "harness.task_s_p90": deciles[8] if spans else 0.0,
        "harness.outside_drain_frac": 1.0 - drain / sum(spans) if spans else 0.0,
    }


def peak_rss_mb() -> float:
    """Highest peak RSS of this process and of its reaped children (MB)."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


# ---------------------------------------------------------------------------
# one study
# ---------------------------------------------------------------------------
def run_grid_study(grid: Grid, drivers: list[Driver], jobs: int,
                   workdir: Path, spawned_at: float, setup_only: bool,
                   out: dict) -> dict[str, RunResult]:
    """Plan, prewarm and reduce one harness study; fills ``out``."""
    t0 = time.monotonic()
    ctx = make_context(grid.scale, cache_dir=workdir / "cache")
    plan = capture_plan(ctx, drivers)
    t_planned = time.monotonic()
    out["setup_s"] = t_planned - spawned_at
    out["harness.plan_s"] = t_planned - t0
    if setup_only:
        return {}
    journal = StudyJournal.start(workdir / "journal", grid.scale.name,
                                 "perfbench")
    runner = ParallelRunner(ctx, jobs=jobs, policy=RetryPolicy(), journal=journal)
    try:
        runner.prewarm(plan)
    finally:
        journal.close()
    t_prewarmed = time.monotonic()
    report = runner.report
    failed = {t.key for t in report.failed} | set(report.unfinished)
    figures = [driver(ctx) for driver in drivers] if report.ok() else []
    t_end = time.monotonic()
    out["suite_wall_s"] = t_end - t0
    out["harness.reduce_s"] = t_end - t_prewarmed
    out["harness.retries"] = sum(len(t.attempts) - 1 for t in report.tasks)
    out["events"] = report.telemetry["totals"]["events"]
    out["sim.drain_s"] = report.telemetry["totals"]["wall_seconds"]
    out.update(telemetry_metrics(report.telemetry, t_prewarmed - t_planned))
    out["figures"] = figures_digest(figures)
    out["failed"] = sorted(failed)
    results = {}
    for task in plan:
        key = task_key(task, grid.scale.name)
        cache_key = ctx.cache_key(task.workload, task.config, task.record_timelines)
        if key not in failed and ctx.is_cached(cache_key):
            results[key] = ctx.run(task.workload, task.config, task.record_timelines)
    return results


def run_deep_study(grid: Grid, spawned_at: float, setup_only: bool,
                   out: dict) -> dict[str, RunResult]:
    """Run the ``deep-dive`` column workload-major, outside the grid harness."""
    t0 = time.monotonic()
    ctx = ExperimentContext(scale=grid.scale)
    column = deep_column(ctx)
    t_planned = time.monotonic()
    out["setup_s"] = t_planned - spawned_at
    out["harness.plan_s"] = t_planned - t0
    if setup_only:
        return {}
    SIM_TALLY.reset()
    results = {}
    for name in grid.workloads:
        for _label, config in column:
            key = task_key(RunTask(name, config), grid.scale.name)
            results[key] = ctx.run(name, config)
    t_ran = time.monotonic()
    speedups = {
        (name, label): ctx.run(name, config).speedup_over(
            ctx.run(name, column[0][1]))
        for name in grid.workloads for label, config in column
    }
    t_end = time.monotonic()
    out["suite_wall_s"] = t_end - t0
    out["harness.reduce_s"] = t_end - t_ran
    out["harness.retries"] = 0
    out["events"] = SIM_TALLY.events
    out["sim.drain_s"] = SIM_TALLY.wall_seconds
    out.update({"harness.dispatch_s": 0.0, "harness.task_s_p50": 0.0,
                "harness.task_s_p90": 0.0, "harness.outside_drain_frac": 0.0})
    out["figures"] = figures_digest([speedups])
    out["failed"] = []
    return results


def run_study(workload: str, seed: int, size: str, jobs: int | None,
              workdir: Path, spawned_at: float, setup_only: bool = False,
              probe=None) -> dict:
    """One study; returns the JSON-ready record the parent aggregates."""
    grid = GRIDS[size][workload]
    jobs = grid.jobs if jobs is None else jobs
    apply_seed(seed)
    out: dict = {"workload": workload, "seed": seed, "jobs": jobs}
    if workload == "deep-dive":
        results = run_deep_study(grid, spawned_at, setup_only, out)
    else:
        drivers = (figure_drivers if workload == "paper-grid"
                   else fabric_drivers)(grid.workloads)
        results = run_grid_study(grid, drivers, jobs, workdir, spawned_at,
                                 setup_only, out)
    if setup_only:
        return out
    out["cells"] = {key: cell_digest(r) for key, r in results.items()}
    out["attempted"] = len(out["cells"]) + len(out["failed"])
    out["sim"] = simulated_counts([results[k] for k in sorted(results)])
    out["peak_rss_mb"] = peak_rss_mb()
    if probe is not None:
        out["boundary"] = probe.boundary_metrics()
        out["layers"] = probe.layer_table()
        out["profiled_events"] = probe.drain_events
        probe.write_chrome_trace(workdir / "spans.json")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--size", choices=sorted(GRIDS), default="full")
    parser.add_argument("--jobs", type=int, default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    run = dict(workload=args.workload, seed=args.seed, size=args.size,
               jobs=args.jobs, workdir=args.workdir,
               spawned_at=args.spawned_at, setup_only=args.setup_only)
    if args.trace:
        from perfbench.probes import Probe

        with Probe() as probe:
            out = run_study(**run, probe=probe)
    else:
        out = run_study(**run)
    sys.stdout.write(json.dumps(out, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

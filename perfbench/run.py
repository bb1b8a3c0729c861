"""Study-level benchmark of the NUMA-GPU simulator: one command, one workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-grid|fabric-pool|deep-dive \\
        [--seed N] [--seconds S] [--trace 0|1] [--size full|smoke]
    python3 perfbench/run.py --record-digests [--size full|smoke]

Every study runs in a fresh process (``python3 -m perfbench.study``) with
a fresh disk-cache and journal directory under ``.perfbench_work/``.

``--trace 0`` repeats the study for about ``--seconds`` seconds, checks
every cell's result digest, and prints the end-to-end metrics (medians
over the repetitions). ``--trace 1`` makes one untraced pass and two
traced passes of the same grid, checks that the traced passes agree with
each other and with the untraced one, and prints the per-layer metrics.
The last line of standard output is always one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Host time and simulated time are named apart: every ``_s`` metric is
host wall-clock time; simulated quantities are cycles, bytes, rates and
counts. The simulator has no hardware reference results, so the model
is unvalidated and no accuracy figure is reported.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import DEFAULT_SEED, NAMES  # noqa: E402

WORK_DIR = ROOT / ".perfbench_work"
DIGESTS = ROOT / "perfbench" / "digests.json"

#: Setup-only process starts made before the measured studies.
SETUP_PROBES = 3
#: Fewest measured studies per untraced run, whatever ``--seconds`` says.
MIN_STUDIES = 2
#: Longest one study process may take before it is killed.
STUDY_TIMEOUT_S = 150.0

#: End-to-end metrics and their units (``--trace 0``).
END_TO_END_UNITS = {
    "suite_wall_s": "s",
    "sim_events_per_s": "events/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Layers whose drain calls and self time the traced pass attributes.
PROFILED_LAYERS = (
    "sim.engine", "sim.path", "gpu.cta", "gpu.socket", "memory.cache",
    "memory.page_table", "memory.dram", "interconnect", "topology",
    "locality", "core.numa_cache", "obs.hooks", "other",
)

#: Per-layer metrics and their units (``--trace 1``).
PER_LAYER_UNITS = {
    "workloads.trace_s": "s",
    "workloads.trace_builds": "count",
    "workloads.trace_hit_ratio": "ratio",
    "gpu.build_s": "s",
    "sim.drain_s": "s",
    "sim.events": "count",
    "sim.drain_events_per_s": "events/s",
    "metrics.collect_s": "s",
    "harness.plan_s": "s",
    "harness.reduce_s": "s",
    "harness.dispatch_s": "s",
    "harness.task_s_p50": "s",
    "harness.task_s_p90": "s",
    "harness.cache_put_s": "s",
    "harness.cache_get_s": "s",
    "harness.journal_s": "s",
    "harness.retries": "count",
    "harness.outside_drain_frac": "ratio",
    **{f"{layer}.calls_per_event": "calls/event" for layer in PROFILED_LAYERS},
    **{f"{layer}.self_frac": "ratio" for layer in PROFILED_LAYERS},
    "sim.cycles": "cycles",
    "memory.l1_hit_rate": "ratio",
    "memory.l2_hit_rate": "ratio",
    "memory.remote_frac": "ratio",
    "memory.dram_bytes": "bytes",
    "memory.page_migrations": "pages",
    "interconnect.bytes": "bytes",
    "topology.mean_hops": "hops",
    "locality.re_homed_pages": "pages",
    "bench.untraced_wall_s": "s",
    "bench.trace_overhead_s": "s",
}

#: Per-layer metrics taken from the untraced pass (the workload's own
#: worker count); the rest come from the traced passes.
FROM_UNTRACED = (
    "sim.drain_s", "harness.dispatch_s", "harness.task_s_p50",
    "harness.task_s_p90", "harness.retries", "harness.outside_drain_frac",
)


class StudyFailed(RuntimeError):
    """A study process exited non-zero, timed out or printed no result."""


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------
def git_sha() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[len("ref: "):]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine() or "unknown"


def load_average() -> list[float] | None:
    try:
        return [round(v, 2) for v in os.getloadavg()]
    except OSError:
        return None


def provenance(args) -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "workload": args.workload,
        "size": args.size,
        "trace": args.trace,
        "load_before": load_average(),
    }


# ---------------------------------------------------------------------------
# running studies
# ---------------------------------------------------------------------------
def run_study_process(args, tag: str, *, trace: bool = False,
                      setup_only: bool = False,
                      jobs: int | None = None) -> dict:
    """Run one study in a fresh process and return its JSON record."""
    workdir = WORK_DIR / f"{os.getpid()}-{tag}"
    shutil.rmtree(workdir, ignore_errors=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env.pop("REPRO_JOBS", None)
    env.pop("REPRO_CACHE_DIR", None)
    command = [
        sys.executable, "-m", "perfbench.study",
        "--workload", args.workload, "--seed", str(args.seed),
        "--size", args.size, "--workdir", str(workdir),
    ]
    if trace:
        command.append("--trace")
    if setup_only:
        command.append("--setup-only")
    if jobs is not None:
        command += ["--jobs", str(jobs)]
    spawned_at = time.monotonic()
    proc = subprocess.Popen(
        command + ["--spawned-at", repr(spawned_at)], cwd=ROOT, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=STUDY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise StudyFailed(f"study {tag} exceeded {STUDY_TIMEOUT_S:.0f} s")
    finally:
        spans = workdir / "spans.json"
        if spans.exists():
            spans.replace(WORK_DIR / f"spans-{args.workload}-{args.seed}-{tag}.json")
        shutil.rmtree(workdir, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise StudyFailed(
            f"study {tag} exited {proc.returncode}:\n{stderr[-2000:]}")
    return json.loads(lines[-1])


def load_reference(args) -> dict | None:
    """Recorded digests for this workload, size and seed (None = none)."""
    if args.seed != DEFAULT_SEED or not DIGESTS.exists():
        return None
    return json.loads(DIGESTS.read_text()).get(args.size, {}).get(args.workload)


def check_study(study: dict, reference: dict, label: str) -> tuple[int, bool]:
    """Failed cells of ``study`` against ``reference``, and figures match.

    Prints the first differing cell. A cell missing from either side, or
    one the supervisor gave up on, counts as failed.
    """
    cells, expected = study["cells"], reference["cells"]
    bad = sorted({
        key for key in set(cells) | set(expected)
        if cells.get(key) != expected.get(key)
    } | set(study["failed"]))
    if bad:
        first = bad[0]
        print(f"{label}: {len(bad)} cells differ; first {first}: "
              f"got {cells.get(first)}, expected {expected.get(first)}")
    figures_ok = study["figures"] == reference["figures"]
    if not figures_ok:
        print(f"{label}: figure digest {study['figures']} != "
              f"{reference['figures']}")
    return len(bad), figures_ok


def untraced_run(args) -> dict:
    """Repeat the study for ``--seconds``; end-to-end metrics and checks."""
    setups = [run_study_process(args, f"setup{i}", setup_only=True)["setup_s"]
              for i in range(SETUP_PROBES)]
    studies: list[dict] = []
    start = time.monotonic()
    deadline = start + args.seconds
    while True:
        studies.append(run_study_process(args, f"study{len(studies)}"))
        now = time.monotonic()
        per_study = (now - start) / len(studies)
        if len(studies) >= MIN_STUDIES and now + per_study > deadline:
            break
    reference = load_reference(args)
    if reference is None:
        reference = studies[0]
        print("no recorded digest for this seed: checking that every "
              "study repeats the first")
    failed, correct = 0, True
    for i, study in enumerate(studies):
        bad, figures_ok = check_study(study, reference, f"study {i}")
        failed += bad
        correct = correct and figures_ok and bad == 0
    attempted = sum(study["attempted"] for study in studies)
    own_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "suite_wall_s": statistics.median([s["suite_wall_s"] for s in studies]),
        "sim_events_per_s": statistics.median(
            [s["events"] / s["suite_wall_s"] for s in studies]),
        "setup_s": statistics.median(setups + [s["setup_s"] for s in studies]),
        "peak_rss_mb": max(own_rss, statistics.median([s["peak_rss_mb"] for s in studies])),
    }
    print(f"studies={len(studies)} cells/study={studies[0]['attempted']} "
          f"jobs={studies[0]['jobs']} "
          f"walls={[round(s['suite_wall_s'], 3) for s in studies]} "
          f"cell_fail_frac={failed / attempted:.6f} "
          f"digest={fold_cells(studies[0]['cells'])}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics, "cells": studies[0]["attempted"],
            "jobs": studies[0]["jobs"]}


def fold_cells(cells: dict[str, str]) -> str:
    """One digest over every cell digest, in key order."""
    text = "\n".join(f"{key} {cells[key]}" for key in sorted(cells))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def traced_run(args) -> dict:
    """One untraced and two traced passes; per-layer metrics and self-checks."""
    base = run_study_process(args, "untraced")
    # The profiler cannot report back from pool workers, so the traced
    # passes run serially; compare their cost with a serial untraced pass.
    serial_base = (base if base["jobs"] <= 1
                   else run_study_process(args, "untraced-serial", jobs=1))
    traced = [run_study_process(args, f"traced{i}", trace=True, jobs=1)
              for i in range(2)]
    if base["jobs"] > 1:
        print(f"traced passes ran serially (jobs=1); dispatch and task "
              f"spans come from the untraced pass with jobs={base['jobs']}")
    problems = []
    first, second = traced
    if any(
        first["layers"][layer]["calls_per_event"]
        != second["layers"][layer]["calls_per_event"]
        for layer in PROFILED_LAYERS
    ):
        problems.append("calls_per_event differs between the traced passes")
    if first["profiled_events"] != second["profiled_events"]:
        problems.append("profiled event counts differ between traced passes")
    if first["boundary"]["workloads.trace_builds"] != \
            second["boundary"]["workloads.trace_builds"]:
        problems.append("trace builds differ between the traced passes")
    for label, other in (("second traced", second), ("untraced", base),
                         ("serial untraced", serial_base)):
        if other["sim"] != first["sim"]:
            problems.append(f"simulated counts differ: first traced vs {label}")
        if other["cells"] != first["cells"]:
            problems.append(f"cell digests differ: first traced vs {label}")
    if base["events"] != first["profiled_events"]:
        problems.append("untraced and traced passes drained different events")
    reference = load_reference(args)
    failed = len(base["failed"])
    if reference is not None:
        failed, figures_ok = check_study(base, reference, "untraced pass")
        if not figures_ok:
            problems.append("figure digest differs from the recorded one")
    for problem in problems:
        print(f"self-check failed: {problem}")
    traced_wall = statistics.fmean(t["suite_wall_s"] for t in traced)
    metrics = {
        name: statistics.fmean(t["boundary"][name] for t in traced)
        for name in first["boundary"]
    }
    # Identical in both passes (checked above); keep it a whole number.
    metrics["workloads.trace_builds"] = first["boundary"]["workloads.trace_builds"]
    for name in ("harness.plan_s", "harness.reduce_s"):
        metrics[name] = statistics.fmean(t[name] for t in traced)
    for name in FROM_UNTRACED:
        metrics[name] = base[name]
    metrics["sim.events"] = base["events"]
    metrics["sim.drain_events_per_s"] = (
        base["events"] / base["sim.drain_s"] if base["sim.drain_s"] else 0.0)
    for layer in PROFILED_LAYERS:
        for stat in ("calls_per_event", "self_frac"):
            metrics[f"{layer}.{stat}"] = first["layers"][layer][stat]
    metrics.update(first["sim"])
    metrics["bench.untraced_wall_s"] = serial_base["suite_wall_s"]
    metrics["bench.trace_overhead_s"] = traced_wall - serial_base["suite_wall_s"]
    print(f"tracing overhead: {metrics['bench.trace_overhead_s']:.3f} s on "
          f"{serial_base['suite_wall_s']:.3f} s untraced "
          f"({metrics['bench.trace_overhead_s'] / serial_base['suite_wall_s']:.1%})")
    return {"correct": not problems and failed == 0,
            "attempted": base["attempted"], "failed": failed,
            "metrics": metrics, "cells": base["attempted"], "jobs": base["jobs"]}


def record_digests(args) -> int:
    """Write every workload's default-seed digests to ``digests.json``."""
    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    args.seed = DEFAULT_SEED
    for name in NAMES:
        args.workload = name
        study = run_study_process(args, "record")
        recorded.setdefault(args.size, {})[name] = {
            "digest": fold_cells(study["cells"]),
            "figures": study["figures"],
            "cells": study["cells"],
        }
        print(f"{name}: {len(study['cells'])} cells, digest "
              f"{recorded[args.size][name]['digest']}")
    DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--record-digests", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.record_digests:
        return record_digests(args)
    if args.workload is None:
        parser.error("--workload is required")
    info = provenance(args)
    try:
        outcome = traced_run(args) if args.trace else untraced_run(args)
    except StudyFailed as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    info.update(jobs=outcome["jobs"], cells=outcome["cells"],
                load_after=load_average())
    print("provenance: " + json.dumps(info, sort_keys=True))
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    result = {
        "correct": outcome["correct"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            name: {"value": outcome["metrics"][name], "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python
"""Fork bench: measure the wall-clock win of shared warmup forking.

A locality sweep (the PR 5 grid) runs every placement/CTA policy variant
over the same fabric and workload; each cold cell re-simulates the
identical warmup prefix before the policies can diverge. The checkpoint
layer's Level 1 (``repro.harness.checkpoint``) runs that prefix once,
captures a :class:`~repro.sim.snapshot.SimSnapshot` at the inter-kernel
boundary, and branches every variant off it.

This bench runs one sweep column — the baseline topology config plus the
four ``LOCALITY_POLICIES`` pairings on one (fabric, socket count) — both
ways:

* **per-cell** mode: every cell pays its own warmup + branch (exactly a
  cold sweep's cost, cell by cell);
* **shared** mode: one warmup, then every cell branches off the same
  snapshot.

and asserts the two modes are **byte-identical per cell** (the snapshot
determinism contract) with the baseline branch additionally pinned to a
plain cold run, then reports the measured speedup. The acceptance floor
(``--min-speedup``, default 1.5x) makes a silent forking regression fail
CI rather than quietly re-simulating warmups.

Usage::

    PYTHONPATH=src python scripts/fork_bench.py                 # CI gate
    PYTHONPATH=src python scripts/fork_bench.py --append-history "PR 8"
"""

from __future__ import annotations

import argparse
import json
import time

from bench_history import BENCH_PATH, append_history
from repro.core.builder import run_workload_on
from repro.harness.checkpoint import resume_snapshot, warmup_snapshot
from repro.harness.experiments import LOCALITY_POLICIES
from repro.harness.runner import ExperimentContext
from repro.metrics.export import result_to_json_dict
from repro.workloads.spec import SCALES
from repro.workloads.suite import get_workload


def canonical(result) -> str:
    return json.dumps(result_to_json_dict(result), sort_keys=True)


def sweep_column(ctx: ExperimentContext, kind: str, n_sockets: int):
    """The baseline + policy-variant configs of one sweep column."""
    cells = [("baseline", ctx.config_topology(kind, n_sockets=n_sockets))]
    for placement, cta in LOCALITY_POLICIES:
        cells.append((
            f"{placement}+{cta}",
            ctx.config_locality_policy(
                placement, cta, kind=kind, n_sockets=n_sockets
            ),
        ))
    return cells


def run_bench(scale_name: str, workload: str, kind: str, n_sockets: int,
              pause_after: int) -> dict:
    scale = SCALES[scale_name]
    ctx = ExperimentContext(scale=scale)
    cells = sweep_column(ctx, kind, n_sockets)
    base_config = cells[0][1]

    # Warm the shared CTA-trace memo outside the timed regions so
    # neither mode pays the one-time trace build.
    warmup_snapshot(base_config, workload, scale, pause_after=pause_after)

    # Per-cell mode: each cell re-runs the warmup prefix itself.
    t0 = time.perf_counter()
    per_cell = []
    for _, config in cells:
        snapshot, kernels = warmup_snapshot(
            base_config, workload, scale, pause_after=pause_after
        )
        per_cell.append(resume_snapshot(snapshot, config, kernels, workload))
    t_per_cell = time.perf_counter() - t0

    # Shared mode: one warmup, every cell branches off the snapshot.
    t0 = time.perf_counter()
    snapshot, kernels = warmup_snapshot(
        base_config, workload, scale, pause_after=pause_after
    )
    shared = [
        resume_snapshot(snapshot, config, kernels, workload)
        for _, config in cells
    ]
    t_shared = time.perf_counter() - t0

    # Byte-identity: sharing the snapshot must change nothing, and the
    # same-config branch must equal a plain cold run.
    for (name, _), a, b in zip(cells, per_cell, shared):
        assert canonical(a) == canonical(b), (
            f"{name}: shared-warmup branch diverged from per-cell branch"
        )
    cold = run_workload_on(base_config, get_workload(workload), scale)
    assert canonical(shared[0]) == canonical(cold), (
        "baseline branch diverged from the cold uninterrupted run"
    )

    speedup = t_per_cell / t_shared if t_shared else 0.0
    return {
        "scale": scale_name,
        "workload": workload,
        "kind": kind,
        "sockets": n_sockets,
        "cells": len(cells),
        "pause_after": pause_after,
        "per_cell_seconds": round(t_per_cell, 3),
        "shared_seconds": round(t_shared, 3),
        "fork_speedup": round(speedup, 3),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale", default="small", choices=sorted(SCALES),
        help="workload scale (default: small, the PR 5 sweep scale)",
    )
    parser.add_argument(
        "--workload", default="Rodinia-BFS",
        help="multi-kernel workload to fork (default: Rodinia-BFS)",
    )
    parser.add_argument(
        "--kind", default="ring", choices=["ring", "mesh2d", "switch_tree"],
        help="fabric of the sweep column (default: ring)",
    )
    parser.add_argument("--sockets", type=int, default=8)
    parser.add_argument(
        "--pause-after", type=int, default=3, metavar="K",
        help="kernels in the shared warmup prefix (default: 3 of "
        "Rodinia-BFS's 4 — a long prefix is what forking amortizes)",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=1.5,
        help="acceptance floor for the measured fork speedup",
    )
    parser.add_argument(
        "--append-history", metavar="LABEL", default=None,
        help="append this measurement to BENCH_hotpath.json's history",
    )
    args = parser.parse_args(argv)
    record = run_bench(
        args.scale, args.workload, args.kind, args.sockets, args.pause_after
    )
    print(f"fork bench: {json.dumps(record)}")
    assert record["fork_speedup"] >= args.min_speedup, (
        f"warmup forking won only {record['fork_speedup']}x "
        f"(floor {args.min_speedup}x): the shared prefix is being "
        "re-simulated somewhere"
    )
    if args.append_history:
        append_history(args.append_history, {
            "source": "fork-bench (shared warmup vs per-cell, serial)",
            "scale": record["scale"],
            "fork_cells": {
                f"{record['workload']}/{record['kind']}/"
                f"{record['sockets']}s": {
                    key: record[key]
                    for key in ("cells", "pause_after", "per_cell_seconds",
                                "shared_seconds", "fork_speedup")
                }
            },
        })
        print(f"history += {args.append_history!r} -> {BENCH_PATH.name}")
    print(
        f"OK: {record['cells']} branches byte-identical across modes, "
        f"fork speedup {record['fork_speedup']}x "
        f"(floor {args.min_speedup}x)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

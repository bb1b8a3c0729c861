"""Old-vs-new RunResult equivalence: the hot-path determinism contract.

The PR 2 hot-path overhaul (slotted counters, translation caches, bucket
engine, victim-scan rewrites — DESIGN.md, "Hot-path architecture") is
required to be a *pure* optimization: for every configuration, the
``RunResult`` it produces must be bit-identical to the pre-overhaul
simulator's. This module defines the canonical case matrix and JSON form
that pin that contract; the goldens themselves live in
``tests/golden/hotpath/`` and were recorded by running
``scripts/capture_equivalence_golden.py`` on the last pre-overhaul
revision. ``tests/test_equivalence_golden.py`` and the CI equivalence job
re-simulate every case and compare byte-for-byte.

The six ``Rodinia-BFS__*`` locality cases are *HEAD captures*, not
pre-overhaul ones: they were recorded on the revision just before
``PageTable`` took over its placement policy, and pin the paths that
refactor rewired (single-socket first-touch billing, ``LocalGpuSocket``,
fine and page interleaving, and the re-homing placement policies on a
ring).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

from repro.config import CacheArch, PlacementPolicy, SystemConfig
from repro.core.builder import run_workload_on
from repro.harness.runner import ExperimentContext
from repro.metrics.export import result_to_json_dict
from repro.workloads.spec import SCALES
from repro.workloads.suite import get_workload

#: Workloads chosen to exercise distinct behaviour profiles (streaming,
#: graph, stencil) while keeping the full matrix under ~15 s of simulation.
EQUIVALENCE_WORKLOADS = (
    "ML-GoogLeNet-cudnn-Lev2",
    "Rodinia-BFS",
    "Rodinia-Hotspot",
)


@dataclass(frozen=True)
class EquivalenceCase:
    """One pinned simulation: a name, its inputs, and what to record."""

    name: str
    workload: str
    config: SystemConfig
    record_timelines: bool


def equivalence_cases() -> list[EquivalenceCase]:
    """The golden case matrix.

    Every ``CacheArch`` organization is covered for every workload; one
    extra case adds dynamic links + timeline recording so the balancer,
    partition controller, and TimeSeries serialization paths are pinned
    too. Six small BFS cases pin the placement and CTA-policy paths:
    one-socket first-touch billing, the single-GPU socket, the
    traditional interleaved layouts, and the two re-homing policies.
    """
    ctx = ExperimentContext(scale=SCALES["tiny"])
    cases = [
        EquivalenceCase(
            name=f"{workload}__{arch.value}",
            workload=workload,
            config=ctx.config_cache(arch),
            record_timelines=False,
        )
        for workload in EQUIVALENCE_WORKLOADS
        for arch in CacheArch
    ]
    cases.append(
        EquivalenceCase(
            name=f"{EQUIVALENCE_WORKLOADS[0]}__combined_timelines",
            workload=EQUIVALENCE_WORKLOADS[0],
            config=ctx.config_combined(),
            record_timelines=True,
        )
    )
    locality_configs = {
        "one_socket_first_touch": ctx.base_config(1),
        "single_gpu": ctx.config_single_gpu(),
        "traditional": ctx.config_traditional(),
        "page_interleave": replace(
            ctx.base_config(), placement=PlacementPolicy.PAGE_INTERLEAVE
        ),
        "ring_distance_weighted": ctx.config_locality_policy(
            "distance_weighted_first_touch", "distance_affine",
            kind="ring", n_sockets=4,
        ),
        "ring_access_counter": ctx.config_locality_policy(
            "access_counter_migration", "contiguous",
            kind="ring", n_sockets=4,
        ),
    }
    cases.extend(
        EquivalenceCase(
            name=f"Rodinia-BFS__{label}",
            workload="Rodinia-BFS",
            config=config,
            record_timelines=False,
        )
        for label, config in locality_configs.items()
    )
    return cases


def canonical_result_json(case: EquivalenceCase) -> str:
    """Run one case and render its RunResult as canonical JSON."""
    result = run_workload_on(
        case.config,
        get_workload(case.workload),
        SCALES["tiny"],
        record_timelines=case.record_timelines,
    )
    return json.dumps(result_to_json_dict(result), sort_keys=True, indent=1)

"""System lifetime: a finished cell frees its per-line state by refcount.

DESIGN.md, "System lifetime": ``run_workload_on`` closes its system once
the result is collected, so caches' frames, line records, pooled miss
walkers and finished CTAs die immediately instead of waiting, as cyclic
garbage, for a full collection. Every test here runs with cyclic GC
disabled, so an object still alive after the cell is one only a
collection could have freed — exactly what ``close()`` must prevent.
"""

import gc
import json
from contextlib import contextmanager

import pytest

from repro.config import CacheArch
from repro.core.builder import build_system, run_workload_on, run_workload_traced
from repro.errors import SimulationError
from repro.gpu.cta import CtaExecution
from repro.gpu.socket import GpuSocket, LocalGpuSocket, _LineRec
from repro.harness.checkpoint import forked_results
from repro.harness.runner import ExperimentContext
from repro.memory.cache import _Way
from repro.metrics.export import result_to_json_dict
from repro.metrics.report import collect_results
from repro.sim.path import ReadPath, WritePath
from repro.workloads.spec import WorkloadScale
from repro.workloads.suite import get_workload

MICRO = WorkloadScale(name="micro", cta_cap=24, footprint_lines=2048,
                      ops_scale=0.25)

WORKLOAD = "Rodinia-BFS"

#: Per-line and per-CTA objects a finished cell must not leave behind.
PER_LINE_TYPES = (_LineRec, _Way, ReadPath, WritePath, CtaExecution)


def _ctx() -> ExperimentContext:
    return ExperimentContext(sms_per_socket=2, scale=MICRO)


CELLS = {
    "single_gpu": lambda ctx: ctx.config_single_gpu(),
    "crossbar4_numa_aware": lambda ctx: ctx.config_cache(CacheArch.NUMA_AWARE),
    "ring16_access_counter": lambda ctx: ctx.config_locality_policy(
        "access_counter_migration", "contiguous", kind="ring", n_sockets=16
    ),
}


def live_counts() -> dict[str, int]:
    """Live instances of each per-line type, by type name."""
    counts = dict.fromkeys((t.__name__ for t in PER_LINE_TYPES), 0)
    for obj in gc.get_objects():
        if isinstance(obj, PER_LINE_TYPES):
            counts[type(obj).__name__] += 1
    return counts


@contextmanager
def gc_paused():
    """Collect once, then keep cyclic GC off for the block."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def canonical(result) -> str:
    return json.dumps(result_to_json_dict(result), sort_keys=True)


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_cell_frees_its_per_line_state(cell):
    config = CELLS[cell](_ctx())
    with gc_paused():
        before = live_counts()
        result = run_workload_on(config, get_workload(WORKLOAD), MICRO)
        after = live_counts()
    assert result.cycles > 0
    assert after == before


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_close_frees_per_line_state_of_a_held_system(cell):
    config = CELLS[cell](_ctx())
    with gc_paused():
        before = live_counts()
        result, system = run_workload_traced(
            config, get_workload(WORKLOAD), MICRO
        )
        held = live_counts()
        system.close()
        closed = live_counts()
    # The system is still referenced here, so only close() can have
    # freed what the run built.
    assert held["_Way"] > before["_Way"]
    assert held["ReadPath"] > before["ReadPath"]
    assert closed == before
    expected = LocalGpuSocket if cell == "single_gpu" else GpuSocket
    assert type(system.sockets[0]) is expected
    # Everything collect_results reads survives the close.
    assert canonical(collect_results(system, WORKLOAD)) == canonical(result)


def test_forked_results_free_warmup_and_branches():
    ctx = _ctx()
    base = ctx.config_topology("ring", n_sockets=4)
    variants = [
        base,
        ctx.config_locality_policy(
            "access_counter_migration", "contiguous", kind="ring", n_sockets=4
        ),
    ]
    with gc_paused():
        before = live_counts()
        results = forked_results(base, variants, WORKLOAD, MICRO)
        after = live_counts()
    assert len(results) == 2
    assert after == before


def test_closed_system_refuses_to_run():
    config = _ctx().config_cache(CacheArch.SHARED_COHERENT)
    workload = get_workload(WORKLOAD)
    system = build_system(config)
    system.run(workload.build_kernels(MICRO), workload_name=WORKLOAD)
    system.close()
    system.close()  # idempotent
    assert system.closed
    with pytest.raises(SimulationError, match="closed"):
        system.run(workload.build_kernels(MICRO), workload_name=WORKLOAD)
    with pytest.raises(SimulationError, match="closed"):
        system.run_prefix(workload.build_kernels(MICRO), pause_after=1)


@pytest.mark.parametrize("enabled", [True, False])
def test_run_workload_on_restores_the_gc_state(enabled):
    config = _ctx().config_single_gpu()
    was_enabled = gc.isenabled()
    try:
        if enabled:
            gc.enable()
        else:
            gc.disable()
        run_workload_on(config, get_workload(WORKLOAD), MICRO)
        assert gc.isenabled() is enabled
    finally:
        if was_enabled:
            gc.enable()
        else:
            gc.disable()


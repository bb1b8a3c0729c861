"""Snapshot capture/restore/fork tests (DESIGN.md, "Snapshot & resume").

The headline guarantee is byte-identity: a system restored from a
snapshot and drained to completion produces a RunResult whose canonical
JSON equals a cold uninterrupted run's, and two independent captures of
the same prefix serialize to identical blobs. The rest of the file pins
the refusal surface — ineligible configurations, non-quiescent capture,
config/socket mismatches on restore, corrupt blobs — because a snapshot
layer that silently accepts bad input is worse than none.
"""

import json

import pytest

from repro.config import CacheArch, config_digest
from repro.core.builder import build_system, run_workload_on
from repro.errors import SnapshotError
from repro.harness.checkpoint import (
    forked_results,
    resume_snapshot,
    warmup_snapshot,
)
from repro.harness.runner import ExperimentContext
from repro.metrics.export import result_to_json_dict
from repro.sim.snapshot import SNAPSHOT_VERSION, SimSnapshot
from repro.workloads.spec import SCALES
from repro.workloads.suite import get_workload

TINY = SCALES["tiny"]

#: Snapshot-eligible cache architectures (NUMA_AWARE runs partition
#: controllers, which never quiesce).
ELIGIBLE_ARCHS = (
    CacheArch.MEM_SIDE,
    CacheArch.STATIC_RC,
    CacheArch.SHARED_COHERENT,
)

WORKLOAD = "Rodinia-BFS"


def canonical(result) -> str:
    return json.dumps(result_to_json_dict(result), sort_keys=True, indent=1)


def _ctx() -> ExperimentContext:
    return ExperimentContext(scale=TINY)


# ---------------------------------------------------------------------------
# byte-identity: restore == cold, capture is deterministic
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("arch", ELIGIBLE_ARCHS, ids=lambda a: a.value)
def test_restored_run_matches_cold_run(arch):
    config = _ctx().config_cache(arch)
    cold = run_workload_on(config, get_workload(WORKLOAD), TINY)
    snapshot, kernels = warmup_snapshot(config, WORKLOAD, TINY)
    resumed = resume_snapshot(snapshot, config, kernels, WORKLOAD)
    assert canonical(resumed) == canonical(cold)


def test_capture_is_deterministic():
    # Two independent prefix runs serialize to the identical blob —
    # the determinism the re-capture contract rests on.
    config = _ctx().config_cache(CacheArch.MEM_SIDE)
    first, _ = warmup_snapshot(config, WORKLOAD, TINY)
    second, _ = warmup_snapshot(config, WORKLOAD, TINY)
    assert first.to_bytes() == second.to_bytes()


def test_restore_on_locality_config_matches_cold_run():
    # A multi-hop fabric with a dynamic placement policy exercises the
    # fabric, policy-private, and translation-cache restore paths.
    config = _ctx().config_locality_policy(
        "access_counter_migration", "contiguous", kind="ring", n_sockets=8
    )
    cold = run_workload_on(config, get_workload(WORKLOAD), TINY)
    snapshot, kernels = warmup_snapshot(config, WORKLOAD, TINY)
    resumed = resume_snapshot(snapshot, config, kernels, WORKLOAD)
    assert canonical(resumed) == canonical(cold)


# ---------------------------------------------------------------------------
# serialization round-trip and corruption
# ---------------------------------------------------------------------------

def test_blob_round_trip():
    config = _ctx().config_cache(CacheArch.MEM_SIDE)
    snapshot, _ = warmup_snapshot(config, WORKLOAD, TINY)
    blob = snapshot.to_bytes()
    loaded = SimSnapshot.from_bytes(blob)
    assert loaded.payload == snapshot.payload
    assert loaded.config_digest == config_digest(config)
    assert loaded.cycle > 0


def test_corrupt_blob_refused():
    config = _ctx().config_cache(CacheArch.MEM_SIDE)
    snapshot, _ = warmup_snapshot(config, WORKLOAD, TINY)
    blob = snapshot.to_bytes()
    flipped = blob.replace(b'"now":', b'"noww":', 1)
    assert flipped != blob
    with pytest.raises(SnapshotError, match="checksum|unparseable"):
        SimSnapshot.from_bytes(flipped)
    with pytest.raises(SnapshotError):
        SimSnapshot.from_bytes(blob[: len(blob) // 2])  # torn write
    with pytest.raises(SnapshotError):
        SimSnapshot.from_bytes(b"not json at all")
    with pytest.raises(SnapshotError):
        SimSnapshot.from_bytes(b'{"v": 1}')  # no payload


def test_version_mismatch_refused():
    config = _ctx().config_cache(CacheArch.MEM_SIDE)
    snapshot, kernels = warmup_snapshot(config, WORKLOAD, TINY)
    snapshot.payload["version"] = SNAPSHOT_VERSION + 1
    with pytest.raises(SnapshotError, match="version"):
        snapshot.restore_into(build_system(config))


# ---------------------------------------------------------------------------
# refusal surface: eligibility, quiescence, mismatches
# ---------------------------------------------------------------------------

def test_numa_aware_is_ineligible():
    config = _ctx().config_cache(CacheArch.NUMA_AWARE)
    system = build_system(config)
    assert system.snapshot_eligible() is not None
    with pytest.raises(SnapshotError, match="quiesce"):
        warmup_snapshot(config, WORKLOAD, TINY)


def test_timeline_recording_is_ineligible():
    config = _ctx().config_cache(CacheArch.MEM_SIDE)
    system = build_system(config, record_timelines=True)
    # Recording adds monitor-only balancers and periodic samplers; either
    # is disqualifying — only the refusal itself matters.
    assert system.snapshot_eligible() is not None
    with pytest.raises(SnapshotError):
        SimSnapshot.capture(system)


def test_capture_without_prefix_refused():
    system = build_system(_ctx().config_cache(CacheArch.MEM_SIDE))
    with pytest.raises(SnapshotError, match="launcher"):
        SimSnapshot.capture(system)


def test_pause_after_bounds():
    config = _ctx().config_cache(CacheArch.MEM_SIDE)
    kernels = get_workload(WORKLOAD).build_kernels(TINY)
    with pytest.raises(SnapshotError):
        warmup_snapshot(config, WORKLOAD, TINY, pause_after=0)
    with pytest.raises(SnapshotError):
        warmup_snapshot(config, WORKLOAD, TINY, pause_after=len(kernels))


def test_restore_refuses_config_mismatch():
    ctx = _ctx()
    snapshot, kernels = warmup_snapshot(
        ctx.config_cache(CacheArch.MEM_SIDE), WORKLOAD, TINY
    )
    other = ctx.config_cache(CacheArch.STATIC_RC)
    with pytest.raises(SnapshotError, match="config mismatch"):
        snapshot.restore_into(build_system(other))


def test_restore_refuses_socket_count_mismatch():
    ctx = _ctx()
    snapshot, _ = warmup_snapshot(
        ctx.config_topology("ring", n_sockets=4), WORKLOAD, TINY
    )
    target = build_system(ctx.config_topology("ring", n_sockets=8))
    with pytest.raises(SnapshotError, match="socket count"):
        snapshot.restore_into(target, fork=True)


@pytest.mark.parametrize(
    "target",
    [
        lambda ctx: ctx.config_topology("ring", n_sockets=4),
        lambda ctx: ctx.config_topology("fully_connected", n_sockets=4),
        lambda ctx: ctx.config_doubled_link(),
    ],
    ids=["ring4", "fully_connected4", "doubled"],
)
def test_fork_refuses_a_different_fabric(target):
    # A crossbar STATIC warmup carries edge state for its own graph and
    # link rates only; branching it onto another topology or onto
    # DOUBLED links must fail loudly, not restore a mismatched fabric.
    ctx = _ctx()
    snapshot, _ = warmup_snapshot(ctx.config_locality(), WORKLOAD, TINY)
    system = build_system(target(ctx))
    with pytest.raises(SnapshotError, match="fabric mismatch"):
        snapshot.restore_into(system, fork=True)
    assert system.engine.now == 0  # refused before any state was overlaid


# ---------------------------------------------------------------------------
# forking
# ---------------------------------------------------------------------------

def test_fork_same_config_matches_cold_run():
    config = _ctx().config_topology("ring", n_sockets=4)
    cold = run_workload_on(config, get_workload(WORKLOAD), TINY)
    (branch,) = forked_results(config, [config], WORKLOAD, TINY)
    assert canonical(branch) == canonical(cold)


def test_fork_branches_policy_variants():
    # One warmup under the baseline, branches under two placement
    # variants: each branch must complete, and the baseline branch must
    # still be byte-identical to its cold run even though variant
    # branches restored from the same snapshot in between.
    ctx = _ctx()
    base = ctx.config_topology("ring", n_sockets=4)
    variants = [
        base,
        ctx.config_locality_policy(
            "first_touch", "contiguous", kind="ring", n_sockets=4
        ),
        ctx.config_locality_policy(
            "access_counter_migration", "contiguous", kind="ring", n_sockets=4
        ),
    ]
    results = forked_results(base, variants, WORKLOAD, TINY)
    assert len(results) == 3
    assert all(r.cycles > 0 for r in results)
    cold = run_workload_on(base, get_workload(WORKLOAD), TINY)
    assert canonical(results[0]) == canonical(cold)
    # The variants diverge from the baseline (the policies differ).
    assert canonical(results[2]) != canonical(results[0])

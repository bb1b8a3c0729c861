"""Observability layer tests (DESIGN.md, "Observability contract").

The headline guarantees:

* **Determinism** — two traced runs of the same config serialize to
  byte-identical Chrome payloads, and a run resumed from a snapshot
  records exactly the cold run's event stream after the fork point.
* **Zero overhead when off** — an untraced run's RunResult is
  byte-identical to a traced run's (no sampler), and every hook site
  is restored to NOOP once a traced run finishes.
* **Loadable output** — every exporter produces payloads that pass the
  Chrome-trace structural validation, and the wall-clock study trace
  strips to a deterministic remainder.
"""

import json

import pytest

from repro.config import CacheArch
from repro.core.builder import build_system, run_workload_on, run_workload_traced
from repro.harness.checkpoint import warmup_snapshot
from repro.harness.runner import ExperimentContext
from repro.metrics.export import result_to_json_dict
from repro.obs import NOOP, Tracer, is_enabled
from repro.obs import hooks as obs_hooks
from repro.obs.chrome import (
    TRACE_SCHEMA,
    canonical_json,
    strip_wall_clock,
    study_to_chrome,
    tracer_to_chrome,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.workloads.spec import SCALES
from repro.workloads.suite import get_workload

TINY = SCALES["tiny"]
WORKLOAD = "Rodinia-BFS"


def _config(arch=CacheArch.MEM_SIDE):
    return ExperimentContext(scale=TINY).config_cache(arch)


def _traced_payload(metrics_interval=0, label="t"):
    tracer = Tracer()
    _, system = run_workload_traced(
        _config(), get_workload(WORKLOAD), TINY,
        tracer=tracer, metrics_interval=metrics_interval,
    )
    return tracer_to_chrome(tracer, registry=system.metrics, label=label)


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_same_config_traces_are_byte_identical():
    first = _traced_payload(metrics_interval=1000)
    second = _traced_payload(metrics_interval=1000)
    assert canonical_json(first) == canonical_json(second)


def test_traced_run_result_matches_untraced():
    # With no periodic sampler the tracer only observes; the RunResult
    # must be byte-identical to a plain run's (the golden contract).
    untraced = run_workload_on(_config(), get_workload(WORKLOAD), TINY)
    result, _ = run_workload_traced(
        _config(), get_workload(WORKLOAD), TINY, tracer=Tracer()
    )
    assert (
        json.dumps(result_to_json_dict(result), sort_keys=True)
        == json.dumps(result_to_json_dict(untraced), sort_keys=True)
    )


def test_fork_trace_matches_cold_trace_after_fork_point():
    # Trace a cold uninterrupted run, then fork an identical config off
    # an (untraced) warmup snapshot and trace only the resumed half.
    # The resumed event stream must be an exact suffix of the cold one:
    # the fork point splits the trace, it does not perturb it.
    config = _config()
    cold = Tracer()
    run_workload_traced(config, get_workload(WORKLOAD), TINY, tracer=cold)

    snapshot, kernels = warmup_snapshot(config, WORKLOAD, TINY)
    resumed = Tracer()
    system = build_system(config, tracer=resumed)
    launcher_state = snapshot.restore_into(system)
    system.resume(kernels, launcher_state, workload_name=WORKLOAD)

    assert resumed.kernel_spans, "resumed run recorded no kernel spans"
    for kind in ("kernel_spans", "read_spans", "write_spans",
                 "migrations", "fabric_sends", "lane_events"):
        cold_events = getattr(cold, kind)
        resumed_events = getattr(resumed, kind)
        n = len(resumed_events)
        suffix = cold_events[len(cold_events) - n:] if n else []
        assert resumed_events == suffix, kind
    # The warmup prefix (kernel 0) exists only in the cold trace.
    assert {span[0] for span in cold.kernel_spans} - {
        span[0] for span in resumed.kernel_spans
    } == {0}


# ---------------------------------------------------------------------------
# zero overhead when off
# ---------------------------------------------------------------------------

def test_hook_sites_restored_to_noop_after_traced_run():
    run_workload_traced(
        _config(), get_workload(WORKLOAD), TINY, tracer=Tracer()
    )
    assert not is_enabled()
    import sys

    for module_name, attr, _event in obs_hooks.sites():
        assert getattr(sys.modules[module_name], attr) is NOOP, (
            module_name, attr,
        )


def test_enable_is_exclusive():
    tracer = Tracer()
    obs_hooks.enable(tracer)
    try:
        with pytest.raises(RuntimeError):
            obs_hooks.enable(Tracer())
        assert is_enabled()
    finally:
        obs_hooks.disable()
    assert not is_enabled()
    obs_hooks.disable()  # idempotent


def test_metrics_sampler_blocks_snapshots():
    system = build_system(_config(), tracer=Tracer(), metrics_interval=500)
    assert "sampler" in system.snapshot_eligible()
    assert build_system(_config(), tracer=Tracer()).snapshot_eligible() is None


# ---------------------------------------------------------------------------
# exporters
# ---------------------------------------------------------------------------

def test_trace_payload_is_valid_and_populated(tmp_path):
    payload = _traced_payload(metrics_interval=1000, label="bfs@tiny")
    validate_chrome_trace(payload)
    assert payload["metadata"]["trace_schema"] == TRACE_SCHEMA
    assert payload["metadata"]["label"] == "bfs@tiny"
    assert payload["metadata"]["bursts"]["n_bursts"] > 0
    cats = {event.get("cat") for event in payload["traceEvents"]}
    assert {"kernel", "read", "metric"} <= cats
    out = tmp_path / "trace.json"
    write_chrome_trace(payload, out)
    assert out.read_text() == canonical_json(payload) + "\n"


def test_validate_rejects_malformed_payloads():
    with pytest.raises(ValueError):
        validate_chrome_trace([])
    with pytest.raises(ValueError):
        validate_chrome_trace({"traceEvents": [], "metadata": {}})
    bad_phase = {
        "traceEvents": [{"ph": "Z", "name": "x", "pid": 1}],
        "metadata": {"trace_schema": TRACE_SCHEMA},
    }
    with pytest.raises(ValueError):
        validate_chrome_trace(bad_phase)
    open_span = {
        "traceEvents": [{"ph": "X", "name": "x", "pid": 1, "tid": 0, "ts": 0}],
        "metadata": {"trace_schema": TRACE_SCHEMA},
    }
    with pytest.raises(ValueError):
        validate_chrome_trace(open_span)


def test_tracer_caps_each_kind_with_exact_drop_counts():
    tracer = Tracer(max_events_per_kind=3)
    for i in range(10):
        tracer.on_fabric_send(0, 1, 32, i, i + 4, 2)
    assert len(tracer.fabric_sends) == 3
    assert tracer.dropped == {"fabric": 7}
    assert tracer.to_dict()["dropped"] == {"fabric": 7}


def _fake_telemetry(t0, dur=1.5, built=True):
    task = {"key": "Rodinia-BFS|0", "t_start": t0, "t_end": t0 + dur,
            "runs": 1, "events": 100, "cycles": 50, "wall_seconds": dur,
            "trace_built": built}
    return {
        "mode": "pool",
        "workers": {"repro-supervised-0": {
            "tasks": [task],
            "tally": {"runs": 1, "events": 100, "cycles": 50,
                      "wall_seconds": dur},
        }},
        "totals": {"runs": 1, "events": 100, "cycles": 50,
                   "wall_seconds": dur, "trace_builds": int(built),
                   "trace_hits": int(not built)},
    }


def test_study_trace_strips_to_deterministic_remainder():
    first = study_to_chrome(_fake_telemetry(10.0, dur=1.5))
    # Another study: other wall clocks, and another trace-memo outcome
    # (which worker ran the task decides whether its traces were held).
    second = study_to_chrome(_fake_telemetry(99.5, dur=0.3, built=False))
    validate_chrome_trace(first)
    assert first != second  # wall-clock durations differ...
    stripped = strip_wall_clock(first)
    assert canonical_json(stripped) == canonical_json(strip_wall_clock(second))
    assert "wall_seconds" not in stripped["metadata"]
    assert stripped["metadata"]["totals"] == {
        "runs": 1, "events": 100, "cycles": 50,
    }
    spans = [e for e in stripped["traceEvents"] if e.get("cat") == "wall"]
    assert spans and all(
        "ts" not in e and "dur" not in e and "tid" not in e for e in spans
    )

"""Chrome/Perfetto ``trace.json`` export for tracer + harness telemetry.

Two trace families share the JSON object format (``traceEvents`` +
``metadata``, loadable in ``chrome://tracing`` / Perfetto):

* **Simulated-time traces** (:func:`tracer_to_chrome`): the convention
  is 1 cycle = 1 µs, so the viewer's microsecond ruler reads as
  cycles. Tracks: one process per event family (kernels, miss paths,
  fabric, instants, metrics) with one thread per socket/link. These
  traces contain *no wall-clock data at all* — serialization is
  canonical (sorted keys, fixed separators), so two runs of the same
  config produce byte-identical files.
* **Wall-clock study traces** (:func:`study_to_chrome`): per-worker
  tracks of task spans from the supervisor's telemetry, in real
  microseconds since the study's first task. Every wall-clock-bearing
  event carries ``cat == "wall"`` and the nondeterministic metadata
  keys are declared in :data:`WALL_CLOCK_METADATA_FIELDS`;
  :func:`strip_wall_clock` zeroes/removes exactly those, leaving the
  deterministic remainder (event counts, simulated totals) for tests
  to compare.

``metadata.trace_schema`` versions the payload shape; bump it when a
track or record shape changes incompatibly.
"""

from __future__ import annotations

import json

#: Payload shape version, recorded in every trace's metadata.
TRACE_SCHEMA = 1

#: Category marking events whose ts/dur come from the wall clock.
WALL_CLOCK_CATEGORY = "wall"

#: Metadata keys that legitimately differ between identical runs.
WALL_CLOCK_METADATA_FIELDS = ("wall_seconds",)

# One Chrome "process" per event family keeps the viewer's track
# grouping stable regardless of which families a run populated.
PID_KERNELS = 1
PID_MISS_PATHS = 2
PID_FABRIC = 3
PID_INSTANTS = 4
PID_METRICS = 5
PID_WORKERS = 10

_PROCESS_NAMES = (
    (PID_KERNELS, "kernels (simulated cycles)"),
    (PID_MISS_PATHS, "miss paths (simulated cycles)"),
    (PID_FABRIC, "fabric transfers (simulated cycles)"),
    (PID_INSTANTS, "instants (simulated cycles)"),
    (PID_METRICS, "metrics (simulated cycles)"),
)

_READ_NAMES = ("read local", "read remote")
_WRITE_NAMES = ("write remote", "write local")


def tracer_to_chrome(tracer, registry=None, link_timelines=None, label=""):
    """Build a Chrome trace payload from a :class:`~repro.obs.tracer.Tracer`.

    ``registry`` (a :class:`~repro.obs.metrics.MetricRegistry`) and
    ``link_timelines`` (the ``RunResult`` Fig-5 ``TimeSeries`` dict)
    each contribute counter tracks when provided. Purely simulated
    time: the payload is a deterministic function of the run.
    """
    events = []
    for pid, name in _PROCESS_NAMES:
        events.append(
            {"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
             "args": {"name": name}}
        )
    seen_tids = set()
    for idx, name, socket_id, t_start, t_end in tracer.kernel_spans:
        _thread_meta(events, seen_tids, PID_KERNELS, socket_id,
                     f"socket {socket_id}")
        events.append(
            {"ph": "X", "cat": "kernel", "name": f"k{idx}:{name}",
             "pid": PID_KERNELS, "tid": socket_id, "ts": t_start,
             "dur": t_end - t_start, "args": {"kernel": idx}}
        )
    for socket_id, line, cls, home_id, t_start, t_end, hops in tracer.read_spans:
        _thread_meta(events, seen_tids, PID_MISS_PATHS, socket_id,
                     f"socket {socket_id}")
        events.append(
            {"ph": "X", "cat": "read", "name": _READ_NAMES[cls],
             "pid": PID_MISS_PATHS, "tid": socket_id, "ts": t_start,
             "dur": t_end - t_start,
             "args": {"line": line, "home": home_id,
                      "hops": [[tag, cycle] for tag, cycle in hops]}}
        )
    for socket_id, line, is_local, home_id, t_start, t_end in tracer.write_spans:
        _thread_meta(events, seen_tids, PID_MISS_PATHS, socket_id,
                     f"socket {socket_id}")
        events.append(
            {"ph": "X", "cat": "write", "name": _WRITE_NAMES[is_local],
             "pid": PID_MISS_PATHS, "tid": socket_id, "ts": t_start,
             "dur": t_end - t_start,
             "args": {"line": line, "home": home_id}}
        )
    for src, dst, nbytes, t_start, t_end, hops in tracer.fabric_sends:
        _thread_meta(events, seen_tids, PID_FABRIC, src, f"socket {src} out")
        events.append(
            {"ph": "X", "cat": "fabric", "name": f"{src}->{dst}",
             "pid": PID_FABRIC, "tid": src, "ts": t_start,
             "dur": t_end - t_start,
             "args": {"bytes": nbytes, "hops": hops}}
        )
    _thread_meta(events, seen_tids, PID_INSTANTS, 0, "placement + lanes")
    for page, old, new, cycle in tracer.migrations:
        events.append(
            {"ph": "i", "cat": "migration", "name": f"re-home p{page}",
             "pid": PID_INSTANTS, "tid": 0, "ts": cycle, "s": "g",
             "args": {"page": page, "from": old, "to": new}}
        )
    for link_label, kind, cycle in tracer.lane_events:
        events.append(
            {"ph": "i", "cat": "lane", "name": f"{link_label} {kind}",
             "pid": PID_INSTANTS, "tid": 0, "ts": cycle, "s": "t",
             "args": {"link": link_label}}
        )
    if registry is not None:
        for name, series in registry.series.items():
            _counter_track(events, name, series.times, series.values)
    if link_timelines:
        for name, series in link_timelines.items():
            _counter_track(events, name, series.times, series.values)
    metadata = {
        "trace_schema": TRACE_SCHEMA,
        "clock": "simulated-cycles-as-us",
        "label": label,
        "dropped": dict(tracer.dropped),
        "bursts": {
            "n_bursts": tracer.n_bursts,
            "n_l1_hits": tracer.n_l1_hits,
            "n_async_issued": tracer.n_async_issued,
        },
    }
    if registry is not None and registry.counters:
        metadata["counters"] = dict(registry.counters)
    return {"traceEvents": events, "metadata": metadata}


def _thread_meta(events, seen, pid, tid, name) -> None:
    if (pid, tid) not in seen:
        seen.add((pid, tid))
        events.append(
            {"ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
             "args": {"name": name}}
        )


def _counter_track(events, name, times, values) -> None:
    for cycle, value in zip(times, values):
        events.append(
            {"ph": "C", "cat": "metric", "name": name, "pid": PID_METRICS,
             "tid": 0, "ts": cycle, "args": {"value": value}}
        )


def study_to_chrome(telemetry):
    """Build a wall-clock Chrome trace from supervisor study telemetry.

    ``telemetry`` is the ``FailureReport.telemetry`` dict: per-worker
    task spans (monotonic-clock seconds, comparable across processes on
    Linux) plus aggregated tallies. Worker-to-task assignment and all
    timestamps are scheduling-dependent — every timed event carries
    ``cat == "wall"`` so :func:`strip_wall_clock` can remove the
    nondeterminism; the simulated totals in the metadata are exact.
    """
    events = [
        {"ph": "M", "name": "process_name", "pid": PID_WORKERS, "tid": 0,
         "args": {"name": "harness workers (wall clock)"}}
    ]
    workers = telemetry.get("workers", {})
    starts = [
        task["t_start"]
        for record in workers.values()
        for task in record.get("tasks", ())
    ]
    base = min(starts) if starts else 0.0
    for tid, worker_id in enumerate(sorted(workers)):
        record = workers[worker_id]
        events.append(
            {"ph": "M", "name": "thread_name", "pid": PID_WORKERS,
             "tid": tid, "args": {"name": f"worker {worker_id}"}}
        )
        for task in record.get("tasks", ()):
            t_start = task["t_start"]
            t_end = task["t_end"]
            events.append(
                {"ph": "X", "cat": WALL_CLOCK_CATEGORY, "name": task["key"],
                 "pid": PID_WORKERS, "tid": tid,
                 "ts": int((t_start - base) * 1e6),
                 "dur": int((t_end - t_start) * 1e6),
                 "args": {"runs": task["runs"], "events": task["events"],
                          "cycles": task["cycles"]}}
            )
    totals = dict(telemetry.get("totals", {}))
    wall = totals.pop("wall_seconds", None)
    # Trace-memo outcomes depend on which worker ran which task.
    totals.pop("trace_builds", None)
    totals.pop("trace_hits", None)
    metadata = {
        "trace_schema": TRACE_SCHEMA,
        "clock": "wall-us",
        "totals": totals,
    }
    if wall is not None:
        metadata["wall_seconds"] = wall
    return {"traceEvents": events, "metadata": metadata}


def strip_wall_clock(payload):
    """Copy of ``payload`` with every declared wall-clock field removed.

    Events in :data:`WALL_CLOCK_CATEGORY` lose their ``ts``/``dur``
    (and worker-thread assignment via ``tid`` — pool scheduling is
    nondeterministic); metadata drops the keys declared in
    :data:`WALL_CLOCK_METADATA_FIELDS`. What remains must be identical
    across runs of the same study.
    """
    events = []
    for event in payload.get("traceEvents", ()):
        if event.get("cat") == WALL_CLOCK_CATEGORY:
            event = {
                key: value
                for key, value in event.items()
                if key not in ("ts", "dur", "tid")
            }
        events.append(event)
    metadata = {
        key: value
        for key, value in payload.get("metadata", {}).items()
        if key not in WALL_CLOCK_METADATA_FIELDS
    }
    # Wall-clock task spans lose their worker thread, so ordering by
    # (name, args) gives a canonical event sequence to compare.
    events.sort(key=lambda e: json.dumps(e, sort_keys=True))
    return {"traceEvents": events, "metadata": metadata}


_VALID_PHASES = frozenset("XiCM")


def validate_chrome_trace(payload) -> None:
    """Raise ``ValueError`` unless ``payload`` is a loadable trace.

    Structural checks mirroring what the Chrome/Perfetto importer
    needs: the JSON-object form with a ``traceEvents`` list, known
    phase codes, integer pids/tids, and complete ``X``/``i``/``C``
    records. Also pins ``metadata.trace_schema`` to the version this
    module writes.
    """
    if not isinstance(payload, dict):
        raise ValueError("trace payload must be a JSON object")
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("trace payload missing traceEvents list")
    metadata = payload.get("metadata")
    if not isinstance(metadata, dict):
        raise ValueError("trace payload missing metadata object")
    if metadata.get("trace_schema") != TRACE_SCHEMA:
        raise ValueError(
            f"trace_schema {metadata.get('trace_schema')!r} != {TRACE_SCHEMA}"
        )
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            raise ValueError(f"{where}: not an object")
        phase = event.get("ph")
        if phase not in _VALID_PHASES:
            raise ValueError(f"{where}: unknown phase {phase!r}")
        if not isinstance(event.get("name"), str):
            raise ValueError(f"{where}: missing name")
        if not isinstance(event.get("pid"), int):
            raise ValueError(f"{where}: missing integer pid")
        if phase == "M":
            continue
        if not isinstance(event.get("tid"), int) and "tid" in event:
            raise ValueError(f"{where}: non-integer tid")
        if "ts" in event and not isinstance(event["ts"], (int, float)):
            raise ValueError(f"{where}: non-numeric ts")
        if phase == "X":
            if "ts" not in event or "dur" not in event:
                raise ValueError(f"{where}: X event needs ts and dur")
            if event["dur"] < 0:
                raise ValueError(f"{where}: negative duration")
        elif phase == "i":
            if "ts" not in event or event.get("s") not in ("t", "p", "g"):
                raise ValueError(f"{where}: i event needs ts and scope")
        elif phase == "C":
            args = event.get("args")
            if not isinstance(args, dict) or not args:
                raise ValueError(f"{where}: C event needs value args")
            for value in args.values():
                if not isinstance(value, (int, float)):
                    raise ValueError(f"{where}: non-numeric counter value")


def canonical_json(payload) -> str:
    """Canonical serialization: byte-stable for identical payloads."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def write_chrome_trace(payload, path) -> None:
    """Validate and write ``payload`` canonically to ``path``."""
    validate_chrome_trace(payload)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(canonical_json(payload))
        handle.write("\n")

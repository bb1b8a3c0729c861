"""Perf smoke: assert simulator throughput stays above a recorded floor.

Runs a small fixed simulation mix (no profiler, disk cache bypassed by
construction — fresh in-memory context) and compares the measured engine
throughput against ``BENCH_hotpath.json`` at the repo root, two ways:

* ``events_per_second_floor`` — a hard floor set deliberately far below
  the development machine's measured rate, so ordinary CI-runner
  variance passes while a structural hot-path regression (string-keyed
  stat dicts, per-access translate calls, un-fused miss chains) fails
  loudly;
* ``probe_events_per_second`` — the recorded gate reference for the
  probe; a drop of more than ``--regression-tolerance`` (default 25%)
  against it fails, which is the CI regression gate for gradual decay.
  Record the reference on (or conservatively for) the slowest machine
  class that runs the gate — CI runners vary, and the tolerance is
  meant to absorb measurement noise, not cross-machine speed gaps. (The
  ``events_per_second`` key is the benchmark suite's own series, written
  by ``benchmarks/conftest.py`` over a different simulation mix.)

Two legs run under the gate: the crossbar probe mix and a *multi-hop*
leg (the same workloads on a 4-socket ring fabric), each with its own
floor (``multihop_events_per_second_floor``), gate reference
(``multihop_probe_events_per_second``), and history series (``source``:
``"multihop-probe"``) — so a regression confined to the routed hop
programs of ``repro.topology.fabric`` cannot hide behind a healthy
crossbar number.

Measurement protocol: each probe mix is executed ``--repeats`` times and
each simulation's *minimum* wall-clock across rounds is kept (the
standard best-of-N benchmark discipline — the minimum estimates the
code's cost with the least scheduler/frequency noise; events per run are
deterministic and identical across rounds, which is asserted). Trace
generation is excluded by construction: ``run_workload_on``
pre-materializes CTA slices before the timed engine drain.

``--append-history`` records the measurement into a ``history`` list in
``BENCH_hotpath.json`` (one entry per PR / recording), giving the repo a
machine-readable events/sec trajectory.

``--assert-overhead`` is the observability layer's instrumentation-off
gate: the probe runs with tracing disabled (the prebound-NOOP hook
globals; DESIGN.md "Observability contract"), so its rate must sit
within ``--overhead-tolerance`` (default 2%) of the recorded probe
series. The reference is the mean of the last four probe entries in
the history, not the single latest recording: individual recordings on
the dev container swing by ~4-5% run to run, so a single-entry
reference would gate on noise rather than on hook overhead. Because a
2% band is far inside cross-machine speed gaps, this gate is meant for
same-machine recordings (the dev-container history series), not
heterogeneous CI runners — CI keeps the 25% regression gate instead.

Usage::

    PYTHONPATH=src python scripts/perf_smoke.py              # assert
    PYTHONPATH=src python scripts/perf_smoke.py --report     # print only
    PYTHONPATH=src python scripts/perf_smoke.py --scale small --report
    PYTHONPATH=src python scripts/perf_smoke.py --append-history "PR 3"
"""

from __future__ import annotations

import argparse
import json
import sys

from bench_history import BENCH_PATH, append_history as write_history
from repro.config import CacheArch
from repro.core.builder import run_workload_on
from repro.harness.runner import ExperimentContext
from repro.sim.instrumentation import SIM_TALLY
from repro.workloads.spec import SCALES
from repro.workloads.suite import get_workload

#: The fixed probe mix: three behaviour profiles x the two extreme cache
#: organizations, tiny scale by default. Small enough for CI, large
#: enough that per-run constant costs do not dominate the events/sec
#: figure.
PROBE_WORKLOADS = ("Rodinia-BFS", "Rodinia-Hotspot", "ML-AlexNet-cudnn-Lev2")
PROBE_ARCHES = (CacheArch.MEM_SIDE, CacheArch.NUMA_AWARE)

#: The multi-hop probe leg: the same three behaviour profiles on one
#: routed fabric, so hop programs longer than the crossbar's two hops
#: sit under the throughput gate. A 4-socket ring is the smallest shape
#: with >1-hop routes in every routing table.
MULTIHOP_TOPOLOGY = "ring"
MULTIHOP_SOCKETS = 4


def _measure_cells(cells: list, scale: str, repeats: int) -> dict:
    """Best-of-``repeats`` measurement over ``(name, config)`` cells.

    Per cell the minimum engine-drain wall across rounds is kept; event
    counts are deterministic and asserted equal across rounds.
    """
    events: list[int] = [0] * len(cells)
    cycles: list[int] = [0] * len(cells)
    best_wall: list[float] = [float("inf")] * len(cells)
    for _ in range(max(1, repeats)):
        for idx, (name, config) in enumerate(cells):
            workload = get_workload(name)
            SIM_TALLY.reset()
            run_workload_on(config, workload, SCALES[scale])
            snap = SIM_TALLY.snapshot()
            if events[idx] and snap["events"] != events[idx]:
                raise AssertionError(
                    f"{name}: nondeterministic event count "
                    f"({snap['events']} != {events[idx]})"
                )
            events[idx] = snap["events"]
            cycles[idx] = snap["cycles"]
            if snap["wall_seconds"] < best_wall[idx]:
                best_wall[idx] = snap["wall_seconds"]
    total_events = sum(events)
    total_wall = sum(best_wall)
    return {
        "runs": len(cells),
        "repeats": max(1, repeats),
        "scale": scale,
        "events": total_events,
        "cycles": sum(cycles),
        "wall_seconds": round(total_wall, 6),
        "events_per_second": round(total_events / total_wall, 1)
        if total_wall > 0
        else 0.0,
    }


def measure(scale: str = "tiny", repeats: int = 3) -> dict:
    """Run the crossbar probe mix; return the best-of summary."""
    ctx = ExperimentContext(scale=SCALES[scale])
    cells = [
        (name, ctx.config_cache(arch))
        for name in PROBE_WORKLOADS
        for arch in PROBE_ARCHES
    ]
    return _measure_cells(cells, scale, repeats)


def measure_multihop(scale: str = "tiny", repeats: int = 3) -> dict:
    """Run the probe workloads on the multi-hop fabric leg."""
    ctx = ExperimentContext(scale=SCALES[scale])
    config = ctx.config_topology(
        MULTIHOP_TOPOLOGY, n_sockets=MULTIHOP_SOCKETS
    )
    cells = [(name, config) for name in PROBE_WORKLOADS]
    record = _measure_cells(cells, scale, repeats)
    record["topology"] = f"{MULTIHOP_TOPOLOGY}-{MULTIHOP_SOCKETS}"
    return record


def append_history(
    record: dict,
    label: str,
    set_gate: bool = False,
    source: str = "probe",
    gate_key: str = "probe_events_per_second",
) -> None:
    """Append one measurement to BENCH_hotpath.json's ``history`` list.

    The gate reference (``probe_events_per_second`` for the crossbar
    probe, ``multihop_probe_events_per_second`` for the fabric leg) is
    updated only when ``set_gate`` is requested *and* the measurement
    used the tiny probe: the reference is deliberately recorded
    conservatively for the slowest machine class running the gate, so
    routine history recordings on a fast dev box must not clobber (and
    thereby break) the CI gate, and a slow-laptop recording must not
    silently loosen it. The probe series is in any case kept separate
    from the bench-suite series the benchmark conftest records under
    ``events_per_second`` — different simulation mixes must not gate
    each other.
    """
    entry = {
        "source": source,
        "scale": record["scale"],
        "events": record["events"],
        "events_per_second": record["events_per_second"],
    }
    if "topology" in record:
        entry["topology"] = record["topology"]
    gate = None
    if set_gate and record["scale"] == "tiny":
        gate = (gate_key, record["events_per_second"])
    write_history(label, entry, gate=gate, path=BENCH_PATH)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--report",
        action="store_true",
        help="print the measurement without asserting floors",
    )
    parser.add_argument(
        "--scale",
        default="tiny",
        choices=sorted(SCALES),
        help="workload scale preset for the probe mix (default: tiny)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="measurement rounds; per-simulation minimum wall is kept",
    )
    parser.add_argument(
        "--regression-tolerance",
        type=float,
        default=0.25,
        help="maximum fractional events/sec drop vs the recorded "
        "measurement before the smoke fails (default: 0.25)",
    )
    parser.add_argument(
        "--append-history",
        metavar="LABEL",
        default=None,
        help="append this measurement to BENCH_hotpath.json's history "
        "under LABEL (the regression-gate reference is NOT touched "
        "unless --set-gate-reference is also given)",
    )
    parser.add_argument(
        "--assert-overhead",
        action="store_true",
        help="fail unless this (tracing-off) measurement is within "
        "--overhead-tolerance of the mean of the last four probe "
        "entries in the history — the zero-overhead-when-off gate for "
        "the prebound observability hooks. Same-machine recordings only.",
    )
    parser.add_argument(
        "--overhead-tolerance",
        type=float,
        default=0.02,
        help="maximum fractional events/sec drop vs the last recorded "
        "probe entry allowed by --assert-overhead (default: 0.02)",
    )
    parser.add_argument(
        "--set-gate-reference",
        action="store_true",
        help="with --append-history on the tiny probe: also record this "
        "measurement as probe_events_per_second, the >25%%-regression "
        "gate reference. Record it on (or conservatively for) the "
        "slowest machine class that runs the gate.",
    )
    args = parser.parse_args(argv)

    tally = measure(scale=args.scale, repeats=args.repeats)
    print(f"perf smoke: {json.dumps(tally)}")
    multihop = measure_multihop(scale=args.scale, repeats=args.repeats)
    print(f"perf smoke (multi-hop): {json.dumps(multihop)}")
    # Snapshot the gate references BEFORE any history rewrite so a
    # recording invocation still gates against the *previous* reference
    # (never against itself).
    recorded = None
    if BENCH_PATH.exists():
        recorded = json.loads(BENCH_PATH.read_text())
    if args.append_history:
        append_history(
            tally, args.append_history, set_gate=args.set_gate_reference
        )
        append_history(
            multihop,
            args.append_history,
            set_gate=args.set_gate_reference,
            source="multihop-probe",
            gate_key="multihop_probe_events_per_second",
        )
        print(f"history += {args.append_history!r} -> {BENCH_PATH.name}")
    if args.report:
        return 0
    if args.scale != "tiny":
        print(
            f"(floors are recorded for the tiny probe; --scale {args.scale} "
            "is report-only)",
        )
        return 0
    if recorded is None:
        print(f"no {BENCH_PATH.name} found; nothing to assert", file=sys.stderr)
        return 1
    failed = _assert_leg(
        recorded, tally["events_per_second"], args,
        leg="probe",
        floor_key="events_per_second_floor",
        gate_key="probe_events_per_second",
        source="probe",
    )
    failed |= _assert_leg(
        recorded, multihop["events_per_second"], args,
        leg="multi-hop probe",
        floor_key="multihop_events_per_second_floor",
        gate_key="multihop_probe_events_per_second",
        source="multihop-probe",
    )
    return 1 if failed else 0


def _assert_leg(
    recorded: dict,
    rate: float,
    args: argparse.Namespace,
    leg: str,
    floor_key: str,
    gate_key: str,
    source: str,
) -> bool:
    """Gate one probe leg against its recorded floor/reference/history.

    Returns True when any gate failed (messages already printed).
    """
    failed = False
    floor = recorded.get(floor_key)
    if not floor:
        print(f"{BENCH_PATH.name} has no {floor_key}", file=sys.stderr)
        return True
    if rate < floor:
        print(
            f"FAIL: {leg}: {rate:.0f} events/s is below the recorded "
            f"floor {floor:.0f} — the per-access hot path has regressed",
            file=sys.stderr,
        )
        failed = True
    last = recorded.get(gate_key)
    if last:
        allowed = last * (1.0 - args.regression_tolerance)
        if rate < allowed:
            print(
                f"FAIL: {leg}: {rate:.0f} events/s is >"
                f"{100 * args.regression_tolerance:.0f}% below the last "
                f"recorded {last:.0f} events/s",
                file=sys.stderr,
            )
            failed = True
    if args.assert_overhead:
        probes = [
            entry for entry in recorded.get("history", ())
            if entry.get("source") == source
            and entry.get("scale") == args.scale
        ]
        if not probes:
            print(
                f"{BENCH_PATH.name} has no {source} history to gate "
                "overhead against",
                file=sys.stderr,
            )
            return True
        window = probes[-4:]
        reference = sum(e["events_per_second"] for e in window) / len(window)
        labels = ", ".join(e["label"] for e in window)
        allowed = reference * (1.0 - args.overhead_tolerance)
        if rate < allowed:
            print(
                f"FAIL: {leg}: {rate:.0f} events/s is >"
                f"{100 * args.overhead_tolerance:.0f}% below the recorded "
                f"{source} mean {reference:.0f} ({labels}) — the disabled "
                "observability hooks are not free",
                file=sys.stderr,
            )
            failed = True
        else:
            print(
                f"overhead OK: {leg}: {rate:.0f} events/s vs {source} mean "
                f"{reference:.0f} ({labels}), "
                f"tolerance {100 * args.overhead_tolerance:.0f}%"
            )
    if not failed:
        print(f"OK: {leg}: {rate:.0f} events/s >= floor {floor:.0f}")
    return failed


if __name__ == "__main__":
    raise SystemExit(main())

"""Layer attribution measured from outside the simulator.

:class:`Probe` installs timing wrappers around public functions of the
``repro`` package and a ``cProfile`` hook around the engine drain
(``NumaGpuSystem._drain``), all by attribute replacement; nothing under
``src/`` is edited. Spans are kept in memory and written out once, as a
Chrome trace, when the study ends.

Host time only: every number here is wall-clock time of the simulator
process, never simulated time.
"""

from __future__ import annotations

import cProfile
import functools
import json
import pstats
import time
from collections import defaultdict
from pathlib import Path

import repro.core.builder as builder
import repro.gpu.system as gpu_system
from repro.gpu.system import NumaGpuSystem
from repro.harness.checkpoint import StudyJournal
from repro.harness.diskcache import ResultDiskCache
from repro.workloads.spec import WorkloadSpec

#: Profiled layers: name -> module path prefixes under ``repro/``.
LAYERS: dict[str, tuple[str, ...]] = {
    "sim.engine": ("sim/engine.py",),
    "sim.path": ("sim/path.py",),
    "gpu.cta": ("gpu/cta.py",),
    "gpu.socket": ("gpu/socket.py",),
    "memory.cache": ("memory/cache.py",),
    "memory.page_table": ("memory/page_table.py",),
    "memory.dram": ("memory/dram.py",),
    "interconnect": ("interconnect/",),
    "topology": ("topology/",),
    "locality": ("locality/",),
    "core.numa_cache": ("core/numa_cache.py",),
    "obs.hooks": ("obs/hooks.py",),
}

#: Everything the drain calls outside :data:`LAYERS` (builtins, other modules).
OTHER = "other"

#: Wrapped functions: (owner, attribute, span name).
WRAPPED = (
    (builder, "run_workload_traced", "workloads.run_traced"),
    (builder, "build_system", "gpu.build"),
    (gpu_system, "collect_results", "metrics.collect"),
    (NumaGpuSystem, "run", "gpu.run"),
    (WorkloadSpec, "build_kernels", "workloads.build_kernels"),
    (ResultDiskCache, "get", "harness.cache_get"),
    (ResultDiskCache, "put", "harness.cache_put"),
    (StudyJournal, "record_start", "harness.journal"),
    (StudyJournal, "record_done", "harness.journal"),
)


def layer_of(filename: str) -> str:
    """The :data:`LAYERS` name a profiled source file belongs to."""
    path = filename.replace("\\", "/")
    marker = path.rfind("/repro/")
    if marker >= 0:
        module = path[marker + len("/repro/"):]
        for layer, prefixes in LAYERS.items():
            if module.startswith(prefixes):
                return layer
    return OTHER


class Probe:
    """Spans and counts at layer boundaries for one study process."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        #: (name, start, end) in seconds since :attr:`origin`.
        self.spans: list[tuple[str, float, float]] = []
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.drain_events = 0
        self.profile = cProfile.Profile()
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def __enter__(self) -> "Probe":
        """Replace every wrapped attribute; leaving the block restores them."""
        for owner, attr, name in WRAPPED:
            self._patch(owner, attr, self._timed(getattr(owner, attr), name))
        self._patch(NumaGpuSystem, "_drain",
                    self._profiled(NumaGpuSystem._drain))
        return self

    def __exit__(self, *exc_info) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def span(self, name: str, start: float, end: float) -> None:
        """Record one finished span (``perf_counter`` readings)."""
        self.spans.append((name, start - self.origin, end - self.origin))
        self.seconds[name] += end - start
        self.calls[name] += 1

    def _timed(self, original, name: str):
        probe = self

        @functools.wraps(original)
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                probe.span(name, start, time.perf_counter())

        return timed

    def _profiled(self, original):
        probe = self

        @functools.wraps(original)
        def profiled(system, *args, **kwargs):
            events_before = system.engine.events_processed
            start = time.perf_counter()
            probe.profile.enable()
            try:
                return original(system, *args, **kwargs)
            finally:
                probe.profile.disable()
                probe.span("sim.drain", start, time.perf_counter())
                probe.drain_events += (
                    system.engine.events_processed - events_before
                )

        return profiled

    # ------------------------------------------------------------------
    # reduction
    # ------------------------------------------------------------------
    def layer_table(self) -> dict[str, dict[str, float]]:
        """Per-layer calls per drained event and share of profiled self time."""
        calls: dict[str, int] = defaultdict(int)
        self_time: dict[str, float] = defaultdict(float)
        for (filename, _line, func), row in pstats.Stats(self.profile).stats.items():
            if func.startswith("<method 'disable'"):
                continue  # the hook's own exit call
            layer = layer_of(filename)
            calls[layer] += row[1]
            self_time[layer] += row[2]
        total = sum(self_time.values()) or 1.0
        events = self.drain_events or 1
        return {
            layer: {
                "calls_per_event": calls[layer] / events,
                "self_frac": self_time[layer] / total,
            }
            for layer in (*LAYERS, OTHER)
        }

    def boundary_metrics(self) -> dict[str, float]:
        """Host time and counts at the wrapped public functions."""
        s, n = self.seconds, self.calls
        runs = n["workloads.run_traced"]
        builds = n["workloads.build_kernels"]
        trace_s = s["workloads.run_traced"] - s["gpu.build"] - s["gpu.run"]
        return {
            "workloads.trace_s": trace_s,
            "workloads.trace_builds": builds,
            "workloads.trace_hit_ratio": (runs - builds) / runs if runs else 0.0,
            "gpu.build_s": s["gpu.build"],
            "metrics.collect_s": s["metrics.collect"],
            "harness.cache_put_s": s["harness.cache_put"],
            "harness.cache_get_s": s["harness.cache_get"],
            "harness.journal_s": s["harness.journal"],
        }

    def write_chrome_trace(self, path: Path) -> None:
        """Write the recorded spans as a Chrome/Perfetto trace file."""
        events = [
            {"name": name, "ph": "X", "pid": 0, "tid": 0,
             "ts": round(start * 1e6, 3), "dur": round((end - start) * 1e6, 3)}
            for name, start, end in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}) + "\n")

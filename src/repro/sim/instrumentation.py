"""Process-wide simulation run tally (wall-clock + event throughput).

:class:`NumaGpuSystem.run` records every completed simulation here:
events executed, simulated cycles, and the wall-clock seconds the engine
drain took. The benchmark suite reads the tally to emit machine-readable
perf numbers (``BENCH_hotpath.json``), and the CI perf smoke asserts the
resulting events/sec stays above a recorded floor.

The tally is deliberately trivial — module-level, no locks — because
simulations are single-threaded within a process. Parallel harness
workers each tally their own process; the supervisor ships every
worker's per-task tally delta back over its result pipe and
:meth:`RunTally.absorb`-s it into the parent tally, so a parallel
suite's tally reflects *all* processes, not just parent-side runs
(see :mod:`repro.harness.supervisor`).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class RunTally:
    """Accumulated totals across all simulations run in this process."""

    runs: int = 0
    events: int = 0
    cycles: int = 0
    wall_seconds: float = 0.0

    def record(self, events: int, cycles: int, wall_seconds: float) -> None:
        """Add one finished simulation's totals."""
        self.runs += 1
        self.events += events
        self.cycles += cycles
        self.wall_seconds += wall_seconds

    def absorb(self, runs: int, events: int, cycles: int,
               wall_seconds: float) -> None:
        """Fold another process's already-counted totals into this tally.

        Unlike :meth:`record` (one finished simulation), ``absorb`` adds
        a remote tally delta verbatim — the supervisor uses it to merge
        worker-side run totals into the parent process's tally.
        """
        self.runs += runs
        self.events += events
        self.cycles += cycles
        self.wall_seconds += wall_seconds

    @property
    def events_per_second(self) -> float:
        """Aggregate engine throughput (0.0 before any run)."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.events / self.wall_seconds

    def reset(self) -> None:
        """Zero the tally (benchmark sessions scope their own window)."""
        self.runs = 0
        self.events = 0
        self.cycles = 0
        self.wall_seconds = 0.0

    def snapshot(self) -> dict:
        """Plain-dict view for JSON emission."""
        return {
            "runs": self.runs,
            "events": self.events,
            "cycles": self.cycles,
            "wall_seconds": round(self.wall_seconds, 6),
            "events_per_second": round(self.events_per_second, 1),
        }


#: The process-wide tally written by NumaGpuSystem.run.
SIM_TALLY = RunTally()

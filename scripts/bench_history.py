"""One writer for the ``history`` series of ``BENCH_hotpath.json``.

``perf_smoke.py``, ``fork_bench.py``, ``locality_smoke.py`` and
``topology_smoke.py`` record a measurement with ``--append-history
LABEL``. Each script builds its own entry fields; :func:`append_history`
stamps the label and the date, appends the entry, optionally sets one
top-level gate key, and rewrites the file with sorted keys. An
unreadable file starts a fresh document instead of failing the
recording.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

#: The repository's BENCH file (gate references plus the history list).
BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_hotpath.json"


def append_history(
    label: str,
    fields: dict,
    gate: tuple[str, float] | None = None,
    path: Path = BENCH_PATH,
) -> None:
    """Append ``{"label": label, **fields, "recorded_at": today}``.

    ``gate`` is a ``(key, value)`` pair stored at the top level next to
    the history; callers decide when a recording may move a gate.
    """
    bench = {}
    if path.exists():
        try:
            bench = json.loads(path.read_text())
        except ValueError:
            bench = {}
    bench.setdefault("history", []).append(
        {"label": label, **fields, "recorded_at": time.strftime("%Y-%m-%d")}
    )
    if gate is not None:
        key, value = gate
        bench[key] = value
    path.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")

"""The shared BENCH history writer (``scripts/bench_history.py``).

Every script that records into ``BENCH_hotpath.json`` goes through one
writer; these tests pin the entry shape it writes and ``perf_smoke``'s
rule for when a recording may move a gate reference.
"""

import json
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.fixture()
def scripts_path(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))


def test_append_history_stamps_label_and_date(scripts_path, tmp_path):
    import bench_history

    bench = tmp_path / "BENCH.json"
    bench.write_text(json.dumps({"events_per_second_floor": 5, "history": []}))
    bench_history.append_history("first", {"source": "probe", "events": 3},
                                 path=bench)
    bench_history.append_history("second", {"source": "probe"},
                                 gate=("probe_events_per_second", 7.5),
                                 path=bench)
    data = json.loads(bench.read_text())
    assert data["events_per_second_floor"] == 5
    assert data["probe_events_per_second"] == 7.5
    first, second = data["history"]
    assert first["label"] == "first" and first["events"] == 3
    assert set(first) == {"label", "source", "events", "recorded_at"}
    assert second["label"] == "second"


def test_append_history_replaces_an_unreadable_file(scripts_path, tmp_path):
    import bench_history

    bench = tmp_path / "BENCH.json"
    bench.write_text("{not json")
    bench_history.append_history("x", {"source": "probe"}, path=bench)
    assert [e["label"] for e in json.loads(bench.read_text())["history"]] == ["x"]


@pytest.mark.parametrize(
    "scale, set_gate, moves_gate",
    [("tiny", True, True), ("tiny", False, False), ("small", True, False)],
)
def test_perf_smoke_gate_rule(scripts_path, monkeypatch, tmp_path,
                              scale, set_gate, moves_gate):
    import perf_smoke

    bench = tmp_path / "BENCH.json"
    bench.write_text(json.dumps({"multihop_probe_events_per_second": 1.0}))
    monkeypatch.setattr(perf_smoke, "BENCH_PATH", bench)
    record = {"scale": scale, "events": 10, "events_per_second": 2.0,
              "topology": "ring-4"}
    perf_smoke.append_history(
        record, "label", set_gate=set_gate, source="multihop-probe",
        gate_key="multihop_probe_events_per_second",
    )
    data = json.loads(bench.read_text())
    assert data["multihop_probe_events_per_second"] == (
        2.0 if moves_gate else 1.0
    )
    (entry,) = data["history"]
    assert set(entry) == {"label", "source", "scale", "events",
                          "events_per_second", "topology", "recorded_at"}
    assert entry["source"] == "multihop-probe"

"""Tests of the benchmark itself, on the few-cell ``smoke`` size.

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*argv: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *argv], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def smoke(workload: str, trace: int, seed: int = run.DEFAULT_SEED) -> dict:
    return result_of(bench("--workload", workload, "--seed", str(seed),
                           "--seconds", "1", "--trace", str(trace),
                           "--size", "smoke"))


def args_for(workload: str, seed: int = run.DEFAULT_SEED):
    return run.build_parser().parse_args(
        ["--workload", workload, "--seed", str(seed), "--size", "smoke"])


def test_spec_names_match_emitted_units():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER_UNITS
    assert WORKLOADS == list(run.NAMES)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    result = smoke(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric_and_self_checks(workload):
    result = smoke(workload, trace=1)
    assert result["correct"] is True
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units


def test_deterministic_counts_repeat_across_traced_runs():
    first, second = (smoke("deep-dive", trace=1)["metrics"] for _ in range(2))
    deterministic = [
        name for name in run.PER_LAYER_UNITS
        if name.endswith(".calls_per_event") or name in (
            "sim.events", "workloads.trace_builds", "sim.cycles",
            "memory.l1_hit_rate", "memory.l2_hit_rate", "memory.remote_frac",
            "memory.dram_bytes", "memory.page_migrations",
            "interconnect.bytes", "topology.mean_hops",
            "locality.re_homed_pages")
    ]
    assert first["sim.events"]["value"] > 0
    for name in deterministic:
        assert first[name] == second[name], name


def test_corrupted_digest_is_reported_as_failed_cell(capsys):
    study = run.run_study_process(args_for("deep-dive"), "corrupt-check")
    reference = json.loads(run.DIGESTS.read_text())["smoke"]["deep-dive"]
    assert run.check_study(study, reference, "clean") == (0, True)
    corrupted = dict(reference, cells=dict(reference["cells"]))
    victim = sorted(corrupted["cells"])[0]
    corrupted["cells"][victim] = "0" * 16
    assert run.check_study(study, corrupted, "corrupted") == (1, True)
    assert f"first {victim}" in capsys.readouterr().out


def test_seed_changes_the_generated_inputs():
    default = run.run_study_process(args_for("deep-dive"), "seed-default")
    other = run.run_study_process(args_for("deep-dive", seed=99), "seed-99")
    assert default["cells"].keys() == other["cells"].keys()
    assert default["cells"] != other["cells"]


def test_fails_without_result_when_only_the_benchmark_is_present(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

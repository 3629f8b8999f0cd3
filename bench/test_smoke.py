"""Smoke test of the benchmark itself.

Runs every workload at reduced size, untraced and traced, and checks that
the result line names every metric of ``BENCHMARK.json`` with its unit and
that no operation failed. Run it with

    python -m pytest bench/test_smoke.py

It is kept out of the package's test suite (``testpaths = tests``).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = SPEC["command"][1:] + [
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--size", "smoke",
    ]
    return subprocess.run(
        [sys.executable, *cmd], cwd=root, capture_output=True, text=True, timeout=300
    )


def test_benchmark_json_matches_catalogue():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    for key, catalogue in (("end_to_end", metrics.END_TO_END), ("per_layer", metrics.PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in SPEC[key]] == [
            (m.name, m.unit, m.better) for m in catalogue
        ]


def checked_result(workload: str, trace: int) -> dict:
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    # the summary lines name every end-to-end metric, with its unit
    summary = {line.split()[0]: line.split()[1:] for line in lines if line.startswith("  ")}
    for m in metrics.END_TO_END + metrics.SUMMARY_ONLY:
        assert summary[m.name][1] == m.unit
    assert float(summary["failed_frac"][0]) == 0.0
    return result["metrics"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_untraced_run_emits_end_to_end_metrics(workload):
    checked_result(workload, 0)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_runs_emit_per_layer_metrics_and_repeat_counts(workload):
    first, second = checked_result(workload, 1), checked_result(workload, 1)
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    assert {n: first[n]["value"] for n in counts} == {n: second[n]["value"] for n in counts}


def _copy_checkout(dest: Path, with_src: bool) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(BENCH, dest / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))


def test_fails_without_program_sources(tmp_path):
    _copy_checkout(tmp_path, with_src=False)
    proc = run_bench(tmp_path, "sampling", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_wrong_verdicts_fail_the_run(tmp_path):
    _copy_checkout(tmp_path, with_src=True)
    metrology = tmp_path / "src" / "clockobs" / "metrology.py"
    text = metrology.read_text(encoding="utf-8")
    broken = text.replace("DECISION_THRESHOLD = 5.0 / 16.0", "DECISION_THRESHOLD = 0.99")
    assert broken != text
    metrology.write_text(broken, encoding="utf-8")
    proc = run_bench(tmp_path, "sampling", 0)
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert not result["correct"] and result["failed"] > 0
    assert result["metrics"]["agreement_frac"]["value"] < 1.0

"""Tests of the benchmark itself, on --smoke inputs so each run takes seconds."""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

_spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
bench_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_run)


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_benchmark_json_matches_the_metrics_run_py_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench_run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench_run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench_run.PER_LAYER


@pytest.mark.parametrize("workload", ["train_audit", "metrics_1e6", "verify_all"])
def test_smoke_run_reports_every_end_to_end_metric(workload):
    result = _result(_run("--workload", workload, "--seed", "3", "--seconds", "0.2",
                          "--trace", "0", "--smoke"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert {k: m["unit"] for k, m in result["metrics"].items()} == bench_run.END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_smoke_traced_run_reports_every_per_layer_metric():
    result = _result(_run("--workload", "verify_all", "--seed", "3", "--seconds", "0.2",
                          "--trace", "1", "--smoke"))
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert {k: m["unit"] for k, m in metrics.items()} == bench_run.PER_LAYER
    for command in ("train", "metrics", "verify"):
        assert metrics[f"cli.{command}.other_s"]["value"] >= 0.0


def test_run_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run("--workload", "train_audit", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


def test_reference_metrics_on_a_hand_worked_set():
    # scores x1e6: positives 0.9, 0.5; negatives 0.5, 0.1; alpha 1
    k = np.array([900000, 500000, 500000, 100000])
    labels = np.array([1, 1, 0, 0])
    ref = bench_run.metrics_reference(k, labels, 1.0)
    assert ref["n_plus"] == 2 and ref["n_minus"] == 2
    assert ref["average_precision"] == pytest.approx(5.0 / 6.0, abs=1e-15)
    assert ref["ranking_error"] == 0.125  # one tied pair, half credit, over 4 pairs
    assert ref["curve_rows"] == 2  # nothing scores above 0.9


def test_metrics_check_flags_a_wrong_estimate():
    expect = {"n_plus": 2, "n_minus": 2, "average_precision": 0.5, "ranking_error": 0.25,
              "curve_rows": 3}
    op = {"files": {"curve.csv": {"rows": 3}}}
    good = {"n_plus": 2, "n_minus": 2, "average_precision": 0.5, "ranking_error": 0.25}
    assert bench_run._check_metrics(good, op, expect) == []
    bad = dict(good, average_precision=0.5 + 1e-9)
    assert bench_run._check_metrics(bad, op, expect)
    assert bench_run._check_metrics(good, {"files": {"curve.csv": {"rows": 2}}}, expect)

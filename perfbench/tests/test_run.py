"""The command end to end: its output contract, and failure without sources."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from conftest import BENCH, ROOT

METRICS = {"setup_s", "train_s", "predict_qps", "query_qps", "peak_rss_mib", "holdout_accuracy"}


def run(cwd, *args):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", ["pegasos-cube", "mkl-cube", "embed-real"])
def test_one_round_prints_every_metric(workload):
    proc = run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == METRICS
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_round_reports_every_per_layer_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = {m["name"] for m in json.load(fh)["per_layer"]}
    proc = run(ROOT, "--workload", "embed-real", "--seed", "3", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert set(metrics) == names
    assert metrics["embedding.embed_calls"]["value"] > 0
    assert metrics["trace.top_level_share"]["value"] > 0.99


def test_fails_without_the_library_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(tmp_path, "--workload", "pegasos-cube", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_phase_speed_is_the_median_of_the_probe_groups_around_it():
    import workloads

    rd = workloads.Round(None, probe=lambda: None)
    rd.probes = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 30.0]]
    assert rd.speed(0) == 3.5
    assert rd.speed(1) == 6.5

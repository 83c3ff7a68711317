"""Self-test of the benchmark at toy sizes (seconds, not minutes).

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_workloads_match_benchmark_file():
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()
    }


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_metric_emitted_and_checks_pass(workload, trace):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--toy")
    assert proc.returncode == 0, proc.stderr
    *_, summary, last = proc.stdout.strip().splitlines()
    result, summary = json.loads(last), json.loads(summary)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    assert summary["fail_ratio"] == 0, summary["failed_checks"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_span_has_its_parent(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/worker.py", "--workload", workload,
         "--seed", "7", "--mode", "traced", "--toy"],
        cwd=ROOT, env={**os.environ, **run.PINNED},
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(proc.stdout.strip().splitlines()[-1])["spans"]
    assert spans[0] == ["op", None]
    assert len(spans) > 1
    for i, (_name, parent) in enumerate(spans[1:], start=1):
        assert parent is not None and 0 <= parent < i


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "wave2d", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""

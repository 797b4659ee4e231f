"""Self-test of the benchmark's correctness check, on tiny shapes.

    python3 -m pytest -q perfbench/test_selftest.py

Each workload runs end to end in --tiny mode: clean, every product must
pass; with --inject-fault, one bit of one product is flipped before its
check and the run must report exactly that product as failed.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("square-auto", "ragged-auto", "small-batch")


def run_bench(*extra):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--seed", "5", "--seconds", "0.2",
         "--tiny", *extra],
        capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    detail = json.loads(lines[-2])["detail"]
    return json.loads(lines[-1]), detail


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_clean_run_passes(workload, trace):
    result, detail = run_bench("--workload", workload, "--trace", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= detail["products_per_pass"]
    assert result["attempted"] % detail["products_per_pass"] == 0
    if trace == "1":
        assert detail["absent"] == []
        assert detail["named_layer_share"] > 0.9
    else:
        assert set(result["metrics"]) == {"pass_s", "peak_mem_bytes",
                                          "setup_s"}
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_injected_fault_is_reported(workload):
    result, detail = run_bench("--workload", workload, "--trace", "0",
                               "--inject-fault")
    assert result["failed"] == 1
    assert result["correct"] is False
    assert "differ" in detail["first_failure"]


def test_missing_library_fails(tmp_path):
    bench_dir = tmp_path / "perfbench"
    bench_dir.mkdir()
    for f in RUN.parent.glob("*.py"):
        (bench_dir / f.name).write_bytes(f.read_bytes())
    proc = subprocess.run(
        [sys.executable, str(bench_dir / "run.py"), "--workload",
         "square-auto", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, check=False,
        cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

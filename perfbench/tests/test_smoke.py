"""Smoke test of the benchmark harness at tiny horizons.

Every workload runs once untraced and once traced in smoke mode (horizons
capped, one pass); the result line must list exactly the metrics of
BENCHMARK.json, each with its unit, and every output check must pass.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _result(workload, trace):
    out = io.StringIO()
    argv = ["--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace), "--smoke"]
    with contextlib.redirect_stdout(out):
        assert harness.main(argv) == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


def test_benchmark_json_names_the_harness_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = _result(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for metric in listed:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))


def test_tracing_leaves_the_package_unpatched():
    import ce_dynamics
    from ce_dynamics import runner

    before = (ce_dynamics.solve_stationary, runner.expected_loss, ce_dynamics.Omwu.observe)
    _result("crosscheck", 1)
    assert (ce_dynamics.solve_stationary, runner.expected_loss, ce_dynamics.Omwu.observe) == before


def test_exits_non_zero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "sweep-3x3", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

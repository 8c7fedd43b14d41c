"""Golden run digests: every output file of ``tools/output_digests.py``'s matrix of calls.

The table was written by ``python tools/output_digests.py write`` and is recomputed the same
way, in a child process whose numpy dispatch is capped at x86-64-v3 and whose OpenBLAS core is
Haswell, so any x86-64-v3 machine with the recorded numpy and OpenBLAS gives its bits. A change
that moves bits on purpose regenerates the table with ``write`` and reports
``python tools/output_digests.py drift OLD_SRC`` beside it. Off x86-64-v3 the comparison
fails naming the machine, before any digest.
"""

import importlib.util
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "output_digests.py"
spec = importlib.util.spec_from_file_location("output_digests", TOOL)
output_digests = importlib.util.module_from_spec(spec)
spec.loader.exec_module(output_digests)


def test_golden_runs():
    want = json.loads(output_digests.GOLDEN.read_text())
    diffs = output_digests.compare(want, output_digests.capped_table())
    assert not diffs, f"{len(diffs)} differences; first: {diffs[0]}"


def test_other_versions_fail_naming_both():
    want = {"numpy": "2.0.0", "blas": "scipy-openblas 0.3.27", "calls": {}}
    got = {"machine": "x86_64", "x86_v3": True, "numpy": "2.4.6", "blas": "scipy-openblas 0.3.27",
           "calls": {"run/x": {}}}
    (message,) = output_digests.compare(want, got)
    assert "numpy 2.0.0 -> 2.4.6" in message and "blas" not in message


@pytest.mark.parametrize("machine, v3", [("x86_64", False), ("aarch64", False), ("arm64", True)])
def test_machines_below_x86_64_v3_fail_naming_the_cause(machine, v3):
    table = {"numpy": "2.4.6", "blas": "scipy-openblas 0.3.27", "calls": {"run/x": {}}}
    got = {"machine": machine, "x86_v3": v3, **table, "calls": {"run/y": {}}}
    (message,) = output_digests.compare(table, got)
    assert f"computed on {machine} with numpy's X86_V3 {v3}" in message


def test_child_reports_its_machine_and_cap():
    # The child's report under its own cap, and under a cap below x86-64-v3, which stands in for
    # a machine without it: there compare fails before any digest.
    code = "import json, output_digests; print(json.dumps(output_digests._machine()))"
    reports = []
    for extra in ("", " X86_V3"):
        env = {**os.environ, **output_digests.CAPPED, "PYTHONPATH": str(TOOL.parent)}
        env["NPY_DISABLE_CPU_FEATURES"] += extra
        child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                               text=True, check=True)
        reports.append(json.loads(child.stdout))
    assert [sorted(r) for r in reports] == [["machine", "x86_v3"]] * 2
    assert [r["machine"] for r in reports] == [platform.machine()] * 2
    assert reports[1]["x86_v3"] is False
    (message,) = output_digests.compare({}, {**reports[1], "calls": {}})
    assert "X86_V3 False" in message

"""Golden run digests: every output file of ``tools/output_digests.py``'s matrix of calls.

The table was written by ``python tools/output_digests.py write`` and is recomputed the same
way, in a child process whose numpy dispatch is capped at x86-64-v3 and whose OpenBLAS core is
Haswell, so any x86-64-v3 machine with the recorded numpy and OpenBLAS gives its bits. A change
that moves bits on purpose regenerates the table with ``write`` and reports
``python tools/output_digests.py drift OLD_SRC`` beside it.
"""

import importlib.util
import json
from pathlib import Path

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
    got = {"numpy": "2.4.6", "blas": "scipy-openblas 0.3.27", "calls": {"run/x": {}}}
    (message,) = output_digests.compare(want, got)
    assert "numpy 2.0.0 -> 2.4.6" in message and "blas" not in message

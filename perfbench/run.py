"""Self-play benchmark of ce_dynamics. Run from the repository root:

    python3 perfbench/run.py --workload sweep-3x3 --seed 0 --seconds 25 --trace 0

Workloads: sweep-3x3, wide-10x10, stiff-eta, crosscheck (see README.md).
``--trace 1`` reports per-layer spans instead of end-to-end metrics.
"""

import os
import sys

if __name__ == "__main__":
    # Pinned before numpy loads: the matrices are at most 10x10, and on a
    # small shared machine extra BLAS threads only add run-to-run spread.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    from harness import main

    sys.exit(main())

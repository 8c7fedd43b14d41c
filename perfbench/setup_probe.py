"""Time one cold set-up of a workload in a fresh interpreter.

Usage: python3 setup_probe.py <src-dir> <workload> <seed>

Prints the set-up time in seconds, as measured and at reference speed (see
speed.py). Set-up is what every CLI call pays before its first round:
importing ce_dynamics (and with it numpy), generating the workload's games
with the package's splitmix64 generator, and filling first-use caches such
as the arborescence tables. Importing the benchmark's own modules is not
timed.
"""

import sys
from time import perf_counter


def main() -> None:
    src, workload, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    sys.path.insert(0, src)
    t0 = perf_counter()
    import ce_dynamics  # noqa: F401

    imported = perf_counter() - t0
    from workloads import WORKLOADS

    t1 = perf_counter()
    WORKLOADS[workload].setup(seed)
    elapsed = imported + perf_counter() - t1

    from speed import reference_time, scaled

    reference_time()  # first calls pay numpy's own warm-up
    print(repr(elapsed), repr(scaled(elapsed, [reference_time()])))


if __name__ == "__main__":
    main()

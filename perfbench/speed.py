"""Reference kernel that scales measured times to a fixed machine speed.

The benchmark runs on small shared machines whose other tenants slow every
process on them, by up to 2x and for minutes at a time. Each timed operation
is therefore bracketed by this kernel, which is benchmark-owned code with the
program's mix of small numpy calls and interpreter work, and its time ``t``
is reported as ``t * mean(REFERENCE_S / r)``: the ``r`` are the kernel's
times right before and after the operation and, for long operations, every
``SAMPLE_INTERVAL_S`` during it (from a timer signal; the time spent in the
kernel is taken out of ``t``), and ``REFERENCE_S`` is its time on an
undisturbed machine. A change to the program moves ``t``, never ``r``. On a
2-vCPU Xeon VM (Python 3.11, numpy 2.4) scaled times of a fixed operation
spread 2-5% between 25-second windows where raw times spread 34%.
"""

import signal
from time import perf_counter

import numpy as np

REFERENCE_S = 0.004  # kernel time on an undisturbed 2-vCPU Xeon VM, Python 3.11, numpy 2.4
KERNEL_REPEATS = 3
SAMPLE_INTERVAL_S = 0.5

_Q = np.array([[0.5, 0.2, 0.1, 0.1, 0.1]] * 5)
_Q = 0.5 * (_Q + np.roll(_Q, 1, axis=1))


def _kernel() -> int:
    x = np.full(5, 0.2)
    for _ in range(300):
        y = _Q.T @ x
        y = y / y.sum()
        np.abs(y - x).max()
        x = np.exp(-0.1 * y)
        x = x / x.sum()
    acc = 0
    for i in range(20000):
        acc += i * i
    return acc


def reference_time() -> float:
    """Median of a few kernel runs, in seconds."""
    times = []
    for _ in range(KERNEL_REPEATS):
        t0 = perf_counter()
        _kernel()
        times.append(perf_counter() - t0)
    return sorted(times)[len(times) // 2]


def scaled(seconds: float, references) -> float:
    """``seconds`` measured next to the kernel times ``references``, at reference speed."""
    return seconds * sum(REFERENCE_S / r for r in references) / len(references)


class InterimSamples:
    """Context manager timing one kernel run every ``SAMPLE_INTERVAL_S`` seconds.

    The kernel runs in a SIGALRM handler, so it needs the main thread; it
    runs between bytecodes and touches nothing of the code it interrupts.
    ``times`` holds the kernel times, ``spent`` their total.
    """

    def __enter__(self):
        self.times: list[float] = []
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def _tick(self, signum, frame):
        t0 = perf_counter()
        _kernel()
        elapsed = perf_counter() - t0
        self.times.append(elapsed)
        self.spent += elapsed

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

"""Host-speed probe: a fixed kernel that calls no spal code, sampled on a
wall-clock timer while a workload runs.

The host under the benchmark speeds up and slows down by 20-30% over
minutes, and every kernel drifts with it, so two runs of the same code
minutes apart can differ by more than any change worth measuring. The
probe takes a short sample every ``interval_s`` seconds of wall time from
a ``SIGALRM`` handler, which Python runs in the main thread between two
bytecodes, so the samples also fall inside long operations. A sample
runs each of the workload's kernels once. The mean sample time over the
sum of the kernels' reference times is the run's host factor: above 1
when the host ran slower than the reference. ``clock()`` is
``time.perf_counter()`` minus the time spent in samples, so operations
timed with it exclude the probe.

Two kernels match the two kinds of work in the workloads:

- ``interpreter``: a pure-Python loop, for work bound by the interpreter
  (SCAN's per-node loop, small-matrix GCN training);
- ``memory``: element-wise minimum and row sums over a dense 1000 x 1000
  matrix, the same operations as k-medoids' swap search on a graph of 1000
  nodes. k-medoids runs them from a Python loop, so featprop-sbm1k samples
  both kernels.
"""

from __future__ import annotations

import signal
import statistics
import time


def interpreter_kernel():
    acc = 0
    for i in range(100_000):
        acc += i & 7
    return acc


class MemoryKernel:
    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.matrix = rng.random((1000, 1000))
        self.column = rng.random(1000)
        self.rows = self.column < 0.5

    def __call__(self):
        np, M, v = self.np, self.matrix, self.column
        a = np.minimum(M, v[:, None]).sum(axis=0)
        return a + (M[self.rows] - v[self.rows, None]).sum(axis=0)


# kernel name -> (factory, reference time in ms, about the median on the
# host the README's figures come from)
KERNELS = {
    "interpreter": (lambda: interpreter_kernel, 5.0),
    "memory": (MemoryKernel, 4.0),
}


class HostProbe:
    def __init__(self, kernels: tuple[str, ...], interval_s: float = 0.25) -> None:
        self.kernels = [KERNELS[k][0]() for k in kernels]
        self.reference_ms = sum(KERNELS[k][1] for k in kernels)
        self.interval_s = interval_s
        self.samples_ms: list[float] = []
        self.spent_s = 0.0

    def clock(self) -> float:
        """Wall time in seconds, less the time spent in samples."""
        return time.perf_counter() - self.spent_s

    def sample(self, *_signal_args) -> None:
        t = time.perf_counter()
        for kernel in self.kernels:
            kernel()
        dt = time.perf_counter() - t
        self.samples_ms.append(dt * 1000.0)
        self.spent_s += dt

    def start(self) -> None:
        """Take one sample now, then one every ``interval_s`` until ``stop``."""
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def factor(self) -> float:
        """Mean sample time over the reference time."""
        return statistics.fmean(self.samples_ms) / self.reference_ms

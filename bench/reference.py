"""The benchmark's reference kernel, which reads the host's current speed.

The benchmark host is shared, and its speed drifts by a third or more within
seconds and from one minute to the next, while the process keeps its CPU
(CPU time tracks wall time), so a slow spell cannot be told from slow code
by timing the workload alone.  The kernel is fixed code of the benchmark's
own, with the workloads' mix of work: small numpy matrix-vector steps,
elementwise maths and float formatting, all driven from the interpreter.
A time divided by the mean kernel time read while it ran, times
REFERENCE_S, is that time at the host speed where the kernel takes
REFERENCE_S; the benchmark reports its times so.
"""

import signal
import time
from contextlib import contextmanager

STEPS = 1000
# The kernel's typical time on the 2-core Xeon (KVM) host the baseline was
# measured on; it only fixes the scale of the reported seconds.
REFERENCE_S = 0.014
INTERVAL_S = 0.2  # between readings while a Sampler is active


def kernel():
    import numpy as np  # here, so that importing this module leaves BLAS unset

    a = np.random.default_rng(0).standard_normal((32, 32)) * 0.01
    x = np.ones(32)
    rows = []
    for _ in range(STEPS):
        x = a @ x + 1e-3 * np.tanh(x)
        rows.append(",".join(f"{v:.17g}" for v in x[:8]))
    return len(rows)


def scaled(wall_s, reference_s):
    """`wall_s`, measured while the kernel took `reference_s`, at the reference speed."""
    return wall_s * REFERENCE_S / reference_s


class Sampler:
    """Kernel readings taken between and during measured work.

    `read()` runs the kernel now.  Inside `active()` a SIGALRM timer also
    interrupts the process every INTERVAL_S of wall time and runs the kernel
    in the signal handler, on the CPU and in the moments the measured work
    runs.  `paused_s` sums the time spent in those handlers, for callers to
    take out of their measurements.  The kernel touches no state of the
    measured program.
    """

    def __init__(self):
        self.readings = []
        self.paused_s = 0.0

    def read(self):
        start = time.perf_counter()
        kernel()
        elapsed = time.perf_counter() - start
        self.readings.append(elapsed)
        return elapsed

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.read()
        self.paused_s += time.perf_counter() - start

    @contextmanager
    def active(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

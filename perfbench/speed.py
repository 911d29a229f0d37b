"""The machine's speed, sampled inside the workload process while it works.

The benchmark shares its machine with other work. The speed one process
gets then changes by up to a factor of two within a minute, for
interpreter code and numpy alike, and its CPU time changes with it, so
this is lost speed, not waiting. A kernel timed before and after a pass,
or in another process on the other core, does not follow these changes.

So every 50 ms a timer signal runs a fixed kernel of about a millisecond
in the workload process itself, between the package's own bytecodes, and
records how long it took. The kernel mixes the package's kinds of work:
small-array numpy calls like the fixed-point loop, integer arithmetic in
pure Python like the seeded generators, and dense matrix-vector products
like the NM=800 analysis. It does not use the package, so a change to the
package moves scaled times as it moves raw ones.

A time t measured while the kernel took k seconds (median of the samples)
becomes t * REFERENCE_S / k: seconds at the reference speed.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.05
# the kernel's median time at the reference speed
REFERENCE_S = 0.0008
# kernels run directly after the timed region when the timer gave fewer
MIN_SAMPLES = 20
_MASK64 = (1 << 64) - 1


class SpeedSampler:
    """Context manager that samples the kernel on a timer while it is open."""

    def __init__(self):
        # fixed inputs without numpy.random, whose import alone would add to
        # the peak memory the benchmark reports
        self._gain = 0.05 * np.sin(np.arange(800.0)).reshape(50, 4, 4)
        self._offset = np.cos(np.arange(200.0)).reshape(50, 4)
        mix = 1.5 + np.sin(0.7 * np.arange(2500.0)).reshape(50, 50)
        self._mix = mix / mix.sum(axis=1, keepdims=True)  # row-stochastic: the loop contracts
        self._dense = np.sin(0.37 * np.arange(40000.0)).reshape(200, 200) / 10.0
        self.samples: list[float] = []

    def kernel(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        w = np.zeros((50, 4))
        for _ in range(15):
            wn = self._mix @ (np.einsum("kij,kj->ki", self._gain, w) + self._offset)
            diff = wn - w
            float(np.einsum("ki,ki->k", diff, diff).max())
            w = wn
        state = 1
        for _ in range(300):
            state = (state * 6364136223846793005 + 1442695040888963407) & _MASK64
        v = np.ones(200)
        for _ in range(20):
            v = self._dense @ v
            v /= np.linalg.norm(v)
        self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> "SpeedSampler":
        signal.signal(signal.SIGALRM, self.kernel)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.fill()

    def fill(self) -> None:
        """Run the kernel directly until there are MIN_SAMPLES samples."""
        while len(self.samples) < MIN_SAMPLES:
            self.kernel()

    def kernel_s(self) -> float:
        """Median kernel time; with the sampler closed, at least MIN_SAMPLES."""
        return statistics.median(self.samples)

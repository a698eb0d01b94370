"""Seconds corrected for the drift of the CPU's speed, by a reference kernel.

The CPU speed of a small shared VM drifts by about 20 % over minutes.
Identical work then takes 0.064 s or 0.119 s, and process CPU time grows with
wall time, so the drift is slower execution, not descheduling. Run medians
move with it, whatever the run length.

While a region is measured, SIGALRM runs a fixed reference kernel on the
benchmark's own thread at 50 Hz. The kernel is plain Python plus small numpy
calls, like the program. The region's time, less the kernel's share, is
scaled by ``NOMINAL_KERNEL_S / mean kernel time`` sampled during the region.
The result is in seconds at one fixed reference speed, so the program's cost
is compared across runs and commits with the machine's drift divided out.
Raw wall seconds are kept beside every scaled figure.

The kernel and ``NOMINAL_KERNEL_S`` are part of the benchmark's definition:
changing either re-bases every scaled figure.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

PERIOD_S = 0.02
# Kernel time on the 2-core VM the benchmark was defined on; only the
# ratio to the sampled kernel time matters.
NOMINAL_KERNEL_S = 3.7e-4

_GRID = np.linspace(0.0, 1.0, 64)
_CURVE = np.sqrt(_GRID)


def _kernel() -> float:
    x, acc = 0.1, 0.0
    for _ in range(40):
        y = float(np.interp(x, _GRID, _CURVE))
        a = np.array([x, y, 0.5])
        acc += float(np.sum(a * a))
        d = {"a": x, "b": y}
        acc += d["a"] * 0.5
        x = (x * 1.37 + 0.11) % 1.0
    return acc


@dataclass
class Region:
    """One measured region: raw seconds (kernel time removed) and scaled seconds."""

    raw_s: float = 0.0
    kernel_mean_s: float = 0.0

    @property
    def scaled_s(self) -> float:
        return self.raw_s * NOMINAL_KERNEL_S / self.kernel_mean_s


class RefClock:
    """Samples the reference kernel on SIGALRM while a region is measured.

    ``spent`` is the kernel time accumulated so far; code that times finer
    units inside a region (single ticks) subtracts its change.
    """

    def __init__(self):
        self.spent = 0.0
        self._n = 0

    def _sample(self, _signum, _frame):
        t0 = time.perf_counter()
        _kernel()
        self.spent += time.perf_counter() - t0
        self._n += 1

    @contextmanager
    def measure(self):
        region = Region()
        spent0, n0 = self.spent, self._n
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        t0 = time.perf_counter()
        try:
            yield region
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            wall = time.perf_counter() - t0
            signal.signal(signal.SIGALRM, previous)
            inside = self.spent - spent0
            if self._n == n0:  # shorter than one period: sample once after it
                self._sample(None, None)
            region.kernel_mean_s = (self.spent - spent0) / (self._n - n0)
            region.raw_s = wall - inside

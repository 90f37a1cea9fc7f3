"""Host-speed calibration: a fixed kernel timed right before and after each pass.

The machine this benchmark runs on is a few cores of a shared host.  Its
speed for interpreter-bound code switches between states some 30 % apart
that last for seconds, so a run's raw pass times are a mixture of two modes,
and their median moves between runs of the same code with the share of time
spent in each.  The kernel below runs right before and right after each
pass, outside the timed region, while the host is in the state the pass saw;
the pass time divided by (mean kernel time) / (nominal kernel time) is the
pass time on a host at nominal speed.  The raw times are reported beside the
rescaled ones.

The kernel does not import ``hardylab``, so no change to the package can
move it.  Its work is like that of the interpreter-bound passes: Python
loops, QUADPACK calling back into Python, and numpy on cache-sized arrays.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np
from scipy import integrate

# median kernel time on the 2-vCPU Xeon (2.0 GHz) VM where it was pinned;
# it sets only the scale of the rescaled times
NOMINAL_S = 0.006

# kernel time on each side of a pass, as a share of the pass (at least one kernel)
SHARE = 0.05

_X = np.linspace(0.0, 1.0, 1 << 15)


def _oscillating(x: float) -> float:
    return math.exp(-0.1 * x) * math.cos(x * x)


def kernel() -> float:
    s = 0.0
    for i in range(10_000):
        s += math.sin(i * 1e-3) * i
    integrate.quad(_oscillating, 0.0, 12.0, limit=400)
    y = _X
    for k in range(1, 7):
        y = np.sin(y * 1.0001 + k) * 0.5
    return s + float(y.sum())


def run(pass_s: float) -> list[float]:
    """Kernel times, run until they add up to SHARE of a pass of `pass_s` seconds."""
    times: list[float] = []
    while not times or sum(times) < SHARE * pass_s:
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return times


def rescale(pass_s: list[float], kernel_s: list[list[float]]) -> list[float]:
    """Each pass at nominal host speed, by the kernel times around it."""
    return [p * NOMINAL_S / statistics.fmean(k) for p, k in zip(pass_s, kernel_s, strict=True)]


def ratio(kernel_s: list[list[float]]) -> float:
    """Median kernel time over the nominal time: above 1 when the host ran slow."""
    return statistics.median(t for k in kernel_s for t in k) / NOMINAL_S

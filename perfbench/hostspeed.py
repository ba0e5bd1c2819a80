"""Host speed, measured by a fixed reference kernel run between operations.

The benchmark runs on shared machines whose speed drifts by a quarter or
more over tens of seconds, as neighbours come and go.  Raw wall times then
spread more than any useful bound.  The reference kernel is a fixed mix of
small numpy calls, interpreted Python, Philox generators and an L-BFGS-B
solve, like poltime's own hot paths, so it slows down with the host in
step with them.  A timing is normalized by
the kernel times sampled around it:

    normalized = wall * REF_NOMINAL_S / median(kernel times nearby)

which reads as seconds on a host where the kernel takes REF_NOMINAL_S.
Raw wall times are recorded beside every normalized one.
"""

from __future__ import annotations

import bisect
import statistics
import time
from dataclasses import dataclass

import numpy as np
from scipy import optimize

# Median kernel time on the 2-core x86 host the benchmark was written on;
# a fixed scale, so normalized times stay comparable between commits.
REF_NOMINAL_S = 1.6e-3
_A = np.arange(16.0).reshape(4, 4) / 10.0
_KEY = np.arange(2, dtype=np.uint64)
_X0 = np.linspace(-1.0, 1.0, 16)


@dataclass(frozen=True)
class _Point:
    delay: float
    value: float


def _quadratic(x):
    r = x - _X0
    return float(r @ r + 0.1 * np.sum(r**4)), 2.0 * r + 0.4 * r**3


def kernel() -> float:
    """Fixed work shaped like poltime's: small arrays, short-lived objects,
    Philox generators and a small L-BFGS-B solve."""
    s = 0.0
    for i in range(40):
        m = _A @ _A.T
        e = np.exp(-0.125 * (m / (i + 1.0)) ** 2)
        g = np.random.Generator(np.random.Philox(key=_KEY + np.uint64(i)))
        s += float(g.poisson(50.0)) + float(e.sum())
        s += _Point(float(i), s).value * 1e-9
    res = optimize.minimize(_quadratic, np.zeros(16), jac=True, method="L-BFGS-B")
    return s + float(res.fun)


class HostSpeed:
    """Timestamped kernel samples and the speed factor they imply."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []

    def sample(self, seconds: float = 0.0, gap: float = 0.0) -> None:
        """Run the kernel once, then again until `seconds` have passed.

        Skipped when the last sample is less than `gap` seconds old.
        """
        if self.at and time.perf_counter() - self.at[-1] < gap:
            return
        stop = time.perf_counter() + seconds
        while True:
            start = time.perf_counter()
            kernel()
            end = time.perf_counter()
            self.at.append(0.5 * (start + end))
            self.took.append(end - start)
            if end >= stop:
                return

    def factor(self, t0: float, t1: float, pad: float = 0.25) -> float:
        """REF_NOMINAL_S over the median kernel time near [t0, t1].

        Uses the samples within `pad` seconds of the interval, or else the
        nearest sample on each side.
        """
        lo = bisect.bisect_left(self.at, t0 - pad)
        hi = bisect.bisect_right(self.at, t1 + pad)
        near = self.took[lo:hi]
        if not near:
            near = self.took[max(lo - 1, 0) : lo + 1]
        return REF_NOMINAL_S / statistics.median(near)

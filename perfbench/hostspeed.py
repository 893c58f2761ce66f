"""A fixed reference computation that gauges the host's current speed.

On a shared host a core's speed changes 1.4 to 1.8x in phases of seconds
to minutes, and the process's CPU time changes with it, so no clock can
leave it out.  A run therefore times ``reference()`` between its timed
sections and divides each section's time by the mean of the reference
times on either side of it: the section's cost in reference units, which
a phase change moves far less than it moves the seconds.  The reference
mixes the two kinds of work the workloads do, dense LAPACK calls and short
numpy calls from a Python loop, on fixed inputs; it is independent of the
library, so no change to the library can move it.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

EIGH_N = 300
EIGH_REPS = 2
LOOP_STEPS = 2500

_rng = np.random.default_rng(20240604)
_A = _rng.standard_normal((EIGH_N, EIGH_N))
_A = _A + _A.T
_V = _rng.standard_normal(8)
_V /= np.linalg.norm(_V)


def reference() -> float:
    """Seconds one pass of the reference computation takes now."""
    t0 = time.perf_counter()
    for _ in range(EIGH_REPS):
        np.linalg.eigh(_A)
    x = _V.copy()
    for _ in range(LOOP_STEPS):
        x = x - 1e-3 * np.dot(x, _V) * _V
    return time.perf_counter() - t0


class Gauge:
    """Reference times taken between timed sections, in order."""

    def __init__(self, ref: Callable[[], float] = reference) -> None:
        self.ref = ref
        self.times: list[float] = []

    def mark(self) -> float:
        """Time the reference now; return the unit of the section that ends here.

        The unit is the mean of this reference time and the one before; at
        the first mark, with no section before it, it is this time alone.
        """
        self.times.append(self.ref())
        return sum(self.times[-2:]) / len(self.times[-2:])

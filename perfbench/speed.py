"""Machine-speed reference for the timing metrics.

On a shared host the same slot, with the same inputs and answers, takes
anywhere from 0.7 to 1.3 times its typical time, and the machine's speed
drifts by as much between runs a few minutes apart.  Raw slot times
therefore spread by 15-26% (interquartile range over median) over ten
runs.  The benchmark times this fixed kernel, which does not touch the
program under test, next to every slot: right before it and right after
it.  A slot's time is scaled by REFERENCE_S over the mean of those two
kernel times, so it reads as seconds on a machine where the kernel takes
REFERENCE_S.  The kernel mixes small numpy arrays with interpreter work,
as the solver does.
"""

from __future__ import annotations

import math
import time

import numpy as np

# median kernel time on a 2-vCPU x86-64 VM (2.1 GHz), Python 3.11.7,
# numpy 2.4.6
REFERENCE_S = 0.0115
_ITERATIONS = 600

_rng = np.random.default_rng(2104_11091)
_X = _rng.random((5, 10)) + 0.1
_Y = _rng.random((5, 10)) + 0.1
_V = _rng.random(3)


def kernel() -> float:
    """Fixed work: elementwise ops, reductions, a norm, a dot product, an
    index search and dictionary updates on 5x10 arrays."""
    acc = 0.0
    counts: dict[int, int] = {}
    for i in range(_ITERATIONS):
        a = _X * _Y + np.log1p(_X / (_Y + i))
        acc += float(a.sum()) + float(np.maximum(a, 0.5).max())
        z = np.zeros(10)
        z[i % 10] = 1.0
        acc += float(np.linalg.norm(_V * i)) + float(np.dot(z, _X[0]))
        acc += np.flatnonzero(a[0] > 1.0).size
        counts[i % 17] = counts.get(i % 17, 0) + i
        acc += math.sqrt(counts[i % 17])
    return acc


def sample() -> float:
    """Seconds one run of the kernel takes now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start

"""Fixed reference computations that gauge the machine's current speed.

On a shared host the speed available to one process drifts by tens of
percent over minutes, and every op time drifts with it.  The benchmark
therefore times reference kernels right before each op and after the last
one, and reports op times as multiples of the kernels' time around them.
The kernels use no wamdf code, so a change to the package moves the op
times and not the reference.

Different kinds of work slow down by different amounts when the machine
is busy, so each workload is gauged with the kernels that resemble the work
its ops do (``workloads.REFERENCE``):

- ``grid``: normal cdfs over a 160 x 1000 grid of thresholds, like the
  k-grid scans of a weight solve;
- ``sort``: a sort of 250,000 floats, like the step-up procedures;
- ``text``: formatting and parsing 10,000 floats, like the CSV readers
  and writers.

Measured in the ``sim-p2`` and ``run-cli`` processes, a reference of the
matching kernels spread least across processes; a kernel of the other kind
spread two to ten times more.
"""

import statistics
import time

import numpy as np
from scipy.special import ndtr

_RNG = np.random.default_rng(20141202)
_GAMMA = _RNG.uniform(1.0, 5.0, 1000)
_SLOPES = np.geomspace(1e-2, 1e4, 160)[:, None]
_VALUES = _RNG.random(250_000)
_FLOATS = _RNG.random(10_000).tolist()

PIECES = 3          # each kernel counts with the mean of this many calls


def _grid():
    z = 0.5 * _GAMMA + np.log(_SLOPES) / _GAMMA
    return float((ndtr(-z) + ndtr(z - _GAMMA)).mean(axis=1).sum())


def _sort():
    return float(np.sort(_VALUES)[-1])


def _text():
    return sum(float("%.17g" % x) for x in _FLOATS)


KERNELS = {"grid": _grid, "sort": _sort, "text": _text}


def reference_seconds(kinds):
    """Sum over ``kinds`` of the mean wall time of ``PIECES`` kernel calls.

    The mean, not the median: when the machine flips between a fast and a
    slow state within an op, the mean follows the share of time in each.
    """
    total = 0.0
    for kind in kinds:
        kernel, times = KERNELS[kind], []
        for _ in range(PIECES):
            t0 = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - t0)
        total += statistics.mean(times)
    return total

"""Reference implementations the tests hold the package's kernels against."""

import numpy as np
from scipy.special import ndtr

from wamdf.power import NormalLocationModel


def bisect_decreasing(f, target, lo=1e-15, hi=1 - 1e-15, tol=1e-12, max_iter=200):
    """Bisect a nonincreasing f on [lo, hi] for f(t) = target.

    Concavity guarantees the bracket; 200 iterations more than exhaust
    double precision.  The closed-form and tabulated inverse-slope queries
    are tested against this generic search.
    """
    flo = f(lo)
    fhi = f(hi)
    if target > flo:
        return lo
    if target < fhi:
        return hi
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if f(mid) >= target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol:
            break
    return 0.5 * (lo + hi)


def four_ndtr_split(gamma, slope):
    """The normal model's (t, 1-t, power, 1-power) with one ``ndtr`` per mass.

    Frozen from the first form of ``NormalLocationModel.threshold_power_split``,
    which evaluated each complement by its own ``ndtr`` call.
    """
    g = np.asarray(gamma, dtype=float)
    z = 0.5 * g + np.log(np.asarray(slope, dtype=float)) / g
    return ndtr(-z), ndtr(z), ndtr(g - z), ndtr(z - g)


class FourNdtrModel(NormalLocationModel):
    """The normal location model with the frozen four-``ndtr`` split."""

    def threshold_power_split(self, gamma, slope):
        return four_ndtr_split(gamma, slope)

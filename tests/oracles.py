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


def per_row_score_statistic(y, x):
    """One feature's score statistic, or None for a degenerate feature.

    Frozen from the per-feature form of ``counts.score_statistic``, which
    ``analyze`` called once per dataset row.
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    n = y.sum()
    if n < 1:
        return None
    q = y / n
    ex = q @ x
    var = n * (q @ (x * x) - ex * ex)
    if var <= 0:
        return None
    return float((x @ y - n * x.mean()) / np.sqrt(var))


def per_row_multinomial(rng, totals, theta, p_alt, p_null):
    """Synthetic counts drawn one ``rng.multinomial`` call per row.

    Frozen from the first form of ``counts.generate_synthetic_counts``.
    """
    counts = np.empty((totals.size, p_alt.size), dtype=np.int64)
    for i in range(totals.size):
        counts[i] = rng.multinomial(totals[i], p_alt if theta[i] else p_null)
    return counts

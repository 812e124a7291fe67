"""Reference implementations the tests hold the package's kernels against."""

import numpy as np
from scipy.optimize import brentq
from scipy.special import ndtr

from wamdf.power import NormalLocationModel
from wamdf.weights import mean_threshold


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


# The expanding multiplier bracket, frozen from the weight solver before it
# derived one bracket from the model: a first bracket, then up to six more,
# each 10^4 wider per side, clamped to the float range.
K_FLOOR, K_CEIL = 1e-300, 1e300
MAX_EXPANSIONS = 6


def first_k_bracket(prior, model):
    """[1e-8, 1e8] widened by the slope range the battery realizes over
    thresholds in [1e-15, 1 - 1e-15], clamped to [K_FLOOR, K_CEIL]."""
    eps = 1e-15
    with np.errstate(under="ignore"):
        lo = float(np.min(model.power_slope(prior.gamma, 1.0 - eps) * prior.p))
        hi = float(np.max(model.power_slope(prior.gamma, eps) * prior.p))
    return max(min(lo, 1e-8), K_FLOOR), min(max(hi, 1e8), K_CEIL)


def widen(lo, hi):
    """One geometric expansion step of a k bracket, clamped to the float range."""
    return max(lo * 1e-4, K_FLOOR), min(hi * 1e4, K_CEIL)


def expanding_crossing(crossing, prior, model):
    """``crossing(lo, hi)`` on the first bracket, then on each widened one
    until it returns a multiplier; None when every bracket failed."""
    lo, hi = first_k_bracket(prior, model)
    k_star = crossing(lo, hi)
    for _ in range(MAX_EXPANSIONS):
        if k_star is not None or (lo == K_FLOOR and hi == K_CEIL):
            break
        lo, hi = widen(lo, hi)
        k_star = crossing(lo, hi)
    return k_star


def expanding_fixed_t_k_star(prior, t, model):
    """k* of the fixed-t solve on the expanding bracket, or None where no
    bracket straddled t."""
    def resid(k):
        return mean_threshold(prior, k, model) - t

    lo, hi = first_k_bracket(prior, model)
    flo, fhi = resid(lo), resid(hi)
    for _ in range(MAX_EXPANSIONS):
        if flo * fhi <= 0:
            break
        lo, hi = widen(lo, hi)
        flo, fhi = resid(lo), resid(hi)
    if flo * fhi > 0:
        return None
    log_k = brentq(lambda lk: resid(np.exp(lk)), np.log(lo), np.log(hi),
                   xtol=1e-13, rtol=8.9e-16, maxiter=200)
    return float(np.exp(log_k))

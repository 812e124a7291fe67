"""Reference implementations the tests hold the package's kernels against."""

import numpy as np
from scipy.optimize import brentq
from scipy.special import ndtr, ndtri

from wamdf import weights
from wamdf.power import NormalLocationModel, TabulatedPowerModel


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


def four_ndtr_split(gamma, log_slope):
    """The normal model's (t, 1-t, power, 1-power) with one ``ndtr`` per mass.

    Frozen from the first form of ``NormalLocationModel.threshold_power_split``,
    which evaluated each complement by its own ``ndtr`` call.
    """
    g = np.asarray(gamma, dtype=float)
    z = 0.5 * g + np.asarray(log_slope, dtype=float) / g
    return ndtr(-z), ndtr(z), ndtr(g - z), ndtr(z - g)


class FourNdtrModel(NormalLocationModel):
    """The normal location model with the frozen four-``ndtr`` split."""

    def threshold_power_split(self, gamma, log_slope):
        return four_ndtr_split(gamma, log_slope)


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
# derived one bracket from the model, and moved to log k with the solver: a
# first bracket, then up to six more, each 10^4 wider per side.
MAX_EXPANSIONS = 6
LOG_WIDEN = np.log(1e4)


def first_k_bracket(prior, model):
    """[log 1e-8, log 1e8] widened by the log-slope range the battery realizes
    over thresholds in [1e-15, 1 - 1e-15]."""
    eps = 1e-15
    log_p = np.log(prior.p)
    lo = float(np.min(model.log_power_slope(prior.gamma, 1.0 - eps) + log_p))
    hi = float(np.max(model.log_power_slope(prior.gamma, eps) + log_p))
    return min(lo, np.log(1e-8)), max(hi, np.log(1e8))


def expanding_brackets(prior, model):
    """The first log k bracket and its six widenings, narrowest first."""
    lo, hi = first_k_bracket(prior, model)
    return [(lo - i * LOG_WIDEN, hi + i * LOG_WIDEN) for i in range(MAX_EXPANSIONS + 1)]


def expanding_crossing(crossing, prior, model):
    """``crossing(lo, hi)`` on the first bracket, then on each widened one
    until it returns a log multiplier; None when every bracket failed."""
    for lo, hi in expanding_brackets(prior, model):
        log_k = crossing(lo, hi)
        if log_k is not None:
            return log_k
    return None


def expanding_fixed_t_log_k(prior, t, model):
    """log k* of the fixed-t solve on the expanding bracket, or None where no
    bracket straddled t."""
    log_p = np.log(prior.p)

    def resid(log_k):
        return float(np.mean(model.threshold_for_log_slope(prior.gamma, log_k - log_p))) - t

    for lo, hi in expanding_brackets(prior, model):
        flo, fhi = resid(lo), resid(hi)
        if flo * fhi <= 0:
            return brentq(resid, lo, hi, xtol=1e-13, rtol=8.9e-16, maxiter=200)
    return None


# The linear-k solver, frozen from the form that queried the power models
# with linear slopes k / p_m, turned k back into a float at every grid point
# and brentq step, and clamped k to [1e-300, 1e300].  Inside the guaranteed
# regime the log-k solver must agree with it wherever it solves.
K_FLOOR, K_CEIL = 1e-300, 1e300
T_EPS = 1e-15


class LinearSlopeNormalModel(NormalLocationModel):
    """The normal location model's linear-slope queries."""

    def power_slope(self, gamma, t):
        g = np.asarray(gamma, dtype=float)
        z = -ndtri(np.asarray(t, dtype=float))
        return np.exp(g * z - 0.5 * g * g)

    def threshold_for_slope(self, gamma, slope):
        g = np.asarray(gamma, dtype=float)
        return ndtr(-(0.5 * g + np.log(np.asarray(slope, dtype=float)) / g))

    def threshold_power_split(self, gamma, slope):
        g = np.asarray(gamma, dtype=float)
        z = 0.5 * g + np.log(np.asarray(slope, dtype=float)) / g
        d = g - z
        a = ndtr(-np.abs(z))
        b = ndtr(-np.abs(d))
        ca, cb = 1.0 - a, 1.0 - b
        t_small, pi_large = z >= 0, d >= 0
        return (np.where(t_small, a, ca), np.where(t_small, ca, a),
                np.where(pi_large, cb, b), np.where(pi_large, b, cb))


class LinearSlopeTableModel(TabulatedPowerModel):
    """A tabulated model's linear-slope queries."""

    def __init__(self, t, power):
        super().__init__(t, power)
        self._secants = np.diff(self._p) / np.diff(self._t)

    def power_slope(self, gamma, t):
        return self._secants[self._segment(np.asarray(t, dtype=float))]

    def threshold_for_slope(self, gamma, slope):
        j = np.searchsorted(-self._secants, -np.asarray(slope, dtype=float), side="right")
        return np.clip(self._t[j], 1e-15, 1 - 1e-15)

    def threshold_power_split(self, gamma, slope):
        t = self.threshold_for_slope(gamma, slope)
        pi = np.interp(t, self._t, self._p)
        return t, 1.0 - t, pi, 1.0 - pi


def linear_model(model):
    """The linear-slope counterpart of a normal or tabulated model."""
    if isinstance(model, TabulatedPowerModel):
        return LinearSlopeTableModel(model._t, model._p)
    return LinearSlopeNormalModel()


def linear_k_bracket(prior, model, t_lo=T_EPS, t_hi=1.0 - T_EPS, k_hi=1e8):
    with np.errstate(under="ignore", over="ignore"):
        lo = float(np.min(model.power_slope(prior.gamma, t_hi) * prior.p))
        hi = float(np.max(model.power_slope(prior.gamma, t_lo) * prior.p))
        lo = max(min(lo / 2 if t_hi > 1.0 - T_EPS else lo, 1e-8), K_FLOOR)
        hi = min(max(hi * 2 if t_lo < T_EPS else hi, k_hi), K_CEIL)
        if np.max(model.threshold_for_slope(prior.gamma, hi / prior.p)) > 2 * T_EPS:
            hi = min(2 * hi, K_CEIL)
    return lo, hi


def linear_fdp_values(pairs, ks, model):
    with np.errstate(over="ignore"):
        slopes = np.asarray(ks, dtype=float)[:, None] / pairs.p[None, :]
    t, tc, pi, pic = model.threshold_power_split(pairs.gamma[None, :], slopes)
    g = (1.0 - pairs.p) * t + pairs.p * pi
    gc = (1.0 - pairs.p) * tc + pairs.p * pic
    t_bar, g_bar, tc_bar, gc_bar = ((x * pairs.count).sum(axis=1) / pairs.M
                                    for x in (t, g, tc, gc))
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = (gc_bar / tc_bar) * (t_bar / g_bar)
    vals = np.where((t_bar == 0.0) | (g_bar == 0.0), 0.0, vals)
    return np.where(tc_bar == 0.0, 1.0 - pairs.p_max, vals)


def _first_down(vals):
    down = np.flatnonzero((vals[:-1] >= 0) & (vals[1:] < 0))
    return int(down[0]) if down.size else None


def linear_pre_data_k_star(prior, alpha, model):
    """k* of the linear-k pre-data solve, or None: the coarse points first,
    then the fine points of the first coarse interval that crosses down,
    or the whole grid when no coarse interval does."""
    model = linear_model(model)
    pairs = weights._collapse(prior)
    lo, hi = linear_k_bracket(pairs, model, k_hi=max(1e8, 2.0 / alpha))
    n_points = max(512, int(4 * (np.log10(hi) - np.log10(lo))))
    grid = np.exp(np.linspace(np.log(lo), np.log(hi), n_points))
    coarse = np.r_[np.arange(0, n_points - 1, 8), n_points - 1]
    vals = linear_fdp_values(pairs, grid[coarse], model) - alpha
    j = _first_down(vals)
    if j is not None:
        offset, b = coarse[j], coarse[j + 1]
        vals = np.concatenate([vals[j:j + 1],
                               linear_fdp_values(pairs, grid[offset + 1:b], model) - alpha,
                               vals[j + 1:j + 2]])
    else:
        offset, vals = 0, linear_fdp_values(pairs, grid, model) - alpha
    d = _first_down(vals)
    if d is None:
        return None
    i = offset + d
    if vals[d] == 0.0:
        k_star = float(grid[i])
    else:
        log_k = brentq(lambda lk: float(linear_fdp_values(pairs, [np.exp(lk)], model)[0]) - alpha,
                       np.log(grid[i]), np.log(grid[i + 1]), xtol=1e-13, rtol=8.9e-16,
                       maxiter=200)
        k_star = float(np.exp(log_k))
    # where every threshold underflowed, this solver wrote NaN weights
    with np.errstate(over="ignore"):
        t_bar = np.mean(model.threshold_for_slope(prior.gamma, k_star / prior.p))
    return k_star if t_bar > 0 else None


def linear_fixed_t_k_star(prior, t, model):
    """k* of the linear-k fixed-t solve, or None where its bracket misses t."""
    model = linear_model(model)

    def resid(k):
        with np.errstate(over="ignore"):
            return float(np.mean(model.threshold_for_slope(prior.gamma, k / prior.p))) - t

    lo, hi = linear_k_bracket(prior, model, min(t, T_EPS), max(t, 1.0 - T_EPS))
    if resid(lo) < 0 or resid(hi) > 0:
        return None
    log_k = brentq(lambda lk: resid(np.exp(lk)), np.log(lo), np.log(hi),
                   xtol=1e-13, rtol=8.9e-16, maxiter=200)
    return float(np.exp(log_k))

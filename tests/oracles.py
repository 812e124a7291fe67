"""Reference implementations the tests hold the package's kernels against."""

from types import SimpleNamespace

import numpy as np
from scipy.optimize import brentq
from scipy.special import ndtr, ndtri

from wamdf import counts, weights
from wamdf._brent import brentq as package_brentq
from wamdf.counts import CalibrationError
from wamdf.power import NormalLocationModel, TabulatedPowerModel, default_model
from wamdf.weights import NoSolutionError, PriorSpec, WeightProfile


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


def adaptive_fdp_estimate(t, q, m0_hat):
    """Estimated FDP at overall threshold t: ``m0_hat * t / max(R(t), 1)``.

    ``step_up_threshold`` picks, in closed form, the largest t at which this
    estimate is at most alpha; the tests scan candidate thresholds with it.
    """
    if not 0 <= t <= 1:
        raise ValueError("threshold t must lie in [0, 1]")
    if not np.all((m0_hat > 0) & (m0_hat < np.inf)):
        raise ValueError("m0_hat must be positive and finite")
    q = np.asarray(q, dtype=float)
    r = int(np.sum(q <= t))
    return m0_hat * t / max(r, 1)


def four_ndtr_split(gamma, log_slope):
    """The normal model's (t, 1-t, power, 1-power) with one ``ndtr`` per mass.

    Frozen from the first form of the normal model's ``_split``, which
    evaluated each complement by its own ``ndtr`` call.
    """
    g = np.asarray(gamma, dtype=float)
    z = 0.5 * g + np.asarray(log_slope, dtype=float) / g
    return ndtr(-z), ndtr(z), ndtr(g - z), ndtr(z - g)


class FourNdtrModel(NormalLocationModel):
    """The normal location model with the frozen four-``ndtr`` split, in the
    unchecked kernel ``_split`` that the solver calls."""

    def _split(self, g, s):
        return four_ndtr_split(g, s)


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


def per_row_write_tsv(path, header, columns):
    """Equal-length columns as a tab-separated table, one ``str.format`` per row.

    Frozen from the first form of ``cli._write_tsv``: ``.10g`` floats,
    integer and boolean columns as integers, string columns as they are.
    """
    columns = [np.asarray(c) for c in columns]
    formats = {"b": "{:d}", "i": "{:d}", "u": "{:d}", "U": "{}"}
    line = "\t".join(formats.get(c.dtype.kind, "{:.10g}") for c in columns) + "\n"
    with open(path, "w") as fh:
        fh.write("\t".join(header) + "\n")
        fh.writelines(line.format(*row) for row in zip(*(c.tolist() for c in columns)))


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


# The tie collapse and the FDP evaluator, frozen from the solver before its
# one-row evaluations, its sort-light collapse and its guarded fixups.
def unique_collapse(prior):
    """Collapse tied (p, gamma) pairs; an untied prior keeps its own columns."""
    # the complex key orders pairs by p, then gamma; asking for first
    # indices makes np.unique sort stably, so they are first occurrences
    _, first, count = np.unique(prior.p + 1j * prior.gamma, return_index=True,
                                return_counts=True)
    order = np.argsort(first)
    keep = first[order]
    p = prior.p[keep]
    return SimpleNamespace(p=p, q=1.0 - p, log_p=np.log(p), gamma=prior.gamma[keep],
                           count=count[order].astype(float), M=prior.M, p_max=prior.p_max)


def stable_sort_collapse(prior):
    """The distinct (p, gamma) pairs with their counts, each hypothesis's
    pair (``index``) and each pair's first hypothesis (``first``), the two
    None for an untied prior.

    Frozen from ``weights._collapse`` before it sorted p's integer ranks:
    gamma sorted, then stably p itself.
    """
    p, gamma = prior.p, prior.gamma
    s = np.sort(p)
    count = np.ones(p.size)
    index = keep = None
    if (s[1:] == s[:-1]).any():
        order = np.argsort(gamma)
        order = order[np.argsort(p[order], kind="stable")]
        ps, gs = p[order], gamma[order]
        new = np.ones(p.size, dtype=bool)
        new[1:] = (ps[1:] != ps[:-1]) | (gs[1:] != gs[:-1])
        start = np.flatnonzero(new)
        first = np.minimum.reduceat(order, start)
        by_first = np.argsort(first)
        keep = first[by_first]
        count = np.diff(start, append=p.size)[by_first].astype(float)
        p, gamma = p[keep], gamma[keep]
        rank = np.empty(keep.size, dtype=np.intp)
        rank[by_first] = np.arange(keep.size)
        index = np.empty(prior.M, dtype=np.intp)
        index[order] = rank[np.cumsum(new) - 1]
    return SimpleNamespace(p=p, gamma=gamma, count=count, index=index, first=keep)


def block_fdp_values(pairs, log_ks, model):
    """FDP approximator and means t_bar, g_bar, 1 - t_bar, 1 - g_bar at each ``log_ks``."""
    t, tc, pi, pic = model._split(pairs.gamma[None, :], log_ks[:, None] - pairs.log_p[None, :])
    # rows t, G = (1 - p) t + p pi, 1 - t, 1 - G = (1 - p)(1 - t) + p (1 - pi);
    # the row of each mass holds the p-scaled power term until the mass goes in
    x = np.empty((4,) + t.shape)
    for i, mass, power in ((0, t, pi), (2, tc, pic)):
        np.multiply(pairs.p, power, out=x[i])
        np.multiply(pairs.q, mass, out=x[i + 1])
        x[i + 1] += x[i]
        x[i] = mass
    x *= pairs.count
    means = np.add.reduce(x, axis=-1)
    means /= pairs.M
    t_bar, g_bar, tc_bar, gc_bar = means
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = gc_bar / tc_bar
        vals *= t_bar / g_bar
    # k -> infinity: all thresholds underflow, the estimator vanishes
    vals[(t_bar == 0.0) | (g_bar == 0.0)] = 0.0
    # k -> 0: survival masses underflow; use the limiting lower bound
    vals[tc_bar == 0.0] = 1.0 - pairs.p_max
    return vals, means


# The weight profile and the information-constant calibration, frozen from the
# solver before they worked on collapsed pairs: one threshold per hypothesis,
# and one public pre-data solve, with its own checks and collapse, per constant.
def per_hypothesis_thresholds(prior, log_k, model):
    """Per-hypothesis thresholds at multiplier ``exp(log_k)``."""
    return model._threshold(prior.gamma, log_k - np.log(prior.p))


def per_hypothesis_profile(prior, log_k, model, warning=()):
    """Weight profile at multiplier exp(log_k): ``w_m = t_m / t_bar``, ``u = 1/max(w)``."""
    thresholds = per_hypothesis_thresholds(prior, log_k, model)
    t_bar = float(np.mean(thresholds))
    if not t_bar > 0:
        raise NoSolutionError(f"every threshold underflowed to 0 at log k* = {log_k:g}, "
                              "so no weights can be formed")
    w = thresholds / t_bar
    tiny = np.finfo(float).tiny
    if w.min() < tiny:
        w = np.maximum(w, tiny)
        warning += (f"weights below the smallest normal float {tiny:g} (thresholds "
                    "that underflowed) were raised to it",)
    return WeightProfile(weights=w, k_star=float(np.exp(log_k)), t_bar=t_bar,
                         u=1.0 / float(w.max()), warning=warning, log_k_star=float(log_k))


def per_hypothesis_fixed_t_log_k(prior, t, model):
    """log k* of the fixed-t solve with its residual on per-hypothesis thresholds."""
    def resid(log_k):
        return float(np.mean(per_hypothesis_thresholds(prior, log_k, model))) - t

    lo, hi = weights._k_bracket(prior, model, min(t, 1e-15), max(t, 1.0 - 1e-15))
    return package_brentq(resid, lo, hi, xtol=1e-13, rtol=8.9e-16, maxiter=1100)


def per_constant_average_power(k_info, totals, p_prior, alpha, model):
    gamma = np.sqrt(totals) * k_info
    prior = PriorSpec(counts._broadcast_prior(p_prior, totals.size), gamma)
    profile = weights.asymptotically_optimal_weights(prior, alpha, model)
    return float(np.mean(model._power(gamma, profile.thresholds))), profile


def per_constant_calibration(totals, p_prior=0.5, alpha=0.05, target_avg_power=0.5):
    """``(k_info, achieved power, profile)`` of the calibration, or its
    CalibrationError raised."""
    totals = np.asarray(totals, dtype=float)
    if not np.all((totals >= 1) & (totals < np.inf)):
        raise ValueError("every feature total must be finite and at least 1")
    model = default_model()

    solved = {}  # constant -> (average power, profile), each solved once

    def power_at(k):
        if k not in solved:
            solved[k] = per_constant_average_power(k, totals, p_prior, alpha, model)
        return solved[k][0]

    hi = 1.0
    for _ in range(40):
        if power_at(hi) >= target_avg_power:
            break
        hi *= 2.0
    else:
        raise CalibrationError(f"target {target_avg_power} not reached by K = {hi}")
    lo = hi
    for _ in range(60):
        hi, lo = lo, lo / 2.0
        try:
            if power_at(lo) < target_avg_power:
                break
        except NoSolutionError as exc:
            raise CalibrationError(
                f"target {target_avg_power} is below the attainable floor "
                f"(weight solve failed at K = {lo:g}: {exc})"
            ) from exc
    else:
        raise CalibrationError(f"could not bracket the target: power reaches it down to K = {lo}")

    k_info = package_brentq(lambda k: power_at(k) - target_avg_power, lo, hi,
                            xtol=1e-12, rtol=8.9e-16, maxiter=200)
    achieved = power_at(k_info)
    if abs(achieved - target_avg_power) > 1e-6:
        sides = [min((k for k, (v, _) in solved.items() if (v < target_avg_power) == short),
                     key=lambda k: abs(k - k_info)) for short in (True, False)]
        left, right = sorted(sides)
        raise CalibrationError(
            f"achieved power {achieved:.8f} misses target {target_avg_power} beyond 1e-06: "
            f"average power jumps from {solved[left][0]:.8g} at K = {left:.12g} "
            f"to {solved[right][0]:.8g} at K = {right:.12g}"
        )
    return float(k_info), achieved, solved[k_info][1]


# The population law of a simulation preset.  As M grows, the plug-in FDP
# approximator of a prior drawn from the law tends to the same ratio of the
# law's means, and its smallest downward crossing to the law's.  The means are
# integrated by Gauss-Legendre quadrature, with p = u^2 to soften log p near
# 0, and each mass takes its own ndtr; nothing here calls the package.
def gauss_legendre(n, lo, hi):
    """Gauss-Legendre nodes and weights of order n on [lo, hi]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return lo + (hi - lo) * (x + 1.0) / 2.0, w * (hi - lo) / 2.0


def preset_law(preset, a, n_p=50, n_gamma=20):
    """Nodes (p, gamma) and weights of a preset's prior law: p = 0.5
    (preset 1) or p ~ U(0, 1) (presets 2-4), with gamma ~ U(1, a); p or
    gamma is one node where the law puts it at one point."""
    if preset == 1:
        p, wp = np.array([0.5]), np.array([1.0])
    else:
        u, wu = gauss_legendre(n_p, 0.0, 1.0)
        p, wp = u * u, 2.0 * u * wu
    if a == 1:
        gamma, wg = np.array([1.0]), np.array([1.0])
    else:
        gamma, wg = gauss_legendre(n_gamma, 1.0, a)
        wg = wg / (a - 1.0)
    return np.repeat(p, gamma.size), np.tile(gamma, p.size), np.outer(wp, wg).ravel()


def population_means(log_ks, law):
    """The law's t_bar, g_bar, 1 - t_bar and 1 - g_bar at each of ``log_ks``,
    on the normal location model."""
    p, gamma, w = law
    z = 0.5 * gamma + (np.atleast_1d(log_ks)[:, None] - np.log(p)) / gamma
    t, tc, pi, pic = ndtr(-z), ndtr(z), ndtr(gamma - z), ndtr(z - gamma)
    return [x @ w for x in (t, (1.0 - p) * t + p * pi, tc, (1.0 - p) * tc + p * pic)]


def population_fdp(log_ks, law):
    t_bar, g_bar, tc_bar, gc_bar = population_means(log_ks, law)
    return gc_bar / tc_bar * (t_bar / g_bar)


def population_crossing(law, alpha, lo=-10.0, hi=10.0, points=201):
    """(log k*_inf, lambda_inf): the first downward crossing of alpha by the
    law's FDP on an even grid over [lo, hi], refined by brentq, and the mean
    threshold there."""
    grid = np.linspace(lo, hi, points)
    vals = population_fdp(grid, law) - alpha
    i = np.flatnonzero((vals[:-1] >= 0) & (vals[1:] < 0))[0]
    log_k = brentq(lambda lk: population_fdp(lk, law)[0] - alpha, grid[i], grid[i + 1],
                   xtol=1e-14, rtol=8.9e-16)
    return log_k, float(population_means(log_k, law)[0][0])

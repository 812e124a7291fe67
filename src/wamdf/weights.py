"""Optimal multiple-testing weights for heterogeneous priors and effect sizes.

Given per-hypothesis prior probabilities ``p_m`` that the null is false and
effect sizes ``gamma_m``, the expected number of correct rejections under a
mean-threshold budget is maximized by equalizing ``p_m * pi'(t_m)`` across
hypotheses.  The solver works in the log of the Lagrange multiplier k: each
threshold is the inverse-log-slope query at ``log k - log p_m``, and either
the mean threshold (fixed-t weights) or a plug-in FDP level (pre-data weights
for the adaptive procedure) pins k down.
"""

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .power import default_model
from .tables import read_table

__all__ = [
    "PriorSpec",
    "WeightProfile",
    "NoSolutionError",
    "solve_thresholds",
    "mean_threshold",
    "optimal_fixed_t_weights",
    "fdp_approximator",
    "asymptotically_optimal_weights",
    "perturb_weights",
]

# k spans orders of magnitude as the mean threshold varies, so searches run
# in log k.  _k_bracket widens the default [log 1e-8, log 1e8] by the log-slope
# range of the battery: strong effects (gamma around 30, e.g. sqrt(n) scaling
# with n in the hundreds) put the solution hundreds of decades below 1, out
# of the float range of k itself.
_LOG_K_LO, _LOG_K_HI = np.log(1e-8), np.log(1e8)
_T_EPS = 1e-15
# The crossing scan takes four grid points per decade of k, but at least
# _SCAN_POINTS and at most _MAX_SCAN_POINTS (four per decade across the 600
# decades a float k spans): the bracket grows with gamma^2, so a wider one
# gets a coarser grid, not a longer scan.
_SCAN_POINTS = 512
_MAX_SCAN_POINTS = 2400
# brentq in log k: bisection alone narrows any finite bracket (under 2^1024
# wide) to xtol 1e-13 (over 2^-44) in 1,068 steps
_BRENTQ = dict(xtol=1e-13, rtol=8.9e-16, maxiter=1100)
# The crossing scan first visits every _COARSE_STEP-th grid point, and
# evaluates the grid in row blocks of at most _BLOCK_ELEMENTS (k, pair)
# elements, so its temporaries stay near a dozen 512 KB arrays at any M.
# The coarse points go in ascending blocks that stop at the first crossing:
# _COARSE_BLOCK points each, or as many as make _COARSE_MIN_ELEMENTS elements
# when there are few distinct pairs, since every block also pays a fixed
# cost of about a thousand elements in numpy calls.
_COARSE_STEP = 8
_COARSE_BLOCK = 8
_COARSE_MIN_ELEMENTS = 1 << 13
_BLOCK_ELEMENTS = 1 << 16


class NoSolutionError(ValueError):
    """No multiplier in the solver's bracket attains the requested level.

    The pre-data solve raises it when the plug-in FDP never falls through
    alpha, typically because alpha exceeds 1 - max(p) (``out_of_regime``
    is then set): the posited prior model claims more signal than the level
    tolerates.  The fixed-t solve raises it when the mean threshold cannot
    reach t, as with a power table that cannot.  Both raise it when every
    threshold at the solution underflows to 0, so no weights can be formed.
    """

    def __init__(self, message, out_of_regime=False):
        super().__init__(message)
        self.out_of_regime = out_of_regime


@dataclass
class PriorSpec:
    """Per-hypothesis priors: p[m] = P(null m is false), gamma[m] = effect size."""

    p: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        self.p = np.atleast_1d(np.asarray(self.p, dtype=float))
        self.gamma = np.atleast_1d(np.asarray(self.gamma, dtype=float))
        if self.p.shape != self.gamma.shape or self.p.ndim != 1 or self.p.size < 1:
            raise ValueError("p and gamma must be 1-d vectors of equal length >= 1")
        if not np.all((self.p > 0) & (self.p < 1)):
            raise ValueError("prior probabilities p must lie strictly in (0, 1)")
        if not np.all((self.gamma > 0) & (self.gamma < np.inf)):
            raise ValueError("effect sizes gamma must be positive and finite")

    @property
    def M(self):
        return self.p.size

    @property
    def p_max(self):
        return float(self.p.max())

    @classmethod
    def from_csv(cls, path):
        """Load priors from a CSV file with header ``p,gamma``."""
        return cls(*read_table(path, [("p", "gamma")])[1].T)


@dataclass
class WeightProfile:
    """Solved weight vector with its multiplier and threshold context.

    ``weights`` average to 1 unless the profile was perturbed; ``t_bar`` is
    the mean per-test threshold at ``k_star`` (the recommended census
    parameter lambda for the adaptive procedure) and ``u = 1/max(weights)``
    is the largest admissible overall threshold.  ``k_star`` is
    ``exp(log k*)``, which reads 0.0 once k* lies below the float range.
    """

    weights: np.ndarray
    k_star: float
    t_bar: float
    u: float
    warning: bool = False

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)

    @property
    def M(self):
        return self.weights.size

    @property
    def thresholds(self):
        """Per-test thresholds t_m = t_bar * w_m."""
        return self.t_bar * self.weights

    @property
    def w_max(self):
        return float(self.weights.max())

    def to_dict(self):
        return {
            "k_star": self.k_star,
            "t_bar": self.t_bar,
            "u": self.u,
            "weights": self.weights.tolist(),
            "warning": self.warning,
        }

    @classmethod
    def from_dict(cls, d):
        """Inverse of ``to_dict``; ``warning`` is optional."""
        keys = ("weights", "k_star", "t_bar", "u")
        missing = [k for k in keys if k not in d] if isinstance(d, dict) else list(keys)
        if missing:
            raise ValueError(f"weight profile is missing {', '.join(missing)}")
        try:
            w = np.asarray(d["weights"], dtype=float)
            k_star, t_bar, u = (float(d[k]) for k in keys[1:])
        except TypeError as exc:
            raise ValueError(f"weight profile values must be numbers ({exc})") from None
        if w.ndim != 1 or w.size == 0 or not np.all((w > 0) & (w < np.inf)):
            raise ValueError("weights must be a nonempty vector of positive finite numbers")
        return cls(
            weights=w,
            k_star=k_star,
            t_bar=t_bar,
            u=u,
            warning=bool(d.get("warning", False)),
        )


def _thresholds(prior, log_k, model):
    """Per-hypothesis thresholds at multiplier ``exp(log_k)``."""
    return model.threshold_for_log_slope(prior.gamma, log_k - np.log(prior.p))


def solve_thresholds(prior, k, model=None):
    """Per-hypothesis thresholds ``t_m`` solving ``pi'(t_m) = k / p_m``.

    Each t_m is strictly decreasing in k; ties in (p, gamma) give
    identical thresholds.
    """
    if not np.all((k > 0) & (k < np.inf)):
        raise ValueError("multiplier k must be positive and finite")
    return _thresholds(prior, np.log(k), model or default_model())


def mean_threshold(prior, k, model=None):
    """Mean of ``solve_thresholds`` over the battery; strictly decreasing in k."""
    return float(np.mean(solve_thresholds(prior, k, model)))


@dataclass
class _Pairs:
    """A prior's distinct (p, gamma) pairs in first-occurrence order, with
    log p, their multiplicities, the battery size and max(p)."""

    p: np.ndarray
    log_p: np.ndarray
    gamma: np.ndarray
    count: np.ndarray
    M: int
    p_max: float


def _collapse(prior):
    """Collapse tied (p, gamma) pairs; an untied prior keeps its own columns."""
    # the complex key orders pairs by p, then gamma; asking for first
    # indices makes np.unique sort stably, so they are first occurrences
    _, first, count = np.unique(prior.p + 1j * prior.gamma, return_index=True,
                                return_counts=True)
    order = np.argsort(first)
    keep = first[order]
    return _Pairs(prior.p[keep], np.log(prior.p[keep]), prior.gamma[keep],
                  count[order].astype(float), prior.M, prior.p_max)


def _fdp_values(pairs, log_ks, model):
    """FDP approximator at each log multiplier in ``log_ks``, in one broadcast pass.

    Means over the battery weight each distinct pair by its multiplicity
    (``sum(x * count) / M``), so unit counts give the bits of a plain mean.
    Each row is reduced on its own, so splitting ``ks`` into blocks leaves
    every value bitwise unchanged; callers scanning many multipliers go
    through ``_fdp_scan``.  Works with the survival masses 1 - t and
    1 - G directly: near k = 0 every threshold sits within float rounding
    of 1 and the leading ratio would otherwise be pure cancellation noise.
    """
    t, tc, pi, pic = model.threshold_power_split(pairs.gamma[None, :],
                                                 log_ks[:, None] - pairs.log_p[None, :])
    g = (1.0 - pairs.p) * t + pairs.p * pi
    gc = (1.0 - pairs.p) * tc + pairs.p * pic
    t_bar, g_bar, tc_bar, gc_bar = ((x * pairs.count).sum(axis=1) / pairs.M
                                    for x in (t, g, tc, gc))
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = (gc_bar / tc_bar) * (t_bar / g_bar)
    # k -> infinity: all thresholds underflow, the estimator vanishes
    vals = np.where((t_bar == 0.0) | (g_bar == 0.0), 0.0, vals)
    # k -> 0: survival masses underflow; use the limiting lower bound
    vals = np.where(tc_bar == 0.0, 1.0 - pairs.p_max, vals)
    return vals


def _fdp_scan(pairs, log_ks, model):
    """``_fdp_values`` over all of ``log_ks``, in ascending row blocks of at most
    ``_BLOCK_ELEMENTS`` elements, so memory is O(block), not O(len(log_ks) * M)."""
    rows = max(1, _BLOCK_ELEMENTS // pairs.p.size)
    return np.concatenate([np.empty(0)] + [_fdp_values(pairs, log_ks[start:start + rows], model)
                                           for start in range(0, log_ks.size, rows)])


def _fdp_at(pairs, log_k, model):
    """FDP approximator at one log multiplier; warns when it degenerates to 0."""
    value = float(_fdp_values(pairs, np.array([float(log_k)]), model)[0])
    if value == 0.0:
        warnings.warn("all thresholds underflowed to 0; FDP approximator degenerate", RuntimeWarning)
    return value


def fdp_approximator(prior, k, model=None):
    """Plug-in FDP value the adaptive estimator would take at multiplier k.

    With ``G_m(t_m) = (1 - p_m) t_m + p_m pi(t_m)`` the marginal rejection
    probability, returns ``[(1 - Gbar) / (1 - tbar)] * [tbar / Gbar]``.
    Degenerates to 0 (with a warning) when k is so large every threshold
    underflows.
    """
    if not np.all((k > 0) & (k < np.inf)):
        raise ValueError("multiplier k must be positive and finite")
    return _fdp_at(_collapse(prior), np.log(k), model or default_model())


def _k_bracket(prior, model, t_lo=_T_EPS, t_hi=1.0 - _T_EPS, log_k_hi=_LOG_K_HI):
    """The one search bracket [lo, hi] in log k, from the prior (or its
    collapsed pairs) and the model.

    Thresholds fall as k grows, and threshold m equals t at
    ``log k = log p_m + log_slope_m(t)``: at ``lo`` every threshold is at
    least ``t_hi``, at ``hi`` at most ``t_lo``, and the bracket covers at
    least [log 1e-8, log_k_hi].  An end moved beyond [1e-15, 1 - 1e-15] goes
    log 2 further, which rounding cannot undo.  A bracket whose width is
    not finite (an effect size near the square root of the largest float)
    raises NoSolutionError.  A tabulated model clamps
    thresholds at 1e-15 but maps a slope equal to its first secant to the
    next knot; when a threshold at ``hi`` is still above the clamp, ``hi``
    grows by log 2, so every threshold is clamped and the FDP approximator
    has reached its constant limit there.
    """
    log_p = np.log(prior.p)
    lo = float(np.min(model.log_power_slope(prior.gamma, t_hi) + log_p))
    hi = float(np.max(model.log_power_slope(prior.gamma, t_lo) + log_p))
    lo = min(lo - np.log(2.0) if t_hi > 1.0 - _T_EPS else lo, _LOG_K_LO)
    hi = max(hi + np.log(2.0) if t_lo < _T_EPS else hi, log_k_hi)
    if not np.isfinite(hi - lo):
        raise NoSolutionError(f"the log k bracket [{lo:g}, {hi:g}] is not finite: "
                              "an effect size is too large for float arithmetic")
    if np.max(model.threshold_for_log_slope(prior.gamma, hi - log_p)) > 2 * _T_EPS:
        hi += np.log(2.0)
    return lo, hi


def _profile(prior, log_k, model, warning=False):
    """Weight profile at multiplier exp(log_k): ``w_m = t_m / t_bar``, ``u = 1/max(w)``.

    A weight below the smallest normal float (a threshold that underflowed)
    is raised to it, with a warning, so every weight stays positive.  When
    every threshold underflowed there is no weight to form, and
    NoSolutionError is raised.
    """
    thresholds = _thresholds(prior, log_k, model)
    t_bar = float(np.mean(thresholds))
    if not t_bar > 0:
        raise NoSolutionError(f"every threshold underflowed to 0 at log k* = {log_k:g}, "
                              "so no weights can be formed")
    w = thresholds / t_bar
    tiny = np.finfo(float).tiny
    if w.min() < tiny:
        warnings.warn(f"weights below the smallest normal float {tiny:g} (thresholds "
                      "that underflowed) were raised to it", RuntimeWarning)
        w, warning = np.maximum(w, tiny), True
    return WeightProfile(weights=w, k_star=float(np.exp(log_k)), t_bar=t_bar,
                         u=1.0 / float(w.max()), warning=warning)


def optimal_fixed_t_weights(prior, t, model=None):
    """Weights maximizing expected correct rejections at mean threshold t.

    Finds the unique multiplier ``k*`` with ``mean_threshold(k*) == t``
    (the mean threshold is continuous and strictly decreasing in k) and
    returns ``w_m = t_m / t``.  A homogeneous prior yields the unit
    weight vector for every t.

    Parameters
    ----------
    prior : PriorSpec
    t : float
        Target mean threshold, strictly inside (0, 1).
    model : power model, optional

    Returns
    -------
    WeightProfile
    """
    if not 0 < t < 1:
        raise ValueError("target mean threshold t must lie in (0, 1)")
    model = model or default_model()

    def resid(log_k):
        return float(np.mean(_thresholds(prior, log_k, model))) - t

    lo, hi = _k_bracket(prior, model, min(t, _T_EPS), max(t, 1.0 - _T_EPS))
    if resid(lo) < 0 or resid(hi) > 0:
        raise NoSolutionError(f"no multiplier attains mean threshold t={float(t)!r} "
                              f"(searched log k in [{lo:g}, {hi:g}])")
    log_k = brentq(resid, lo, hi, **_BRENTQ)
    return _profile(prior, log_k, model)


def _first_down(vals):
    """Index of the first i with vals[i] >= 0 > vals[i + 1], or None."""
    down = np.flatnonzero((vals[:-1] >= 0) & (vals[1:] < 0))
    return int(down[0]) if down.size else None


def _smallest_downward_crossing(pairs, alpha, lo, hi, model):
    """Smallest log k in [lo, hi] where the FDP approximator crosses alpha from above.

    The approximator need not be monotone in k, so the crossing is looked
    for on a grid even in log k (ascending, four points per decade within
    [_SCAN_POINTS, _MAX_SCAN_POINTS] points): the first interval with value
    >= alpha on the left and < alpha on the right, refined by brentq inside
    it.  The grid is searched coarse to fine: every ``_COARSE_STEP``-th
    point first, in ascending blocks that stop at the first block showing a
    downward crossing, then every point of the first coarse interval that
    crosses downward.  When the coarse points show no downward crossing,
    the rest of the grid is scanned too.  A bump above alpha, or a dip
    below it, that is narrower than one coarse step and lies before the
    first coarse crossing is not seen (the full grid has the same limit at
    its own resolution).  Returns None when no crossing is found.
    """
    decades = min((hi - lo) / np.log(10), _MAX_SCAN_POINTS / 4)
    n_points = max(_SCAN_POINTS, int(4 * decades))
    grid = np.linspace(lo, hi, n_points)
    coarse = np.r_[np.arange(0, n_points - 1, _COARSE_STEP), n_points - 1]
    size = max(_COARSE_BLOCK, _COARSE_MIN_ELEMENTS // pairs.p.size)
    blocks, prev, j = [], np.empty(0), None
    for start in range(0, coarse.size, size):
        block = _fdp_scan(pairs, grid[coarse[start:start + size]], model) - alpha
        blocks.append(block)
        # each block is checked on its own, after the last value before it
        d = _first_down(np.concatenate([prev, block]))
        if d is not None:
            j = start - prev.size + d
            break
        prev = block[-1:]
    vals = np.concatenate(blocks)
    if j is not None:
        # the first downward coarse interval, its end values reused
        offset, b = coarse[j], coarse[j + 1]
        vals = np.concatenate([vals[j:j + 1], _fdp_scan(pairs, grid[offset + 1:b], model) - alpha,
                               vals[j + 1:j + 2]])
    else:
        # no coarse crossing: fill in the points between the coarse ones
        offset, rest = 0, np.setdiff1d(np.arange(n_points), coarse)
        full = np.empty(n_points)
        full[coarse], full[rest] = vals, _fdp_scan(pairs, grid[rest], model) - alpha
        vals = full
    d = _first_down(vals)
    if d is None:
        return None
    i = offset + d
    if vals[d] == 0.0:
        return float(grid[i])
    return brentq(lambda lk: _fdp_at(pairs, lk, model) - alpha, grid[i], grid[i + 1], **_BRENTQ)


def asymptotically_optimal_weights(prior, alpha, model=None):
    """Pre-data weights pinning the plug-in FDP at level alpha.

    Solves ``fdp_approximator(k) = alpha`` for the smallest such k (the
    solution with the largest mean threshold, consistent with the
    data-dependent threshold chosen later) and returns the weight profile
    there, with ``t_bar`` doubling as the recommended lambda and
    ``u = 1/max(w)``.

    A solution is guaranteed when ``alpha <= 1 - max(p)``, unless its
    thresholds lie where floats cannot hold them: every one below the float
    range, or (alpha within rounding of 1 - max(p)) every one within 1e-15
    of 1.  Outside that regime the solve proceeds if a crossing exists but
    the profile carries ``warning=True``; with no crossing, NoSolutionError
    is raised.
    """
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    model = model or default_model()
    out_of_regime = bool(alpha > 1.0 - prior.p_max)

    pairs = _collapse(prior)
    # FDP(k) <= 1/k for a concave power curve, so it is below alpha at 2/alpha
    lo, hi = _k_bracket(pairs, model, log_k_hi=max(_LOG_K_HI, np.log(2.0 / alpha)))
    log_k = _smallest_downward_crossing(pairs, alpha, lo, hi, model)
    if log_k is None:
        detail = (
            f"alpha={alpha:g} > 1 - max(p) = {1.0 - prior.p_max:g}; "
            "the posited prior model claims more signal than the level tolerates"
            if out_of_regime
            else f"searched log k in [{lo:g}, {hi:g}]"
        )
        raise NoSolutionError(f"no multiplier attains FDP level alpha={alpha:g} ({detail})",
                              out_of_regime)
    if out_of_regime:
        warnings.warn(
            f"alpha={alpha:g} exceeds 1 - max(p) = {1.0 - prior.p_max:g}; "
            "a crossing was found but existence is not guaranteed in this regime",
            RuntimeWarning,
        )
    return _profile(prior, log_k, model, out_of_regime)


def perturb_weights(profile, multipliers):
    """Multiply a profile's weights by positive noise factors.

    Mirrors the perturbation used to study robustness: the factors are
    meant to average 1 in expectation, so the product is deliberately left
    unnormalized.  Each perturbed per-test threshold ``U_m * t_bar * w_m``
    must stay within [0, 1].
    """
    u_m = np.asarray(multipliers, dtype=float)
    if u_m.shape != profile.weights.shape:
        raise ValueError("multipliers must match the weight vector length")
    if np.any(u_m <= 0) or not np.all(np.isfinite(u_m)):
        raise ValueError("multipliers must be positive and finite")
    new_t = u_m * profile.thresholds
    if np.any(new_t > 1.0):
        raise ValueError("perturbation pushes a per-test threshold above 1")
    w = u_m * profile.weights
    return WeightProfile(
        weights=w,
        k_star=profile.k_star,
        t_bar=profile.t_bar,
        u=1.0 / float(w.max()),
        warning=profile.warning,
    )

"""Optimal multiple-testing weights for heterogeneous priors and effect sizes.

Given per-hypothesis prior probabilities ``p_m`` that the null is false and
effect sizes ``gamma_m``, the expected number of correct rejections under a
mean-threshold budget is maximized by equalizing ``p_m * pi'(t_m)`` across
hypotheses.  The solver works in the Lagrange multiplier k: each threshold
is the inverse-slope query ``t_m(k/p_m, gamma_m)``, and either the mean
threshold (fixed-t weights) or a plug-in FDP level (pre-data weights for the
adaptive procedure) pins k down.
"""

import csv
import json
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .power import default_model

__all__ = [
    "PriorSpec",
    "WeightProfile",
    "NoSolutionError",
    "BracketExpansionError",
    "solve_thresholds",
    "mean_threshold",
    "optimal_fixed_t_weights",
    "fdp_approximator",
    "asymptotically_optimal_weights",
    "perturb_weights",
]

# k spans orders of magnitude as the mean threshold varies, so searches run
# on a log-spaced bracket, expanded geometrically on failure.  The default
# bracket is widened up front by the attainable slope range of the battery:
# strong effects (gamma around 30, e.g. sqrt(n) scaling with n in the
# hundreds) put the solution far below 1e-8.
_K_LO, _K_HI = 1e-8, 1e8
_K_FLOOR, _K_CEIL = 1e-300, 1e300
_SCAN_POINTS = 512
_MAX_EXPANSIONS = 6


class NoSolutionError(ValueError):
    """The pre-data FDP equation has no solution at the requested level.

    Typically raised when alpha exceeds 1 - max(p): the posited prior
    model claims more signal than the level tolerates, so the model
    itself is suspect.
    """


class BracketExpansionError(RuntimeError):
    """Root bracketing in k failed even after geometric expansion.

    Carries the last bracket tried; this signals a power model violating
    the concavity regularity rather than bad luck.
    """

    def __init__(self, message, bracket):
        super().__init__(f"{message} (last bracket: [{bracket[0]:g}, {bracket[1]:g}])")
        self.bracket = bracket


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
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            names = [f.strip() for f in reader.fieldnames or []]
            if names != ["p", "gamma"]:
                raise ValueError(f"{path}: expected header 'p,gamma'")
            rows = [(float(r["p"]), float(r["gamma"])) for r in reader]
        if not rows:
            raise ValueError(f"{path}: no rows")
        p, gamma = zip(*rows)
        return cls(np.array(p), np.array(gamma))


@dataclass
class WeightProfile:
    """Solved weight vector with its multiplier and threshold context.

    ``weights`` average to 1 unless the profile was perturbed; ``t_bar`` is
    the mean per-test threshold at ``k_star`` (the recommended census
    parameter lambda for the adaptive procedure) and ``u = 1/max(weights)``
    is the largest admissible overall threshold.
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

    def to_json(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def from_dict(cls, d):
        return cls(
            weights=np.asarray(d["weights"], dtype=float),
            k_star=float(d["k_star"]),
            t_bar=float(d["t_bar"]),
            u=float(d["u"]),
            warning=bool(d.get("warning", False)),
        )


def solve_thresholds(prior, k, model=None):
    """Per-hypothesis thresholds ``t_m`` solving ``pi'(t_m) = k / p_m``.

    Each t_m is strictly decreasing in k; ties in (p, gamma) give
    identical thresholds.
    """
    if k <= 0:
        raise ValueError("multiplier k must be positive")
    model = model or default_model()
    return model.threshold_for_slope(prior.gamma, k / prior.p)


def mean_threshold(prior, k, model=None):
    """Mean of ``solve_thresholds`` over the battery; strictly decreasing in k."""
    return float(np.mean(solve_thresholds(prior, k, model)))


def _fdp_values(prior, ks, model):
    """FDP approximator at each multiplier in ``ks`` (one broadcasted pass).

    Works with the survival masses 1 - t and 1 - G directly: near k = 0
    every threshold sits within float rounding of 1 and the leading ratio
    would otherwise be pure cancellation noise.
    """
    ks = np.asarray(ks, dtype=float)
    slopes = ks[:, None] / prior.p[None, :]
    t, tc, pi, pic = model.threshold_power_split(prior.gamma[None, :], slopes)
    g = (1.0 - prior.p) * t + prior.p * pi
    gc = (1.0 - prior.p) * tc + prior.p * pic
    t_bar = t.mean(axis=1)
    g_bar = g.mean(axis=1)
    tc_bar = tc.mean(axis=1)
    gc_bar = gc.mean(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = (gc_bar / tc_bar) * (t_bar / g_bar)
    # k -> infinity: all thresholds underflow, the estimator vanishes
    vals = np.where((t_bar == 0.0) | (g_bar == 0.0), 0.0, vals)
    # k -> 0: survival masses underflow; use the limiting lower bound
    vals = np.where(tc_bar == 0.0, 1.0 - prior.p_max, vals)
    return vals


def fdp_approximator(prior, k, model=None):
    """Plug-in FDP value the adaptive estimator would take at multiplier k.

    With ``G_m(t_m) = (1 - p_m) t_m + p_m pi(t_m)`` the marginal rejection
    probability, returns ``[(1 - Gbar) / (1 - tbar)] * [tbar / Gbar]``.
    Degenerates to 0 (with a warning) when k is so large every threshold
    underflows.
    """
    if k <= 0:
        raise ValueError("multiplier k must be positive")
    model = model or default_model()
    value = float(_fdp_values(prior, np.array([float(k)]), model)[0])
    if value == 0.0:
        warnings.warn("all thresholds underflowed to 0; FDP approximator degenerate", RuntimeWarning)
    return value


def _k_bracket(prior, model):
    """Initial search bracket: the default range widened by the slope range
    the battery can realize over thresholds in [1e-15, 1 - 1e-15]."""
    eps = 1e-15
    with np.errstate(under="ignore"):
        lo = float(np.min(model.power_slope(prior.gamma, 1.0 - eps) * prior.p))
        hi = float(np.max(model.power_slope(prior.gamma, eps) * prior.p))
    lo = max(min(lo, _K_LO), _K_FLOOR)
    hi = min(max(hi, _K_HI), _K_CEIL)
    return lo, hi


def _widen(lo, hi):
    """One geometric expansion step of a k bracket, clamped to the float range."""
    return max(lo * 1e-4, _K_FLOOR), min(hi * 1e4, _K_CEIL)


def _expand_bracket(f, lo, hi):
    """Grow [lo, hi] geometrically in k until f changes sign at the ends."""
    flo, fhi = f(lo), f(hi)
    for _ in range(_MAX_EXPANSIONS):
        if flo * fhi <= 0:
            return lo, hi
        lo, hi = _widen(lo, hi)
        flo, fhi = f(lo), f(hi)
    if flo * fhi <= 0:
        return lo, hi
    raise BracketExpansionError("could not bracket the multiplier k", (lo, hi))


def _profile(prior, k_star, model, warning=False):
    """Weight profile at multiplier k*: ``w_m = t_m / t_bar``, ``u = 1/max(w)``."""
    thresholds = solve_thresholds(prior, k_star, model)
    t_bar = float(np.mean(thresholds))
    w = thresholds / t_bar
    return WeightProfile(weights=w, k_star=float(k_star), t_bar=t_bar,
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

    def resid(k):
        return mean_threshold(prior, k, model) - t

    lo, hi = _expand_bracket(resid, *_k_bracket(prior, model))
    log_k = brentq(lambda lk: resid(np.exp(lk)), np.log(lo), np.log(hi),
                   xtol=1e-13, rtol=8.9e-16, maxiter=200)
    return _profile(prior, float(np.exp(log_k)), model)


def _smallest_downward_crossing(prior, alpha, lo, hi, model):
    """Smallest k where the FDP approximator crosses alpha from above.

    The approximator need not be monotone in k, so scan a log-spaced grid
    (ascending, at least four points per decade) for the first interval
    with value >= alpha on the left and < alpha on the right, then bisect
    inside it.  Returns None when the grid shows no such interval.
    """
    n_points = max(_SCAN_POINTS, int(4 * (np.log10(hi) - np.log10(lo))))
    grid = np.exp(np.linspace(np.log(lo), np.log(hi), n_points))
    vals = _fdp_values(prior, grid, model) - alpha
    down = np.flatnonzero((vals[:-1] >= 0) & (vals[1:] < 0))
    if down.size == 0:
        return None
    i = down[0]
    if vals[i] == 0.0:
        return float(grid[i])
    # refine in log space: k can sit hundreds of decades below 1, where an
    # absolute tolerance on k itself would stop the solver immediately
    log_k = brentq(
        lambda lk: fdp_approximator(prior, np.exp(lk), model) - alpha,
        np.log(grid[i]), np.log(grid[i + 1]), xtol=1e-13, rtol=8.9e-16, maxiter=200,
    )
    return float(np.exp(log_k))


def asymptotically_optimal_weights(prior, alpha, model=None):
    """Pre-data weights pinning the plug-in FDP at level alpha.

    Solves ``fdp_approximator(k) = alpha`` for the smallest such k (the
    solution with the largest mean threshold, consistent with the
    data-dependent threshold chosen later) and returns the weight profile
    there, with ``t_bar`` doubling as the recommended lambda and
    ``u = 1/max(w)``.

    A solution is guaranteed when ``alpha <= 1 - max(p)``.  Outside that
    regime the solve proceeds if a crossing exists but the profile carries
    ``warning=True``; with no crossing, NoSolutionError is raised.
    """
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    model = model or default_model()
    out_of_regime = alpha > 1.0 - prior.p_max

    lo, hi = _k_bracket(prior, model)
    k_star = _smallest_downward_crossing(prior, alpha, lo, hi, model)
    for _ in range(_MAX_EXPANSIONS):
        if k_star is not None or (lo == _K_FLOOR and hi == _K_CEIL):
            break
        lo, hi = _widen(lo, hi)
        k_star = _smallest_downward_crossing(prior, alpha, lo, hi, model)
    if k_star is None:
        detail = (
            f" (alpha={alpha:g} > 1 - max(p) = {1.0 - prior.p_max:g}; "
            "the posited prior model claims more signal than the level tolerates)"
            if out_of_regime
            else ""
        )
        raise NoSolutionError(f"no multiplier attains FDP level alpha={alpha:g}{detail}")
    if out_of_regime:
        warnings.warn(
            f"alpha={alpha:g} exceeds 1 - max(p) = {1.0 - prior.p_max:g}; "
            "a crossing was found but existence is not guaranteed in this regime",
            RuntimeWarning,
        )
    return _profile(prior, k_star, model, out_of_regime)


def perturb_weights(profile, multipliers, renormalize=False):
    """Multiply a profile's weights by positive noise factors.

    Mirrors the perturbation used to study robustness: the factors are
    meant to average 1 in expectation, so the product is deliberately left
    unnormalized unless ``renormalize`` is set.  Each perturbed per-test
    threshold ``U_m * t_bar * w_m`` must stay within [0, 1].
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
    if renormalize:
        w = w / w.mean()
    return WeightProfile(
        weights=w,
        k_star=profile.k_star,
        t_bar=profile.t_bar,
        u=1.0 / float(w.max()),
        warning=profile.warning,
    )

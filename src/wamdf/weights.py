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

from ._brent import brentq
from ._checks import check_positive, check_unit
from .power import default_model
from .tables import read_table

__all__ = [
    "PriorSpec",
    "WeightProfile",
    "NoSolutionError",
    "optimal_fixed_t_weights",
    "fdp_approximator",
    "asymptotically_optimal_weights",
]

# k spans orders of magnitude as the mean threshold varies, so searches run
# in log k.  _k_bracket widens the default [log 1e-8, log 1e8] by the log-slope
# range of the battery: strong effects (gamma around 30, e.g. sqrt(n) scaling
# with n in the hundreds) put the solution hundreds of decades below 1, out
# of the float range of k itself.
_LOG_K_LO, _LOG_K_HI = np.log(1e-8), np.log(1e8)
_T_EPS = 1e-15
# brentq in log k: bisection alone narrows any finite bracket (under 2^1024
# wide) to xtol 1e-13 (over 2^-44) in 1,068 steps
_BRENTQ = dict(xtol=1e-13, rtol=8.9e-16, maxiter=1100)
# The crossing search splits a cell into at most _SPLIT_CAP pieces a round,
# none of _CELL_WIDTH or less in log k, and evaluates in row blocks of at most
# _BLOCK_ELEMENTS (k, pair) elements: temporaries near a dozen 64 KB arrays.
_SPLIT_CAP = 8
_CELL_WIDTH = 0.01
_BLOCK_ELEMENTS = 1 << 13
# The monotonicity certificate's margin in log: the logs of the means carry
# rounding errors near 1e-14 at most.
_CERT_MARGIN = 1e-9
_LOG_HALF = np.log(0.5)


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
        check_unit("prior probabilities p", self.p, scalar=False)
        check_positive("effect sizes gamma", self.gamma, scalar=False)

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

    ``weights`` average to 1; ``t_bar`` is the mean per-test threshold at
    ``k_star`` (the recommended census parameter lambda for the adaptive
    procedure) and ``u = 1/max(weights)`` is the largest admissible overall
    threshold.  ``k_star`` is ``exp(log k*)``, which reads 0.0 once k* lies
    below the float range.  ``warning`` holds the solve's warning messages,
    empty when it has none; the solvers put them there and emit no Python
    warning.
    """

    weights: np.ndarray
    k_star: float
    t_bar: float
    u: float
    warning: tuple = ()

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)

    @property
    def M(self):
        return self.weights.size

    @property
    def thresholds(self):
        """Per-test thresholds t_m = t_bar * w_m."""
        return self.t_bar * self.weights

    def to_dict(self):
        return {
            "k_star": self.k_star,
            "t_bar": self.t_bar,
            "u": self.u,
            "weights": self.weights.tolist(),
            "warning": bool(self.warning),
        }

    @classmethod
    def from_dict(cls, d):
        """Inverse of ``to_dict``; ``warning`` is optional, and a true flag
        becomes one fixed message, as the file keeps no message.  Every
        value is checked, as the dict comes from a file: ``k_star`` may read
        0.0 (k* below the float range), but not less."""
        keys = ("weights", "k_star", "t_bar", "u")
        missing = [k for k in keys if k not in d] if isinstance(d, dict) else list(keys)
        if missing:
            raise ValueError(f"weight profile is missing {', '.join(missing)}")
        values = []
        for k in keys:
            try:
                values.append(np.asarray(d[k], dtype=float) if k == "weights" else float(d[k]))
            except TypeError as exc:
                raise ValueError(f"weight profile values must be numbers ({k}: {exc})") from None
        w, k_star, t_bar, u = values
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a nonempty vector")
        check_positive("weights", w, scalar=False)
        if not k_star >= 0:
            raise ValueError(f"k_star must be at least 0, got {k_star!r}")
        check_unit("t_bar", t_bar)
        check_positive("u", u)
        return cls(
            weights=w,
            k_star=k_star,
            t_bar=t_bar,
            u=u,
            warning=("the weight profile was written with a warning",) if d.get("warning") else (),
        )


def _thresholds(prior, log_k, model):
    """Per-hypothesis thresholds at multiplier ``exp(log_k)``.  Queries the
    model's unchecked kernel: ``PriorSpec`` validated gamma, and log k is
    never NaN."""
    return model._threshold(prior.gamma, log_k - np.log(prior.p))


@dataclass
class _Pairs:
    """A prior's distinct (p, gamma) pairs in first-occurrence order, with
    1 - p, log p, their multiplicities, the battery size and max(p)."""

    p: np.ndarray
    q: np.ndarray
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
    p = prior.p[keep]
    return _Pairs(p, 1.0 - p, np.log(p), prior.gamma[keep], count[order].astype(float),
                  prior.M, prior.p_max)


def _fdp_values(pairs, log_ks, model):
    """FDP approximator and means t_bar, g_bar, 1 - t_bar, 1 - g_bar at each ``log_ks``.

    Returns the values and a (4, rows) array of the means.  Means over the
    battery weight each distinct pair by its multiplicity
    (``sum(x * count) / M``), so unit counts give the bits of a plain mean.
    The four per-pair quantities fill one (4, rows, pairs) buffer, scaled by
    the counts and summed along its last axis in one call each; the sum
    still reduces every row on its own, as a per-row sum does, so
    splitting ``ks`` into blocks leaves every value bitwise unchanged.
    Callers scanning many multipliers go through ``_fdp_scan``.  Works with
    the survival masses 1 - t and 1 - G directly: near k = 0 every
    threshold sits within float rounding of 1 and the leading ratio would
    otherwise be pure cancellation noise.
    """
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


def _fdp_scan(pairs, log_ks, model):
    """``_fdp_values`` over all of ``log_ks``, in ascending row blocks of at most
    ``_BLOCK_ELEMENTS`` elements, so memory is O(block), not O(len(log_ks) * M).
    The blocks are as few as that allows and differ in size by at most one
    row (the first ``n % blocks`` are one row longer), so no call is left
    with a short tail.  Returns rows: ``log_ks``, the values, and the logs of
    the values and means."""
    n = log_ks.size
    blocks = -(-n // max(1, _BLOCK_ELEMENTS // pairs.p.size))
    out = np.empty((7, n))
    out[0] = log_ks
    start = 0
    for j in range(blocks):
        stop = start + n // blocks + (j < n % blocks)
        out[1, start:stop], out[3:, start:stop] = _fdp_values(pairs, log_ks[start:stop], model)
        start = stop
    with np.errstate(divide="ignore"):
        np.log(out[1], out=out[2])
        np.log(out[3:], out=out[3:])
    return out


def _fdp_at(pairs, log_k, model):
    """FDP approximator at one log multiplier."""
    return float(_fdp_values(pairs, np.array([float(log_k)]), model)[0][0])


def fdp_approximator(prior, k, model=None):
    """Plug-in FDP value the adaptive estimator would take at multiplier k.

    With ``G_m(t_m) = (1 - p_m) t_m + p_m pi(t_m)`` the marginal rejection
    probability, returns ``[(1 - Gbar) / (1 - tbar)] * [tbar / Gbar]``.
    Degenerates to 0 (with a warning) when k is so large every threshold
    underflows.
    """
    check_positive("multiplier k", k)
    value = _fdp_at(_collapse(prior), np.log(k), model or default_model())
    if value == 0.0:
        warnings.warn("all thresholds underflowed to 0; FDP approximator degenerate", RuntimeWarning)
    return value


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
    with np.errstate(over="ignore"):   # an overflow leaves the width not finite, checked below
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


def _profile(prior, log_k, model, warning=()):
    """Weight profile at multiplier exp(log_k): ``w_m = t_m / t_bar``, ``u = 1/max(w)``.

    The profile's warning is ``warning`` (the caller's messages), plus one
    message when a weight below the smallest normal float (a threshold that
    underflowed) is raised to it, so every weight stays positive.  When
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
        w = np.maximum(w, tiny)
        warning += (f"weights below the smallest normal float {tiny:g} (thresholds "
                    "that underflowed) were raised to it",)
    return WeightProfile(weights=w, k_star=float(np.exp(log_k)), t_bar=t_bar,
                         u=1.0 / float(w.max()), warning=warning)


def optimal_fixed_t_weights(prior, t, model=None):
    """Weights maximizing expected correct rejections at mean threshold t.

    Finds the unique multiplier ``k*`` at which the mean threshold equals t
    (it is continuous and strictly decreasing in k) and
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
        Its ``warning`` names any weight raised to the smallest normal float.
    """
    check_unit("target mean threshold t", t)
    model = model or default_model()

    def resid(log_k):
        return float(np.mean(_thresholds(prior, log_k, model))) - t

    lo, hi = _k_bracket(prior, model, min(t, _T_EPS), max(t, 1.0 - _T_EPS))
    if resid(lo) < 0 or resid(hi) > 0:
        raise NoSolutionError(f"no multiplier attains mean threshold t={float(t)!r} "
                              f"(searched log k in [{lo:g}, {hi:g}])")
    log_k = brentq(resid, lo, hi, **_BRENTQ)
    return _profile(prior, log_k, model)


def _fdp_cannot_rise(pairs, pts):
    """Whether each cell between adjacent columns of the ``_fdp_scan`` rows
    ``pts`` passes the monotonicity certificate of
    ``_smallest_downward_crossing``, so the FDP cannot rise on it."""
    log_k, _, _, lt, lg, ltc, lgc = pts
    lgg, ltt = lg + lgc, lt + ltc
    peak = np.where((lt[1:] <= _LOG_HALF) & (lt[:-1] >= _LOG_HALF), 2 * _LOG_HALF,
                    np.fmax(ltt[:-1], ltt[1:]))
    finite = np.isfinite(pts[3:]).all(axis=0)
    with np.errstate(invalid="ignore"):
        return finite[:-1] & finite[1:] & (np.logaddexp(log_k[1:], np.log(pairs.q.max()))
                                           + _CERT_MARGIN < np.fmin(lgg[:-1], lgg[1:]) - peak)


def _log_fdp_bounds(pairs, pts):
    """``_smallest_downward_crossing``'s (lower, upper, min(V, W)) on each cell of ``pts``."""
    _, _, lf, lt, lg, ltc, lgc = pts
    with np.errstate(invalid="ignore"):
        var = ltc[1:] - ltc[:-1] + lt[:-1] - lt[1:]
        gvar = lgc[1:] - lgc[:-1] + lg[:-1] - lg[1:]
        lower = np.fmax(lf[1:] - gvar, np.log(1.0 - pairs.p_max) + lt[1:] - lg[:-1])
        return lower, lf[:-1] + gvar, np.fmin(var, gvar)


def _smallest_downward_crossing(pairs, alpha, lo, hi, model):
    """Smallest log k in [lo, hi] where the FDP approximator crosses alpha from above.

    The approximator need not be monotone in k, so the search bounds it on
    cells of [lo, hi] from the means at their ends.  The log odds
    ``og = log((1 - g_bar) / g_bar)`` and ``ot = log((1 - t_bar) / t_bar)``
    rise in k, and ``log FDP = og - ot``, so on a cell [a, b] log FDP lies in
    ``[og(a) - ot(b), og(b) - ot(a)] = [log FDP(b) - W, log FDP(a) + W]``,
    W and V being the rises of og and ot across the cell.  As
    ``1 - g_bar >= (1 - max(p)) (1 - t_bar)``, log FDP is also at least
    ``log((1 - max(p)) t_bar(b) / g_bar(a))``.

    A cell can also be certified monotone, so that the FDP lies in
    [FDP(b), FDP(a)].  On the solution path ``p_m pi'(t_m) = k``, so
    ``dG_m = (1 - p_m + k) dt_m`` and ``c = dg_bar / dt_bar`` is k plus a
    mean of 1 - p_m weighted by |dt_m|: at most ``e^b + 1 - min(p)`` on
    [a, b].  The log-derivative of ``FDP = (1 - g_bar) t_bar / ((1 - t_bar) g_bar)``
    is ``dt_bar [1 / (t_bar (1 - t_bar)) - c / (g_bar (1 - g_bar))]`` with
    dt_bar <= 0, so the FDP cannot rise on the cell when

        log(e^b + 1 - min p) < min over the two ends of log(g_bar (1 - g_bar))
                               - max over [t_bar(b), t_bar(a)] of log(t (1 - t)).

    ``G (1 - G)`` is concave, so its least value on [g_bar(b), g_bar(a)] is
    at an end; ``t (1 - t)`` peaks at 1/4 when [t_bar(b), t_bar(a)] holds 1/2,
    else at an end.  A tabulated model has no derivative, but its threshold
    m jumps from one knot to the next at ``k = p_m * secant_j``, where
    ``dG_m = (1 - p_m + k) dt_m`` holds exactly for the jump; the path of
    (t_bar, g_bar) is then piecewise linear with slopes in the same range,
    and the same bound holds along each piece.  The test asks for a margin
    of ``_CERT_MARGIN``, far above the rounding of the logs of the means,
    and is made only where all four logs are finite at both ends.

    Each round drops every cell after the first whose ends go from >= alpha
    to < alpha, and splits each uncertified cell wider than ``_CELL_WIDTH``
    whose bounds hold alpha: in 4 when its ends straddle alpha, else in
    ``ceil(min(V, W) / margin) + 1`` (2 to ``_SPLIT_CAP``), margin being the
    log distance to alpha of the nearer end.  A certified cell is never
    split: with both ends at least alpha it is clear, and a certified
    crossing cell holds exactly one crossing.  Then brentq refines the
    crossing cell: down to 0.01 wide unless it is certified.  A bump above
    or a dip below alpha is missed only when it fits inside one uncertified
    cell.  Returns None when no cell crosses.
    """
    log_alpha = np.log(alpha)
    # rows: log k, FDP, then the logs of FDP, t_bar, g_bar, 1 - t_bar, 1 - g_bar
    pts = _fdp_scan(pairs, np.linspace(lo, hi, _SPLIT_CAP + 1), model)
    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            above = pts[1] >= alpha
            # cells whose ends go from >= alpha to < alpha
            down = np.flatnonzero(above[:-1] > above[1:])
            if down.size:
                pts, above = pts[:, :down[0] + 2], above[:down[0] + 2]
            x, f, lf, lt, lg, ltc, _ = pts
            a, b, width = x[:-1], x[1:], np.diff(x)
            lower, upper, rise = _log_fdp_bounds(pairs, pts)
            cert = _fdp_cannot_rise(pairs, pts)
            # 1 - t_bar(b), t_bar(a) or g_bar(a) underflowed: the FDP is constant
            flat = np.isneginf(np.fmin(np.fmin(lt[:-1], lg[:-1]), ltc[1:]))
            # split uncertified cells that may cross, are wide, and have a float
            # strictly inside
            cells = np.flatnonzero((lower < log_alpha) & (upper >= log_alpha) & ~flat & ~cert
                                   & (width > _CELL_WIDTH) & (np.nextafter(a, b) < b))
            if not cells.size:
                break
            margin = np.fmin(*np.abs(lf[np.array([cells, cells + 1])] - log_alpha))
            pieces = np.ceil(rise[cells] / margin) + 1
            pieces = np.fmax(np.fmin(pieces, _SPLIT_CAP), 2)
            pieces[above[cells] != above[cells + 1]] = _SPLIT_CAP // 2
            # the points a + (b - a) j / n of each cell cut into n pieces, 0 < j < n
            frac = np.arange(1, _SPLIT_CAP) / pieces[:, None]
            new = (a[cells, None] + width[cells, None] * frac)[frac < 1]
            pts = np.concatenate([pts, _fdp_scan(pairs, new, model)], axis=1)
            pts = pts[:, np.argsort(pts[0], kind="stable")]
    if not down.size:
        return None
    i = down[0]
    # brentq first evaluates the cell's ends, which the search has, and returns an end at alpha
    ends = {x[i]: f[i], x[i + 1]: f[i + 1]}
    return brentq(lambda lk: (ends[lk] if lk in ends else _fdp_at(pairs, lk, model)) - alpha,
                  x[i], x[i + 1], **_BRENTQ)


def asymptotically_optimal_weights(prior, alpha, model=None):
    """Pre-data weights pinning the plug-in FDP at level alpha.

    Solves ``fdp_approximator(k) = alpha`` for the smallest such k (the
    solution with the largest mean threshold, consistent with the
    data-dependent threshold chosen later) and returns the weight profile
    there, with ``t_bar`` doubling as the recommended lambda and
    ``u = 1/max(w)``.  The crossing is found by a search that bounds the
    FDP on cells of log k, and splits them down to 0.01 wide unless it can
    certify that the FDP does not rise on them.  It is missed only where
    the FDP's stretch above alpha before it fits inside one uncertified
    0.01-wide cell.

    A solution is guaranteed when ``alpha <= 1 - max(p)``, unless its
    thresholds lie where floats cannot hold them: every one below the float
    range, or (alpha within rounding of 1 - max(p)) every one within 1e-15
    of 1.  Outside that regime the solve proceeds if a crossing exists,
    and ``profile.warning`` says that existence is not guaranteed; with no
    crossing, NoSolutionError is raised.  ``profile.warning`` also names
    any weight raised to the smallest normal float.
    """
    check_unit("alpha", alpha)
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
    warning = ()
    if out_of_regime:
        warning = (f"alpha={alpha:g} exceeds 1 - max(p) = {1.0 - prior.p_max:g}; "
                   "a crossing was found but existence is not guaranteed in this regime",)
    return _profile(prior, log_k, model, warning)


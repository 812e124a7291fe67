"""Concave per-test power curves and their log-slope/inverse-log-slope queries.

A power curve ``pi_gamma(t)`` gives the probability that a single test of
size ``t`` rejects when the alternative holds with effect size ``gamma``.
Every model here satisfies the concavity regularity needed by the weight
solver: ``pi_gamma(0) = 0``, ``pi_gamma(1) = 1``, ``pi_gamma`` nondecreasing,
and ``pi_gamma'`` continuous and strictly decreasing on (0, 1) with infinite
limit at 0 and zero limit at 1.  Slopes are queried in log: +inf and -inf are
the limits at t = 0 and t = 1.
"""

import numpy as np

from ._checks import check_positive, check_unit
from .tables import read_table

__all__ = [
    "NormalLocationModel",
    "TabulatedPowerModel",
    "default_model",
]

# Tabulated thresholds are clamped to [_T_EPS, 1 - _T_EPS]; the weight solver
# brackets t by the same ends, and its fixup for tables relies on that
_T_EPS = 1e-15


def _check_gamma(gamma):
    g = np.asarray(gamma, dtype=float)
    check_positive("effect size gamma", g, scalar=False)
    return g


def _check_log_slope(log_slope):
    s = np.asarray(log_slope, dtype=float)
    if np.any(np.isnan(s)):
        raise ValueError("log slope must not be NaN")
    return s


def _load_special():
    """Rebind ``ndtr`` and ``ndtri`` to scipy's ufuncs.

    ``scipy.special`` takes most of the package's import time, and ``run``
    and ``bounds`` never evaluate a normal tail, so it loads at first use.
    """
    global ndtr, ndtri
    from scipy.special import ndtr, ndtri


def ndtr(x):
    """Standard normal CDF (``scipy.special.ndtr``, loaded at the first call)."""
    _load_special()
    return ndtr(x)


def ndtri(p):
    """Standard normal quantile (``scipy.special.ndtri``, loaded at the first call)."""
    _load_special()
    return ndtri(p)


def _float_if_scalar(out):
    return out if out.ndim else float(out)


class _PowerModel:
    """The three checked queries of a power model, over its unchecked kernels.

    A model supplies the kernels ``_power(g, t)``, ``_log_slope(g, t)`` and
    ``_threshold(g, s)``, for float arrays g, t and s already validated.
    ``_split(g, s)`` is built from ``_threshold`` and ``_power`` unless a
    model overrides it.  The weight solver, its bracket included, calls the
    kernels alone; the checked queries serve callers outside the package.
    """

    def power(self, gamma, t):
        """Power ``pi_gamma(t)`` for t in [0, 1], on scalars or arrays (broadcast)."""
        g = _check_gamma(gamma)
        tt = np.asarray(t, dtype=float)
        check_unit("size threshold t", tt, closed=True, scalar=False)
        return _float_if_scalar(self._power(g, tt))

    def log_power_slope(self, gamma, t):
        """Log of the derivative of power in t, defined only on the open
        interval (0, 1): the slope diverges at 0 and vanishes at 1."""
        g = _check_gamma(gamma)
        tt = np.asarray(t, dtype=float)
        check_unit("size threshold t", tt, scalar=False)
        return _float_if_scalar(self._log_slope(g, tt))

    def threshold_for_log_slope(self, gamma, log_slope):
        """The t in [0, 1] where ``log_power_slope(gamma, t)`` reaches ``log_slope``;
        +inf gives the smallest threshold and -inf the largest."""
        return _float_if_scalar(self._threshold(_check_gamma(gamma),
                                                _check_log_slope(log_slope)))

    def _split(self, g, s):
        """(t, 1-t, power, 1-power) at the inverse-log-slope threshold."""
        t = self._threshold(g, s)
        pi = self._power(g, t)
        return t, 1.0 - t, pi, 1.0 - pi


class NormalLocationModel(_PowerModel):
    """One-sided test of a unit-variance normal mean shift.

    The test statistic is N(0, 1) under the null and N(gamma, 1) under the
    alternative; the size-t test rejects when the statistic exceeds the
    upper-t normal quantile ``z = Phi^{-1}(1 - t)``, computed as
    ``-Phi^{-1}(t)`` to stay accurate for t near 0.  Power, its slope in t,
    and the inverse-slope map all have closed forms:

    - power ``pi_gamma(t) = Phi(gamma - z)``, exact at t = 0 and t = 1;
    - log slope ``gamma*z - gamma^2/2``;
    - threshold ``t = 1 - Phi(gamma/2 + log_slope/gamma)``, computed as
      ``Phi(-(...))`` to keep small thresholds at full precision, so a log
      slope of +inf gives t = 0 and -inf gives t = 1.

    The split takes, with ``z = gamma/2 + log_slope/gamma``, ``t = Phi(-z)``
    and ``power = Phi(gamma - z)``.  One ``ndtr`` serves each complement
    pair: ``a = Phi(-|z|)`` and ``b = Phi(-|gamma - z|)`` are the smaller
    masses (<= 1/2), taken as they are, and the larger masses are ``1 - a``
    and ``1 - b``.  A mass near 0 is never formed by subtraction, so ratios
    of survival masses stay accurate even when the threshold or the power
    sits within a few ulp of 1.
    """

    def _power(self, g, t):
        with np.errstate(divide="ignore"):
            out = ndtr(g + ndtri(t))
        # endpoints are exact by definition
        return np.where(t == 0.0, 0.0, np.where(t == 1.0, 1.0, out))

    def _log_slope(self, g, t):
        return g * -ndtri(t) - 0.5 * g * g

    def _threshold(self, g, s):
        return ndtr(-(0.5 * g + s / g))

    def _split(self, g, s):
        # z and d are fresh arrays (asarray keeps a 0-d result an array), and
        # each is reused in place once its sign is taken
        z = np.asarray(s / g)
        z += 0.5 * g
        d = np.asarray(g - z)
        t_small, pi_large = z >= 0, d >= 0
        a = ndtr(np.negative(np.abs(z, out=z), out=z))
        b = ndtr(np.negative(np.abs(d, out=d), out=d))
        ca, cb = np.subtract(1.0, a, out=z), np.subtract(1.0, b, out=d)
        return (np.where(t_small, a, ca), np.where(t_small, ca, a),
                np.where(pi_large, cb, b), np.where(pi_large, b, cb))


class TabulatedPowerModel(_PowerModel):
    """Power curve defined by a user-supplied strictly concave table.

    The table is a set of (t, power) knots including (0, 0) and (1, 1),
    with strictly increasing t and power and strictly decreasing secant
    slopes (concavity is validated at load).  Power between knots is
    linearly interpolated; the slope on ``(t_i, t_{i+1}]`` is that
    segment's secant, so the inverse-slope query returns a knot: the
    largest knot t with ``log_power_slope(gamma, t) >= log_slope``, in
    [1e-15, 1 - 1e-15].  The same curve is used for every effect size.
    """

    def __init__(self, t, power):
        t = np.asarray(t, dtype=float)
        p = np.asarray(power, dtype=float)
        if t.ndim != 1 or t.shape != p.shape or t.size < 3:
            raise ValueError("need matching 1-d t/power columns with >= 3 rows")
        if not np.all(np.isfinite(t) & np.isfinite(p)):
            raise ValueError("t and power knots must be finite")
        if np.any(np.diff(t) <= 0):
            raise ValueError("t column must be strictly increasing")
        if t[0] != 0.0 or t[-1] != 1.0 or p[0] != 0.0 or p[-1] != 1.0:
            raise ValueError("t and power knots must span (0, 0) to (1, 1)")
        if np.any(np.diff(p) <= 0):
            raise ValueError("power column must be strictly increasing")
        secants = np.diff(p) / np.diff(t)
        if np.any(np.diff(secants) >= 0):
            raise ValueError("table is not strictly concave")
        self._t = t
        self._p = p
        self._log_secants = np.log(secants)

    @classmethod
    def from_csv(cls, path):
        """Load knots from a CSV file with header ``t,power``."""
        return cls(*read_table(path, [("t", "power")])[1].T)

    def _segment(self, tt):
        # index of the segment (t_i, t_{i+1}] containing each t; t = 0
        # belongs to the first segment
        idx = np.searchsorted(self._t, tt, side="left") - 1
        return np.clip(idx, 0, self._t.size - 2)

    def _power(self, g, t):
        return np.interp(t, self._t, self._p)

    def _log_slope(self, g, t):
        return self._log_secants[self._segment(t)]

    def _threshold(self, g, s):
        # the largest t with slope(t) >= slope is knot j, where j counts the
        # secants >= slope (a slope equal to secant j maps to knot j + 1);
        # the clamp keeps t inside (0, 1) like the bisection bracket, so a
        # log slope of +inf lands on 1e-15 and -inf on 1 - 1e-15
        j = np.searchsorted(-self._log_secants, -s, side="right")
        return np.clip(self._t[j], _T_EPS, 1 - _T_EPS)


def default_model():
    """The normal location model used throughout unless a table is supplied."""
    return NormalLocationModel()

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
from scipy.special import ndtr, ndtri

from .tables import read_table

__all__ = [
    "NormalLocationModel",
    "TabulatedPowerModel",
    "default_model",
]


def _check_gamma(gamma):
    g = np.asarray(gamma, dtype=float)
    if not np.all(np.isfinite(g)) or np.any(g <= 0):
        raise ValueError("effect size gamma must be positive and finite")
    return g


def _check_log_slope(log_slope):
    s = np.asarray(log_slope, dtype=float)
    if np.any(np.isnan(s)):
        raise ValueError("log slope must not be NaN")
    return s


class NormalLocationModel:
    """One-sided test of a unit-variance normal mean shift.

    The test statistic is N(0, 1) under the null and N(gamma, 1) under the
    alternative; the size-t test rejects when the statistic exceeds the
    upper-t normal quantile.  Power, its slope in t, and the inverse-slope
    map all have closed forms.
    """

    def power(self, gamma, t):
        """Power ``pi_gamma(t) = Phi(gamma - Phi^{-1}(1 - t))`` for t in [0, 1].

        Accepts scalars or arrays (broadcast).  Raises ValueError outside
        the domain.
        """
        g = _check_gamma(gamma)
        tt = np.asarray(t, dtype=float)
        if not np.all((tt >= 0) & (tt <= 1)):
            raise ValueError("size threshold t must lie in [0, 1]")
        # -ndtri(t) = Phi^{-1}(1 - t) but stays accurate for t near 0
        with np.errstate(divide="ignore"):
            z = -ndtri(tt)
        out = ndtr(g - z)
        # endpoints are exact by definition
        out = np.where(tt == 0.0, 0.0, out)
        out = np.where(tt == 1.0, 1.0, out)
        return out if out.ndim else float(out)

    def log_power_slope(self, gamma, t):
        """Log of the derivative of power in t: ``gamma*z - gamma^2/2``, z the upper-t quantile.

        Only defined on the open interval (the slope diverges at 0 and
        vanishes at 1).
        """
        g = _check_gamma(gamma)
        tt = np.asarray(t, dtype=float)
        if not np.all((tt > 0) & (tt < 1)):
            raise ValueError("slope is defined only for t in (0, 1)")
        z = -ndtri(tt)
        out = g * z - 0.5 * g * g
        return out if out.ndim else float(out)

    def threshold_for_log_slope(self, gamma, log_slope):
        """Unique t in [0, 1] with ``log_power_slope(gamma, t) == log_slope``.

        Closed form ``t = 1 - Phi(gamma/2 + log_slope/gamma)``, computed
        as ``Phi(-(...))`` to keep small thresholds at full precision.  A
        log slope of +inf gives t = 0 and -inf gives t = 1.
        """
        g = _check_gamma(gamma)
        s = _check_log_slope(log_slope)
        out = ndtr(-(0.5 * g + s / g))
        return out if out.ndim else float(out)

    def threshold_power_split(self, gamma, log_slope):
        """(t, 1-t, power, 1-power) at the inverse-log-slope threshold.

        With ``z = gamma/2 + log_slope/gamma``, ``t = Phi(-z)`` and
        ``power = Phi(gamma - z)``.  One ``ndtr`` serves each complement
        pair: ``a = Phi(-|z|)`` and ``b = Phi(-|gamma - z|)`` are the smaller
        masses (<= 1/2), taken as they are, and the larger masses are
        ``1 - a`` and ``1 - b``.  A mass near 0 is never formed by
        subtraction, so ratios of survival masses stay accurate even when
        the threshold or the power sits within a few ulp of 1.
        """
        g = _check_gamma(gamma)
        s = _check_log_slope(log_slope)
        z = 0.5 * g + s / g
        d = g - z
        a = ndtr(-np.abs(z))
        b = ndtr(-np.abs(d))
        ca, cb = 1.0 - a, 1.0 - b
        t_small, pi_large = z >= 0, d >= 0
        return (np.where(t_small, a, ca), np.where(t_small, ca, a),
                np.where(pi_large, cb, b), np.where(pi_large, b, cb))


class TabulatedPowerModel:
    """Power curve defined by a user-supplied strictly concave table.

    The table is a set of (t, power) knots including (0, 0) and (1, 1),
    with strictly increasing t and power and strictly decreasing secant
    slopes (concavity is validated at load).  Power between knots is
    linearly interpolated; the slope on ``(t_i, t_{i+1}]`` is that
    segment's secant, so the inverse-slope query returns a knot.  The same
    curve is used for every effect size.
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
            raise ValueError("table must span (0, 0) to (1, 1)")
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

    def _knot(self, gamma, log_slope):
        # the largest t with slope(t) >= slope is knot j, where j counts the
        # secants >= slope (a slope equal to secant j maps to knot j + 1);
        # the clamp keeps t inside (0, 1) like the bisection bracket, so a
        # log slope of +inf lands on 1e-15 and -inf on 1 - 1e-15
        _check_gamma(gamma)
        s = _check_log_slope(log_slope)
        j = np.searchsorted(-self._log_secants, -s, side="right")
        return np.clip(self._t[j], 1e-15, 1 - 1e-15)

    def power(self, gamma, t):
        _check_gamma(gamma)
        tt = np.asarray(t, dtype=float)
        if not np.all((tt >= 0) & (tt <= 1)):
            raise ValueError("size threshold t must lie in [0, 1]")
        out = np.interp(tt, self._t, self._p)
        return out if out.ndim else float(out)

    def log_power_slope(self, gamma, t):
        _check_gamma(gamma)
        tt = np.asarray(t, dtype=float)
        if not np.all((tt > 0) & (tt < 1)):
            raise ValueError("slope is defined only for t in (0, 1)")
        out = self._log_secants[self._segment(tt)]
        return out if out.ndim else float(out)

    def threshold_for_log_slope(self, gamma, log_slope):
        """Largest knot t with ``log_power_slope(gamma, t) >= log_slope``, in [1e-15, 1 - 1e-15]."""
        t = self._knot(gamma, log_slope)
        return t if t.ndim else float(t)

    def threshold_power_split(self, gamma, log_slope):
        """(t, 1-t, power, 1-power) at the inverse-log-slope knot."""
        t = self._knot(gamma, log_slope)
        pi = np.interp(t, self._t, self._p)
        return t, 1.0 - t, pi, 1.0 - pi


def default_model():
    """The normal location model used throughout unless a table is supplied."""
    return NormalLocationModel()

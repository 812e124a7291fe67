"""Concave per-test power curves and their slope/inverse-slope queries.

A power curve ``pi_gamma(t)`` gives the probability that a single test of
size ``t`` rejects when the alternative holds with effect size ``gamma``.
Every model here satisfies the concavity regularity needed by the weight
solver: ``pi_gamma(0) = 0``, ``pi_gamma(1) = 1``, ``pi_gamma`` nondecreasing,
and ``pi_gamma'`` continuous and strictly decreasing on (0, 1) with infinite
limit at 0 and zero limit at 1.
"""

import csv

import numpy as np
from scipy.special import ndtr, ndtri

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


class NormalLocationModel:
    """One-sided test of a unit-variance normal mean shift.

    The test statistic is N(0, 1) under the null and N(gamma, 1) under the
    alternative; the size-t test rejects when the statistic exceeds the
    upper-t normal quantile.  Power, its slope in t, and the inverse-slope
    map all have closed forms.
    """

    kind = "normal-location"

    def power(self, gamma, t):
        """Power ``pi_gamma(t) = Phi(gamma - Phi^{-1}(1 - t))`` for t in [0, 1].

        Accepts scalars or arrays (broadcast).  Raises ValueError outside
        the domain.
        """
        g = _check_gamma(gamma)
        tt = np.asarray(t, dtype=float)
        if np.any(tt < 0) or np.any(tt > 1):
            raise ValueError("size threshold t must lie in [0, 1]")
        # -ndtri(t) = Phi^{-1}(1 - t) but stays accurate for t near 0
        with np.errstate(divide="ignore"):
            z = -ndtri(tt)
        out = ndtr(g - z)
        # endpoints are exact by definition
        out = np.where(tt == 0.0, 0.0, out)
        out = np.where(tt == 1.0, 1.0, out)
        return out if out.ndim else float(out)

    def power_slope(self, gamma, t):
        """Derivative of power in t: ``exp(gamma*z - gamma^2/2)``, z the upper-t quantile.

        Only defined on the open interval (the slope diverges at 0 and
        vanishes at 1).  Evaluated in log space so extreme t cannot
        overflow the density ratio.
        """
        g = _check_gamma(gamma)
        tt = np.asarray(t, dtype=float)
        if np.any(tt <= 0) or np.any(tt >= 1):
            raise ValueError("slope is defined only for t in (0, 1)")
        z = -ndtri(tt)
        out = np.exp(g * z - 0.5 * g * g)
        return out if out.ndim else float(out)

    def threshold_for_slope(self, gamma, slope):
        """Unique t in (0, 1) with ``power_slope(gamma, t) == slope``.

        Closed form ``t = 1 - Phi(gamma/2 + log(slope)/gamma)``, computed
        as ``Phi(-(...))`` to keep small thresholds at full precision.
        """
        g = _check_gamma(gamma)
        s = np.asarray(slope, dtype=float)
        if np.any(s <= 0) or not np.all(np.isfinite(s)):
            raise ValueError("slope must be positive and finite")
        out = ndtr(-(0.5 * g + np.log(s) / g))
        return out if out.ndim else float(out)

    def threshold_power_split(self, gamma, slope):
        """(t, 1-t, power, 1-power) at the inverse-slope threshold.

        Both complements are evaluated directly (not by subtraction) so
        downstream ratios of survival masses stay accurate even when the
        threshold or the power sits within a few ulp of 1.
        """
        g = _check_gamma(gamma)
        s = np.asarray(slope, dtype=float)
        if np.any(s <= 0) or not np.all(np.isfinite(s)):
            raise ValueError("slope must be positive and finite")
        z = 0.5 * g + np.log(s) / g
        return ndtr(-z), ndtr(z), ndtr(g - z), ndtr(z - g)


class TabulatedPowerModel:
    """Power curve defined by a user-supplied strictly concave table.

    The table is a set of (t, power) knots including (0, 0) and (1, 1),
    with strictly increasing t and power and strictly decreasing secant
    slopes (concavity is validated at load).  Power between knots is
    linearly interpolated; the slope on ``(t_i, t_{i+1}]`` is that
    segment's secant, so the inverse-slope query returns a knot.  The same
    curve is used for every effect size.
    """

    kind = "tabulated"

    def __init__(self, t, power):
        t = np.asarray(t, dtype=float)
        p = np.asarray(power, dtype=float)
        if t.ndim != 1 or t.shape != p.shape or t.size < 3:
            raise ValueError("need matching 1-d t/power columns with >= 3 rows")
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
        self._secants = secants

    @classmethod
    def from_csv(cls, path):
        """Load knots from a CSV file with header ``t,power``."""
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or [f.strip() for f in reader.fieldnames] != ["t", "power"]:
                raise ValueError(f"{path}: expected header 't,power'")
            rows = [(float(r["t"]), float(r["power"])) for r in reader]
        if not rows:
            raise ValueError(f"{path}: empty table")
        t, p = zip(*rows)
        return cls(t, p)

    def _segment(self, tt):
        # index of the segment (t_i, t_{i+1}] containing each t; t = 0
        # belongs to the first segment
        idx = np.searchsorted(self._t, tt, side="left") - 1
        return np.clip(idx, 0, self._t.size - 2)

    def _knot(self, gamma, slope):
        # the largest t with slope(t) >= slope is knot j, where j counts the
        # secants >= slope (a slope equal to secant j maps to knot j + 1);
        # the clamp keeps t inside (0, 1) like the bisection bracket
        _check_gamma(gamma)
        s = np.asarray(slope, dtype=float)
        if np.any(s <= 0) or not np.all(np.isfinite(s)):
            raise ValueError("slope must be positive and finite")
        j = np.searchsorted(-self._secants, -s, side="right")
        return np.clip(self._t[j], 1e-15, 1 - 1e-15)

    def power(self, gamma, t):
        _check_gamma(gamma)
        tt = np.asarray(t, dtype=float)
        if np.any(tt < 0) or np.any(tt > 1):
            raise ValueError("size threshold t must lie in [0, 1]")
        out = np.interp(tt, self._t, self._p)
        return out if out.ndim else float(out)

    def power_slope(self, gamma, t):
        _check_gamma(gamma)
        tt = np.asarray(t, dtype=float)
        if np.any(tt <= 0) or np.any(tt >= 1):
            raise ValueError("slope is defined only for t in (0, 1)")
        out = self._secants[self._segment(tt)]
        return out if out.ndim else float(out)

    def threshold_for_slope(self, gamma, slope):
        """Largest knot t with ``power_slope(gamma, t) >= slope``, clamped to [1e-15, 1 - 1e-15]."""
        t = self._knot(gamma, slope)
        return t if t.ndim else float(t)

    def threshold_power_split(self, gamma, slope):
        """(t, 1-t, power, 1-power) at the inverse-slope knot."""
        t = self._knot(gamma, slope)
        pi = np.interp(t, self._t, self._p)
        return t, 1.0 - t, pi, 1.0 - pi


def _bisect_decreasing(f, target, lo=1e-15, hi=1 - 1e-15, tol=1e-12, max_iter=200):
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


def default_model():
    """The normal location model used throughout unless a table is supplied."""
    return NormalLocationModel()

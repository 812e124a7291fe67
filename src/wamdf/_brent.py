"""Brent's root finder: a step-for-step port of scipy's ``brentq.c``.

It returns the same float, after the same function calls, as scipy's
``brentq`` with the same tolerances, so the package needs scipy only for
``scipy.special`` and never imports scipy's optimization subpackage.
"""

import math


def brentq(f, a, b, xtol, rtol, maxiter):
    """A root of ``f`` in [a, b] by Brent's method.

    Each step tries inverse quadratic interpolation (a secant step when
    only two points are known) and falls back to bisection.  Stops at an
    exact zero, or once the bracket around the current point is narrower
    than ``xtol + rtol * |x|``.  Returns ``a`` or ``b`` when f is exactly 0
    there.  Raises ValueError when f(a) and f(b) have the same sign or f
    is NaN anywhere, and RuntimeError after ``maxiter`` steps without
    convergence.
    """
    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN; Brent's method cannot continue")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        # fpre is never 0 here; sign tests, not products, which can underflow
        if fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                # C gets an infinite or NaN step, which fails the test below
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"Brent's method failed to converge after {maxiter} iterations, "
                       f"value is {xcur}")

"""The package's Brent root finder against ``scipy.optimize.brentq``.

The port must return the same float after the same number of function
calls as scipy's on every call: those the weight solves and the count
calibration make, random smooth functions, and step functions like the
calibration's power jumps.  Its contract at the edges (an exact zero at an
end, same-sign ends, NaN, no convergence) must be scipy's too.
"""

import math
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq as scipy_brentq

from wamdf import counts, weights
from wamdf._brent import brentq
from wamdf.counts import CalibrationError, calibrate_information, generate_synthetic_counts
from wamdf.simulate import substream
from wamdf.weights import asymptotically_optimal_weights, optimal_fixed_t_weights

from test_weight_scan import X5, preset_prior, sweep_cases

TOLS = dict(xtol=1e-13, rtol=8.9e-16, maxiter=1100)


def outcome(solver, f, a, b, **tols):
    """(root as hex, or the exception's type name; number of calls to f)."""
    calls = 0

    def counted(x):
        nonlocal calls
        calls += 1
        return f(x)

    try:
        root = solver(counted, a, b, **tols)
    except (ValueError, RuntimeError) as exc:
        return type(exc).__name__, calls
    return float(root).hex(), calls


def reference(f, a, b, **tols):
    """scipy's outcome, its call count read from ``full_output``."""
    try:
        root, info = scipy_brentq(f, a, b, full_output=True, **tols)
    except (ValueError, RuntimeError) as exc:
        return type(exc).__name__, outcome(scipy_brentq, f, a, b, **tols)[1]
    return root.hex(), info.function_calls


def assert_matches_scipy(f, a, b, **tols):
    want = reference(f, a, b, **tols)
    assert outcome(brentq, f, a, b, **tols) == want, (a, b, tols)
    return want


def test_solver_calls_match_scipy(monkeypatch):
    # every call the weight solves and the count calibration make, on the
    # sweep's first priors, presets 1-2 and two calibrations, one of which
    # ends on a power jump
    compared = []

    def recorded(f, a, b, **tols):
        want = reference(f, a, b, **tols)
        compared.append((outcome(brentq, f, a, b, **tols), want))
        return brentq(f, a, b, **tols)

    monkeypatch.setattr(weights, "brentq", recorded)
    monkeypatch.setattr(counts, "brentq", recorded)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for prior, model, alpha, t in sweep_cases(600):
            for solve, level in ((asymptotically_optimal_weights, alpha),
                                 (optimal_fixed_t_weights, t)):
                try:
                    solve(prior, level, model)
                except weights.NoSolutionError:
                    pass
        for preset in (1, 2):
            asymptotically_optimal_weights(*preset_prior(preset))
        for seed, n, p_prior, target in ((1000, 150, 0.5, 0.5), (1, 30, 0.95, 0.9)):
            dataset, _ = generate_synthetic_counts(n, X5, substream(seed, 0))
            try:
                calibrate_information(dataset.totals, p_prior=p_prior, target_avg_power=target)
            except CalibrationError:
                assert p_prior == 0.95
    mismatched = [pair for pair in compared if pair[0] != pair[1]]
    assert not mismatched, mismatched[:5]
    assert len(compared) >= 1000


def smooth_functions(rng, n):
    """(f, a, b): the one root r inside [a, b] (ends in either order) of
    smooth monotone shapes, from simple roots to a triple root, at scales
    down to 1e-200."""
    for i in range(n):
        r = rng.uniform(-5, 5)
        lo, hi = r - 10 ** rng.uniform(-3, 2), r + 10 ** rng.uniform(-3, 2)
        c, scale = rng.uniform(-2, 2), 10 ** rng.uniform(-200, 3)
        shape = i % 5
        if shape == 0:
            def f(x, r=r, c=c, s=scale): return s * (x - r) * math.exp(c * x / 10)
        elif shape == 1:
            def f(x, r=r, c=c, s=scale): return s * math.tanh((x - r) * (abs(c) + 0.1))
        elif shape == 2:
            def f(x, r=r, s=scale): return s * (x - r) ** 3
        elif shape == 3:
            def f(x, r=r, c=c): return math.exp(x / 4) - math.exp(r / 4) + abs(c) * (x - r) ** 3 / 100
        else:
            def f(x, r=r, c=c, s=scale): return s * (math.atan(x - r) + abs(c) * (x - r) / 10)
        yield (f, lo, hi) if rng.random() < 0.5 else (f, hi, lo)


def step_functions(rng, n):
    """(f, a, b): average-power-like curves that rise across the target by
    a jump at s, some smooth on each side and some flat, as when the inner
    solve's smallest crossing jumps."""
    for i in range(n):
        s = rng.uniform(0.05, 0.2)
        below, above = rng.uniform(0.0, 0.9), rng.uniform(0.9, 1.0)
        if i % 2:
            def f(x, s=s, lo=below, hi=above): return (hi if x >= s else lo) - 0.9
        else:
            def f(x, s=s, lo=below, hi=above):
                return (hi + (1 - hi) * (x - s) if x >= s else lo * x / s) - 0.9
        yield f, s / rng.uniform(1.1, 4.0), s * rng.uniform(1.1, 4.0)


@pytest.mark.parametrize("family, tols", [
    (smooth_functions, TOLS),
    (smooth_functions, dict(xtol=1e-12, rtol=8.9e-16, maxiter=200)),
    (step_functions, dict(xtol=1e-12, rtol=8.9e-16, maxiter=200)),
], ids=["smooth", "smooth-calibration-tols", "steps"])
def test_synthetic_functions_match_scipy(family, tols):
    rng = np.random.default_rng(12)
    outcomes = [assert_matches_scipy(f, a, b, **tols) for f, a, b in family(rng, 300)]
    # every case converged, none at an end
    assert all(root.startswith(("0x", "-0x")) for root, _ in outcomes)
    assert min(calls for _, calls in outcomes) > 3


class TestContract:
    @pytest.mark.parametrize("a, b, root", [(0.0, 2.0, 0.0), (-2.0, 0.0, 0.0),
                                            (1.0, 3.0, 1.0), (-1.0, 1.0, 1.0)])
    def test_exact_zero_at_an_end_returns_it(self, a, b, root):
        def f(x): return 0.0 if x == root else x - root - 0.5
        assert brentq(f, a, b, **TOLS) == root
        assert_matches_scipy(f, a, b, **TOLS)

    def test_zero_at_both_ends_returns_a(self):
        assert outcome(brentq, lambda x: -0.0, 1.0, 2.0, **TOLS) == ((1.0).hex(), 2)
        assert_matches_scipy(lambda x: -0.0, 1.0, 2.0, **TOLS)

    @pytest.mark.parametrize("f", [lambda x: x * x + 1, lambda x: 1e-200,
                                   lambda x: -1e-300 * (x * x + 1)],
                             ids=["positive", "tiny-positive", "tiny-negative"])
    def test_same_sign_ends_raise_value_error(self, f):
        with pytest.raises(ValueError, match="different signs"):
            brentq(f, -1.0, 1.0, **TOLS)
        assert_matches_scipy(f, -1.0, 1.0, **TOLS)

    @pytest.mark.parametrize("f", [lambda x: math.nan, lambda x: math.nan if x == -1 else x - 0.5,
                                   lambda x: math.nan if x == 1 else x - 0.5,
                                   lambda x: math.nan if 0 < x < 1 else x - 0.5],
                             ids=["both-ends", "at-a", "at-b", "inside"])
    def test_nan_raises_value_error(self, f):
        with pytest.raises(ValueError, match="NaN"):
            brentq(f, -1.0, 1.0, **TOLS)
        assert_matches_scipy(f, -1.0, 1.0, **TOLS)

    def test_opposite_tiny_ends_are_not_same_sign(self):
        # their product underflows to -0.0; the signs still differ
        def f(x): return 1e-200 * (x - 0.3)
        assert brentq(f, 0.0, 1.0, **TOLS) == pytest.approx(0.3, abs=1e-13)
        assert_matches_scipy(f, 0.0, 1.0, **TOLS)

    @pytest.mark.parametrize("maxiter", [0, 1, 5])
    def test_small_maxiter_raises_runtime_error(self, maxiter):
        tols = dict(TOLS, maxiter=maxiter)
        with pytest.raises(RuntimeError, match=f"after {maxiter} iterations"):
            brentq(lambda x: x ** 3 - 2.0, 0.0, 2.0, **tols)
        assert assert_matches_scipy(lambda x: x ** 3 - 2.0, 0.0, 2.0, **tols) == (
            "RuntimeError", maxiter + 2)

    def test_numpy_ends_and_values_give_floats(self):
        root = brentq(lambda x: np.float64(x) - 0.25, np.float64(0.0), np.float64(1.0), **TOLS)
        assert type(root) is float and root == 0.25

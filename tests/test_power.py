"""Power-curve model: frozen values, derivative checks, inversion properties."""

import bisect

import numpy as np
import pytest

from wamdf.power import NormalLocationModel, TabulatedPowerModel

from oracles import bisect_decreasing, four_ndtr_split

MODEL = NormalLocationModel()

GAMMAS = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0]


class TestFrozenValues:
    # expected values computed with a 40-digit mpmath oracle

    def test_power_endpoints(self):
        assert MODEL.power(2.0, 0.0) == 0.0
        assert MODEL.power(2.0, 1.0) == 1.0

    def test_power_value(self):
        assert MODEL.power(2.0, 0.05) == pytest.approx(0.63876003131233506, rel=1e-13)

    def test_slope_value(self):
        assert np.exp(MODEL.log_power_slope(2.0, 0.05)) == pytest.approx(3.6317232273173988,
                                                                     rel=1e-13)

    def test_slope_unit_point(self):
        # at t = 1 - Phi(gamma/2) the quantile is gamma/2, so the density
        # ratio collapses to exp(0)
        from scipy.special import ndtr
        for gamma in (0.7, 2.0, 3.5):
            t = ndtr(-gamma / 2.0)
            assert np.exp(MODEL.log_power_slope(gamma, t)) == pytest.approx(1.0, abs=1e-12)

    def test_slope_at_published_m2_solution(self):
        # the two-test example equalizes slopes at k/p = 1.7/0.5 = 3.4;
        # the gamma = 2.5 threshold rounds to 0.041
        assert np.exp(MODEL.log_power_slope(2.5, 0.0410)) == pytest.approx(3.3973447247858295,
                                                                       rel=1e-12)
        assert MODEL.threshold_for_log_slope(2.5, np.log(3.4)) == pytest.approx(0.041, abs=5e-5)

    def test_threshold_value(self):
        assert MODEL.threshold_for_log_slope(2.0, np.log(5.04)) == pytest.approx(
            0.035248575147992487, rel=1e-13
        )

    def test_threshold_unit_slope(self):
        from scipy.special import ndtr
        for gamma in (0.5, 1.0, 2.0, 4.0):
            assert MODEL.threshold_for_log_slope(gamma, 0.0) == pytest.approx(
                ndtr(-gamma / 2.0), rel=1e-14
            )


class TestDomainErrors:
    def test_power_t_out_of_range(self):
        with pytest.raises(ValueError):
            MODEL.power(2.0, -0.01)
        with pytest.raises(ValueError):
            MODEL.power(2.0, 1.01)

    def test_nonpositive_gamma(self):
        with pytest.raises(ValueError):
            MODEL.power(0.0, 0.5)
        with pytest.raises(ValueError):
            MODEL.log_power_slope(-1.0, 0.5)

    def test_slope_at_endpoints(self):
        with pytest.raises(ValueError):
            MODEL.log_power_slope(2.0, 0.0)
        with pytest.raises(ValueError):
            MODEL.log_power_slope(2.0, 1.0)

    @pytest.mark.parametrize("model", [MODEL, TabulatedPowerModel([0.0, 0.2, 1.0], [0.0, 0.6, 1.0])],
                             ids=["normal", "tabulated"])
    def test_nan_threshold(self, model):
        # a NaN t used to give a NaN power or slope
        with pytest.raises(ValueError, match="t must lie"):
            model.power(2.0, np.nan)
        with pytest.raises(ValueError, match="t in"):
            model.log_power_slope(2.0, np.array([0.5, np.nan]))


@pytest.mark.parametrize("model, limit", [
    (MODEL, 0.0), (TabulatedPowerModel([0.0, 0.2, 1.0], [0.0, 0.6, 1.0]), 1e-15),
], ids=["normal", "tabulated"])
class TestInfiniteSlope:
    # a log slope of +inf gets the smallest threshold, -inf the largest
    def test_limit(self, model, limit):
        log_slopes = np.array([0.0, np.inf, -np.inf])
        assert model.threshold_for_log_slope(2.0, np.inf) == limit
        assert model.threshold_for_log_slope(2.0, -np.inf) == 1.0 - limit
        t, tc, pi, pic = model.threshold_power_split(2.0, log_slopes)
        np.testing.assert_array_equal(t[1:], [limit, 1.0 - limit])
        np.testing.assert_array_equal(tc[1:], 1.0 - t[1:])
        np.testing.assert_array_equal(pi[1:], model.power(2.0, t[1:]))
        np.testing.assert_array_equal(pic[1:], 1.0 - pi[1:])
        assert t[0] == model.threshold_for_log_slope(2.0, 0.0)

    def test_nan_rejected(self, model, limit):
        for query in (model.threshold_for_log_slope, model.threshold_power_split):
            with pytest.raises(ValueError, match="^log slope must not be NaN"):
                query(2.0, np.array([0.0, np.nan]))


class TestAgainstHighPrecisionOracle:
    def test_power_matches_mpmath(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40

        def oracle(gamma, t):
            z = mp.sqrt(2) * mp.erfinv(2 * (1 - mp.mpf(t)) - 1)
            return float(1 - mp.ncdf(z - gamma))

        for gamma in (0.5, 2.0, 5.0):
            for t in (1e-6, 1e-3, 0.05, 0.3, 0.9, 0.999):
                assert MODEL.power(gamma, t) == pytest.approx(
                    oracle(gamma, t), rel=1e-13
                )


class TestProperties:
    def test_slope_matches_finite_differences(self):
        # central difference of power at h = 1e-6, within 1e-6 relative
        h = 1e-6
        ts = np.linspace(0.001, 0.999, 25)
        for gamma in GAMMAS:
            slopes = np.exp(MODEL.log_power_slope(gamma, ts))
            fd = (MODEL.power(gamma, ts + h) - MODEL.power(gamma, ts - h)) / (2 * h)
            assert np.allclose(slopes, fd, rtol=1e-6)

    def test_closed_form_matches_generic_bisection(self):
        slopes = np.logspace(-1, 2, 16)
        for gamma in GAMMAS:
            for s in slopes:
                closed = MODEL.threshold_for_log_slope(gamma, np.log(s))
                generic = bisect_decreasing(lambda t: np.exp(MODEL.log_power_slope(gamma, t)), s)
                assert abs(closed - generic) <= 1e-10

    def test_inverse_slope_roundtrip(self):
        ts = np.linspace(0.005, 0.995, 40)
        for gamma in GAMMAS:
            back = MODEL.threshold_for_log_slope(gamma, MODEL.log_power_slope(gamma, ts))
            assert np.max(np.abs(back - ts)) <= 1e-10

    def test_threshold_strictly_decreasing_in_slope(self):
        slopes = np.logspace(-1, 2, 50)
        for gamma in GAMMAS:
            ts = MODEL.threshold_for_log_slope(gamma, np.log(slopes))
            assert np.all(np.diff(ts) < 0)

    def test_power_curve_shape(self):
        ts = np.linspace(0.0, 1.0, 101)
        for gamma in GAMMAS:
            pi = MODEL.power(gamma, ts)
            assert pi[0] == 0.0 and pi[-1] == 1.0
            assert np.all(np.diff(pi) >= 0)
            assert np.all(pi >= ts - 1e-15)
            inner = np.linspace(0.001, 0.999, 101)
            assert np.all(np.diff(MODEL.log_power_slope(gamma, inner)) < 0)


class TestThresholdPowerSplit:
    # gamma over [0.05, 60] and log-slope over +-700, plus the points where
    # z = gamma/2 + log(s)/gamma or gamma - z changes sign
    GAMMA = np.geomspace(0.05, 60.0, 97)[:, None]
    LOG_SLOPE = np.linspace(-700.0, 700.0, 1401)[None, :]

    def grids(self):
        g = self.GAMMA
        near_zero = np.linspace(-1e-3, 1e-3, 41)[None, :] * g
        # z = 0 at log(s) = -g^2/2 and gamma - z = 0 at log(s) = g^2/2
        yield g, self.LOG_SLOPE
        yield g, np.clip(-0.5 * g * g + near_zero, -700.0, 700.0)
        yield g, np.clip(0.5 * g * g + near_zero, -700.0, 700.0)

    def test_within_one_ulp_of_four_ndtr_split(self):
        for g, log_s in self.grids():
            new = MODEL.threshold_power_split(g, log_s)
            old = four_ndtr_split(g, log_s)
            for n, o in zip(new, old):
                assert n.shape == o.shape == np.broadcast(g, log_s).shape
                assert np.all(np.abs(n - o) <= np.spacing(o))
                # a mass <= 1/2 is the very ndtr value the old split took
                small = o <= 0.5
                np.testing.assert_array_equal(n[small], o[small])

    def test_complements_pair_up(self):
        for g, log_s in self.grids():
            t, tc, pi, pic = MODEL.threshold_power_split(g, log_s)
            np.testing.assert_array_equal(np.minimum(t, tc) + np.maximum(t, tc) - 1.0, 0.0)
            np.testing.assert_array_equal(np.minimum(pi, pic) + np.maximum(pi, pic) - 1.0, 0.0)
            small = t <= 0.5
            np.testing.assert_array_equal(t[small], MODEL.threshold_for_log_slope(g, log_s)[small])

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="gamma"):
            MODEL.threshold_power_split(0.0, 0.0)
        with pytest.raises(ValueError, match="slope"):
            MODEL.threshold_power_split(2.0, np.array([0.0, np.nan]))


def _concave_table(n=21):
    # knots on sqrt: strictly increasing, strictly concave, spans the square
    t = np.linspace(0.0, 1.0, n)
    return t, np.sqrt(t)


class TestTabulatedModel:
    def test_power_interpolates(self):
        t, p = _concave_table()
        model = TabulatedPowerModel(t, p)
        assert model.power(1.0, 0.0) == 0.0
        assert model.power(1.0, 1.0) == 1.0
        for knot_t, knot_p in zip(t, p):
            assert model.power(1.0, knot_t) == pytest.approx(knot_p, abs=1e-15)

    def test_slope_is_segment_secant(self):
        t, p = _concave_table(6)
        model = TabulatedPowerModel(t, p)
        mid = 0.5 * (t[2] + t[3])
        expected = (p[3] - p[2]) / (t[3] - t[2])
        assert np.exp(model.log_power_slope(1.0, mid)) == pytest.approx(expected, rel=1e-14)

    def test_threshold_for_slope_consistent(self):
        t, p = _concave_table(11)
        model = TabulatedPowerModel(t, p)
        target = model.log_power_slope(1.0, 0.45)
        found = model.threshold_for_log_slope(1.0, target)
        assert model.log_power_slope(1.0, max(found, 1e-12)) >= target - 1e-9

    def test_rejects_convex_table(self):
        t = np.linspace(0.0, 1.0, 11)
        with pytest.raises(ValueError, match="concave"):
            TabulatedPowerModel(t, t**2)

    def test_rejects_nonmonotone_or_bad_span(self):
        with pytest.raises(ValueError):
            TabulatedPowerModel([0.0, 0.5, 1.0], [0.0, 0.9, 0.8])
        with pytest.raises(ValueError):
            TabulatedPowerModel([0.1, 0.5, 1.0], [0.1, 0.7, 1.0])

    @pytest.mark.parametrize("t, power", [
        ([0.0, 0.1, np.nan, 0.5, 1.0], [0.0, 0.4, 0.6, 0.8, 1.0]),
        ([0.0, 0.1, 0.3, 0.5, 1.0], [0.0, 0.4, np.nan, 0.8, 1.0]),
        ([0.0, 0.1, 0.3, 0.5, 1.0], [0.0, 0.4, np.inf, 0.8, 1.0]),
    ])
    def test_rejects_nonfinite_knots(self, t, power):
        # a NaN knot used to load, and every slope then mapped to t = 0.1
        with pytest.raises(ValueError, match="finite"):
            TabulatedPowerModel(t, power)

    def test_csv_roundtrip(self, tmp_path):
        t, p = _concave_table(9)
        path = tmp_path / "curve.csv"
        path.write_text("t,power\n" + "\n".join(f"{a},{b}" for a, b in zip(t, p)) + "\n")
        model = TabulatedPowerModel.from_csv(path)
        assert model.power(1.0, 0.25) == pytest.approx(np.interp(0.25, t, p))

    def test_csv_requires_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n0,0\n1,1\n")
        with pytest.raises(ValueError, match="header"):
            TabulatedPowerModel.from_csv(path)

    def test_inverse_slope_matches_bisection(self):
        # random strictly concave tables: decreasing secants on random knots,
        # scaled so the curve ends at (1, 1)
        rng = np.random.default_rng(2024)
        for _ in range(200):
            n = int(rng.integers(3, 25))
            t = np.r_[0.0, np.sort(rng.uniform(0, 1, n - 2)), 1.0]
            if rng.random() < 0.5:
                t[1:-1] = np.sort(10.0 ** rng.uniform(-8, 0, n - 2))
            steep = np.sort(rng.exponential(1.0, n - 1))[::-1] ** rng.uniform(1, 4)
            p = np.r_[0.0, np.cumsum(steep * np.diff(t))]
            p /= p[-1]
            p[-1] = 1.0
            model = TabulatedPowerModel(t, p)
            secants = np.diff(p) / np.diff(t)
            # the slope on (t_i, t_{i+1}] is secant i, also at the knots
            np.testing.assert_array_equal(model.log_power_slope(1.0, t[1:-1]),
                                          np.log(secants[:-1]))
            knots, sec = t.tolist(), secants.tolist()

            def slope(x):
                return sec[min(max(bisect.bisect_left(knots, x) - 1, 0), n - 2)]

            slopes = np.r_[
                secants,
                2.0 * secants[0],
                0.5 * secants[-1],
                10.0 ** rng.uniform(np.log10(secants[-1]), np.log10(secants[0]), 8),
            ]
            oracle = np.array(
                [bisect_decreasing(slope, s) for s in slopes]
            )
            found = model.threshold_for_log_slope(1.0, np.log(slopes))
            np.testing.assert_allclose(found, oracle, rtol=0, atol=1e-12)
            t_split, tc, pi, pic = model.threshold_power_split(1.0, np.log(slopes))
            np.testing.assert_allclose(t_split, oracle, rtol=0, atol=1e-12)
            np.testing.assert_array_equal(t_split, found)
            np.testing.assert_array_equal(tc, 1.0 - found)
            np.testing.assert_array_equal(pi, model.power(1.0, found))
            np.testing.assert_array_equal(pic, 1.0 - pi)

    def test_tie_rule_and_clamp(self):
        # a slope equal to secant j maps to knot j + 1; slopes outside the
        # secant range clamp to the bisection bracket [1e-15, 1 - 1e-15]
        t, p = _concave_table(6)
        model = TabulatedPowerModel(t, p)
        secants = np.diff(p) / np.diff(t)
        np.testing.assert_array_equal(
            model.threshold_for_log_slope(1.0, np.log(secants[:-1])), t[1:-1]
        )
        assert model.threshold_for_log_slope(1.0, np.log(secants[-1])) == 1 - 1e-15
        assert model.threshold_for_log_slope(1.0, np.log(2 * secants[0])) == 1e-15
        assert model.threshold_for_log_slope(1.0, np.log(0.5 * secants[-1])) == 1 - 1e-15

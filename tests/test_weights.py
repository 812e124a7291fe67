"""Weight engine: golden worked-example values, solver properties, oracles."""

import numpy as np
import pytest

from wamdf.power import NormalLocationModel
from wamdf.weights import (
    NoSolutionError,
    PriorSpec,
    WeightProfile,
    asymptotically_optimal_weights,
    fdp_approximator,
    optimal_fixed_t_weights,
)

from oracles import per_hypothesis_thresholds

MODEL = NormalLocationModel()


def worked_prior():
    # ten tests, even split of effect sizes 2 and 3, all priors one half
    return PriorSpec(np.full(10, 0.5), np.r_[np.full(5, 2.0), np.full(5, 3.0)])


class TestPriorSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            PriorSpec([0.5, 1.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            PriorSpec([0.5, 0.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            PriorSpec([0.5], [0.0])
        with pytest.raises(ValueError):
            PriorSpec([0.5, 0.5], [1.0])

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="prior probabilities p"):
            PriorSpec([0.5, np.nan], [1.0, 1.0])
        with pytest.raises(ValueError, match="effect sizes gamma"):
            PriorSpec([0.5, 0.5], [1.0, np.nan])

    def test_csv_roundtrip(self, tmp_path):
        path = tmp_path / "prior.csv"
        path.write_text("p,gamma\n0.5,2.0\n0.3,1.5\n")
        prior = PriorSpec.from_csv(path)
        assert prior.M == 2
        assert prior.p_max == 0.5
        np.testing.assert_allclose(prior.gamma, [2.0, 1.5])

    def test_csv_bad_header(self, tmp_path):
        path = tmp_path / "prior.csv"
        path.write_text("prob,effect\n0.5,2.0\n")
        with pytest.raises(ValueError, match="header"):
            PriorSpec.from_csv(path)


class TestSolveThresholds:
    def test_homogeneous_equal(self):
        prior = PriorSpec(np.full(6, 0.4), np.full(6, 2.5))
        t = per_hypothesis_thresholds(prior, np.log(1.3), MODEL)
        assert np.ptp(t) == 0.0

    def test_worked_example_thresholds(self):
        # at k = 2.52 the two effect-size groups land on 0.0352 / 0.0207
        t = per_hypothesis_thresholds(worked_prior(), np.log(2.52), MODEL)
        np.testing.assert_allclose(t[:5], 0.035248575147992487, rtol=1e-12)
        np.testing.assert_allclose(t[5:], 0.020718259971459153, rtol=1e-10)
        assert np.mean(t) == pytest.approx(0.028, abs=5e-5)

    def test_large_k_vanishes(self):
        t = per_hypothesis_thresholds(worked_prior(), np.log(1e8), MODEL)
        assert np.all(t < 1e-6)

    @pytest.mark.parametrize("solve", [fdp_approximator])
    @pytest.mark.parametrize("k", [np.nan, np.inf, -1.0])
    def test_k_not_positive_finite_names_k(self, solve, k):
        with pytest.raises(ValueError, match="^multiplier k must be positive and finite"):
            solve(worked_prior(), k)


class TestOptimalFixedT:
    def test_homogeneous_gives_unit_weights(self):
        prior = PriorSpec(np.full(5, 0.3), np.full(5, 1.7))
        for t in (0.01, 0.05, 0.2):
            profile = optimal_fixed_t_weights(prior, t)
            np.testing.assert_allclose(profile.weights, 1.0, atol=1e-12)
            assert profile.t_bar == pytest.approx(t, abs=1e-10)

    def test_two_test_published_panel(self):
        # k* = 1.7, w = (1.18, 0.82) at mean threshold 0.05
        prior = PriorSpec([0.5, 0.5], [1.5, 2.5])
        profile = optimal_fixed_t_weights(prior, 0.05)
        assert profile.k_star == pytest.approx(1.7, abs=0.05)
        assert profile.weights[0] == pytest.approx(1.18, abs=0.01)
        assert profile.weights[1] == pytest.approx(0.82, abs=0.01)

    def test_two_test_small_threshold_vs_grid_search(self):
        # independent oracle: walk the constraint line t1 + t2 = 2t and
        # maximize the expected-correct-rejections objective directly
        prior = PriorSpec([0.5, 0.5], [1.5, 2.5])
        t = 0.01
        t1 = np.linspace(1e-6, 2 * t - 1e-6, 20001)
        t2 = 2 * t - t1
        objective = 0.5 * MODEL.power(1.5, t1) + 0.5 * MODEL.power(2.5, t2)
        best = np.argmax(objective)
        profile = optimal_fixed_t_weights(prior, t)
        assert profile.weights[0] == pytest.approx(t1[best] / t, abs=2e-3)
        assert profile.weights[1] == pytest.approx(t2[best] / t, abs=2e-3)
        # the solved allocation cannot fall below the best grid value
        solved = 0.5 * MODEL.power(1.5, profile.thresholds[0]) + 0.5 * MODEL.power(
            2.5, profile.thresholds[1]
        )
        assert solved >= objective[best] - 1e-12

    def test_residual_tolerance(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            m = rng.integers(1, 30)
            prior = PriorSpec(rng.uniform(0.05, 0.9, m), rng.uniform(0.5, 5.0, m))
            t = rng.uniform(0.002, 0.5)
            profile = optimal_fixed_t_weights(prior, t)
            assert abs(profile.t_bar - t) <= 1e-10
            assert abs(profile.weights.mean() - 1.0) <= 1e-10

    def test_brute_force_dominance(self):
        # the solved thresholds beat random feasible allocations with the
        # same mean, across small batteries and a parameter grid
        rng = np.random.default_rng(7)
        cases = []
        for m in (2, 3, 4):
            for p_lo in (0.2, 0.6):
                for g_hi in (2.0, 4.0):
                    cases.append(
                        PriorSpec(
                            np.linspace(p_lo, p_lo + 0.3, m),
                            np.linspace(1.0, g_hi, m),
                        )
                    )
        for prior in cases:
            t = 0.05
            profile = optimal_fixed_t_weights(prior, t)
            best = float(np.sum(prior.p * MODEL.power(prior.gamma, profile.thresholds)))
            m = prior.M
            draws = rng.uniform(0.05, 1.0, size=(10_000, m))
            draws *= (m * t) / draws.sum(axis=1, keepdims=True)
            draws = draws[(draws < 1.0).all(axis=1)]
            objective = (prior.p * MODEL.power(prior.gamma[None, :], draws)).sum(axis=1)
            assert best >= objective.max() - 1e-12

    def test_monotone_mean_threshold(self):
        prior = worked_prior()
        ks = np.logspace(-3, 3, 25)
        tbars = np.array([np.mean(per_hypothesis_thresholds(prior, np.log(k), MODEL))
                          for k in ks])
        assert np.all(np.diff(tbars) < 0)

    def test_weight_increases_in_prior(self):
        for p_m in np.linspace(0.2, 0.8, 7):
            base = PriorSpec([0.5, 0.5, p_m], [2.0, 3.0, 2.5])
            bumped = PriorSpec([0.5, 0.5, min(p_m + 0.1, 0.95)], [2.0, 3.0, 2.5])
            w_base = optimal_fixed_t_weights(base, 0.05).weights[2]
            w_bumped = optimal_fixed_t_weights(bumped, 0.05).weights[2]
            assert w_bumped > w_base


class TestFdpApproximator:
    def test_worked_example_level(self):
        assert fdp_approximator(worked_prior(), 2.52) == pytest.approx(0.05, abs=5e-4)

    def test_single_test_direct_arithmetic(self):
        # recompute the ratio from the power curve itself; the frozen value
        # is the 40-digit oracle result for this configuration
        prior = PriorSpec([0.5], [2.0])
        k = 2.52  # slope k/p = 5.04
        t = MODEL.threshold_for_log_slope(2.0, np.log(k / 0.5))
        g = 0.5 * t + 0.5 * MODEL.power(2.0, t)
        direct = (1 - g) / (1 - t) * (t / g)
        value = fdp_approximator(prior, k)
        assert value == pytest.approx(direct, rel=1e-12)
        assert value == pytest.approx(0.08303910873, rel=1e-9)

    def test_small_k_limit_bound(self):
        prior = PriorSpec([0.3, 0.6], [1.0, 2.0])
        assert fdp_approximator(prior, 1e-10) >= 1.0 - 0.6 - 1e-9

    def test_huge_k_degenerates_to_zero(self):
        prior = PriorSpec([0.5], [0.05])
        assert fdp_approximator(prior, 1e300) == 0.0


class TestAsymptoticallyOptimal:
    def test_worked_example_profile(self):
        profile = asymptotically_optimal_weights(worked_prior(), 0.05)
        assert profile.k_star == pytest.approx(2.52, abs=0.01)
        assert profile.t_bar == pytest.approx(0.028, abs=5e-4)
        np.testing.assert_allclose(profile.weights[:5], 1.26, atol=5e-3)
        np.testing.assert_allclose(profile.weights[5:], 0.74, atol=5e-3)
        assert profile.u == pytest.approx(1 / 1.26, abs=5e-3)
        assert not profile.warning
        assert abs(profile.weights.mean() - 1.0) <= 1e-10

    def test_homogeneous_matches_scalar_bisection(self):
        # unit weights, and the mean threshold solves the scalar equation
        prior = PriorSpec(np.full(8, 0.5), np.full(8, 2.0))
        profile = asymptotically_optimal_weights(prior, 0.05)
        np.testing.assert_allclose(profile.weights, 1.0, atol=1e-12)

        def scalar_fdp(t):
            g = 0.5 * t + 0.5 * MODEL.power(2.0, t)
            return (1 - g) / (1 - t) * (t / g)

        lo, hi = 1e-12, 0.999
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if scalar_fdp(mid) < 0.05:
                lo = mid
            else:
                hi = mid
        assert profile.t_bar == pytest.approx(0.5 * (lo + hi), abs=1e-9)

    def test_no_solution(self):
        with pytest.raises(NoSolutionError):
            asymptotically_optimal_weights(PriorSpec([0.96], [2.0]), 0.05)

    def test_out_of_regime_crossing_warns(self, recwarn):
        # one prior above 1 - alpha, but strong effects keep a crossing; the
        # warning is on the profile alone
        prior = PriorSpec([0.97, 0.4, 0.4, 0.4], [2.0, 2.0, 3.0, 2.5])
        profile = asymptotically_optimal_weights(prior, 0.05)
        assert profile.warning == ("alpha=0.05 exceeds 1 - max(p) = 0.03; a crossing was found "
                                   "but existence is not guaranteed in this regime",)
        assert not recwarn.list
        assert fdp_approximator(prior, profile.k_star) == pytest.approx(0.05, abs=5e-4)

    @pytest.mark.parametrize("alpha", [1e-300, 1e-308, 5e-324])
    def test_tiny_alpha_names_the_underflow(self, alpha):
        # 2/alpha overflows below alpha = 1.1e-308; the bracket's top was then
        # inf, and the error blamed the effect sizes
        with pytest.raises(NoSolutionError, match="^every threshold underflowed"):
            asymptotically_optimal_weights(PriorSpec([0.5, 0.5], [2.0, 3.0]), alpha)

    @pytest.mark.parametrize("alpha", [1e-308, np.float64(1e-310)], ids=["float", "float64"])
    def test_tiny_alpha_solves_strong_effects(self, alpha):
        prior = PriorSpec([0.5, 0.5], [40.0, 45.0])
        profile = asymptotically_optimal_weights(prior, alpha)
        assert profile.t_bar == pytest.approx(0.99 * alpha, rel=0.01)
        assert fdp_approximator(prior, profile.k_star) == pytest.approx(alpha, rel=1e-12)

    def test_residual_on_random_priors(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            m = int(rng.integers(2, 40))
            prior = PriorSpec(rng.uniform(0.05, 0.94, m), rng.uniform(0.8, 5.0, m))
            profile = asymptotically_optimal_weights(prior, 0.05)
            assert not profile.warning
            assert fdp_approximator(prior, profile.k_star) == pytest.approx(0.05, abs=5e-4)
            assert abs(profile.weights.mean() - 1.0) <= 1e-10
            assert profile.u * profile.weights.max() <= 1.0 + 1e-12


class TestWeightUnderflow:
    # the third threshold underflows to 0 in ndtr; its weight was written as 0.0
    PRIOR = PriorSpec([0.5, 0.5, 1e-6, 0.4], [2.0, 3.0, 90.0, 1.0])

    def test_underflowed_weight_clamped_with_warning(self, recwarn):
        profile = asymptotically_optimal_weights(self.PRIOR, 0.05)
        tiny = np.finfo(float).tiny
        assert profile.warning == (f"weights below the smallest normal float {tiny:g} "
                                   "(thresholds that underflowed) were raised to it",)
        assert not recwarn.list
        assert profile.weights[2] == tiny
        assert np.all(profile.weights >= tiny)
        # the other weights are those of the unclamped profile
        thresholds = per_hypothesis_thresholds(self.PRIOR, np.log(profile.k_star), MODEL)
        untouched = [0, 1, 3]
        np.testing.assert_array_equal(profile.weights[untouched],
                                      (thresholds / np.mean(thresholds))[untouched])
        assert WeightProfile.from_dict(profile.to_dict()).weights[2] == tiny

    def test_no_clamp_no_warning(self, recwarn):
        profile = asymptotically_optimal_weights(worked_prior(), 0.05)
        assert not profile.warning and not recwarn.list


class TestTabulatedModelSolves:
    def test_fixed_t_on_table(self):
        from wamdf.power import TabulatedPowerModel

        knots = np.linspace(0.0, 1.0, 41)
        model = TabulatedPowerModel(knots, np.sqrt(knots))
        prior = PriorSpec([0.3, 0.6, 0.5], [1.0, 2.0, 1.5])
        profile = optimal_fixed_t_weights(prior, 0.05, model)
        assert profile.t_bar == pytest.approx(0.05, abs=1e-10)
        # the table ignores gamma, so weights order by prior mass
        assert profile.weights[1] > profile.weights[2] > profile.weights[0]

    def test_pre_data_weights_on_fine_table(self):
        from wamdf.power import TabulatedPowerModel

        # knots packed toward 0 keep the first secant steep enough for the
        # plug-in FDP to reach small levels
        knots = np.r_[0.0, np.logspace(-8, 0, 33)]
        model = TabulatedPowerModel(knots, np.sqrt(knots))
        prior = PriorSpec([0.3, 0.6, 0.5], [1.0, 2.0, 1.5])
        profile = asymptotically_optimal_weights(prior, 0.05, model)
        # the stepwise slope makes the solve land next to a jump, not on an
        # exact root; the residual stays within the documented tolerance
        assert fdp_approximator(prior, profile.k_star, model) == pytest.approx(
            0.05, abs=5e-4
        )

    def test_coarse_table_floor_is_no_solution(self):
        from wamdf.power import TabulatedPowerModel

        # even-grid table: linear interpolation caps the first-segment slope
        # near sqrt(40), so the plug-in FDP never drops to 0.05
        knots = np.linspace(0.0, 1.0, 41)
        model = TabulatedPowerModel(knots, np.sqrt(knots))
        prior = PriorSpec([0.3, 0.6, 0.5], [1.0, 2.0, 1.5])
        with pytest.raises(NoSolutionError):
            asymptotically_optimal_weights(prior, 0.05, model)


def kernels_only(model):
    """``model`` with its checked queries replaced by ones that raise."""
    class KernelsOnly(type(model)):
        def refuse(self, *args):
            raise AssertionError("the solver called a checked power query")

        power = log_power_slope = threshold_for_log_slope = refuse

    clone = KernelsOnly.__new__(KernelsOnly)
    clone.__dict__.update(vars(model))
    return clone


class TestSolverCallsKernelsOnly:
    # the solver, its bracket included, calls the unchecked kernels alone:
    # with every checked query raising, each solve is bitwise the same
    rng = np.random.default_rng(26)
    PRIORS = [worked_prior(),
              PriorSpec(rng.uniform(0.02, 0.4, 200), rng.uniform(1.0, 4.0, 200)),
              PriorSpec(rng.choice([0.1, 0.3], 60), rng.choice([1.5, 2.5, 3.5], 60))]

    @pytest.mark.parametrize("table", [False, True], ids=["normal", "tabulated"])
    @pytest.mark.parametrize("solve", [asymptotically_optimal_weights, optimal_fixed_t_weights])
    @pytest.mark.parametrize("prior", PRIORS, ids=["worked", "random", "tied"])
    def test_profiles_match_the_plain_model(self, table, solve, prior):
        from wamdf.power import TabulatedPowerModel

        knots = np.r_[0.0, np.logspace(-8, 0, 33)]
        model = TabulatedPowerModel(knots, np.sqrt(knots)) if table else MODEL
        want = solve(prior, 0.05, model)
        got = solve(prior, 0.05, kernels_only(model))
        assert (got.k_star, got.t_bar, got.u, got.warning) == (
            want.k_star, want.t_bar, want.u, want.warning)
        assert got.weights.tobytes() == want.weights.tobytes()


class TestWeightProfileSerialization:
    def test_json_roundtrip(self, tmp_path):
        import json

        profile = asymptotically_optimal_weights(worked_prior(), 0.05)
        path = tmp_path / "weights.json"
        path.write_text(json.dumps(profile.to_dict()))
        with open(path) as fh:
            loaded = WeightProfile.from_dict(json.load(fh))
        np.testing.assert_array_equal(loaded.weights, profile.weights)
        assert loaded.k_star == profile.k_star
        assert loaded.t_bar == profile.t_bar
        assert loaded.u == profile.u
        assert loaded.warning == profile.warning

    @pytest.mark.parametrize("prior, warning", [
        (worked_prior(), False),
        (PriorSpec([0.97, 0.4, 0.4, 0.4], [2.0, 2.0, 3.0, 2.5]), True),   # out of regime
    ])
    def test_numpy_alpha_writes_a_json_bool(self, prior, warning):
        import json

        profile = asymptotically_optimal_weights(prior, np.float64(0.05))
        d = json.loads(json.dumps(profile.to_dict()))
        assert d["warning"] is warning
        # the file keeps the flag; a true one reads back as one fixed message
        assert WeightProfile.from_dict(d).warning == (
            ("the weight profile was written with a warning",) if warning else ())


class TestLogKStar:
    # k* of this prior lies below the float range, so k_star reads 0.0
    STRONG = PriorSpec([0.5, 0.3, 0.2], [60.0, 45.0, 50.0])

    def test_roundtrip_with_and_without_the_key(self):
        import json

        profile = asymptotically_optimal_weights(worked_prior(), 0.05)
        d = json.loads(json.dumps(profile.to_dict()))
        assert d["log_k_star"] == profile.log_k_star and np.exp(d["log_k_star"]) == profile.k_star
        assert WeightProfile.from_dict(d).log_k_star == profile.log_k_star
        # a file written before the key existed still loads, without it
        del d["log_k_star"]
        old = WeightProfile.from_dict(d)
        assert old.log_k_star is None
        assert (old.k_star, old.t_bar, old.u) == (profile.k_star, profile.t_bar, profile.u)
        np.testing.assert_array_equal(old.weights, profile.weights)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_rejected(self, value):
        d = asymptotically_optimal_weights(worked_prior(), 0.05).to_dict()
        with pytest.raises(ValueError, match="^log_k_star must be finite"):
            WeightProfile.from_dict(dict(d, log_k_star=value))

    @pytest.mark.parametrize("solve", [asymptotically_optimal_weights, optimal_fixed_t_weights],
                             ids=["alpha", "t"])
    def test_below_the_float_range_reproduces_the_weights(self, solve):
        import json

        profile = solve(self.STRONG, 0.05)
        loaded = WeightProfile.from_dict(json.loads(json.dumps(profile.to_dict())))
        assert loaded.k_star == 0.0 and loaded.log_k_star < -700
        thresholds = per_hypothesis_thresholds(self.STRONG, loaded.log_k_star, MODEL)
        assert float(np.mean(thresholds)) == loaded.t_bar
        np.testing.assert_array_equal(thresholds / loaded.t_bar, loaded.weights)

"""Step-up procedures: worked-example battery, BH oracle, sup-threshold oracle."""

import json

import numpy as np
import pytest

from wamdf.procedures import (
    alpha_star,
    estimate_m0,
    fdr_upper_bound,
    run_procedure,
    step_up_threshold,
    weighted_pvalues,
)

from oracles import adaptive_fdp_estimate

# weighted p-values shaped like the ten-test worked example: three below
# the census level 0.028, the rest spread upward
WORKED_Q = np.array([0.001, 0.005, 0.006, 0.062, 0.106, 0.2, 0.3, 0.45, 0.6, 0.844])


def bh_oracle(pvalues, alpha):
    """Textbook step-up: largest j with p_(j) <= alpha * j / M."""
    p = np.sort(np.asarray(pvalues, dtype=float))
    m = p.size
    passing = np.flatnonzero(p <= alpha * np.arange(1, m + 1) / m)
    if passing.size == 0:
        return np.zeros(m, dtype=bool)
    cut = p[passing[-1]]
    return np.asarray(pvalues) <= cut


def sup_threshold_oracle(q, m0_hat, alpha, u):
    """Exhaustive candidate scan for the largest admissible threshold."""
    q = np.asarray(q, dtype=float)
    candidates = np.unique(np.r_[0.0, q[q <= u], u])
    best = 0.0
    for t in candidates:
        if adaptive_fdp_estimate(t, q, m0_hat) <= alpha:
            best = max(best, t)
    return q <= best


class TestWeightedPvalues:
    def test_unit_weight_identity(self):
        assert weighted_pvalues([0.5], [1.0])[0] == 0.5

    def test_division(self):
        assert weighted_pvalues([0.001], [0.74])[0] == pytest.approx(0.001 / 0.74, rel=1e-15)

    def test_zero_numerator(self):
        assert weighted_pvalues([0.0], [0.3])[0] == 0.0

    def test_can_exceed_one(self):
        assert weighted_pvalues([0.9], [0.5])[0] == pytest.approx(1.8)

    def test_errors(self):
        with pytest.raises(ValueError):
            weighted_pvalues([0.5], [0.0])
        with pytest.raises(ValueError):
            weighted_pvalues([1.5], [1.0])
        with pytest.raises(ValueError):
            weighted_pvalues([0.5, 0.5], [1.0])

    def test_rejects_nan_and_inf(self):
        with pytest.raises(ValueError, match="p-values"):
            weighted_pvalues([0.5, np.nan], [1.0, 1.0])
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="weights"):
                weighted_pvalues([0.5, 0.5], [1.0, bad])

    def test_battery_invariant(self):
        rng = np.random.default_rng(0)
        p = rng.uniform(0, 1, 50)
        w = rng.uniform(0.2, 3.0, 50)
        q = weighted_pvalues(p, w)
        np.testing.assert_allclose(q * w, p, atol=1e-12)


class TestEstimateM0:
    def test_worked_example(self):
        assert estimate_m0(WORKED_Q, 0.028) == pytest.approx(8.23045267489712, rel=1e-12)

    def test_none_below(self):
        assert estimate_m0(np.full(10, 0.9), 0.5) == pytest.approx(22.0)

    def test_all_below(self):
        assert estimate_m0(np.full(10, 0.1), 0.5) == pytest.approx(2.0)

    def test_lambda_domain(self):
        with pytest.raises(ValueError):
            estimate_m0(WORKED_Q, 0.0)


class TestAdaptiveFdpEstimate:
    def test_zero_threshold(self):
        assert adaptive_fdp_estimate(0.0, WORKED_Q, 8.23) == 0.0

    def test_worked_arithmetic(self):
        value = adaptive_fdp_estimate(0.013, WORKED_Q, 8.23)
        assert value == pytest.approx(8.23 * 0.013 / 3, rel=1e-12)
        assert value <= 0.05

    def test_denominator_clamp(self):
        assert adaptive_fdp_estimate(0.1, np.full(3, 0.9), 11.0) == pytest.approx(1.1)

    @pytest.mark.parametrize("m0_hat", [np.nan, 0.0, -2.0, np.inf])
    def test_rejects_m0_hat_not_positive_finite(self, m0_hat):
        with pytest.raises(ValueError, match="^m0_hat must"):
            adaptive_fdp_estimate(0.1, WORKED_Q, m0_hat)


class TestStepUpThreshold:
    @pytest.mark.parametrize("m0_hat, alpha, u, named", [
        (0.0, 0.05, 1.0, "m0_hat"),
        (np.nan, 0.05, 1.0, "m0_hat"),
        (-3.0, 0.05, 1.0, "m0_hat"),
        (np.inf, 0.05, 1.0, "m0_hat"),
        (5.0, np.nan, 1.0, "alpha"),
        (5.0, 0.0, 1.0, "alpha"),
        (5.0, 1.0, 1.0, "alpha"),
        (5.0, 0.05, np.nan, "u"),
        (5.0, 0.05, 0.0, "u"),
        (5.0, 0.05, np.inf, "u"),
    ])
    def test_rejects_out_of_domain_arguments(self, m0_hat, alpha, u, named):
        with pytest.raises(ValueError, match=f"^{named} must"):
            step_up_threshold(WORKED_Q, m0_hat, alpha, u)

    def test_nothing_passes(self):
        q = np.ones(5)
        t_hat = step_up_threshold(q, 5.0, 0.05, 0.5)
        rejected = np.flatnonzero(q <= t_hat)
        assert t_hat == 0.0 and rejected.size == 0

    def test_worked_example(self):
        m0 = estimate_m0(WORKED_Q, 0.028)
        t_hat = step_up_threshold(WORKED_Q, m0, 0.05, 0.79)
        rejected = np.flatnonzero(WORKED_Q <= t_hat)
        # j = 3; the selected threshold is 3 * alpha / m0_hat
        assert t_hat == pytest.approx(3 * 0.05 / m0, rel=1e-12)
        assert t_hat == pytest.approx(0.018225, abs=1e-6)
        np.testing.assert_array_equal(np.sort(rejected), [0, 1, 2])

    def test_matches_sup_oracle_random(self):
        rng = np.random.default_rng(123)
        for _ in range(300):
            m = int(rng.integers(1, 51))
            p = rng.uniform(0, 1, m) ** rng.uniform(0.5, 2.0)
            w = rng.uniform(0.2, 2.5, m)
            w /= w.mean()
            q = p / w
            lam = rng.uniform(0.05, 0.6)
            u = min(1.0 / w.max(), rng.uniform(lam, 1.0))
            m0 = estimate_m0(q, lam)
            alpha = rng.uniform(0.01, 0.3)
            t_hat = step_up_threshold(q, m0, alpha, u)
            rejected = np.flatnonzero(q <= t_hat)
            oracle = sup_threshold_oracle(q, m0, alpha, u)
            np.testing.assert_array_equal(
                np.flatnonzero(oracle), np.sort(rejected)
            )

    def test_threshold_capped_at_u(self):
        q = np.array([0.01, 0.02, 0.9])
        t_hat = step_up_threshold(q, 1.0, 0.9, 0.5)
        rejected = np.flatnonzero(q <= t_hat)
        assert t_hat == 0.5
        assert rejected.size == 2

    def test_cap_below_step_up_point_is_not_feasible(self):
        # the uncapped step-up passes at m = 4 (1/3 <= 0.5 * 4 / m0_hat), but
        # at t = u = 0.25 only one test is rejected and the estimated FDP is
        # m0_hat * 0.25 = 1.43 > alpha, so no t in [0, u] is admissible
        q = np.array([0.25, 1 / 3, 1 / 3, 1 / 3])
        m0 = estimate_m0(q, 0.125)
        assert adaptive_fdp_estimate(0.25, q, m0) > 0.5
        assert step_up_threshold(q, m0, 0.5, 0.25) == 0.0
        assert not sup_threshold_oracle(q, m0, 0.5, 0.25).any()


class TestRunProcedure:
    def test_uu_is_textbook_bh(self):
        p = np.array([0.01, 0.02, 0.5, 0.9])
        report = run_procedure("UU", p, alpha=0.2)
        assert report.n_rejected == 2
        np.testing.assert_array_equal(report.rejected, [True, True, False, False])

    def test_uu_matches_bh_oracle_random(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            m = int(rng.integers(1, 80))
            p = rng.uniform(0, 1, m) ** rng.uniform(0.5, 3.0)
            alpha = rng.uniform(0.01, 0.4)
            report = run_procedure("UU", p, alpha=alpha)
            np.testing.assert_array_equal(report.rejected, bh_oracle(p, alpha))

    def test_wa_worked_example(self):
        # the battery that produces the worked weighted p-values
        w = np.array([0.74, 1.26, 0.74, 1.26, 1.26, 0.74, 1.26, 0.74, 1.26, 0.74])
        p = WORKED_Q * w
        report = run_procedure("WA", p, weights=w, alpha=0.05, lam=0.028, u=0.79)
        assert report.n_rejected == 3
        assert report.m0_hat == pytest.approx(8.23045267489712, rel=1e-12)
        assert report.t_hat == pytest.approx(0.018225, abs=1e-6)
        np.testing.assert_array_equal(report.rejected_indices, [0, 1, 2])

    def test_all_ones_reject_nothing(self):
        p = np.ones(6)
        for variant in ("UU", "WU", "UA", "WA"):
            report = run_procedure(
                variant, p, weights=np.full(6, 1.0), alpha=0.05, lam=0.3
            )
            assert report.n_rejected == 0

    def test_unweighted_variants_force_unit_weights(self):
        p = np.array([0.01, 0.5])
        report = run_procedure("UA", p, weights=np.array([5.0, 5.0]), alpha=0.05, lam=0.3)
        np.testing.assert_array_equal(report.weights, [1.0, 1.0])

    def test_errors(self):
        with pytest.raises(ValueError, match="variant"):
            run_procedure("XX", np.array([0.5]))
        with pytest.raises(ValueError, match="lambda"):
            run_procedure("UA", np.array([0.5]))
        with pytest.raises(ValueError, match="weights"):
            run_procedure("WA", np.array([0.5]), lam=0.3)
        with pytest.raises(ValueError, match="length"):
            run_procedure("WA", np.array([0.5, 0.5]), weights=np.array([1.0]), lam=0.3)
        with pytest.raises(ValueError):
            run_procedure("UU", np.array([]))

    def test_rejects_nan_and_inf(self):
        # a NaN p-value would count in M but never be rejected; a NaN weight
        # would give u = nan; an infinite one a misleading lambda error
        with pytest.raises(ValueError, match="p-values"):
            run_procedure("UU", np.array([0.01, np.nan]))
        with pytest.raises(ValueError, match="weights"):
            run_procedure("WU", np.array([0.01, 0.5]), weights=np.array([1.0, np.nan]))
        with pytest.raises(ValueError, match="weights"):
            run_procedure("WA", np.array([0.01, 0.5]), weights=np.array([1.0, np.inf]),
                          lam=0.1)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(finite_fdr=True), "finite-FDR mode requires lambda"),
        (dict(u=0.8), "u * max(weights) must not exceed 1"),
    ], ids=["finite-fdr-without-lambda", "u-above-1-over-max-weight"])
    def test_rejects_a_cap_it_cannot_set(self, kwargs, message):
        with pytest.raises(ValueError) as info:
            run_procedure("WU", np.array([0.1, 0.2]), weights=np.array([2.0, 0.5]), **kwargs)
        assert str(info.value) == message

    def test_lambda_above_u_checked_only_for_adaptive_variants(self):
        # an unadaptive variant never uses lambda; it used to fail for
        # lambda > u all the same
        p = np.array([0.001, 0.01, 0.2, 0.6])
        w = np.array([4.0, 0.5, 0.5, 0.5])  # u = 1/max(w) = 0.25
        for variant in ("UU", "WU"):
            report = run_procedure(variant, p, weights=w, lam=0.5)
            np.testing.assert_array_equal(report.rejected,
                                          run_procedure(variant, p, weights=w).rejected)
        for variant, u in (("UA", 0.25), ("WA", None)):
            with pytest.raises(ValueError, match="^lambda must not exceed u$"):
                run_procedure(variant, p, weights=w, lam=0.5, u=u)

    @pytest.mark.parametrize("alpha", [np.nan, 0.0, 1.0, 5.0, -0.1])
    def test_rejects_alpha_outside_unit_interval(self, alpha):
        # alpha = nan used to reject nothing and alpha = 5 everything
        with pytest.raises(ValueError, match="alpha"):
            run_procedure("UU", np.array([0.01, 0.5]), alpha=alpha)

    @pytest.mark.parametrize("u", [np.nan, 0.0, -0.5, np.inf])
    def test_rejects_u_not_positive_finite(self, u):
        # u = nan used to pass the u * max(w) <= 1 check and then cap nothing
        with pytest.raises(ValueError, match="u must"):
            run_procedure("UA", np.array([0.01, 0.5]), lam=0.1, u=u)

    def test_adding_weight_keeps_rejection(self):
        # raising one weight (others fixed, same m0_hat and u) never drops
        # that hypothesis from the rejection set
        rng = np.random.default_rng(17)
        for _ in range(100):
            m = int(rng.integers(3, 30))
            p = rng.uniform(0, 1, m) ** 2
            w = rng.uniform(0.3, 2.0, m)
            u = 1.0 / (w.max() * 1.5)
            m0 = float(m)
            q = p / w
            rejected = np.flatnonzero(q <= step_up_threshold(q, m0, 0.1, u))
            if rejected.size == 0:
                continue
            target = rejected[0]
            w2 = w.copy()
            w2[target] *= 1.3
            q2 = p / w2
            rejected2 = np.flatnonzero(q2 <= step_up_threshold(q2, m0, 0.1, u))
            assert target in rejected2

    def test_adaptive_contains_unadaptive_when_m0_small(self):
        rng = np.random.default_rng(23)
        checked = 0
        for _ in range(200):
            m = int(rng.integers(4, 60))
            p = rng.uniform(0, 1, m) ** 3
            w = rng.uniform(0.4, 2.0, m)
            w /= w.mean()
            lam = 0.4
            u = 1.0 / w.max()
            if lam > u:
                continue
            adaptive = run_procedure("WA", p, weights=w, alpha=0.05, lam=lam, u=u)
            unadaptive = run_procedure("WU", p, weights=w, alpha=0.05, u=u)
            if adaptive.m0_hat <= m:
                checked += 1
                assert set(unadaptive.rejected_indices) <= set(adaptive.rejected_indices)
        assert checked > 50

    def test_t_hat_zero_iff_empty(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            m = int(rng.integers(1, 40))
            p = rng.uniform(0, 1, m)
            report = run_procedure("UA", p, alpha=0.02, lam=0.5)
            if report.t_hat == 0.0:
                assert report.n_rejected == 0
            else:
                assert report.n_rejected >= 1

    def test_finite_fdr_mode(self):
        p = np.array([0.001, 0.2, 0.8, 0.9])
        w = np.array([1.5, 0.9, 0.8, 0.8])
        report = run_procedure("WA", p, weights=w, alpha=0.05, lam=0.2, finite_fdr=True)
        assert report.u == 0.2
        # the selection ran at the shrunken level
        assert report.t_hat <= alpha_star(0.05, 0.2, 1.5) * 4 / report.m0_hat + 1e-12


class TestAlphaStar:
    def test_unit_weight_collapse(self):
        assert alpha_star(0.05, 0.3, 1.0) == pytest.approx(0.05)

    def test_frozen_value(self):
        assert alpha_star(0.05, 0.028, 1.26) == pytest.approx(0.03938532889150173, rel=1e-12)

    def test_vanishes_at_boundary(self):
        assert alpha_star(0.05, 0.2, 4.999999) == pytest.approx(0.0, abs=1e-5)

    def test_domain(self):
        with pytest.raises(ValueError):
            alpha_star(0.05, 0.5, 2.0)

    @pytest.mark.parametrize("alpha, w_max", [
        (float("nan"), 1.5), (0.0, 1.5), (1.0, 1.5), (-0.1, 1.5), (float("inf"), 1.5),
        (0.05, float("nan")), (0.05, float("inf")), (0.05, 0.0), (0.05, -1.0),
    ])
    def test_rejects_bad_alpha_and_w_max(self, alpha, w_max):
        with pytest.raises(ValueError, match="alpha|w_max"):
            alpha_star(alpha, 0.2, w_max)

    @pytest.mark.parametrize("lam", [0.0, 1.0, -0.2, float("nan")])
    def test_rejects_lambda_outside_unit_interval(self, lam):
        with pytest.raises(ValueError, match=r"^lambda must lie in \(0, 1\)$"):
            alpha_star(0.05, lam, 1.5)


class TestFdrUpperBound:
    def test_unit_weights_recover_classic(self):
        assert fdr_upper_bound(0.05, 0.3, 1.0, 7) == pytest.approx(0.05 * (1 - 0.3**7), rel=1e-12)

    def test_geometric_term_limit(self):
        full = fdr_upper_bound(0.05, 0.1, 0.9, 10**6)
        assert full == pytest.approx(0.05 * 0.9 * 0.9 / (1 - 0.09), rel=1e-12)

    def test_frozen_value(self):
        assert fdr_upper_bound(0.05, 0.1, 0.9, 5) == pytest.approx(0.0445052317, rel=1e-8)

    def test_domain(self):
        with pytest.raises(ValueError):
            fdr_upper_bound(0.05, 0.6, 2.0, 5)
        with pytest.raises(ValueError):
            fdr_upper_bound(0.05, 0.3, 1.0, 0)

    @pytest.mark.parametrize("alpha, w0_bar", [
        (float("nan"), 0.9), (0.0, 0.9), (1.0, 0.9), (float("inf"), 0.9),
        (0.05, float("nan")), (0.05, float("inf")), (0.05, 0.0), (0.05, -1.0),
    ])
    def test_rejects_bad_alpha_and_w0_bar(self, alpha, w0_bar):
        with pytest.raises(ValueError, match="alpha|w0_bar"):
            fdr_upper_bound(alpha, 0.2, w0_bar, 5)

    @pytest.mark.parametrize("m0", [float("nan"), float("inf"), 2.5, 0, -3, np.float64(np.inf)])
    def test_rejects_m0_not_an_integer_of_at_least_1(self, m0):
        # nan used to return nan, and 2.5 was accepted
        with pytest.raises(ValueError, match="^m0 must be an integer of at least 1$"):
            fdr_upper_bound(0.05, 0.5, 1.0, m0)

    @pytest.mark.parametrize("lam", [0.0, 1.0, -0.2, float("nan")])
    def test_rejects_lambda_outside_unit_interval(self, lam):
        with pytest.raises(ValueError, match=r"^lambda must lie in \(0, 1\)$"):
            fdr_upper_bound(0.05, lam, 0.9, 5)

    def test_integral_float_m0(self):
        assert fdr_upper_bound(0.05, 0.3, 1.0, 7.0) == fdr_upper_bound(0.05, 0.3, 1.0, 7)


class TestReportSerialization:
    def test_json(self, tmp_path):
        p = np.array([0.01, 0.2, 0.9])
        report = run_procedure("UA", p, alpha=0.2, lam=0.5)
        jpath = tmp_path / "report.json"
        jpath.write_text(json.dumps(report.to_dict()))
        with open(jpath) as fh:
            d = json.load(fh)
        assert d["variant"] == "UA"
        assert d["R"] == report.n_rejected
        assert d["rejected_indices"] == report.rejected_indices.tolist()

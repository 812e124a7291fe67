"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Run with ``pytest tests/test_acceptance.py -v -s``.

The Monte Carlo table reproductions (criteria 4 and 5) dominate the
runtime; the whole suite targets well under ten minutes on two cores.
"""

import time
import warnings

import numpy as np
import pytest
from scipy.special import ndtr

import wamdf
from wamdf import (
    PriorSpec,
    alpha_star,
    analyze,
    asymptotically_optimal_weights,
    estimate_m0,
    evaluate,
    fdp_approximator,
    fdr_upper_bound,
    generate_du,
    generate_synthetic_counts,
    optimal_fixed_t_weights,
    run_procedure,
    run_simulation,
    simulation_preset,
    step_up_threshold,
    substream,
)
from wamdf.power import NormalLocationModel
from wamdf.counts import score_statistic
from wamdf.procedures import adaptive_fdp_estimate

from oracles import bisect_decreasing

MODEL = NormalLocationModel()
X5 = np.array([0.86, 1.34, 1.81, 2.37, 3.00])
THREADS = 2

_passed = []


def _report(criterion, detail):
    line = f"[criterion {criterion}] PASS  {detail}"
    _passed.append(line)
    print("\n" + line)


def worked_prior():
    return PriorSpec(np.full(10, 0.5), np.r_[np.full(5, 2.0), np.full(5, 3.0)])


def test_criterion_1_worked_example_golden_values():
    t0 = time.time()
    profile = asymptotically_optimal_weights(worked_prior(), 0.05)
    elapsed = time.time() - t0
    assert profile.k_star == pytest.approx(2.52, abs=0.01)
    assert profile.t_bar == pytest.approx(0.028, abs=5e-4)
    np.testing.assert_allclose(profile.weights[:5], 1.26, atol=5e-3)
    np.testing.assert_allclose(profile.weights[5:], 0.74, atol=5e-3)
    assert profile.u == pytest.approx(0.79, abs=5e-3)
    assert elapsed < 1.0
    _report(1, f"golden values: k*={profile.k_star:.4f} lambda={profile.t_bar:.5f} "
               f"w=({profile.weights[0]:.4f},{profile.weights[-1]:.4f}) "
               f"u={profile.u:.4f} ({elapsed:.2f} s)")


def test_criterion_2_fdp_residual():
    t0 = time.time()
    profile = asymptotically_optimal_weights(worked_prior(), 0.05)
    residuals = [abs(fdp_approximator(worked_prior(), profile.k_star) - 0.05)]
    rng = np.random.default_rng(2025)
    for _ in range(100):
        m = int(rng.integers(1, 40))
        prior = PriorSpec(rng.uniform(0.02, 0.95, m), rng.uniform(0.5, 5.0, m))
        prof = asymptotically_optimal_weights(prior, 0.05)
        assert not prof.warning
        residuals.append(abs(fdp_approximator(prior, prof.k_star) - 0.05))
    elapsed = time.time() - t0
    assert max(residuals) <= 5e-4
    assert elapsed < 5.0
    _report(2, f"FDP residual at k*: max |resid| = {max(residuals):.2e} over 101 "
               f"priors ({elapsed:.2f} s)")


def test_criterion_3_two_test_panels():
    prior = PriorSpec([0.5, 0.5], [1.5, 2.5])
    profile = optimal_fixed_t_weights(prior, 0.05)
    assert profile.k_star == pytest.approx(1.7, abs=0.05)
    assert profile.weights[0] == pytest.approx(1.18, abs=0.01)
    assert profile.weights[1] == pytest.approx(0.82, abs=0.01)

    # the small-threshold panel is checked only against an independent
    # grid-search oracle (its published values are internally inconsistent)
    t = 0.01
    t1 = np.linspace(1e-6, 2 * t - 1e-6, 40001)
    objective = 0.5 * MODEL.power(1.5, t1) + 0.5 * MODEL.power(2.5, 2 * t - t1)
    best = t1[np.argmax(objective)]
    small = optimal_fixed_t_weights(prior, t)
    assert small.weights[0] == pytest.approx(best / t, abs=1e-3)
    assert small.weights[1] == pytest.approx((2 * t - best) / t, abs=1e-3)
    _report(3, f"two-test panels: k*(0.05)={profile.k_star:.4f} "
               f"w=({profile.weights[0]:.4f},{profile.weights[1]:.4f}); "
               f"w(0.01)=({small.weights[0]:.4f},{small.weights[1]:.4f}) "
               f"matches grid-search oracle")


def test_criterion_4_simulation_1_table():
    t0 = time.time()
    config = simulation_preset(1, a=5, M=1000, n_reps=1000, seed=1, alpha=0.05)
    summary = run_simulation(config, threads=THREADS)
    elapsed = time.time() - t0
    cdp = {v: summary.mean(v, "cdp") for v in config.variants}
    wa_fdp = summary.mean("WA", "fdp")
    assert cdp["WA"] == pytest.approx(0.793, abs=0.02)
    assert wa_fdp == pytest.approx(0.039, abs=0.01)
    assert cdp["UA"] == pytest.approx(0.761, abs=0.02)
    assert cdp["UU"] == pytest.approx(0.709, abs=0.02)
    assert cdp["WA"] >= cdp["UA"] >= cdp["UU"]
    assert elapsed < 600
    _report(4, f"study 1 (a=5, M=1000, K=1000): WA {cdp['WA']:.3f}({wa_fdp:.3f}) "
               f"UA {cdp['UA']:.3f} UU {cdp['UU']:.3f}, ordering holds "
               f"({elapsed:.0f} s)")


def test_criterion_4_smoke_ordering():
    config = simulation_preset(1, a=5, M=200, n_reps=100, seed=7, alpha=0.05)
    summary = run_simulation(config, threads=THREADS)
    cdp = {v: summary.mean(v, "cdp") for v in config.variants}
    assert cdp["WA"] >= cdp["UA"] >= cdp["UU"]
    _report(4, f"smoke (M=200, K=100): ordering WA {cdp['WA']:.3f} >= "
               f"UA {cdp['UA']:.3f} >= UU {cdp['UU']:.3f}")


def test_criterion_5_simulations_2_to_4():
    targets = {2: 0.814, 3: 0.774, 4: 0.727}
    lines = []
    for preset, target in targets.items():
        t0 = time.time()
        config = simulation_preset(preset, a=5, M=1000, n_reps=1000, seed=1, alpha=0.05)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            summary = run_simulation(config, threads=THREADS)
        wa_cdp = summary.mean("WA", "cdp")
        wa_fdp = summary.mean("WA", "fdp")
        assert wa_cdp == pytest.approx(target, abs=0.02), f"study {preset}"
        assert wa_fdp <= 0.05 + 0.01, f"study {preset}"
        if preset == 4:
            assert wa_fdp == pytest.approx(0.039, abs=0.01)
        lines.append(f"study {preset}: WA {wa_cdp:.3f}({wa_fdp:.3f}) "
                     f"[{time.time() - t0:.0f} s]")
    _report(5, "; ".join(lines))


def test_criterion_6_finite_fdr_control():
    m_total, m0 = 20, 15
    theta = np.r_[np.zeros(m0, dtype=bool), np.ones(m_total - m0, dtype=bool)]
    # arbitrary fixed weights: max 1.5 on the signals, mean exactly 1
    w = np.r_[np.full(m0, (m_total - 1.5 * (m_total - m0)) / m0),
              np.full(m_total - m0, 1.5)]
    assert w.mean() == pytest.approx(1.0) and w.max() == 1.5
    lam = 0.2
    level = alpha_star(0.05, lam, w.max())
    fdps = np.empty(2000)
    for rep in range(2000):
        rng = substream(606, rep)
        z = rng.standard_normal(m_total) + np.where(theta, 2.0, 0.0)
        pvalues = ndtr(-z)
        report = run_procedure("WA", pvalues, weights=w, alpha=0.05, lam=lam,
                               finite_fdr=True)
        assert report.u == lam
        fdps[rep] = evaluate(theta, report)[0]
    fdr = fdps.mean()
    se = fdps.std(ddof=1) / np.sqrt(fdps.size)
    bound = fdr_upper_bound(level, lam, w[:m0].mean(), m0)
    assert fdr <= 0.05 + 2 * se
    assert fdr <= bound + 2 * se
    _report(6, f"finite FDR: empirical {fdr:.4f} (se {se:.4f}) <= 0.05 and <= "
               f"bound {bound:.4f} at true null weight mean {w[:m0].mean():.3f}")


def test_criterion_7_step_up_sup_equivalence():
    rng = np.random.default_rng(13)
    agree = 0
    for _ in range(1000):
        m = int(rng.integers(1, 51))
        pvalues = rng.uniform(0, 1, m) ** rng.uniform(0.5, 2.5)
        weights = rng.uniform(0.2, 2.5, m)
        weights /= weights.mean()
        q = pvalues / weights
        lam = rng.uniform(0.05, 0.6)
        u = min(1.0 / weights.max(), rng.uniform(lam, 1.0))
        m0_hat = estimate_m0(q, lam)
        alpha = rng.uniform(0.01, 0.3)
        rejected = np.flatnonzero(q <= step_up_threshold(q, m0_hat, alpha, u))

        candidates = np.unique(np.r_[0.0, q[q <= u], u])
        feasible = [t for t in candidates if adaptive_fdp_estimate(t, q, m0_hat) <= alpha]
        oracle = np.flatnonzero(q <= max(feasible))
        assert np.array_equal(np.sort(rejected), oracle)
        agree += 1
    assert agree == 1000
    _report(7, "step-up threshold matches the exhaustive sup-scan oracle on "
               "1000/1000 random instances")


def test_criterion_8_du_alpha_exhaustion():
    m0 = m1 = 5000
    theta = np.r_[np.zeros(m0, dtype=bool), np.ones(m1, dtype=bool)]
    lam = 0.4
    fdp = {"UA": [], "WA": [], "UU": []}
    for rep in range(200):
        rng = substream(808, rep)
        pvalues = generate_du(m0, m1, rng)
        weights = rng.uniform(0.0, 2.0, m0 + m1)
        weights[weights == 0.0] = 1.0
        ua = run_procedure("UA", pvalues, alpha=0.05, lam=lam, u=1.0)
        wa = run_procedure("WA", pvalues, weights=weights, alpha=0.05, lam=lam,
                           u=1.0 / weights.max())
        uu = run_procedure("UU", pvalues, alpha=0.05)
        fdp["UA"].append(evaluate(theta, ua)[0])
        fdp["WA"].append(evaluate(theta, wa)[0])
        fdp["UU"].append(evaluate(theta, uu)[0])
    means = {k: float(np.mean(v)) for k, v in fdp.items()}
    assert means["UA"] == pytest.approx(0.05, abs=0.01)
    assert means["WA"] == pytest.approx(0.05, abs=0.01)
    assert means["UU"] == pytest.approx(0.025, abs=0.01)
    _report(8, f"least-favorable exhaustion (M=10^4, K=200): UA {means['UA']:.4f} "
               f"WA {means['WA']:.4f} ~ 0.05; UU {means['UU']:.4f} ~ 0.025")


def test_criterion_9_numerical_property_suites():
    # slope vs central finite differences, 1e-6 relative
    h = 1e-6
    ts = np.linspace(0.001, 0.999, 25)
    for gamma in np.linspace(0.5, 5.0, 10):
        fd = (MODEL.power(gamma, ts + h) - MODEL.power(gamma, ts - h)) / (2 * h)
        assert np.allclose(np.exp(MODEL.log_power_slope(gamma, ts)), fd, rtol=1e-6)

    # closed-form inversion vs generic bisection, 1e-10 absolute
    for gamma in np.arange(0.5, 5.5, 0.5):
        for s in np.logspace(-1, 2, 10):
            closed = MODEL.threshold_for_log_slope(gamma, np.log(s))
            generic = bisect_decreasing(lambda t: np.exp(MODEL.log_power_slope(gamma, t)), s)
            assert abs(closed - generic) <= 1e-10

    # brute-force dominance of the solved allocation, M <= 4
    rng = np.random.default_rng(4)
    for m in (2, 3, 4):
        prior = PriorSpec(rng.uniform(0.2, 0.8, m), rng.uniform(1.0, 4.0, m))
        t = 0.05
        profile = optimal_fixed_t_weights(prior, t)
        best = float(np.sum(prior.p * MODEL.power(prior.gamma, profile.thresholds)))
        draws = rng.uniform(0.05, 1.0, size=(10_000, m))
        draws *= (m * t) / draws.sum(axis=1, keepdims=True)
        draws = draws[(draws < 1.0).all(axis=1)]
        objective = (prior.p * MODEL.power(prior.gamma[None, :], draws)).sum(axis=1)
        assert best >= objective.max() - 1e-12

    # score statistic vs the hand-arithmetic oracle, 1e-9
    assert score_statistic([0, 1, 1, 0, 5], X5) == pytest.approx(
        2.89168215208, abs=1e-9
    )
    _report(9, "numerical property suites: finite differences, bisection "
               "inversion, brute-force dominance, score-statistic oracle")


def test_criterion_10_synthetic_count_benchmark():
    t0 = time.time()
    wins = 0
    for seed in range(200):
        rng = substream(1000 + seed, 0)
        dataset, _ = generate_synthetic_counts(150, X5, rng)
        result = analyze(dataset)
        wins += result.n_rejected_wa >= result.n_rejected_ua
    assert wins > 100

    # all-null arm on approximation-valid totals: with feature totals this
    # small-count method needs (>= 100), the normal-tail p-values are close
    # enough to exact for the level claim to be about the procedure
    hits = np.empty(200)
    for seed in range(200):
        rng = substream(9000 + seed, 0)
        dataset, _ = generate_synthetic_counts(
            150, X5, rng, positive_fraction=0.0, total_min=100, total_max=911
        )
        result = analyze(dataset)
        hits[seed] = 1.0 if result.n_rejected_wa > 0 else 0.0
    rate = hits.mean()
    se = hits.std(ddof=1) / np.sqrt(hits.size)
    assert rate <= 0.05 + 2 * se
    _report(10, f"synthetic count benchmark: weighted >= unweighted rejections "
                f"in {wins}/200 seeds; all-null FDP {rate:.3f} <= 0.05 + 2se "
                f"({time.time() - t0:.0f} s)")


def test_zzz_print_summary():
    # runs last: echo the collected pass lines as a single block
    print("\n" + "=" * 72)
    for line in _passed:
        print(line)
    print("=" * 72)

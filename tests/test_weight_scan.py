"""Pre-data weight scan: the coarse-to-fine blocked scan against the dense oracle.

The oracle is the dense scan the solver used before tie collapsing, row
blocks and the coarse pass: the FDP approximator on every grid point in
one broadcast over all M hypotheses, the first downward crossing of
alpha, and brentq on the uncollapsed prior inside it.
"""

import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from wamdf import weights
from wamdf.counts import generate_synthetic_counts
from wamdf.power import NormalLocationModel, TabulatedPowerModel
from wamdf.simulate import generate_model1, simulation_preset, substream
from wamdf.weights import NoSolutionError, PriorSpec, asymptotically_optimal_weights

from oracles import FourNdtrModel

MODEL = NormalLocationModel()
X5 = np.array([0.86, 1.34, 1.81, 2.37, 3.00])


def dense_fdp_values(prior, ks, model):
    ks = np.asarray(ks, dtype=float)
    slopes = ks[:, None] / prior.p[None, :]
    t, tc, pi, pic = model.threshold_power_split(prior.gamma[None, :], slopes)
    g = (1.0 - prior.p) * t + prior.p * pi
    gc = (1.0 - prior.p) * tc + prior.p * pic
    t_bar = t.mean(axis=1)
    g_bar = g.mean(axis=1)
    tc_bar = tc.mean(axis=1)
    gc_bar = gc.mean(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = (gc_bar / tc_bar) * (t_bar / g_bar)
    vals = np.where((t_bar == 0.0) | (g_bar == 0.0), 0.0, vals)
    vals = np.where(tc_bar == 0.0, 1.0 - prior.p_max, vals)
    return vals


def dense_grid(lo, hi):
    n_points = max(weights._SCAN_POINTS, int(4 * (np.log10(hi) - np.log10(lo))))
    return np.exp(np.linspace(np.log(lo), np.log(hi), n_points))


def dense_crossing(prior, alpha, lo, hi, model):
    grid = dense_grid(lo, hi)
    vals = dense_fdp_values(prior, grid, model) - alpha
    down = np.flatnonzero((vals[:-1] >= 0) & (vals[1:] < 0))
    if down.size == 0:
        return None
    i = down[0]
    if vals[i] == 0.0:
        return float(grid[i])
    log_k = brentq(
        lambda lk: float(dense_fdp_values(prior, [np.exp(lk)], model)[0]) - alpha,
        np.log(grid[i]), np.log(grid[i + 1]), xtol=1e-13, rtol=8.9e-16, maxiter=200,
    )
    return float(np.exp(log_k))


def oracle_k_star(prior, alpha, model=MODEL):
    """k* of the dense scan with the solver's bracket expansion, or None."""
    lo, hi = weights._k_bracket(prior, model)
    k_star = dense_crossing(prior, alpha, lo, hi, model)
    for _ in range(weights._MAX_EXPANSIONS):
        if k_star is not None or (lo == weights._K_FLOOR and hi == weights._K_CEIL):
            break
        lo, hi = weights._widen(lo, hi)
        k_star = dense_crossing(prior, alpha, lo, hi, model)
    return k_star


def assert_matches_oracle(prior, alpha, model=MODEL):
    """Same solvability and k* within 1e-12 relative; bitwise on untied priors."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        want = oracle_k_star(prior, alpha, model)
        try:
            got = asymptotically_optimal_weights(prior, alpha, model)
        except NoSolutionError:
            got = None
    assert (got is None) == (want is None), (prior, alpha, want)
    if want is None:
        return "none"
    assert abs(got.k_star - want) <= 1e-12 * want, (got.k_star, want)
    if np.unique(prior.p + 1j * prior.gamma).size == prior.M:
        assert got.k_star == want
        assert np.array_equal(got.weights, weights._profile(prior, want, model).weights)
        return "untied"
    return "tied"


def random_priors(n, seed=20240):
    """(prior, alpha) pairs from five families, ``n`` in total."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        family = i % 5
        if family == 0:        # small batteries
            m = int(rng.integers(1, 11))
            p, gamma = rng.uniform(0.01, 0.99, m), rng.uniform(0.2, 8.0, m)
        elif family == 1:      # bimodal p and gamma
            m = int(rng.integers(10, 120))
            hi = rng.random(m) < 0.3
            p = np.where(hi, rng.uniform(0.85, 0.95, m), rng.uniform(0.01, 0.05, m))
            gamma = np.where(rng.random(m) < 0.5, rng.uniform(0.3, 0.8, m),
                             rng.uniform(4.0, 9.0, m))
        elif family == 2:      # count-style: gamma = sqrt(n) K on integer totals, tied
            m = int(rng.integers(5, 150))
            totals = rng.integers(1, 40, m)
            p = np.full(m, rng.choice([0.1, 0.5, 0.8]))
            gamma = np.sqrt(totals) * rng.uniform(0.05, 1.5)
        elif family == 3:      # p near 0 and near 1
            m = int(rng.integers(2, 60))
            near_one = rng.random(m) < 0.2
            p = np.where(near_one, 1.0 - 10 ** rng.uniform(-6, -3, m),
                         10 ** rng.uniform(-6, -3, m))
            gamma = rng.uniform(0.5, 6.0, m)
        else:                  # generic continuous priors
            m = int(rng.integers(1, 200))
            p, gamma = rng.uniform(0.02, 0.95, m), rng.uniform(0.5, 5.0, m)
        out.append((PriorSpec(p, gamma), float(rng.uniform(0.01, 0.3))))
    return out


class TestScanOracle:
    def test_worked_example(self):
        prior = PriorSpec(np.full(10, 0.5), np.r_[np.full(5, 2.0), np.full(5, 3.0)])
        assert assert_matches_oracle(prior, 0.05) == "tied"

    def test_acceptance_residual_priors(self):
        # the 100 random priors of acceptance criterion 2
        rng = np.random.default_rng(2025)
        for _ in range(100):
            m = int(rng.integers(1, 40))
            prior = PriorSpec(rng.uniform(0.02, 0.95, m), rng.uniform(0.5, 5.0, m))
            assert assert_matches_oracle(prior, 0.05) == "untied"

    @pytest.mark.parametrize("preset, a", [(1, 1.0), (1, 5.0), (2, 1.0), (2, 3.0), (2, 5.0)])
    def test_simulation_priors(self, preset, a):
        # presets 3 and 4 draw their priors exactly as preset 2 does
        config = simulation_preset(preset, a=a, M=1000, n_reps=2, seed=1)
        for rep in range(2):
            _, p, gamma, _ = generate_model1(config, substream(config.seed, rep))
            assert_matches_oracle(PriorSpec(p, gamma), config.alpha)

    def test_count_benchmark_priors(self):
        # the inner solves of the count benchmark: p = 0.5, gamma = sqrt(n) K
        for seed, kwargs in ((1000, {}), (1001, {}),
                             (9000, dict(positive_fraction=0.0, total_min=100, total_max=911))):
            dataset, _ = generate_synthetic_counts(150, X5, substream(seed, 0), **kwargs)
            totals = dataset.totals[dataset.totals > 0].astype(float)
            for k_info in (0.02, 0.05, 0.1, 0.2, 0.4):
                prior = PriorSpec(np.full(totals.size, 0.5), np.sqrt(totals) * k_info)
                assert assert_matches_oracle(prior, 0.05) == "tied"

    def test_random_priors(self):
        seen = {"untied": 0, "tied": 0, "none": 0}
        for prior, alpha in random_priors(250):
            seen[assert_matches_oracle(prior, alpha)] += 1
        assert min(seen.values()) > 0, seen

    def test_tabulated_model(self):
        knots = np.r_[0.0, np.logspace(-8, 0, 33)]
        model = TabulatedPowerModel(knots, np.sqrt(knots))
        assert_matches_oracle(PriorSpec([0.3, 0.6, 0.5], [1.0, 2.0, 1.5]), 0.05, model)

    @pytest.mark.parametrize("rows", [None, 1, 293, 300])
    def test_spike_only_the_fallback_scan_finds(self, rows, monkeypatch):
        # a one-grid-point spike above alpha between two coarse points; the
        # collapsed prior has two pairs, and 293-row blocks put the crossing
        # 878 -> 879 across a block boundary of the full scan
        if rows is not None:
            monkeypatch.setattr(weights, "_BLOCK_ELEMENTS", 2 * rows)
        prior = PriorSpec([0.99, 0.01, 0.01], [25.0, 0.3, 0.3])
        alpha = 0.2
        grid = dense_grid(*weights._k_bracket(prior, MODEL))
        vals = dense_fdp_values(prior, grid, MODEL) - alpha
        assert grid.size == 919
        assert np.array_equal(np.flatnonzero(vals >= 0), [878])
        coarse = vals[np.r_[np.arange(0, grid.size - 1, weights._COARSE_STEP), grid.size - 1]]
        assert np.all(coarse < 0)
        assert assert_matches_oracle(prior, alpha) == "tied"


def acceptance_priors():
    """(prior, alpha) of the acceptance configurations: the worked example,
    the criterion 2 residual priors, simulation presets 1-4 and the count
    benchmark's inner solves."""
    yield PriorSpec(np.full(10, 0.5), np.r_[np.full(5, 2.0), np.full(5, 3.0)]), 0.05
    rng = np.random.default_rng(2025)
    for _ in range(100):
        m = int(rng.integers(1, 40))
        yield PriorSpec(rng.uniform(0.02, 0.95, m), rng.uniform(0.5, 5.0, m)), 0.05
    for preset in (1, 2, 3, 4):
        for a in (1.0, 3.0, 5.0):
            config = simulation_preset(preset, a=a, M=1000, n_reps=2, seed=1)
            for rep in range(2):
                _, p, gamma, _ = generate_model1(config, substream(config.seed, rep))
                yield PriorSpec(p, gamma), config.alpha
    for seed, kwargs in ((1000, {}), (1001, {}),
                         (9000, dict(positive_fraction=0.0, total_min=100, total_max=911))):
        dataset, _ = generate_synthetic_counts(150, X5, substream(seed, 0), **kwargs)
        totals = dataset.totals[dataset.totals > 0].astype(float)
        for k_info in (0.02, 0.05, 0.1, 0.2, 0.4):
            yield PriorSpec(np.full(totals.size, 0.5), np.sqrt(totals) * k_info), 0.05


def test_kstar_matches_four_ndtr_split():
    # the one-ndtr-per-pair kernel moves single masses by at most 1 ulp;
    # k* must stay within 1e-12 relative of the solve on the frozen kernel
    frozen = FourNdtrModel()
    worst = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for prior, alpha in acceptance_priors():
            got = asymptotically_optimal_weights(prior, alpha, MODEL)
            want = asymptotically_optimal_weights(prior, alpha, frozen)
            worst = max(worst, abs(got.k_star - want.k_star) / want.k_star)
    assert worst <= 1e-12, worst


def scanned_blocks(prior, alpha, monkeypatch):
    """The multipliers of every ``_fdp_scan`` call of one solve, and its profile."""
    scanned = []
    scan = weights._fdp_scan

    def recorded(pairs, ks, model):
        scanned.append(ks)
        return scan(pairs, ks, model)

    monkeypatch.setattr(weights, "_fdp_scan", recorded)
    with warnings.catch_warnings():
        # preset 2 draws p close to 1, beyond the guaranteed regime
        warnings.simplefilter("ignore")
        profile = asymptotically_optimal_weights(prior, alpha)
    return scanned, profile


def coarse_points(prior, alpha):
    """The grid, its coarse indices and the first downward coarse interval."""
    grid = dense_grid(*weights._k_bracket(prior, MODEL))
    coarse = np.r_[np.arange(0, grid.size - 1, weights._COARSE_STEP), grid.size - 1]
    vals = dense_fdp_values(prior, grid[coarse], MODEL) - alpha
    return grid, coarse, int(np.flatnonzero((vals[:-1] >= 0) & (vals[1:] < 0))[0])


class TestEarlyStop:
    # (coarse_block, min_elements, block size at 1,000 distinct pairs)
    @pytest.mark.parametrize("coarse_block, min_elements, size", [
        (1, 0, 1), (4, 0, 4), (8, 0, 8), (11, 0, 11), (100, 0, 100),
        (8, 1 << 13, 8), (8, 1 << 14, 16),
    ])
    def test_no_coarse_block_after_the_crossing(self, coarse_block, min_elements, size,
                                                monkeypatch):
        config = simulation_preset(2, a=5.0, M=1000, n_reps=1, seed=1)
        _, p, gamma, _ = generate_model1(config, substream(config.seed, 0))
        prior = PriorSpec(p, gamma)
        grid, coarse, j = coarse_points(prior, config.alpha)
        # blocks of 4 and 11 put the crossing's right end j + 1 = 44 first in a block
        assert (j + 1, coarse.size, weights._collapse(prior).p.size) == (44, 65, 1000)

        monkeypatch.setattr(weights, "_COARSE_BLOCK", coarse_block)
        monkeypatch.setattr(weights, "_COARSE_MIN_ELEMENTS", min_elements)
        scanned, profile = scanned_blocks(prior, config.alpha, monkeypatch)
        # ascending coarse blocks up to the one holding coarse point j + 1,
        # then the fine points strictly inside the crossing interval
        last = (j + 1) // size * size
        want = [grid[coarse[start:start + size]] for start in range(0, last + 1, size)]
        want.append(grid[coarse[j] + 1:coarse[j + 1]])
        assert len(scanned) == len(want)
        for got_ks, want_ks in zip(scanned, want):
            np.testing.assert_array_equal(got_ks, want_ks)
        assert profile.k_star == oracle_k_star(prior, config.alpha)

    def test_few_pairs_scan_the_coarse_points_at_once(self, monkeypatch):
        # two distinct pairs: one call costs less than the elements a stop saves
        prior = PriorSpec(np.full(10, 0.5), np.r_[np.full(5, 2.0), np.full(5, 3.0)])
        grid, coarse, j = coarse_points(prior, 0.05)
        scanned, _ = scanned_blocks(prior, 0.05, monkeypatch)
        assert len(scanned) == 2
        np.testing.assert_array_equal(scanned[0], grid[coarse])
        np.testing.assert_array_equal(scanned[1], grid[coarse[j] + 1:coarse[j + 1]])


class TestScanPieces:
    def test_collapse_keeps_first_occurrence_order(self):
        prior = PriorSpec([0.5, 0.2, 0.5, 0.2, 0.9], [2.0, 1.0, 2.0, 3.0, 2.0])
        pairs = weights._collapse(prior)
        np.testing.assert_array_equal(pairs.p, [0.5, 0.2, 0.2, 0.9])
        np.testing.assert_array_equal(pairs.gamma, [2.0, 1.0, 3.0, 2.0])
        np.testing.assert_array_equal(pairs.count, [2, 1, 1, 1])
        assert pairs.M == 5 and pairs.p_max == 0.9

    def test_blocks_are_bitwise_one_pass(self, monkeypatch):
        rng = np.random.default_rng(5)
        prior = PriorSpec(rng.uniform(0.05, 0.9, 300), rng.uniform(0.5, 5.0, 300))
        pairs = weights._collapse(prior)
        ks = np.exp(np.linspace(-30, 30, 97))
        one_pass = weights._fdp_values(pairs, ks, MODEL)
        np.testing.assert_array_equal(one_pass, dense_fdp_values(prior, ks, MODEL))
        rows = []
        values = weights._fdp_values

        def counted(pairs, ks, model):
            rows.append(ks.size)
            return values(pairs, ks, model)

        monkeypatch.setattr(weights, "_fdp_values", counted)
        monkeypatch.setattr(weights, "_BLOCK_ELEMENTS", 7 * 300 + 5)
        np.testing.assert_array_equal(weights._fdp_scan(pairs, ks, MODEL), one_pass)
        assert rows == [7] * 13 + [6]

    def test_fdp_approximator_matches_dense_on_ties(self):
        prior = PriorSpec(np.full(30, 0.4), np.repeat([1.0, 2.5, 4.0], 10))
        for k in (1e-6, 0.3, 2.0, 40.0):
            dense = float(dense_fdp_values(prior, [k], MODEL)[0])
            assert weights.fdp_approximator(prior, k) == pytest.approx(dense, rel=1e-14)


def test_memory_stays_bounded_at_large_m():
    rng = np.random.default_rng(11)
    m = 20_000
    prior = PriorSpec(rng.uniform(0.02, 0.9, m), rng.uniform(1.0, 5.0, m))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        profile = asymptotically_optimal_weights(prior, 0.05)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert profile.M == m
    # the dense one-pass scan needed about 650 MB here
    assert peak < 64e6, peak

"""Pre-data weight scan: the coarse-to-fine blocked scan against the dense oracle.

The oracle is the dense scan the solver used before tie collapsing, row
blocks and the coarse pass: the FDP approximator on every grid point in
one broadcast over all M hypotheses, the first downward crossing of
alpha, and brentq on the uncollapsed prior inside it, on the expanding
multiplier bracket the solver used before it derived one bracket from the
model.  Both run in log k, like the solver.  A sweep holds both solvers
against that expanding bracket, and every family against the frozen
linear-k solver wherever that one solves inside the guaranteed regime.
"""

import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from scipy.optimize import brentq

from wamdf import weights
from wamdf.counts import generate_synthetic_counts
from wamdf.power import NormalLocationModel, TabulatedPowerModel
from wamdf.simulate import generate_model1, simulation_preset, substream
from wamdf.weights import (
    NoSolutionError,
    PriorSpec,
    asymptotically_optimal_weights,
    optimal_fixed_t_weights,
)

from oracles import (
    FourNdtrModel,
    expanding_crossing,
    expanding_fixed_t_log_k,
    first_k_bracket,
    linear_fixed_t_k_star,
    linear_pre_data_k_star,
)

MODEL = NormalLocationModel()
X5 = np.array([0.86, 1.34, 1.81, 2.37, 3.00])


def dense_fdp_values(prior, log_ks, model):
    log_ks = np.asarray(log_ks, dtype=float)
    log_slopes = log_ks[:, None] - np.log(prior.p)[None, :]
    t, tc, pi, pic = model.threshold_power_split(prior.gamma[None, :], log_slopes)
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
    decades = min((hi - lo) / np.log(10), weights._MAX_SCAN_POINTS / 4)
    n_points = max(weights._SCAN_POINTS, int(4 * decades))
    return np.linspace(lo, hi, n_points)


def dense_crossing(prior, alpha, lo, hi, model):
    grid = dense_grid(lo, hi)
    vals = dense_fdp_values(prior, grid, model) - alpha
    down = np.flatnonzero((vals[:-1] >= 0) & (vals[1:] < 0))
    if down.size == 0:
        return None
    i = down[0]
    if vals[i] == 0.0:
        return float(grid[i])
    return brentq(lambda lk: float(dense_fdp_values(prior, [lk], model)[0]) - alpha,
                  grid[i], grid[i + 1], xtol=1e-13, rtol=8.9e-16, maxiter=200)


def oracle_log_k(prior, alpha, model=MODEL):
    """log k* of the dense scan on the frozen expanding bracket, or None."""
    return expanding_crossing(lambda lo, hi: dense_crossing(prior, alpha, lo, hi, model),
                              prior, model)


def solved_log_k(solve, prior, level, model=MODEL):
    """(log k*, profile) of one solve, log k* as the solve hands it to
    ``weights._profile``; (None, None) when it raises NoSolutionError."""
    with mock.patch.object(weights, "_profile", wraps=weights._profile) as profile:
        try:
            result = solve(prior, level, model)
        except NoSolutionError:
            return None, None
    return profile.call_args.args[1], result


def linear_pre_data(prior, alpha, model):
    """k* of the frozen linear-k pre-data solve inside the guaranteed regime,
    else None.  Beyond it the unclamped bracket can find an earlier crossing
    below 1e-300, which the linear solver's floor hid, and at its edge the
    FDP approximator levels off at alpha, so rounding moves the root."""
    return linear_pre_data_k_star(prior, alpha, model) if alpha < 1 - prior.p_max else None


def assert_matches_linear(want_k, got_log_k):
    """Where the frozen linear-k solver solves, the log-k solve does too, with
    k* within 1e-12 relative."""
    if want_k is not None:
        assert got_log_k is not None, want_k
        assert abs(np.exp(got_log_k) - want_k) <= 1e-12 * want_k, (np.exp(got_log_k), want_k)


def assert_matches_oracle(prior, alpha, model=MODEL):
    """Same solvability and log k* within 1e-12; bitwise on untied priors."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        want = oracle_log_k(prior, alpha, model)
        got, profile = solved_log_k(asymptotically_optimal_weights, prior, alpha, model)
        assert_matches_linear(linear_pre_data(prior, alpha, model), got)
    assert (got is None) == (want is None), (prior, alpha, want)
    if want is None:
        return "none"
    assert abs(got - want) <= 1e-12, (got, want)
    if np.unique(prior.p + 1j * prior.gamma).size == prior.M:
        assert got == want
        assert np.array_equal(profile.weights, weights._profile(prior, want, model).weights)
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
    """The log multipliers of every ``_fdp_scan`` call of one solve, and its profile."""
    scanned = []
    scan = weights._fdp_scan

    def recorded(pairs, log_ks, model):
        scanned.append(log_ks)
        return scan(pairs, log_ks, model)

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
        assert profile.k_star == np.exp(oracle_log_k(prior, config.alpha))

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
        log_ks = np.linspace(-30, 30, 97)
        one_pass = weights._fdp_values(pairs, log_ks, MODEL)
        np.testing.assert_array_equal(one_pass, dense_fdp_values(prior, log_ks, MODEL))
        rows = []
        values = weights._fdp_values

        def counted(pairs, log_ks, model):
            rows.append(log_ks.size)
            return values(pairs, log_ks, model)

        monkeypatch.setattr(weights, "_fdp_values", counted)
        monkeypatch.setattr(weights, "_BLOCK_ELEMENTS", 7 * 300 + 5)
        np.testing.assert_array_equal(weights._fdp_scan(pairs, log_ks, MODEL), one_pass)
        assert rows == [7] * 13 + [6]

    def test_fdp_approximator_matches_dense_on_ties(self):
        prior = PriorSpec(np.full(30, 0.4), np.repeat([1.0, 2.5, 4.0], 10))
        for k in (1e-6, 0.3, 2.0, 40.0):
            dense = float(dense_fdp_values(prior, [np.log(k)], MODEL)[0])
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


@pytest.mark.parametrize("prior", [
    PriorSpec([0.96], [2.0]),                        # alpha > 1 - max(p)
    PriorSpec([0.97, 0.97], [2.0, 3.0]),             # alpha > 1 - max(p), two pairs
])
def test_no_solution_scans_its_grid_once(prior, monkeypatch):
    # the expanding bracket scanned up to seven grids before giving up
    scanned = []
    scan = weights._fdp_scan

    def recorded(pairs, log_ks, model):
        scanned.append(log_ks)
        return scan(pairs, log_ks, model)

    monkeypatch.setattr(weights, "_fdp_scan", recorded)
    with pytest.raises(NoSolutionError):
        asymptotically_optimal_weights(prior, 0.05)
    grid = dense_grid(*weights._k_bracket(prior, MODEL))
    np.testing.assert_array_equal(np.sort(np.concatenate(scanned)), grid)



@pytest.mark.parametrize("gamma", [1e3, 1e4, 1e150])
def test_strong_effects_scan_a_bounded_grid(gamma, monkeypatch):
    # the bracket reaches about -gamma^2/2 in log k, far below the float
    # range of k, and the weak pair puts the crossing near log k = 0 at the
    # far end of it; the grid stops at _MAX_SCAN_POINTS points all the same
    prior = PriorSpec([0.5, 0.5], [1.0, gamma])
    lo, hi = weights._k_bracket(weights._collapse(prior), MODEL)
    assert 4 * (hi - lo) / np.log(10) > 300 * weights._MAX_SCAN_POINTS
    scanned, profile = scanned_blocks(prior, 0.05, monkeypatch)
    assert sum(log_ks.size for log_ks in scanned) <= weights._MAX_SCAN_POINTS
    # the frozen linear-k solver, whose floor hid the strong pair's range,
    # found the same crossing
    want = linear_pre_data_k_star(prior, 0.05, MODEL)
    assert abs(profile.k_star - want) <= 1e-12 * want
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # the strong pair's weight is clamped
        fixed = optimal_fixed_t_weights(prior, 0.05)
    want = linear_fixed_t_k_star(prior, 0.05, MODEL)
    assert abs(fixed.k_star - want) <= 1e-12 * want


def random_table(rng):
    """A strictly concave table ``t**a`` on log-spaced knots from ``first``;
    its first secant ``first**(a - 1)`` reaches 10^13."""
    a = rng.uniform(0.05, 0.9)
    first = 10 ** rng.uniform(-14.5, -1)
    knots = np.r_[0.0, first ** np.linspace(1.0, 0.0, int(rng.integers(2, 30)))]
    return TabulatedPowerModel(knots, knots ** a)


def sweep_cases(n, seed=8):
    """(prior, model, alpha, t): the scan families with a wider gamma range,
    a third on tables, alpha down to 1e-10 and at 1 - max(p), and t below
    1e-15, at the two clamps and above 1 - 1e-15."""
    rng = np.random.default_rng(seed)
    for i in range(n):
        m = int(rng.integers(1, 40))
        family = i % 5
        if family == 0:
            p, gamma = rng.uniform(0.01, 0.99, m), rng.uniform(0.2, 8.0, m)
        elif family == 1:
            p = np.where(rng.random(m) < 0.3, rng.uniform(0.85, 0.99, m),
                         rng.uniform(0.001, 0.05, m))
            gamma = np.where(rng.random(m) < 0.5, rng.uniform(0.05, 0.8, m),
                             rng.uniform(4.0, 40.0, m))
        elif family == 2:
            p = np.full(m, rng.choice([0.1, 0.5, 0.8]))
            gamma = np.sqrt(rng.integers(1, 1000, m)) * rng.uniform(0.02, 1.5)
        elif family == 3:
            p = np.where(rng.random(m) < 0.2, 1.0 - 10 ** rng.uniform(-6, -3, m),
                         10 ** rng.uniform(-6, -3, m))
            gamma = rng.uniform(0.5, 6.0, m)
        else:
            p, gamma = rng.uniform(0.02, 0.95, m), rng.uniform(0.5, 5.0, m)
        prior = PriorSpec(p, gamma)
        model = random_table(rng) if rng.random() < 1 / 3 else MODEL
        u = rng.random()
        alpha = (1.0 - prior.p_max if u < 0.1 else
                 10 ** rng.uniform(-10, -7) if u < 0.3 else 10 ** rng.uniform(-3, np.log10(0.5)))
        v = rng.random()
        t = (10 ** rng.uniform(-40, -15) if v < 0.25 else
             rng.choice([1e-15, 1 - 1e-15]) if v < 0.3 else
             1 - 10 ** rng.uniform(-15.9, -15) if v < 0.35 else 10 ** rng.uniform(-14.9, -0.05))
        yield prior, model, float(alpha), float(t)


def sweep_pre_data(prior, model, alpha):
    """How the one-bracket pre-data solve compares with the expanding one."""
    pairs = weights._collapse(prior)

    def crossing(lo, hi):
        return weights._smallest_downward_crossing(pairs, alpha, lo, hi, model)

    first = first_k_bracket(prior, model)
    old = crossing(*first)
    same_first = old is not None
    if old is None:
        old = expanding_crossing(crossing, prior, model)
    new, _ = solved_log_k(asymptotically_optimal_weights, prior, alpha, model)
    assert_matches_linear(linear_pre_data(prior, alpha, model), new)
    if old is None:
        assert new is None, (prior, alpha, new)
        return "none"
    if new is None:
        # only a crossing outside the guaranteed regime, or at its edge, or
        # the approximator's drop to 0 where every threshold underflowed
        assert alpha >= 1.0 - prior.p_max or mean_threshold_at(prior, old, model) == 0.0, (
            prior, alpha, old)
        return "lost"
    bracket = weights._k_bracket(pairs, model,
                                 log_k_hi=max(weights._LOG_K_HI, np.log(2.0 / alpha)))
    if same_first and bracket == first:
        assert new == old, (prior, alpha, new, old)
        return "bitwise"
    assert abs(new - old) <= 1e-12, (prior, alpha, new, old)
    return "close"


def mean_threshold_at(prior, log_k, model):
    return float(np.mean(weights._thresholds(prior, log_k, model)))


def sweep_fixed_t(prior, model, t):
    """How the one-bracket fixed-t solve compares with the expanding one."""
    old = expanding_fixed_t_log_k(prior, t, model)
    new, _ = solved_log_k(optimal_fixed_t_weights, prior, t, model)
    # a t within a few ulp of 1, or at a table's 1e-15 clamp, leaves a
    # stretch of k where the mean threshold rounds to t: any k there is a root
    flat = t > 1 - 1e-15 or (model is not MODEL and t == 1e-15)
    want = linear_fixed_t_k_star(prior, t, model)
    assert_matches_linear(None if flat else want, new)
    assert want is None or new is not None, (prior, t, want)
    if old is None:
        if new is not None:
            # beyond the six expansions
            assert mean_threshold_at(prior, new, model) == pytest.approx(t, rel=1e-9)
            return "gained"
        return "none"
    assert new is not None, (prior, t, old)
    first = first_k_bracket(prior, model)
    bracket = weights._k_bracket(prior, model, min(t, 1e-15), max(t, 1 - 1e-15))
    if bracket == first and np.prod([mean_threshold_at(prior, lk, model) - t
                                     for lk in first]) <= 0:
        assert new == old, (prior, t, new, old)
        return "bitwise"
    if abs(new - old) <= 1e-12:
        return "close"
    assert flat, (prior, t, new, old)
    resid = [abs(mean_threshold_at(prior, lk, model) - t) for lk in (old, new)]
    assert resid[1] <= max(resid[0], 2.0 ** -53), (prior, t, old, new)
    return "flat"


def test_sweep_against_the_expanding_bracket():
    pre, fixed = {}, {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for prior, model, alpha, t in sweep_cases(3000):
            key = "table" if model is not MODEL else "normal"
            for seen, outcome in ((pre, sweep_pre_data(prior, model, alpha)),
                                  (fixed, sweep_fixed_t(prior, model, t))):
                seen[key, outcome] = seen.get((key, outcome), 0) + 1
    assert pre.get(("normal", "lost"), 0) + pre.get(("table", "lost"), 0) <= 10, pre
    assert min(pre["normal", "bitwise"], pre["table", "bitwise"], fixed["normal", "bitwise"],
               fixed["table", "bitwise"], fixed["normal", "close"]) > 100, (pre, fixed)

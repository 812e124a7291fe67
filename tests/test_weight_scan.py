"""Pre-data crossing search: the bounded cell search against the dense oracle.

The oracle is the dense scan the solver used before tie collapsing, row
blocks and the cell search: the FDP approximator on every point of an
even grid in one broadcast over all M hypotheses, the first downward
crossing of alpha, and brentq on the uncollapsed prior inside it, on the
expanding multiplier bracket the solver used before it derived one
bracket from the model.  Both run in log k, like the solver.  The grid
sees a bump or dip only when one of its points falls inside it; the
search sees any wider than its 0.01 cells, so on two priors it finds a
crossing the grid misses, checked on a fine window around the root.  A
sweep holds the solver against that expanding bracket, and every family
against the frozen linear-k solver wherever that one solves inside the
guaranteed regime.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
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


# The oracle's grid: four points per decade of k, but at least
# ORACLE_POINTS and at most ORACLE_MAX_POINTS (four per decade across the
# 600 decades a float k spans).
ORACLE_POINTS = 512
ORACLE_MAX_POINTS = 2400


def dense_grid(lo, hi):
    decades = min((hi - lo) / np.log(10), ORACLE_MAX_POINTS / 4)
    n_points = max(ORACLE_POINTS, int(4 * decades))
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
    """Same solvability and log k* within 1e-12.  The oracle's brentq runs in
    a grid interval and the solver's in a search cell, so the roots need not
    share their last bits; on untied priors the FDP approximator at the
    solver's root is bitwise the dense one."""
    want = oracle_log_k(prior, alpha, model)
    got, profile = solved_log_k(asymptotically_optimal_weights, prior, alpha, model)
    assert_matches_linear(linear_pre_data(prior, alpha, model), got)
    assert (got is None) == (want is None), (prior, alpha, want)
    if want is None:
        return "none"
    assert abs(got - want) <= 1e-12, (got, want)
    if np.unique(prior.p + 1j * prior.gamma).size == prior.M:
        assert (weights._fdp_at(weights._collapse(prior), got, model)
                == dense_fdp_values(prior, [got], model)[0])
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
        # a spike above alpha at one point of the oracle's 919-point grid,
        # between two points of a grid eight times coarser; the collapsed
        # prior has two pairs, and row blocks of 1, 293 and 300 rows leave
        # the root alone
        if rows is not None:
            monkeypatch.setattr(weights, "_BLOCK_ELEMENTS", 2 * rows)
        prior = PriorSpec([0.99, 0.01, 0.01], [25.0, 0.3, 0.3])
        alpha = 0.2
        grid = dense_grid(*weights._k_bracket(prior, MODEL))
        vals = dense_fdp_values(prior, grid, MODEL) - alpha
        assert grid.size == 919
        assert np.array_equal(np.flatnonzero(vals >= 0), [878])
        assert np.all(vals[::8] < 0)
        assert assert_matches_oracle(prior, alpha) == "tied"


def assert_crossing(prior, alpha, log_k, model=MODEL, width=0.05):
    """On a fine grid over ``log_k +- width`` the FDP approximator is at
    least alpha before log_k and below it after (points within 1e-9 aside)."""
    grid = np.linspace(log_k - width, log_k + width, 20_001)
    vals = dense_fdp_values(prior, grid, model)
    assert np.all(vals[grid < log_k - 1e-9] >= alpha)
    assert np.all(vals[grid > log_k + 1e-9] < alpha)


# Out-of-regime priors whose first crossing a grid of the solver's bracket
# can step over.  bump: the FDP is at least alpha on about [-2.284, -1.764]
# only, 0.52 wide, under one step (0.576) of a four-per-decade grid.  dip:
# the FDP falls below alpha on about [-4.276, -3.166] and crosses again at
# 0.157, and a grid eight times coarser (step 1.9) sees only the later one.
NARROW = {
    "bump": (PriorSpec([0.968, 0.137], [30.79, 0.19]), 0.046, -1.7638554174239),
    "dip": (PriorSpec([0.91, 0.935, 0.916, 0.138], [7.68, 1.64, 1.61, 0.44]), 0.067,
            -4.2758637656566),
}


@pytest.mark.parametrize("name", NARROW)
def test_narrow_crossings_are_found(name):
    prior, alpha, want = NARROW[name]
    got, profile = solved_log_k(asymptotically_optimal_weights, prior, alpha)
    assert len(profile.warning) == 1 and "exceeds 1 - max" in profile.warning[0]
    assert abs(got - want) <= 1e-12
    assert got == pytest.approx(oracle_log_k(prior, alpha), abs=1e-12)
    assert_crossing(prior, alpha, got)


@st.composite
def small_priors(draw):
    """(p, gamma, alpha) of one to four hypotheses."""
    m = draw(st.integers(1, 4))
    p = draw(arrays(float, m, elements=st.floats(0.01, 0.99)))
    gamma = draw(arrays(float, m, elements=st.floats(0.1, 30.0)))
    return p, gamma, draw(st.floats(0.01, 0.5))


@settings(deadline=None)
@given(small_priors())
def test_no_later_than_the_dense_first_crossing(case):
    # the dense grid sees a crossing only where a grid point lands on each
    # side of it; the search sees every one whose stretch above alpha is
    # wider than its cells.  Its root is never later than the grid's.  (Before
    # an out-of-regime bump the FDP can sit below alpha, so nothing is said
    # about [lo, log k*) as a whole.)
    p, gamma, alpha = case
    # at alpha = 1 - max(p) the FDP tends to alpha as k -> 0, and its
    # crossings there are rounding noise
    assume(abs(alpha - (1.0 - p.max())) > 1e-9 * alpha)
    prior = PriorSpec(p, gamma)
    pairs = weights._collapse(prior)
    bracket = weights._k_bracket(pairs, MODEL,
                                 log_k_hi=max(weights._LOG_K_HI, np.log(2.0 / alpha)))
    want = dense_crossing(prior, alpha, *bracket, MODEL)
    got = weights._smallest_downward_crossing(pairs, alpha, *bracket, MODEL)
    if want is not None:
        assert got is not None, want
        if got > want + 1e-12 * max(1.0, abs(want)):
            # where the FDP between the two rounds to alpha, both are roots
            between = dense_fdp_values(prior, np.linspace(want, got, 101), MODEL)
            assert np.all(np.abs(between / alpha - 1) <= 1e-14), (got, want)


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
    for prior, alpha in acceptance_priors():
        got = asymptotically_optimal_weights(prior, alpha, MODEL)
        want = asymptotically_optimal_weights(prior, alpha, frozen)
        worst = max(worst, abs(got.k_star - want.k_star) / want.k_star)
    assert worst <= 1e-12, worst


def evaluations(prior, alpha, monkeypatch, model=MODEL):
    """(log multipliers of each ``_fdp_scan`` call, brentq's ``_fdp_at``
    evaluations, log k*) of one pre-data solve; log k* is None when it
    raises NoSolutionError."""
    scans, refined = [], []
    scan, at = weights._fdp_scan, weights._fdp_at

    def recorded_scan(pairs, log_ks, model):
        scans.append(log_ks)
        return scan(pairs, log_ks, model)

    def recorded_at(pairs, log_k, model):
        refined.append(log_k)
        return at(pairs, log_k, model)

    monkeypatch.setattr(weights, "_fdp_scan", recorded_scan)
    monkeypatch.setattr(weights, "_fdp_at", recorded_at)
    log_k, _ = solved_log_k(asymptotically_optimal_weights, prior, alpha, model)
    return scans, refined, log_k


def preset_prior(preset, rep=0):
    config = simulation_preset(preset, a=5.0, M=1000, n_reps=1, seed=1)
    _, p, gamma, _ = generate_model1(config, substream(config.seed, rep))
    return PriorSpec(p, gamma), config.alpha


def count_prior(k_info):
    dataset, _ = generate_synthetic_counts(150, X5, substream(1000, 0))
    totals = dataset.totals[dataset.totals > 0].astype(float)
    return PriorSpec(np.full(totals.size, 0.5), np.sqrt(totals) * k_info), 0.05


class TestSearchCost:
    # (prior, alpha, most FDP evaluations, most scan calls): scan points plus
    # brentq steps, and the search rounds.  Without the monotonicity
    # certificate these solves took 38, 28, 57, 55 and 30 evaluations in 6,
    # 6, 7, 6 and 7 rounds; with it, 27, 21, 38, 38 and 23 in 3, 3, 3, 4
    # and 4.
    @pytest.mark.parametrize("case, budget, rounds", [
        ((PriorSpec(np.full(10, 0.5), np.r_[np.full(5, 2.0), np.full(5, 3.0)]), 0.05), 32, 4),
        (preset_prior(1), 24, 4),
        (preset_prior(2), 45, 4),
        (count_prior(0.05), 45, 5),
        (count_prior(0.4), 27, 5),
    ], ids=["worked", "preset-1", "preset-2", "count-0.05", "count-0.4"])
    def test_fdp_evaluations_are_bounded(self, case, budget, rounds, monkeypatch):
        prior, alpha = case
        scans, refined, log_k = evaluations(prior, alpha, monkeypatch)
        assert log_k == pytest.approx(oracle_log_k(prior, alpha), abs=1e-12)
        assert sum(s.size for s in scans) + len(refined) <= budget
        assert len(scans) <= rounds

    @pytest.mark.parametrize("case", [preset_prior(1), preset_prior(2), count_prior(0.4)],
                             ids=["preset-1", "preset-2", "count-0.4"])
    def test_nothing_past_the_first_crossing_cell(self, case, monkeypatch):
        # after the first split, the search looks only at or before the first
        # cell whose ends cross downward, and no point twice; brentq stays
        # inside the last such cell, which is at most _CELL_WIDTH wide or
        # passes the monotonicity certificate, and then a dense grid finds no
        # crossing in it before log k*
        prior, alpha = case
        scans, refined, log_k = evaluations(prior, alpha, monkeypatch)
        first = weights._fdp_values(weights._collapse(prior), scans[0], MODEL)[0]
        i = np.flatnonzero((first[:-1] >= alpha) & (first[1:] < alpha))[0]
        later = np.concatenate(scans[1:])
        assert later.size and np.all(later < scans[0][i + 1])
        points = np.sort(np.concatenate(scans))
        assert np.all(np.diff(points) > 0)
        below = points[points <= log_k].max()
        above = points[points > log_k].min()
        if above - below > weights._CELL_WIDTH:
            assert certified_cells(prior, MODEL, [below, above])[1][0]
            grid = np.linspace(below, log_k, 10_001)
            assert np.all(dense_fdp_values(prior, grid[grid < log_k - 1e-9], MODEL) >= alpha)
        assert np.all((np.array(refined) > below) & (np.array(refined) < above))


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
        one_pass, means = weights._fdp_values(pairs, log_ks, MODEL)
        np.testing.assert_array_equal(one_pass, dense_fdp_values(prior, log_ks, MODEL))
        rows = []
        values = weights._fdp_values

        def counted(pairs, log_ks, model):
            rows.append(log_ks.size)
            return values(pairs, log_ks, model)

        monkeypatch.setattr(weights, "_fdp_values", counted)
        monkeypatch.setattr(weights, "_BLOCK_ELEMENTS", 7 * 300 + 5)
        with np.errstate(divide="ignore"):
            want = np.vstack([log_ks, one_pass, np.log(one_pass), np.log(means)])
        np.testing.assert_array_equal(weights._fdp_scan(pairs, log_ks, MODEL), want)
        assert rows == [7] * 13 + [6]
        # blocks of near-equal size: 9 points at 8 rows a block are 5 + 4, not 8 + 1
        rows.clear()
        monkeypatch.setattr(weights, "_BLOCK_ELEMENTS", 8 * 300)
        np.testing.assert_array_equal(weights._fdp_scan(pairs, log_ks[:9], MODEL), want[:, :9])
        assert rows == [5, 4]

    def test_tied_means_are_bitwise_per_mean(self):
        # the fused reduction gives each mean the bits of its own
        # (x * count).sum(axis=1) / M, at both degenerate limits too
        sizes = [10, 3, 1, 6]
        prior = PriorSpec(np.repeat([0.4, 0.2, 0.4, 0.7], sizes),
                          np.repeat([1.0, 2.5, 4.0, 2.5], sizes))
        pairs = weights._collapse(prior)
        log_ks = np.r_[-400.0, np.linspace(-30, 30, 41), 400.0]
        vals, means = weights._fdp_values(pairs, log_ks, MODEL)
        t, tc, pi, pic = MODEL.threshold_power_split(pairs.gamma[None, :],
                                                     log_ks[:, None] - pairs.log_p[None, :])
        g = (1.0 - pairs.p) * t + pairs.p * pi
        gc = (1.0 - pairs.p) * tc + pairs.p * pic
        want = [(x * pairs.count).sum(axis=1) / prior.M for x in (t, g, tc, gc)]
        np.testing.assert_array_equal(means, want)
        t_bar, g_bar, tc_bar, gc_bar = want
        with np.errstate(divide="ignore", invalid="ignore"):
            fdp = (gc_bar / tc_bar) * (t_bar / g_bar)
        fdp = np.where((t_bar == 0.0) | (g_bar == 0.0), 0.0, fdp)
        fdp = np.where(tc_bar == 0.0, 1.0 - prior.p_max, fdp)
        np.testing.assert_array_equal(vals, fdp)
        assert pairs.count.max() == 10 and vals[0] == 1.0 - prior.p_max and vals[-1] == 0.0

    def test_fdp_approximator_matches_dense_on_ties(self):
        prior = PriorSpec(np.full(30, 0.4), np.repeat([1.0, 2.5, 4.0], 10))
        for k in (1e-6, 0.3, 2.0, 40.0):
            dense = float(dense_fdp_values(prior, [np.log(k)], MODEL)[0])
            assert weights.fdp_approximator(prior, k) == pytest.approx(dense, rel=1e-14)


def certified_cells(prior, model, log_ks):
    """(cell ends, whether each cell passes the monotonicity certificate)
    over the cells between adjacent ``log_ks``."""
    pairs = weights._collapse(prior)
    pts = weights._fdp_scan(pairs, np.asarray(log_ks, dtype=float), model)
    return np.c_[pts[0, :-1], pts[0, 1:]], weights._fdp_cannot_rise(pairs, pts)


def fdp_rises(prior, model, cells, points=41):
    """The largest relative rise of the dense FDP between adjacent points of
    an even grid inside each cell."""
    out = []
    for start in range(0, len(cells), 50):
        chunk = cells[start:start + 50]
        grid = chunk[:, :1] + (chunk[:, 1:] - chunk[:, :1]) * np.linspace(0, 1, points)
        vals = dense_fdp_values(prior, grid.ravel(), model).reshape(grid.shape)
        with np.errstate(divide="ignore", invalid="ignore"):
            out.append(np.nanmax(np.diff(vals, axis=1) / vals[:, :-1], axis=1, initial=-np.inf))
    return np.concatenate(out)


class TestMonotoneCertificate:
    def test_certified_cells_never_rise(self):
        # every cell the certificate accepts, on grids of 8, 64 and 256 cells
        # over the solver's bracket, holds an FDP that does not rise on a
        # dense grid inside it, up to rounding
        rng = np.random.default_rng(31)
        cases = [(prior, MODEL) for prior, _ in random_priors(60, seed=31)]
        cases += [(prior, random_table(rng)) for prior, _ in random_priors(60, seed=32)]
        for k_info in (0.02, 0.1, 0.4):      # tied p = 0.5 count priors
            cases += [(count_prior(k_info)[0], MODEL), (count_prior(k_info)[0], random_table(rng))]
        seen = {}
        for prior, model in cases:
            lo, hi = weights._k_bracket(weights._collapse(prior), model,
                                        log_k_hi=np.log(2.0 / 0.01))
            for n in (9, 65, 257):
                cells, cert = certified_cells(prior, model, np.linspace(lo, hi, n))
                if cert.any():
                    worst = fdp_rises(prior, model, cells[cert]).max()
                    assert worst <= 1e-12, (prior, n, worst)
                key = "normal" if model is MODEL else "table"
                seen[key] = seen.get(key, 0) + int(cert.sum())
        assert min(seen.values()) > 1000, seen

    def test_a_rising_fdp_is_refused(self):
        # the dip prior's FDP climbs from about 0.065 to 0.17 on [-3.5, -1.5]:
        # the certificate refuses the cell, and every piece of it that rises
        prior = NARROW["dip"][0]
        cells, cert = certified_cells(prior, MODEL, [-3.5, -1.5])
        assert fdp_rises(prior, MODEL, cells)[0] > 0.01 and not cert[0]
        cells, cert = certified_cells(prior, MODEL, np.linspace(-3.5, -1.5, 41))
        rising = fdp_rises(prior, MODEL, cells) > 1e-12
        assert rising.sum() > 30 and not cert[rising].any()


def test_cell_bounds_hold_the_fdp():
    # on grids of 8 and 64 cells over the solver's bracket, the dense log FDP
    # at 41 points of every cell whose four means have finite logs at both
    # ends lies within the bounds the search tests against alpha
    rng = np.random.default_rng(41)
    cases = [(prior, MODEL) for prior, _ in random_priors(30, seed=41)]
    cases += [(prior, random_table(rng)) for prior, _ in random_priors(30, seed=42)]
    checked = 0
    for prior, model in cases:
        pairs = weights._collapse(prior)
        lo, hi = weights._k_bracket(pairs, model, log_k_hi=np.log(2.0 / 0.01))
        for n in (9, 65):
            pts = weights._fdp_scan(pairs, np.linspace(lo, hi, n), model)
            lower, upper, _ = weights._log_fdp_bounds(pairs, pts)
            finite = np.isfinite(pts[3:]).all(axis=0)
            cells = np.flatnonzero(finite[:-1] & finite[1:])
            grid = pts[0, cells, None] + np.diff(pts[0])[cells, None] * np.linspace(0, 1, 41)
            log_fdp = np.log(dense_fdp_values(prior, grid.ravel(), model)).reshape(grid.shape)
            assert np.all(log_fdp >= lower[cells, None] - 1e-9), (prior, n)
            assert np.all(log_fdp <= upper[cells, None] + 1e-9), (prior, n)
            checked += cells.size
    assert checked > 3000, checked


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
    # the expanding bracket scanned up to seven grids before giving up; the
    # search certifies the one bracket at fewer points than the oracle's
    # grid, each evaluated once
    scans, refined, log_k = evaluations(prior, 0.05, monkeypatch)
    assert log_k is None and not refined
    points = np.sort(np.concatenate(scans))
    assert np.all(np.diff(points) > 0)
    assert points.size < dense_grid(*weights._k_bracket(prior, MODEL)).size


@pytest.mark.parametrize("gamma", [1e3, 1e4, 1e150])
def test_strong_effects_scan_a_bounded_grid(gamma, monkeypatch):
    # the bracket reaches about -gamma^2/2 in log k, far below the float
    # range of k, and the weak pair puts the crossing near log k = 0 at the
    # far end of it.  A cell straddling alpha shrinks fourfold a round, so
    # the search takes about log4(width / 0.01) rounds of three points:
    # about 60 points at gamma 1e4 and 1,500 at gamma 1e150.
    prior = PriorSpec([0.5, 0.5], [1.0, gamma])
    lo, hi = weights._k_bracket(weights._collapse(prior), MODEL)
    assert 4 * (hi - lo) / np.log(10) > 300 * ORACLE_MAX_POINTS
    scans, refined, log_k = evaluations(prior, 0.05, monkeypatch)
    budget = 3 * np.log((hi - lo) / weights._CELL_WIDTH) / np.log(4) + 30
    assert sum(s.size for s in scans) + len(refined) <= budget
    # the frozen linear-k solver, whose floor hid the strong pair's range,
    # found the same crossing
    want = linear_pre_data_k_star(prior, 0.05, MODEL)
    assert abs(np.exp(log_k) - want) <= 1e-12 * want
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
    for prior, model, alpha, t in sweep_cases(3000):
        key = "table" if model is not MODEL else "normal"
        for seen, outcome in ((pre, sweep_pre_data(prior, model, alpha)),
                              (fixed, sweep_fixed_t(prior, model, t))):
            seen[key, outcome] = seen.get((key, outcome), 0) + 1
    assert pre.get(("normal", "lost"), 0) + pre.get(("table", "lost"), 0) <= 10, pre
    assert min(pre["normal", "bitwise"], pre["table", "bitwise"], fixed["normal", "bitwise"],
               fixed["table", "bitwise"], fixed["normal", "close"]) > 100, (pre, fixed)

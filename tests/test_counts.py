"""Count-data pipeline: score statistic oracles, calibration, full analysis."""

import re

import numpy as np
import pytest

from wamdf.counts import (
    CalibrationError,
    CountDataset,
    analyze,
    calibrate_information,
    generate_synthetic_counts,
    k_from_beta,
    score_statistic,
)
from wamdf.power import NormalLocationModel
from wamdf.simulate import substream

from oracles import per_row_multinomial, per_row_score_statistic

X = np.array([0.86, 1.34, 1.81, 2.37, 3.00])
MODEL = NormalLocationModel()


def score_statistic_matrix_oracle(y, x):
    """Independent arithmetic path: full covariance matrix quadratic form."""
    y = np.asarray(y, dtype=float)
    n = y.sum()
    q = y / n
    sigma = n * (np.diag(q) - np.outer(q, q))
    return (x @ y - n * x.mean()) / np.sqrt(x @ sigma @ x)


class TestScoreStatistic:
    def test_hand_oracle_value(self):
        # frozen from exact fraction arithmetic: numerator 5.018,
        # variance 3.011342857142...
        z = score_statistic([0, 1, 1, 0, 5], X)
        assert z == pytest.approx(2.89168215208, abs=1e-9)
        assert z == pytest.approx(score_statistic_matrix_oracle([0, 1, 1, 0, 5], X), abs=1e-12)

    def test_matrix_oracle_random(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            y = rng.multinomial(int(rng.integers(5, 200)), np.full(5, 0.2))
            if np.count_nonzero(y) < 2:
                continue
            assert score_statistic(y, X) == pytest.approx(
                score_statistic_matrix_oracle(y, X), abs=1e-9
            )

    def test_uniform_counts_zero(self):
        assert score_statistic([2, 2, 2, 2, 2], X) == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_single_cell(self):
        assert np.isnan(score_statistic([0, 0, 7, 0, 0], X))

    def test_zero_total(self):
        assert np.isnan(score_statistic([0, 0, 0, 0, 0], X))

    def test_matrix_matches_per_row_oracle(self):
        # bitwise, with NaN exactly on the zero-total and single-cell rows
        rng = np.random.default_rng(4)
        for g in (2, 5, 8):
            x = rng.normal(size=g)
            totals = rng.integers(0, 5001, 300)
            counts = np.array([rng.multinomial(n, rng.dirichlet(np.ones(g))) for n in totals])
            counts[::17] = 0
            counts[5::23] = 0
            counts[5::23, g - 1] = 40
            z = score_statistic(counts, x)
            assert z.shape == (300,)
            for row, value in zip(counts, z):
                expected = per_row_score_statistic(row, x)
                if expected is None:
                    assert np.isnan(value)
                else:
                    assert value == expected
            assert np.isnan(z[::17]).all() and np.isnan(z[5::23]).all()

    def test_vector_gives_float(self):
        z = score_statistic(np.array([0, 1, 1, 0, 5]), X)
        assert type(z) is float
        assert z == per_row_score_statistic([0, 1, 1, 0, 5], X)

    @pytest.mark.parametrize("counts, x", [
        ([1, 2, 3], X),
        (np.ones((2, 4)), X),
        (np.ones((2, 2, 5)), X),
        ([1, 2, 3, 4, 5], np.ones((5, 1))),
    ])
    def test_shape_mismatch_rejected(self, counts, x):
        with pytest.raises(ValueError, match="covariate length"):
            score_statistic(counts, x)

    def test_affine_invariance(self):
        # replacing x by a + b*x with b > 0 leaves the standardized score
        # unchanged
        rng = np.random.default_rng(3)
        for _ in range(20):
            y = rng.multinomial(50, np.full(5, 0.2))
            if np.count_nonzero(y) < 2:
                continue
            z = score_statistic(y, X)
            z_affine = score_statistic(y, 2.5 + 1.7 * X)
            assert z_affine == pytest.approx(z, abs=1e-9)


class TestKFromBeta:
    def test_zero_beta(self):
        assert k_from_beta(0.0, X) == 0.0

    def test_positive_beta_positive_k(self):
        assert k_from_beta(0.5, X) > 0
        assert k_from_beta(-0.5, X) < 0

    def test_direct_numeric_oracle(self):
        # independent evaluation with explicit probability vector algebra
        beta = 0.5
        e = np.exp(beta * X)
        p = e / e.sum()
        cov = np.diag(p) - np.outer(p, p)
        expected = (X @ (p - 0.2)) / np.sqrt(X @ cov @ X)
        assert k_from_beta(beta, X) == pytest.approx(expected, rel=1e-12)
        assert k_from_beta(beta, X) == pytest.approx(0.38207525895481903, rel=1e-10)


    @pytest.mark.parametrize("x", [[1.0, np.nan, 2.0], [1.0, 1.0, 1.0], [1.0]],
                             ids=["nan", "constant", "single"])
    def test_rejects_bad_covariate(self, x):
        # each used to return nan
        with pytest.raises(ValueError, match="^covariate must be finite with at least two"):
            k_from_beta(0.5, x)


class TestCalibration:
    def test_single_feature_scalar_chain(self):
        # independent scalar oracle: bisect the information constant with a
        # from-scratch inner solve of the plug-in FDP equation
        n = np.array([40.0])
        p, alpha, target = 0.5, 0.05, 0.5

        def scalar_lambda(gamma):
            def fdp(t):
                g = (1 - p) * t + p * MODEL.power(gamma, t)
                return (1 - g) / (1 - t) * (t / g)

            lo, hi = 1e-12, 1 - 1e-12
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if fdp(mid) < alpha:
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)

        def achieved(k):
            gamma = float(np.sqrt(n[0]) * k)
            return MODEL.power(gamma, scalar_lambda(gamma))

        lo, hi = 0.01, 4.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if achieved(mid) < target:
                lo = mid
            else:
                hi = mid
        oracle_k = 0.5 * (lo + hi)
        result = calibrate_information(n, p_prior=p, alpha=alpha, target_avg_power=target)
        assert result.k_info == pytest.approx(oracle_k, abs=1e-7)
        assert result.gamma[0] == pytest.approx(np.sqrt(40.0) * result.k_info, rel=1e-15)

    def test_doubling_totals_lowers_constant(self):
        rng = substream(50, 0)
        n = np.exp(rng.uniform(np.log(6), np.log(912), 80)).astype(int)
        k1 = calibrate_information(n).k_info
        k2 = calibrate_information(2 * n).k_info
        assert k2 < k1

    def test_target_certificate_paper_scale(self):
        rng = substream(51, 0)
        n = np.r_[6, 911, np.exp(rng.uniform(np.log(6), np.log(912), 200)).astype(int)]
        result = calibrate_information(n, p_prior=0.5, alpha=0.05, target_avg_power=0.5)
        assert abs(result.achieved_power - 0.5) <= 1e-6

    def test_jump_across_target_named(self):
        # average power jumps from about 0.16 to 1 near K = 0.0975, where
        # the smallest crossing k* of the inner solve jumps: an earlier
        # crossing, near log k = -9.3, appears there
        ds, _ = generate_synthetic_counts(30, np.arange(1.0, 6.0), substream(1, 0))
        with pytest.raises(CalibrationError) as info:
            calibrate_information(ds.totals, p_prior=0.95, target_avg_power=0.9)
        message = str(info.value)
        assert message.startswith("achieved power 0.99999995 misses target 0.9 beyond 1e-06: ")
        below, above = (float(v) for v in
                        re.findall(r"jumps from (\S+) at K = \S+ to (\S+) at K = ", message)[0])
        k_left, k_right = (float(k) for k in re.findall(r"at K = ([0-9.e+-]+)", message))
        assert below < 0.9 <= above
        assert 0.0975 < k_left < k_right < 0.0976

    @pytest.mark.parametrize("p_prior", [0.5, 0.95])
    def test_each_constant_solved_once(self, monkeypatch, p_prior):
        # the bracketing loops, brentq's ends and its root share one table;
        # with prior 0.95 this input ends at a jump, whose message reads it too
        import wamdf.counts as counts

        solve = counts._average_power
        seen = []

        def recording_power(k_info, *args):
            seen.append(k_info)
            return solve(k_info, *args)

        monkeypatch.setattr(counts, "_average_power", recording_power)
        ds, _ = generate_synthetic_counts(30, np.arange(1.0, 6.0), substream(1, 0))
        try:
            calibrate_information(ds.totals, p_prior=p_prior, target_avg_power=0.9)
        except CalibrationError:
            assert p_prior == 0.95
        assert seen and len(seen) == len(set(seen))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0])
    def test_totals_not_finite_named(self, bad):
        with pytest.raises(ValueError, match="^every feature total must be finite"):
            calibrate_information(np.array([20.0, bad]))

    def test_unreachable_target(self):
        with pytest.raises((CalibrationError, ValueError)):
            calibrate_information(np.array([10.0]), target_avg_power=1.5)

    def test_per_feature_priors(self):
        n = np.array([20.0, 20.0, 200.0])
        uniform = calibrate_information(n, p_prior=0.5)
        tilted = calibrate_information(n, p_prior=np.array([0.7, 0.5, 0.3]))
        # more prior mass raises a feature's weight relative to its twin
        assert tilted.profile.weights[0] > tilted.profile.weights[1]
        assert uniform.profile.weights[0] == pytest.approx(uniform.profile.weights[1])
        with pytest.raises(ValueError, match="match the number"):
            calibrate_information(n, p_prior=np.array([0.5, 0.5]))


class TestAnalyze:
    def test_single_feature_wa_equals_ua(self):
        ds = CountDataset(np.array([[0, 1, 1, 0, 5]]), X)
        result = analyze(ds)
        assert result.n_rejected_wa == result.n_rejected_ua
        assert result.calibration.profile.weights[0] == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_features_excluded(self):
        counts = np.array(
            [
                [0, 1, 1, 0, 5],
                [0, 0, 9, 0, 0],   # one cell: zero variance
                [0, 0, 0, 0, 0],   # empty
                [3, 1, 2, 4, 1],
            ]
        )
        result = analyze(CountDataset(counts, X))
        np.testing.assert_array_equal(result.excluded_indices, [1, 2])
        np.testing.assert_array_equal(result.valid_indices, [0, 3])

    def test_exclusions_match_per_row_oracle(self):
        # the features analysed, their z and the exclusions are those of
        # the per-feature scorer
        rng = substream(63, 0)
        ds, _ = generate_synthetic_counts(400, X, rng)
        counts = ds.counts.copy()
        counts[3::41] = 0
        counts[7::53] = 0
        counts[7::53, 2] = 12
        result = analyze(CountDataset(counts, X))
        oracle = [per_row_score_statistic(row, X) for row in counts]
        excluded = [i for i, z in enumerate(oracle) if z is None]
        assert excluded == sorted(set(range(3, 400, 41)) | set(range(7, 400, 53)))
        assert result.excluded_indices.tolist() == excluded
        assert result.valid_indices.tolist() == [i for i, z in enumerate(oracle) if z is not None]
        np.testing.assert_array_equal(result.table["z"], [z for z in oracle if z is not None])

    def test_per_feature_priors_align_with_rows(self):
        # the prior vector is indexed by dataset row; excluded rows drop out
        counts = np.array(
            [
                [0, 1, 1, 0, 5],
                [0, 0, 9, 0, 0],
                [3, 1, 2, 4, 1],
            ]
        )
        priors = np.array([0.7, 0.9, 0.3])
        result = analyze(CountDataset(counts, X), p_prior=priors)
        assert result.valid_indices.size == 2
        assert result.calibration.profile.weights.size == 2

    def test_weight_power_pattern(self):
        # bimodal totals: a tight mass of tiny features plus a powerful top
        # block; the solved weights lift every small feature above 1 and
        # park the giants near 0 without costing them real power
        rng = substream(9, 1)
        m = 400
        small = rng.random(m) < 0.6
        totals = np.where(small, rng.integers(6, 9, m), rng.integers(100, 912, m))
        counts = np.array([rng.multinomial(t, np.full(5, 0.2)) for t in totals])
        result = analyze(CountDataset(counts, X))
        t = result.table
        small_valid = t["n"] <= 8
        big_valid = t["n"] >= np.quantile(t["n"], 0.9)
        assert (t["weight"][small_valid] > 1.0).all()
        assert (t["power_weighted"][small_valid] > t["power_unweighted"][small_valid]).all()
        assert (t["weight"][big_valid] < 1.0).all()
        hot = t["power_unweighted"] > 0.999
        assert hot.any()
        assert (t["power_weighted"][hot] > 0.99).all()

    def test_all_null_fdp_smoke(self):
        # approximation-valid totals; the full 200-seed study lives in the
        # acceptance suite
        hits = 0
        n_seeds = 20
        for seed in range(n_seeds):
            rng = substream(2000 + seed, 0)
            ds, _ = generate_synthetic_counts(
                150, X, rng, positive_fraction=0.0, total_min=100, total_max=911
            )
            result = analyze(ds)
            hits += result.n_rejected_wa > 0
        se = np.sqrt(0.05 * 0.95 / n_seeds)
        assert hits / n_seeds <= 0.05 + 3 * se


class TestCountDataset:
    def test_validation(self):
        with pytest.raises(ValueError):
            CountDataset(np.array([[1, -1, 0, 0, 0]]), X)
        with pytest.raises(ValueError):
            CountDataset(np.array([[1.5, 0, 0, 0, 0]]), X)
        with pytest.raises(ValueError):
            CountDataset(np.array([[1, 2, 3]]), X)
        with pytest.raises(ValueError):
            CountDataset(np.array([[1, 2, 3, 4, 5]]), np.full(5, 1.0))

    def test_csv(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("g1,g2,g3,g4,g5\n0,1,1,0,5\n9,2,0,0,3\n")
        ds = CountDataset.from_csv(path, X)
        assert ds.n_features == 2
        np.testing.assert_array_equal(ds.totals, [7, 14])

    def test_csv_headerless(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("0,1,1,0,5\n")
        assert CountDataset.from_csv(path, X).n_features == 1

    def test_csv_ragged(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("0,1,1,0,5\n1,2\n")
        with pytest.raises(ValueError, match="ragged"):
            CountDataset.from_csv(path, X)

    def test_csv_non_integer(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("0,1,x,0,5\n")
        with pytest.raises(ValueError, match="non-integer"):
            CountDataset.from_csv(path, X)

    @pytest.mark.parametrize("text, named", [
        ("0,1,1,0," + "5" * 200_000 + "\n", "field limit"),
        ("0,1,1,0,100000000000000000000\n", "out of range"),
        ("0,1,1,0,9223372036854775808\n", "out of range"),
        ("g1,g2,g3\n0,1,1,0,5\n", "ragged"),
    ], ids=["huge-field", "count-1e20", "count-2^63", "narrow-header"])
    def test_csv_rejected(self, tmp_path, text, named):
        path = tmp_path / "counts.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=named) as info:
            CountDataset.from_csv(path, X)
        assert str(info.value).startswith(f"{path}: ")


class TestSyntheticGenerator:
    def test_shapes_and_ranges(self):
        rng = substream(60, 0)
        ds, theta = generate_synthetic_counts(50, X, rng)
        assert ds.n_features == 50 and theta.size == 50
        assert ds.totals.min() >= 6 and ds.totals.max() <= 911

    def test_null_fraction(self):
        rng = substream(61, 0)
        _, theta = generate_synthetic_counts(400, X, rng, positive_fraction=0.5)
        assert abs(theta.mean() - 0.5) <= 3 * np.sqrt(0.25 / 400)

    @pytest.mark.parametrize("kwargs, named", [
        (dict(n_features=0), "n_features"), (dict(n_features=-5), "n_features"),
        (dict(beta=np.nan), "beta"), (dict(beta=np.inf), "beta"), (dict(beta=-np.inf), "beta"),
        (dict(positive_fraction=np.nan), "positive_fraction"),
        (dict(positive_fraction=2.0), "positive_fraction"),
        (dict(positive_fraction=-0.1), "positive_fraction"),
    ])
    def test_rejects_bad_arguments(self, kwargs, named):
        kwargs = {"n_features": 10, **kwargs}
        with pytest.raises(ValueError, match=f"^{named} must"):
            generate_synthetic_counts(x=X, rng=substream(1, 0), **kwargs)

    @pytest.mark.parametrize("n_features", [1, 3, 150, 2000])
    def test_matches_per_row_loop(self, n_features):
        p_alt = np.exp(0.35 * X - (0.35 * X).max())
        p_alt /= p_alt.sum()
        for seed in range(4):
            for make in (np.random.default_rng, lambda s: substream(s, 0)):
                ds, theta = generate_synthetic_counts(n_features, X, make(seed))
                # replay the totals and planted-flag draws, then the rows
                rng = make(seed)
                rng.uniform(size=n_features)
                rng.random(n_features)
                expected = per_row_multinomial(rng, ds.totals, theta, p_alt, np.full(5, 0.2))
                assert ds.counts.dtype == expected.dtype
                np.testing.assert_array_equal(ds.counts, expected)

    def test_positives_trend_upward(self):
        rng = substream(62, 0)
        ds, theta = generate_synthetic_counts(
            200, X, rng, beta=1.0, total_min=200, total_max=300
        )
        z = np.array([score_statistic(y, X) for y in ds.counts])
        assert z[theta].mean() > z[~theta].mean() + 2.0

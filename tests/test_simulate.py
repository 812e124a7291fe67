"""Monte Carlo harness: generation laws, evaluation, reproducibility."""

import os
import subprocess
import sys
import textwrap
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

import wamdf
from wamdf.procedures import run_procedure
from wamdf.simulate import (
    SimConfig,
    evaluate,
    generate_du,
    generate_model1,
    run_simulation,
    simulation_preset,
    substream,
)


class TestGenerateModel1:
    def test_all_null_uniform_pvalues(self):
        config = SimConfig(M=10_000, n_reps=1, seed=1, p_fixed=0.0)
        theta, p, gamma, pvalues = generate_model1(config, substream(1, 0))
        assert not theta.any()
        assert stats.kstest(pvalues, "uniform").pvalue > 0.01

    def test_vanishing_effect_is_null(self):
        config = SimConfig(
            M=10_000, n_reps=1, seed=2, p_fixed=1.0, gamma_fixed=1e-12,
        )
        theta, _, _, pvalues = generate_model1(config, substream(2, 0))
        assert theta.all()
        assert stats.kstest(pvalues, "uniform").pvalue > 0.01

    def test_theta_mean_matches_prior(self):
        config = simulation_preset(1, a=5, M=10_000, n_reps=1, seed=3)
        theta, _, _, _ = generate_model1(config, substream(3, 0))
        se = np.sqrt(0.25 / config.M)
        assert abs(theta.mean() - 0.5) <= 3 * se

    def test_homogeneous_a1_gammas(self):
        config = simulation_preset(1, a=1, M=100, n_reps=1, seed=4)
        _, _, gamma, _ = generate_model1(config, substream(4, 0))
        assert np.ptp(gamma) == 0.0 and gamma[0] == 1.0


class TestGenerateDu:
    def test_all_signal(self):
        pvalues = generate_du(0, 5, substream(5, 0))
        assert np.array_equal(pvalues, np.zeros(5))
        report = run_procedure("UA", pvalues, alpha=0.01, lam=0.5)
        assert report.n_rejected == 5
        theta = np.ones(5, dtype=bool)
        assert evaluate(theta, report) == (0.0, 1.0)

    def test_all_null_fdp_is_indicator(self):
        pvalues = generate_du(5, 0, substream(6, 0))
        assert pvalues.min() > 0.0
        report = run_procedure("UU", pvalues, alpha=0.05)
        theta = np.zeros(5, dtype=bool)
        fdp, cdp = evaluate(theta, report)
        assert fdp == float(report.n_rejected > 0)
        assert cdp == 0.0

    def test_layout(self):
        pvalues = generate_du(3, 2, substream(7, 0))
        assert pvalues.size == 5
        assert np.array_equal(pvalues[3:], [0.0, 0.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            generate_du(0, 0, substream(8, 0))

    @pytest.mark.parametrize("m0, m1, named", [
        (np.nan, 3, "m0"), (2.5, 3, "m0"), (3, np.inf, "m1"), (True, 3, "m0"),
    ], ids=["nan", "fractional", "inf", "bool"])
    def test_non_integer_counts_named(self, m0, m1, named):
        # NaN and 2.5 used to raise numpy's TypeError from the draw
        with pytest.raises(ValueError, match=f"^{named} must be an integer, got "):
            generate_du(m0, m1, substream(8, 0))


class TestEvaluate:
    def _report(self, rejected):
        from wamdf.procedures import DecisionReport

        rejected = np.asarray(rejected, dtype=bool)
        n = rejected.size
        return DecisionReport(
            variant="UU", alpha=0.05, lam=None, u=1.0, t_hat=0.0, m0_hat=n,
            rejected=rejected, pvalues=np.zeros(n), weights=np.ones(n),
            q=np.zeros(n),
        )

    def test_zero_rejections(self):
        assert evaluate([True, False], self._report([False, False])) == (0.0, 0.0)

    def test_all_nulls_rejected(self):
        assert evaluate([False, False], self._report([True, True]))[0] == 1.0

    def test_mixed_counts(self):
        fdp, cdp = evaluate([True, True, False, False], self._report([True, False, True, False]))
        assert (fdp, cdp) == (0.5, 0.5)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            evaluate([True], self._report([True, False]))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(M=0, n_reps=1, seed=1)
        with pytest.raises(ValueError):
            SimConfig(M=1, n_reps=1, seed=1, weight_mode="nope")
        with pytest.raises(ValueError):
            SimConfig(M=1, n_reps=1, seed=1, lambda_fixed=1.5)
        with pytest.raises(ValueError):
            SimConfig(M=1, n_reps=1, seed=1, variants=("UU", "ZZ"))

    def test_presets(self):
        assert simulation_preset(1).p_fixed == 0.5
        assert simulation_preset(2).p_fixed is None
        assert simulation_preset(3).weight_mode == "perturbed"
        assert simulation_preset(4).weight_mode == "independent"
        with pytest.raises(ValueError):
            simulation_preset(5)

    def test_from_file(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text(
            "# smoke config\n"
            "preset = 3\n"
            "M = 50\n"
            "n_reps = 4\n"
            "seed = 9\n"
            "gamma_a = 3\n"
        )
        config = SimConfig.from_file(path)
        assert config.weight_mode == "perturbed"
        assert (config.M, config.n_reps, config.seed) == (50, 4, 9)
        assert config.gamma_a == 3.0

    def test_given_values_fix_a_drawn_preset(self, tmp_path, monkeypatch):
        # preset 2 draws priors and effect sizes and solves the census
        # level; each value given in the file fixes its law
        import wamdf.simulate as simulate

        path = tmp_path / "sim.cfg"
        path.write_text("preset = 2\nM = 20\nn_reps = 2\nseed = 3\n"
                        "p_fixed = 0.3\ngamma_fixed = 2\nlambda_fixed = 0.2\n")
        config = SimConfig.from_file(path)
        _, p, gamma, _ = generate_model1(config, substream(3, 0))
        assert np.all(p == 0.3) and np.all(gamma == 2.0)
        lams = []

        def recording_run(variant, pvalues, **kwargs):
            lams.append(kwargs["lam"])
            return run_procedure(variant, pvalues, **kwargs)

        monkeypatch.setattr(simulate, "run_procedure", recording_run)
        run_simulation(config)
        assert lams == [0.2] * (config.n_reps * len(config.variants))

    @pytest.mark.parametrize("field, value", [
        ("p_fixed", np.nan), ("p_fixed", 1.5), ("gamma_fixed", 0.0),
        ("gamma_fixed", np.inf), ("lambda_fixed", 0.0), ("lambda_fixed", np.nan),
    ])
    def test_law_values_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must"):
            SimConfig(M=1, n_reps=1, seed=1, **{field: value})

    @pytest.mark.parametrize("field, value", [
        ("M", 10.5), ("M", 10.0), ("n_reps", np.nan), ("seed", 0.5),
        ("M", True), ("n_reps", True), ("seed", False),
    ])
    def test_integer_fields_rejected_by_name(self, field, value):
        # each used to construct, and run_simulation then raised a TypeError
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            SimConfig(**{"M": 10, "n_reps": 2, "seed": 0, field: value})

    @pytest.mark.parametrize("field, value", [
        ("preset", 7), ("preset", 0), ("preset", 2.0), ("variants", ()),
    ], ids=["preset-7", "preset-0", "preset-2.0", "variants-empty"])
    def test_preset_and_variants_rejected_by_name(self, field, value):
        # each used to construct; an empty variants solved every replication
        # and reported nothing
        with pytest.raises(ValueError, match=f"^{field} must"):
            SimConfig(M=20, n_reps=2, seed=1, **{field: value})

    def test_bool_preset_rejected(self):
        # bool is an Integral: True used to stand for preset 1, and the
        # summary wrote "preset": true
        with pytest.raises(ValueError, match="^preset must be an integer"):
            SimConfig(M=20, n_reps=2, seed=1, preset=True)
        with pytest.raises(ValueError, match="^preset must be an integer"):
            simulation_preset(True, M=20, n_reps=2, seed=1)

    def test_float_preset_rejected(self):
        # used to write "preset": 2.0 to summary_a*.json
        with pytest.raises(ValueError, match="^preset must be an integer"):
            simulation_preset(2.0, M=20, n_reps=2, seed=1)

    def test_from_file_variants_and_weight_mode(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text("preset = 2\nvariants = WA, UA\nweight_mode = independent\n")
        config = SimConfig.from_file(path)
        assert config == replace(simulation_preset(2), variants=("WA", "UA"),
                                 weight_mode="independent")

    def test_none_draws_the_law(self, tmp_path):
        # preset 1 fixes p at 0.5; None in the file draws it again
        path = tmp_path / "sim.cfg"
        path.write_text("preset = 1\nM = 20\nn_reps = 2\nseed = 3\np_fixed = None\n"
                        "gamma_fixed = None\nlambda_fixed = None\n")
        config = SimConfig.from_file(path)
        assert (config.p_fixed, config.gamma_fixed, config.lambda_fixed) == (None, None, None)
        _, p, _, _ = generate_model1(config, substream(3, 0))
        assert np.unique(p).size == 20

    def test_from_file_names_a_line_without_equals(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text("# sizes\nM = 10\nn_reps 2\n")
        with pytest.raises(ValueError) as info:
            SimConfig.from_file(path)
        assert str(info.value) == f"{path}:3: expected 'key = value'"

    def test_from_file_rejects_unknown_key(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text("M = 10\nn_reps = 2\nseed = 1\nbogus = 3\n")
        with pytest.raises(ValueError, match="bogus"):
            SimConfig.from_file(path)


class TestRunSimulation:
    def test_bitwise_reproducibility(self):
        config = simulation_preset(1, a=3, M=60, n_reps=10, seed=21)
        s1 = run_simulation(config)
        s2 = run_simulation(config)
        for v in config.variants:
            np.testing.assert_array_equal(s1.fdp[v], s2.fdp[v])
            np.testing.assert_array_equal(s1.cdp[v], s2.cdp[v])

    def test_threads_do_not_change_results(self):
        config = simulation_preset(3, a=5, M=40, n_reps=8, seed=22)
        serial = run_simulation(config, threads=1)
        parallel = run_simulation(config, threads=2)
        for v in config.variants:
            np.testing.assert_array_equal(serial.fdp[v], parallel.fdp[v])
            np.testing.assert_array_equal(serial.cdp[v], parallel.cdp[v])

    def test_pool_bounded_by_replications(self, monkeypatch):
        # records the pool size and maps serially: no worker process starts
        started = []

        class RecordingPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
        config = simulation_preset(1, a=3, M=30, n_reps=2, seed=24)
        serial = run_simulation(config, threads=1)
        assert started == []
        pooled = run_simulation(config, threads=64)
        assert started == [2]
        run_simulation(replace(config, n_reps=1), threads=8)
        assert started == [2]
        for v in config.variants:
            np.testing.assert_array_equal(serial.fdp[v], pooled.fdp[v])

    def test_scipy_loaded_before_the_pool_starts(self):
        # a worker started by fork inherits the loaded scipy.special; one
        # started before it loaded would import it again at its first tail
        code = textwrap.dedent("""
            import concurrent.futures, sys
            from wamdf import power
            from wamdf.simulate import run_simulation, simulation_preset

            class Pool(concurrent.futures.ProcessPoolExecutor):
                def __init__(self, max_workers):
                    special = sys.modules.get("scipy.special")
                    print(special is not None and power.ndtr is special.ndtr
                          and power.ndtri is special.ndtri)
                    super().__init__(max_workers)

            concurrent.futures.ProcessPoolExecutor = Pool
            print("scipy" in sys.modules)
            run_simulation(simulation_preset(1, a=3, M=30, n_reps=2, seed=24), threads=2)
        """)
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(wamdf.__file__)))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True, timeout=120)
        assert done.stdout.split() == ["False", "True"]

    @pytest.mark.parametrize("threads", [0, -2])
    def test_threads_below_one_rejected(self, threads):
        config = simulation_preset(1, a=3, M=30, n_reps=2, seed=24)
        with pytest.raises(ValueError, match="^threads must be at least 1"):
            run_simulation(config, threads=threads)

    @pytest.mark.parametrize("threads", [1.5, True, None])
    def test_non_integer_threads_rejected(self, threads):
        # 1.5 reached ProcessPoolExecutor's TypeError and True ran as 1
        config = simulation_preset(1, a=3, M=30, n_reps=2, seed=24)
        with pytest.raises(ValueError, match=f"^threads must be an integer, got {threads!r}$"):
            run_simulation(config, threads=threads)

    def test_homogeneous_weights_make_wa_equal_ua(self):
        config = simulation_preset(1, a=1, M=150, n_reps=12, seed=23)
        summary = run_simulation(config)
        np.testing.assert_array_equal(summary.cdp["WA"], summary.cdp["UA"])
        np.testing.assert_array_equal(summary.fdp["WA"], summary.fdp["UA"])
        np.testing.assert_array_equal(summary.cdp["WU"], summary.cdp["UU"])

    def test_lambda_above_u_fails_only_adaptive_variants(self):
        # perturbed weights put u below 0.3 here; UU and WU never use lambda
        # and used to fail on it all the same
        config = replace(simulation_preset(3, a=5, M=300, n_reps=2, seed=2),
                         lambda_fixed=0.3, variants=("UU", "WU"))
        assert run_simulation(config).n_completed == 2
        with pytest.raises(ValueError,
                           match=r"^replication \(seed=2, rep=0\): lambda must not exceed u$"):
            run_simulation(replace(config, variants=("UU", "WA")))

    def test_smoke_ordering_and_control(self):
        # small version of the heterogeneous study: adaptive/weighted
        # variants order by power, and every variant controls the level
        config = simulation_preset(1, a=5, M=200, n_reps=100, seed=7)
        summary = run_simulation(config, threads=2)
        cdp = {v: summary.mean(v, "cdp") for v in config.variants}
        se = {v: summary.se(v, "cdp") for v in config.variants}
        assert cdp["WA"] >= cdp["UA"] - 2 * (se["WA"] + se["UA"])
        assert cdp["UA"] >= cdp["UU"] - 2 * (se["UA"] + se["UU"])
        assert cdp["WA"] >= cdp["WU"] - 2 * (se["WA"] + se["WU"])
        for v in config.variants:
            assert summary.mean(v, "fdp") <= 0.05 + 2 * summary.se(v, "fdp")

    def test_less_conservative_per_replication(self):
        # with the null-count estimate at or below M, the adaptive variant
        # rejects at least as much as its unadaptive counterpart
        from wamdf.weights import asymptotically_optimal_weights, PriorSpec

        config = simulation_preset(2, a=5, M=120, n_reps=30, seed=31)
        checked = 0
        for rep in range(config.n_reps):
            rng = substream(config.seed, rep)
            theta, p, gamma, pvalues = generate_model1(config, rng)
            profile = asymptotically_optimal_weights(PriorSpec(p, gamma), 0.05)
            lam, w, u = profile.t_bar, profile.weights, profile.u
            wa = run_procedure("WA", pvalues, weights=w, alpha=0.05, lam=lam, u=u)
            wu = run_procedure("WU", pvalues, weights=w, alpha=0.05, u=u)
            ua = run_procedure("UA", pvalues, alpha=0.05, lam=lam, u=1.0)
            uu = run_procedure("UU", pvalues, alpha=0.05, u=1.0)
            if wa.m0_hat <= config.M:
                checked += 1
                assert wa.n_rejected >= wu.n_rejected
            if ua.m0_hat <= config.M:
                assert ua.n_rejected >= uu.n_rejected
        assert checked > 15

    def test_heterogeneous_prior_studies_ordering(self):
        # the published pattern at moderate effect spread: weighted/adaptive
        # variants order by power and every variant holds the level
        for preset in (2, 3):
            config = simulation_preset(preset, a=3, M=200, n_reps=60, seed=13)
            summary = run_simulation(config, threads=2)
            cdp = {v: summary.mean(v, "cdp") for v in config.variants}
            se = {v: summary.se(v, "cdp") for v in config.variants}
            assert cdp["WA"] >= cdp["UA"] - 2 * (se["WA"] + se["UA"])
            assert cdp["UA"] >= cdp["UU"] - 2 * (se["UA"] + se["UU"])
            assert cdp["WA"] >= cdp["WU"] - 2 * (se["WA"] + se["WU"])
            for v in config.variants:
                assert summary.mean(v, "fdp") <= 0.05 + 2 * summary.se(v, "fdp")

    def test_skipped_replications_counted(self):
        # a single strong test with prior drawn above 1 - alpha admits no
        # solution; those replications must be skipped and counted
        config = SimConfig(
            M=1, n_reps=40, seed=30, p_fixed=None, gamma_fixed=2.5,
        )
        summary = run_simulation(config)
        assert summary.n_skipped > 0
        assert summary.n_completed == config.n_reps - summary.n_skipped
        for v in config.variants:
            assert summary.fdp[v].size == summary.n_completed

    def test_worker_failure_names_its_replication(self, monkeypatch):
        # any failure but NoSolutionError propagates with its type and
        # (seed, rep), and substream(seed, rep) replays the failing input
        import wamdf.simulate as simulate

        solve = simulate.asymptotically_optimal_weights
        seen = []

        def failing_solve(prior, alpha):
            seen.append(prior.p.copy())
            if len(seen) == 3:
                raise FloatingPointError("overflow in the solve")
            return solve(prior, alpha)

        monkeypatch.setattr(simulate, "asymptotically_optimal_weights", failing_solve)
        config = simulation_preset(2, a=3, M=20, n_reps=5, seed=17)
        with pytest.raises(FloatingPointError,
                           match=r"^replication \(seed=17, rep=2\): overflow in the solve$"):
            run_simulation(config, threads=1)
        _, p, _, _ = generate_model1(config, substream(17, 2))
        np.testing.assert_array_equal(seen[2], p)

    def test_summary_serialization(self, tmp_path):
        import json

        config = simulation_preset(1, a=3, M=30, n_reps=3, seed=41)
        summary = run_simulation(config)
        path = tmp_path / "summary.json"
        path.write_text(json.dumps(summary.to_dict()))
        with open(path) as fh:
            d = json.load(fh)
        assert d["M"] == 30 and d["n_completed"] == 3
        assert set(d["variants"]) == set(config.variants)

    def test_single_rep_se_is_none(self):
        config = simulation_preset(1, a=3, M=30, n_reps=1, seed=43)
        summary = run_simulation(config)
        assert summary.se("WA", "cdp") is None
        assert summary.to_dict()["variants"]["WA"]["cdp_se"] is None

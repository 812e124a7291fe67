"""CLI: exit-code contract, file formats, manifests, round trips."""

import json

import numpy as np
import pytest

from wamdf.cli import EXIT_INPUT, EXIT_NO_SOLUTION, EXIT_OK, EXIT_WARNING, main

WORKED_PRIOR = "p,gamma\n" + "".join(
    f"0.5,{g}\n" for g in [2, 2, 2, 2, 2, 3, 3, 3, 3, 3]
)

WORKED_PVALUES = "p,weight\n" + "".join(
    f"{q * w},{w}\n"
    for q, w in zip(
        [0.001, 0.005, 0.006, 0.062, 0.106, 0.2, 0.3, 0.45, 0.6, 0.844],
        [0.74, 1.26, 0.74, 1.26, 1.26, 0.74, 1.26, 0.74, 1.26, 0.74],
    )
)


@pytest.fixture
def prior_file(tmp_path):
    path = tmp_path / "prior.csv"
    path.write_text(WORKED_PRIOR)
    return path


class TestWeightsCommand:
    def test_worked_example(self, tmp_path, prior_file):
        out = tmp_path / "out"
        code = main(["weights", str(prior_file), "--alpha", "0.05", "--out", str(out)])
        assert code == EXIT_OK
        with open(out / "weights.json") as fh:
            d = json.load(fh)
        assert d["k_star"] == pytest.approx(2.52, abs=0.01)
        assert d["t_bar"] == pytest.approx(0.028, abs=5e-4)
        assert d["u"] == pytest.approx(0.79, abs=5e-3)
        assert (out / "manifest.json").exists()
        assert (out / "weights.tsv").exists()

    def test_homogeneous_fixed_t(self, tmp_path):
        prior = tmp_path / "prior.csv"
        prior.write_text("p,gamma\n0.5,2\n0.5,2\n0.5,2\n")
        out = tmp_path / "out"
        assert main(["weights", str(prior), "--t", "0.05", "--out", str(out)]) == EXIT_OK
        with open(out / "weights.json") as fh:
            d = json.load(fh)
        np.testing.assert_allclose(d["weights"], 1.0, atol=1e-10)

    def test_precondition_failure_exit_2(self, tmp_path):
        prior = tmp_path / "prior.csv"
        prior.write_text("p,gamma\n0.96,2\n")
        out = tmp_path / "out"
        code = main(["weights", str(prior), "--alpha", "0.05", "--out", str(out)])
        assert code == EXIT_NO_SOLUTION

    def test_out_of_regime_warning_exit_3(self, tmp_path):
        prior = tmp_path / "prior.csv"
        prior.write_text("p,gamma\n0.97,2\n0.4,2\n0.4,3\n0.4,2.5\n")
        out = tmp_path / "out"
        code = main(["weights", str(prior), "--alpha", "0.05", "--out", str(out)])
        assert code == EXIT_WARNING
        with open(out / "weights.json") as fh:
            assert json.load(fh)["warning"] is True

    def test_requires_exactly_one_target(self, tmp_path, prior_file):
        out = tmp_path / "out"
        assert main(["weights", str(prior_file), "--out", str(out)]) == EXIT_INPUT
        assert (
            main(["weights", str(prior_file), "--alpha", "0.05", "--t", "0.05",
                  "--out", str(out)])
            == EXIT_INPUT
        )

    def test_missing_file(self, tmp_path):
        assert (
            main(["weights", str(tmp_path / "nope.csv"), "--alpha", "0.05",
                  "--out", str(tmp_path / "o")])
            == EXIT_INPUT
        )

    def test_tabulated_power_curve(self, tmp_path):
        knots = np.r_[0.0, np.logspace(-8, 0, 33)]
        curve = tmp_path / "curve.csv"
        curve.write_text(
            "t,power\n" + "\n".join(f"{t},{np.sqrt(t)}" for t in knots) + "\n"
        )
        prior = tmp_path / "prior.csv"
        prior.write_text("p,gamma\n0.3,1\n0.6,2\n0.5,1.5\n")
        out = tmp_path / "out"
        code = main(["weights", str(prior), "--alpha", "0.05",
                     "--power-table", str(curve), "--out", str(out)])
        assert code == EXIT_OK
        with open(out / "weights.json") as fh:
            d = json.load(fh)
        assert len(d["weights"]) == 3


class TestRunCommand:
    def test_worked_battery(self, tmp_path):
        pvals = tmp_path / "pvals.csv"
        pvals.write_text(WORKED_PVALUES)
        out = tmp_path / "out"
        code = main([
            "run", str(pvals), "--variant", "WA", "--alpha", "0.05",
            "--lambda", "0.028", "--u", "0.79", "--out", str(out),
        ])
        assert code == EXIT_OK
        with open(out / "report.json") as fh:
            d = json.load(fh)
        assert d["R"] == 3
        assert d["rejected_indices"] == [0, 1, 2]
        lines = (out / "report.tsv").read_text().strip().split("\n")
        assert len(lines) == 11

    def test_uu_matches_oracle(self, tmp_path):
        pvals = tmp_path / "pvals.csv"
        pvals.write_text("p\n0.01\n0.02\n0.5\n0.9\n")
        out = tmp_path / "out"
        assert main(["run", str(pvals), "--variant", "UU", "--alpha", "0.2",
                     "--unit", "--out", str(out)]) == EXIT_OK
        with open(out / "report.json") as fh:
            assert json.load(fh)["R"] == 2

    def test_weights_roundtrip(self, tmp_path, prior_file):
        wout = tmp_path / "wout"
        main(["weights", str(prior_file), "--alpha", "0.05", "--out", str(wout)])
        pvals = tmp_path / "pvals.csv"
        pvals.write_text(WORKED_PVALUES)
        rout = tmp_path / "rout"
        code = main([
            "run", str(pvals), "--weights", str(wout / "weights.json"),
            "--variant", "WA", "--alpha", "0.05", "--out", str(rout),
        ])
        assert code == EXIT_OK
        with open(rout / "report.json") as fh:
            d = json.load(fh)
        # lambda and u picked up from the weights profile
        assert d["lambda"] == pytest.approx(0.028, abs=5e-4)
        assert d["R"] == 3

    def test_empty_pvalue_file(self, tmp_path):
        pvals = tmp_path / "pvals.csv"
        pvals.write_text("p\n")
        assert (
            main(["run", str(pvals), "--variant", "UU", "--out", str(tmp_path / "o")])
            == EXIT_INPUT
        )

    def test_adaptive_needs_lambda(self, tmp_path):
        pvals = tmp_path / "pvals.csv"
        pvals.write_text("p\n0.01\n")
        assert (
            main(["run", str(pvals), "--variant", "UA", "--out", str(tmp_path / "o")])
            == EXIT_INPUT
        )

    def test_finite_fdr_flag(self, tmp_path):
        pvals = tmp_path / "pvals.csv"
        pvals.write_text(WORKED_PVALUES)
        out = tmp_path / "out"
        code = main([
            "run", str(pvals), "--variant", "WA", "--alpha", "0.05",
            "--lambda", "0.2", "--finite-fdr", "--out", str(out),
        ])
        assert code == EXIT_OK
        with open(out / "report.json") as fh:
            d = json.load(fh)
        assert d["u"] == 0.2


class TestTsvRows:
    # literal rows pin the number formats: floats as .10g, flags as integers

    def test_weights_tsv(self, tmp_path, prior_file):
        out = tmp_path / "out"
        assert main(["weights", str(prior_file), "--alpha", "0.05", "--out", str(out)]) == EXIT_OK
        lines = (out / "weights.tsv").read_text().split("\n")
        assert lines[0] == "index\tp\tgamma\tweight\tthreshold"
        assert lines[1] == "0\t0.5\t2\t1.260065883\t0.03537176254"
        assert lines[6] == "5\t0.5\t3\t0.7399341168\t0.02077095668"

    def test_report_tsv(self, tmp_path):
        pvals = tmp_path / "pvals.csv"
        pvals.write_text(WORKED_PVALUES)
        out = tmp_path / "out"
        assert main(["run", str(pvals), "--variant", "WA", "--alpha", "0.05",
                     "--lambda", "0.028", "--u", "0.79", "--out", str(out)]) == EXIT_OK
        lines = (out / "report.tsv").read_text().split("\n")
        assert lines[1] == "0\t0.00074\t0.74\t0.001\t1"
        assert lines[10] == "9\t0.62456\t0.74\t0.844\t0"

    def test_report_tsv_layout(self, tmp_path):
        pvals = tmp_path / "pvals.csv"
        pvals.write_text("p\n0.01\n0.2\n0.9\n")
        out = tmp_path / "out"
        assert main(["run", str(pvals), "--variant", "UA", "--alpha", "0.2",
                     "--lambda", "0.5", "--out", str(out)]) == EXIT_OK
        lines = (out / "report.tsv").read_text().strip().split("\n")
        assert lines[0] == "index\tp\tweight\tq\trejected"
        assert len(lines) == 4

    def test_features_tsv(self, tmp_path):
        out = tmp_path / "out"
        assert main(["analyze", "--synthetic", "80", "--seed", "31",
                     "--x", "0.86,1.34,1.81,2.37,3.00", "--out", str(out)]) == EXIT_OK
        lines = (out / "features.tsv").read_text().split("\n")
        assert lines[0] == "feature\tn\tz\tp\tgamma\tweight\tq\trejected_wa\trejected_ua"
        assert lines[1] == ("0\t72\t1.029314528\t0.1516659493\t1.63385694\t2.059877326"
                            "\t0.07362863183\t0\t0")
        assert lines[19] == ("18\t65\t1.734318043\t0.0414308339\t1.552402943\t2.009204064"
                             "\t0.02062052066\t1\t0")
        power = (out / "weight_power.tsv").read_text().split("\n")
        assert power[1] == "0\t1.63385694\t2.059877326\t0.3145673889\t0.430874529"


class TestSimulateCommand:
    def test_small_run_outputs(self, tmp_path):
        out = tmp_path / "out"
        code = main([
            "simulate", "--preset", "1", "--a", "3", "--M", "40", "--K", "5",
            "--seed", "2", "--threads", "1", "--out", str(out),
        ])
        assert code == EXIT_OK
        with open(out / "summary_a3.json") as fh:
            d = json.load(fh)
        assert d["n_completed"] == 5
        table = (out / "table.tsv").read_text()
        assert table.startswith("variant\t")
        long_form = (out / "long.tsv").read_text().strip().split("\n")
        assert long_form[0] == "variant\ta\tmetric\tvalue\tse"
        assert len(long_form) == 1 + 4 * 2
        with open(out / "manifest.json") as fh:
            manifest = json.load(fh)
        assert manifest["seed"] == 2
        assert manifest["subcommand"] == "simulate"

    def test_single_rep_se_null(self, tmp_path):
        out = tmp_path / "out"
        assert main([
            "simulate", "--preset", "1", "--a", "1", "--M", "30", "--K", "1",
            "--seed", "4", "--threads", "1", "--out", str(out),
        ]) == EXIT_OK
        with open(out / "summary_a1.json") as fh:
            d = json.load(fh)
        assert d["variants"]["WA"]["cdp_se"] is None

    def test_invalid_preset_exit_1(self, tmp_path):
        assert main([
            "simulate", "--preset", "9", "--seed", "1", "--out", str(tmp_path / "o"),
        ]) == EXIT_INPUT

    def test_missing_seed_exit_1(self, tmp_path):
        assert main([
            "simulate", "--preset", "1", "--out", str(tmp_path / "o"),
        ]) == EXIT_INPUT

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("preset = 1\nM = 30\nn_reps = 3\nseed = 6\ngamma_a = 1\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--threads", "1",
                     "--out", str(out)]) == EXIT_OK
        assert (out / "summary_a1.json").exists()


class TestAnalyzeCommand:
    def test_single_feature(self, tmp_path):
        counts = tmp_path / "counts.csv"
        counts.write_text("0,1,1,0,5\n")
        out = tmp_path / "out"
        code = main([
            "analyze", str(counts), "--x", "0.86,1.34,1.81,2.37,3.00",
            "--out", str(out),
        ])
        assert code == EXIT_OK
        with open(out / "analysis.json") as fh:
            d = json.load(fh)
        assert d["rejected_wa"] == d["rejected_ua"]
        assert (out / "features.tsv").exists()
        assert (out / "weight_power.tsv").exists()

    def test_synthetic_snapshot(self, tmp_path):
        # frozen after the first verified run; counter-based substreams make
        # this exactly reproducible
        out = tmp_path / "out"
        code = main([
            "analyze", "--synthetic", "80", "--seed", "31",
            "--x", "0.86,1.34,1.81,2.37,3.00", "--out", str(out),
        ])
        assert code == EXIT_OK
        with open(out / "analysis.json") as fh:
            d = json.load(fh)
        assert (d["rejected_wa"], d["rejected_ua"]) == (28, 27)
        assert (out / "synthetic_counts.csv").exists()

    def test_synthetic_requires_seed(self, tmp_path):
        assert main([
            "analyze", "--synthetic", "10", "--x", "1,2,3,4,5",
            "--out", str(tmp_path / "o"),
        ]) == EXIT_INPUT

    def test_malformed_counts_exit_1(self, tmp_path):
        counts = tmp_path / "counts.csv"
        counts.write_text("0,1,x,0,5\n")
        assert main([
            "analyze", str(counts), "--x", "1,2,3,4,5", "--out", str(tmp_path / "o"),
        ]) == EXIT_INPUT

    def test_requires_covariate(self, tmp_path):
        counts = tmp_path / "counts.csv"
        counts.write_text("0,1,1,0,5\n")
        assert main(["analyze", str(counts), "--out", str(tmp_path / "o")]) == EXIT_INPUT


class TestBoundsCommand:
    def test_both_outputs(self, capsys):
        code = main([
            "bounds", "--alpha", "0.05", "--lambda", "0.028",
            "--w-max", "1.26", "--w0-bar", "0.9", "--m0", "5",
        ])
        assert code == EXIT_OK
        d = json.loads(capsys.readouterr().out)
        assert d["alpha_star"] == pytest.approx(0.03938532889150173, rel=1e-10)
        assert "fdr_upper_bound" in d

    def test_nothing_requested(self):
        assert main(["bounds", "--alpha", "0.05", "--lambda", "0.3"]) == EXIT_INPUT

    def test_domain_error_exit_1(self):
        assert main([
            "bounds", "--alpha", "0.05", "--lambda", "0.9", "--w-max", "2.0",
        ]) == EXIT_INPUT


class TestThreadsResolution:
    def test_env_fallback(self, monkeypatch):
        import argparse

        from wamdf.cli import InputError, _threads

        args = argparse.Namespace(threads=None)
        monkeypatch.setenv("WAMDF_THREADS", "3")
        assert _threads(args) == 3
        monkeypatch.setenv("WAMDF_THREADS", "zebra")
        with pytest.raises(InputError):
            _threads(args)
        args.threads = 5
        assert _threads(args) == 5


class TestAnalyzePriorFile:
    def test_per_feature_prior_file(self, tmp_path):
        counts = tmp_path / "counts.csv"
        counts.write_text("0,1,1,0,5\n3,1,2,4,1\n")
        prior = tmp_path / "priors.txt"
        prior.write_text("0.7\n0.3\n")
        out = tmp_path / "out"
        code = main([
            "analyze", str(counts), "--x", "0.86,1.34,1.81,2.37,3.00",
            "--p-prior-file", str(prior), "--out", str(out),
        ])
        assert code == EXIT_OK

    def test_misaligned_prior_file(self, tmp_path):
        counts = tmp_path / "counts.csv"
        counts.write_text("0,1,1,0,5\n3,1,2,4,1\n")
        prior = tmp_path / "priors.txt"
        prior.write_text("0.7\n")
        assert main([
            "analyze", str(counts), "--x", "0.86,1.34,1.81,2.37,3.00",
            "--p-prior-file", str(prior), "--out", str(tmp_path / "o"),
        ]) == EXIT_INPUT


class TestManifest:
    def test_reproducibility_fields(self, tmp_path, prior_file):
        out = tmp_path / "out"
        main(["weights", str(prior_file), "--alpha", "0.05", "--out", str(out)])
        with open(out / "manifest.json") as fh:
            manifest = json.load(fh)
        assert manifest["subcommand"] == "weights"
        assert manifest["flags"]["alpha"] == 0.05
        assert str(prior_file) in manifest["inputs"]
        assert any(p.endswith("weights.json") for p in manifest["outputs"])
        assert manifest["version"]
        assert manifest["timestamp"]

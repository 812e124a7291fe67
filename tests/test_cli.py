"""CLI: exit-code contract, file formats, manifests, round trips."""

import argparse
import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import wamdf
from oracles import per_row_write_tsv
from wamdf import cli
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

    def test_underflowed_weight_exit_3_and_run_accepts_it(self, tmp_path, capsys):
        # the third threshold underflows; its weight was written as 0.0,
        # which run --weights then refused
        prior = tmp_path / "prior.csv"
        prior.write_text("p,gamma\n0.5,2\n0.5,3\n0.000001,90\n0.4,1\n")
        out = tmp_path / "out"
        assert main(["weights", str(prior), "--alpha", "0.05", "--out", str(out)]) == EXIT_WARNING
        assert capsys.readouterr().err.startswith("warning: weights below the smallest normal")
        d = json.loads((out / "weights.json").read_text())
        assert d["warning"] is True and d["weights"][2] == np.finfo(float).tiny
        pvalues = tmp_path / "p.csv"
        pvalues.write_text("p\n0.001\n0.2\n0.5\n0.01\n")
        assert main(["run", str(pvalues), "--weights", str(out / "weights.json"),
                     "--out", str(tmp_path / "r")]) == EXIT_OK

    @pytest.mark.parametrize("level", [["--alpha", "0.05"], ["--t", "0.05"]])
    def test_tiny_prior_exit_3_and_run_accepts_it(self, tmp_path, capsys, level):
        # the threshold of p = 1e-301 underflows to 0
        prior = tmp_path / "prior.csv"
        prior.write_text("p,gamma\n0.5,2\n1e-301,2\n")
        out = tmp_path / "out"
        assert main(["weights", str(prior), *level, "--out", str(out)]) == EXIT_WARNING
        err = capsys.readouterr().err
        assert err.startswith("warning: weights below the smallest normal")
        assert err.count("\n") == 1
        pvalues = tmp_path / "p.csv"
        pvalues.write_text("p\n0.001\n0.4\n")
        assert main(["run", str(pvalues), "--weights", str(out / "weights.json"),
                     "--out", str(tmp_path / "r")]) == EXIT_OK

    @pytest.mark.parametrize("alpha", ["0.05", "0.01"])
    def test_every_threshold_underflowed_exit_2(self, tmp_path, capsys, alpha):
        # the scan's crossing is the FDP approximator's drop to 0 where every
        # threshold underflows; NaN weights were written with exit 0
        prior = tmp_path / "prior.csv"
        prior.write_text("p,gamma\n0.4,0.04\n0.3,0.05\n")
        out = tmp_path / "out"
        assert main(["weights", str(prior), "--alpha", alpha, "--out", str(out)]) == \
            EXIT_NO_SOLUTION
        assert capsys.readouterr().err.startswith("error: every threshold underflowed to 0")
        assert not (out / "weights.json").exists()

    @pytest.mark.parametrize("level, message", [
        (["--alpha", "1.5"], "alpha must lie in (0, 1)"),
        (["--t", "0"], "target mean threshold t must lie in (0, 1)"),
    ], ids=["alpha-1.5", "t-0"])
    def test_level_outside_unit_interval_exit_1(self, tmp_path, capsys, prior_file, level,
                                                message):
        out = tmp_path / "out"
        assert main(["weights", str(prior_file), *level, "--out", str(out)]) == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

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


class TestNarrowCrossings:
    # out of the guaranteed regime, with a first crossing that a grid of
    # four points per decade over the bracket can step over: the FDP is at
    # least alpha on a 0.52-wide stretch of log k only (bump), or dips below
    # it on a 1.1-wide one before crossing again at log k = 0.157 (dip)
    @pytest.mark.parametrize("prior, alpha, log_k", [
        ("p,gamma\n0.968,30.79\n0.137,0.19\n", "0.046", -1.7638554174239),
        ("p,gamma\n0.91,7.68\n0.935,1.64\n0.916,1.61\n0.138,0.44\n", "0.067",
         -4.2758637656566),
    ], ids=["bump", "dip"])
    def test_solves_with_a_warning(self, tmp_path, capsys, prior, alpha, log_k):
        path = tmp_path / "prior.csv"
        path.write_text(prior)
        out = tmp_path / "o"
        assert main(["weights", str(path), "--alpha", alpha, "--out", str(out)]) == EXIT_WARNING
        d = json.loads((out / "weights.json").read_text())
        assert d["warning"] is True
        assert np.log(d["k_star"]) == pytest.approx(log_k, abs=1e-12)
        assert "exceeds 1 - max(p)" in capsys.readouterr().err


class TestMultiplierBracket:
    # k* of these priors lies below 1e-300, out of the float range; the
    # linear-k solver stopped at that floor and exited 2 (searched k in
    # [1e-300, 1e+08]) although alpha <= 1 - max(p)
    STRONG = "p,gamma\n0.5,60\n0.3,45\n0.2,50\n"

    @pytest.mark.parametrize("prior", [STRONG, "p,gamma\n0.5,45\n0.5,46\n0.5,47\n"],
                             ids=["strong", "45-47"])
    @pytest.mark.parametrize("level", [["--t", "0.05"], ["--alpha", "0.05"]], ids=["t", "alpha"])
    def test_k_star_below_the_float_range_solves(self, tmp_path, prior, level):
        path = tmp_path / "prior.csv"
        path.write_text(prior)
        out = tmp_path / "o"
        assert main(["weights", str(path), *level, "--out", str(out)]) == EXIT_OK
        d = json.loads((out / "weights.json").read_text())
        assert d["k_star"] == 0.0 and all(0 < w < np.inf for w in d["weights"])
        pvalues = tmp_path / "p.csv"
        pvalues.write_text("p\n0.001\n0.2\n0.5\n")
        assert main(["run", str(pvalues), "--weights", str(out / "weights.json"),
                     "--out", str(tmp_path / "r")]) == EXIT_OK

    @pytest.mark.parametrize("level", [["--t", "0.05"], ["--alpha", "0.05"]], ids=["t", "alpha"])
    def test_effect_size_beyond_the_float_range(self, tmp_path, capsys, level):
        # gamma^2 / 2 overflows: no bracket, exit 2 with a message, no traceback
        prior = tmp_path / "prior.csv"
        prior.write_text("p,gamma\n0.5,1\n0.5,1e200\n")
        out = tmp_path / "o"
        assert main(["weights", str(prior), *level, "--out", str(out)]) == EXIT_NO_SOLUTION
        err = capsys.readouterr().err
        assert err.startswith("error: the log k bracket [-inf, ") and "Traceback" not in err
        assert not (out / "weights.json").exists()

    def test_out_of_regime_keeps_the_hint(self, tmp_path, capsys):
        prior = tmp_path / "prior.csv"
        prior.write_text("p,gamma\n0.96,2\n")
        code = main(["weights", str(prior), "--alpha", "0.05", "--out", str(tmp_path / "o")])
        assert code == EXIT_NO_SOLUTION
        err = capsys.readouterr().err
        assert err.startswith("error: no multiplier attains FDP level alpha=0.05 (alpha=0.05 > "
                              "1 - max(p) = 0.04;")
        assert "\nhint: the pre-data FDP equation needs alpha <= 1 - max(p)" in err

    def test_tiny_alpha_past_the_default_range(self, tmp_path):
        # k* = 6.9e9 lies above the default end 1e8; the bracket reaches 2/alpha
        prior = tmp_path / "prior.csv"
        prior.write_text("p,gamma\n0.5,2\n0.3,3\n0.2,1\n")
        out = tmp_path / "o"
        assert main(["weights", str(prior), "--alpha", "1e-10", "--out", str(out)]) == EXIT_OK
        k_star = json.loads((out / "weights.json").read_text())["k_star"]
        assert k_star == pytest.approx(6907701483.288857, rel=1e-12)

    def test_mean_threshold_below_the_clamp(self, tmp_path):
        prior = tmp_path / "prior.csv"
        prior.write_text("p,gamma\n0.5,2\n0.5,2\n0.5,2\n")
        out = tmp_path / "o"
        assert main(["weights", str(prior), "--t", "1e-17", "--out", str(out)]) == EXIT_OK
        d = json.loads((out / "weights.json").read_text())
        assert d["t_bar"] == pytest.approx(1e-17, rel=1e-10)
        np.testing.assert_allclose(d["weights"], 1.0, atol=1e-10)


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
                     "--out", str(out)]) == EXIT_OK
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

    @pytest.mark.parametrize("variant, lam", [
        ("UU", "nan"), ("UU", "-1"), ("WU", "-1"), ("WU", "1"), ("UA", "0"), ("WA", "nan"),
    ])
    def test_bad_lambda_exit_1(self, tmp_path, capsys, variant, lam):
        # an unadaptive variant ignores lambda, but wrote a NaN one to report.json
        pvals = tmp_path / "pvals.csv"
        pvals.write_text(WORKED_PVALUES)
        out = tmp_path / "o"
        assert main(["run", str(pvals), "--variant", variant, "--lambda", lam,
                     "--out", str(out)]) == EXIT_INPUT
        assert capsys.readouterr().err == "error: lambda must lie in (0, 1)\n"
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("variant", ["WU", "WA"])
    def test_weighted_variant_needs_weights_exit_1(self, tmp_path, capsys, variant):
        pvals = tmp_path / "pvals.csv"
        pvals.write_text("p\n0.01\n0.2\n")
        assert main(["run", str(pvals), "--variant", variant, "--lambda", "0.1",
                     "--out", str(tmp_path / "o")]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: variant {variant} needs --weights or a weight column\n")

    @pytest.mark.parametrize("variant, code", [("UU", EXIT_OK), ("WU", EXIT_OK),
                                               ("WA", EXIT_INPUT)])
    def test_lambda_above_u_fails_only_adaptive_variants(self, tmp_path, capsys, variant,
                                                         code):
        # the largest weight 4 puts u at 0.25; WU used to exit 1 on a
        # lambda it never uses
        pvals = tmp_path / "pvals.csv"
        pvals.write_text("p,weight\n0.001,4\n0.01,0.5\n0.2,0.5\n0.6,0.5\n")
        assert main(["run", str(pvals), "--variant", variant, "--lambda", "0.5",
                     "--out", str(tmp_path / "o")]) == code
        err = capsys.readouterr().err
        assert err == ("" if code == EXIT_OK else "error: lambda must not exceed u\n")

    def test_finite_fdr_takes_no_u(self, tmp_path, capsys):
        # --u was replaced by lambda without a word; the u of a weights.json
        # no longer fills it either
        pvals = tmp_path / "pvals.csv"
        pvals.write_text("p\n0.01\n0.2\n")
        wjson = tmp_path / "w.json"
        wjson.write_text('{"weights": [1.5, 0.5], "k_star": 1, "t_bar": 0.2, "u": 0.6}')
        argv = ["run", str(pvals), "--weights", str(wjson), "--finite-fdr"]
        assert main(argv + ["--u", "0.5", "--out", str(tmp_path / "o")]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            "error: u must not be given in finite-FDR mode, which sets u = lambda\n")
        assert not (tmp_path / "o").exists()
        assert main(argv + ["--out", str(tmp_path / "r")]) == EXIT_OK
        assert json.loads((tmp_path / "r" / "report.json").read_text())["u"] == 0.2

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


def writer_columns(n, seed=17):
    """One column of each kind ``_write_tsv`` formats, ``n`` rows each.

    Floats span the whole exponent range, with nan, infinities, signed zeros,
    the smallest subnormal and the largest float first; integers reach the
    int64 and uint64 extremes; strings carry ``%`` and ``{}``.
    """
    rng = np.random.default_rng(seed)
    special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308,
               -2.2250738585072014e-308, 0.1, 1e16, 123456789012.5]
    drawn = np.ldexp(rng.uniform(-1.0, 1.0, n), rng.integers(-1074, 1025, n))
    floats = np.r_[special, drawn][:n]
    info = np.iinfo(np.int64)
    signed = np.r_[np.array([info.min, info.max, 0, -1]),
                   rng.integers(info.min, info.max, n, endpoint=True)][:n]
    unsigned = np.r_[np.array([2 ** 64 - 1, 0], dtype=np.uint64),
                     rng.integers(0, 2 ** 64 - 1, n, dtype=np.uint64, endpoint=True)][:n]
    words = np.array(["%s", "{}", "100%", "{0}", "%(x)d", "%%", "a b"])
    return [np.arange(n), floats, signed, unsigned, rng.random(n) < 0.5,
            words[rng.integers(0, words.size, n)]]


class TestTsvWriter:
    # _write_tsv must write the bytes of the per-row str.format writer it replaced
    HEADER = ["index", "float", "int64", "uint64", "flag", "text"]

    def assert_same_bytes(self, tmp_path, columns):
        cli._write_tsv(tmp_path / "got.tsv", self.HEADER, columns)
        per_row_write_tsv(tmp_path / "want.tsv", self.HEADER, columns)
        assert (tmp_path / "got.tsv").read_bytes() == (tmp_path / "want.tsv").read_bytes()

    def test_every_kind_over_many_blocks(self, tmp_path):
        columns = writer_columns(20_000)
        assert columns[0].size > 4 * cli._TSV_BLOCK
        self.assert_same_bytes(tmp_path, columns)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 7])
    def test_partial_blocks(self, tmp_path, monkeypatch, n):
        monkeypatch.setattr(cli, "_TSV_BLOCK", 3)
        self.assert_same_bytes(tmp_path, writer_columns(n))


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

    def test_invalid_preset_message(self, tmp_path, capsys):
        assert main(["simulate", "--preset", "9", "--seed", "1",
                     "--out", str(tmp_path / "o")]) == EXIT_INPUT
        assert capsys.readouterr().err == "error: unknown preset 9; expected 1-4\n"

    @pytest.mark.parametrize("key", ["p_law = uniform", "gamma_law = fixed",
                                     "lambda_rule = fixed"])
    def test_removed_law_switch_is_unknown_key(self, tmp_path, capsys, key):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(f"preset = 2\nM = 20\nn_reps = 1\nseed = 1\n{key}\n")
        assert main(["simulate", "--config", str(cfg), "--threads", "1",
                     "--out", str(tmp_path / "o")]) == EXIT_INPUT
        name = key.split(" ")[0]
        assert capsys.readouterr().err == f"error: {cfg}: unknown config key {name!r}\n"

    def test_missing_seed_exit_1(self, tmp_path):
        assert main([
            "simulate", "--preset", "1", "--out", str(tmp_path / "o"),
        ]) == EXIT_INPUT

    def test_needs_config_or_preset_exit_1(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--seed", "1", "--out", str(tmp_path / "o")])
        assert exc.value.code == EXIT_INPUT
        assert capsys.readouterr().err.endswith(
            "error: one of the arguments --preset --config is required\n")

    def test_config_takes_no_preset_flags(self, tmp_path, capsys):
        # these flags were dropped without a word, and the file's study ran
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("preset = 2\nM = 50\nn_reps = 3\nseed = 1\n")
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--M", "7", "--K", "2", "--a", "1",
                     "--alpha", "0.2", "--threads", "1", "--out", str(out)]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            "error: --config sets the study, so --a, --M, --K, --alpha cannot be given\n")
        assert not out.exists()

    def test_seed_flag_overrides_config_seed(self, tmp_path):
        summaries = []
        for seed, flags in (("9", []), ("1", ["--seed", "9"])):
            cfg = tmp_path / f"sim{seed}.cfg"
            cfg.write_text(f"preset = 2\nM = 30\nn_reps = 2\nseed = {seed}\n")
            out = tmp_path / f"out{seed}"
            assert main(["simulate", "--config", str(cfg), *flags, "--threads", "1",
                         "--out", str(out)]) == EXIT_OK
            summaries.append((out / "summary_a5.json").read_text())
            with open(out / "manifest.json") as fh:
                assert json.load(fh)["seed"] == 9
        assert summaries[0] == summaries[1]

    @pytest.mark.parametrize("flags, config, named", [
        (["--a", "nan"], None, "gamma_a"),
        (["--a", "inf"], None, "gamma_a"),
        (["--a", "0.5"], None, "gamma_a"),
        (["--alpha", "nan"], None, "alpha"),
        (["--alpha", "1"], None, "alpha"),
        (["--alpha", "0"], None, "alpha"),
        ([], "p_fixed = nan", "p_fixed"),
        ([], "p_fixed = -0.1", "p_fixed"),
        ([], "p_fixed = 1.5", "p_fixed"),
        ([], "gamma_fixed = nan", "gamma_fixed"),
        ([], "gamma_fixed = inf", "gamma_fixed"),
        ([], "gamma_fixed = 0", "gamma_fixed"),
    ], ids=["a-nan", "a-inf", "a-below-1", "alpha-nan", "alpha-1", "alpha-0", "p_fixed-nan",
            "p_fixed-negative", "p_fixed-above-1", "gamma_fixed-nan", "gamma_fixed-inf",
            "gamma_fixed-0"])
    def test_bad_config_value_exit_1(self, tmp_path, capsys, flags, config, named):
        argv = ["simulate", "--seed", "1", "--threads", "1"]
        if config is None:
            argv += ["--preset", "2", "--M", "20", "--K", "1", *flags]
        else:
            cfg = tmp_path / "sim.cfg"
            cfg.write_text(f"M = 20\nn_reps = 1\nseed = 1\n{config}\n")
            argv += ["--config", str(cfg)]
        assert main(argv + ["--out", str(tmp_path / "o")]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith(f"error: {named} must")

    @pytest.mark.parametrize("line, expected", [
        ("p_fixed = abc", "a number or None"),
        ("alpha = None", "a number"),
        ("n_reps = 1.5", "an integer"),
        ("seed = x", "an integer"),
    ])
    def test_malformed_config_value_names_file_and_key(self, tmp_path, capsys, line, expected):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(f"M = 20\nn_reps = 1\nseed = 1\n{line}\n")
        assert main(["simulate", "--config", str(cfg), "--threads", "1",
                     "--out", str(tmp_path / "o")]) == EXIT_INPUT
        key, value = (part.strip() for part in line.split("="))
        assert capsys.readouterr().err == (
            f"error: {cfg}: {key}: expected {expected}, got {value!r}\n")

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

    @pytest.mark.parametrize("flags, message", [
        (["--synthetic", "0"], "n_features must be at least 1, got 0"),
        (["--synthetic", "-5"], "n_features must be at least 1, got -5"),
        (["--synthetic", "20", "--beta", "nan"], "beta must be finite, got nan"),
        (["--synthetic", "20", "--beta", "inf"], "beta must be finite, got inf"),
        (["--synthetic", "20", "--positive-fraction", "nan"],
         "positive_fraction must lie in [0, 1]"),
        (["--synthetic", "20", "--positive-fraction", "2"],
         "positive_fraction must lie in [0, 1]"),
        (["--synthetic", "10", "--x", "1,inf"],
         "covariate must be finite with at least two distinct values"),
        (["--synthetic", "10", "--x", "1,nan"],
         "covariate must be finite with at least two distinct values"),
        (["--synthetic", "10", "--x", "1,two"], "--x must be comma-separated numbers, got '1,two'"),
        ([], "either a counts file or --synthetic is required"),
    ])
    def test_bad_synthetic_arguments_exit_1(self, tmp_path, capsys, flags, message):
        # these used to be misreported, leak numpy's message and a warning,
        # or run on a silently clipped fraction
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["analyze", "--seed", "1", "--x", "1,2,3,4,5", *flags,
                         "--out", str(out)]) == EXIT_INPUT
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("counts", ["0,0,0,0,0\n", "0,0,0,0,0\n0,0,7,0,0\n"],
                             ids=["zero-total", "one-cell"])
    def test_no_testable_feature_exit_1(self, tmp_path, capsys, counts):
        path = tmp_path / "counts.csv"
        path.write_text(counts)
        assert main(["analyze", str(path), "--x", "1,2,3,4,5",
                     "--out", str(tmp_path / "o")]) == EXIT_INPUT
        assert capsys.readouterr().err == "error: no testable features (all degenerate)\n"

    def test_synthetic_counts_analyse_again(self, tmp_path):
        # the counts file holds the counts alone; the planted truth has its own file
        x = "0.86,1.34,1.81,2.37,3.00"
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["analyze", "--synthetic", "80", "--seed", "31", "--x", x,
                     "--out", str(first)]) == EXIT_OK
        counts = first / "synthetic_counts.csv"
        truth = first / "synthetic_truth.csv"
        assert counts.read_text().startswith("g0,g1,g2,g3,g4\n")
        lines = truth.read_text().splitlines()
        assert lines[0] == "planted" and len(lines) == 81 and set(lines[1:]) <= {"0", "1"}
        assert json.loads((first / "manifest.json").read_text())["outputs"][-2:] == [
            str(counts), str(truth)]
        assert main(["analyze", str(counts), "--x", x, "--out", str(second)]) == EXIT_OK
        keys = ("n_tested", "rejected_wa", "rejected_ua")
        a, b = (json.loads((d / "analysis.json").read_text()) for d in (first, second))
        assert [a[k] for k in keys] == [b[k] for k in keys] == [80, 28, 27]

    def test_underflowed_weight_exit_3(self, tmp_path, capsys):
        # the calibrated profile clamps underflowed weights; this used to
        # exit 1 from run_procedure with "weights must be positive and finite"
        out = tmp_path / "out"
        code = main(["analyze", "--synthetic", "30", "--seed", "1", "--x", "1,2,3,4,5",
                     "--target-power", "1e-9", "--out", str(out)])
        assert code == EXIT_WARNING
        captured = capsys.readouterr()
        assert captured.out.startswith("WA rejected ")
        lines = captured.err.splitlines()
        assert lines and all(line.startswith("warning: ") for line in lines)
        assert len(set(lines)) == len(lines)
        assert any("smallest normal float" in line for line in lines)
        assert (out / "features.tsv").exists() and (out / "analysis.json").exists()

    def test_high_target_power_solves(self, tmp_path, capsys):
        # average power crosses the target near K = 2.07; beyond it,
        # underflowed weights (now raised, not 0) no longer drop the power
        # to 0, so the doubling search stops there instead of running on to a
        # K whose weight solve has no solution (this used to exit 2)
        out = tmp_path / "out"
        code = main(["analyze", "--synthetic", "30", "--seed", "1", "--x", "1,2,3,4,5",
                     "--target-power", "0.99999999", "--out", str(out)])
        assert code == EXIT_OK and capsys.readouterr().err == ""
        d = json.loads((out / "analysis.json").read_text())
        assert abs(d["achieved_avg_power"] - 0.99999999) <= 1e-6
        assert 2.0 < d["k_info"] < 2.1

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

    def test_w0_bar_needs_m0(self, capsys):
        assert main(["bounds", "--alpha", "0.05", "--lambda", "0.2", "--w0-bar", "0.9"]) == \
            EXIT_INPUT
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: --m0 is required with --w0-bar\n")

    def test_m0_needs_w0_bar(self, capsys):
        # --m0 alone was ignored, even at -3
        assert main(["bounds", "--alpha", "0.05", "--lambda", "0.2", "--w-max", "1.5",
                     "--m0", "-3"]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: --w0-bar is required with --m0\n")

    def test_domain_error_exit_1(self):
        assert main([
            "bounds", "--alpha", "0.05", "--lambda", "0.9", "--w-max", "2.0",
        ]) == EXIT_INPUT

    @pytest.mark.parametrize("args", [
        ["--alpha", "nan", "--w-max", "1.5"],
        ["--alpha", "inf", "--w-max", "1.5"],
        ["--alpha", "1.5", "--w-max", "1.5"],
        ["--alpha", "0.05", "--w-max", "nan"],
        ["--alpha", "0.05", "--w-max", "inf"],
        ["--alpha", "nan", "--w0-bar", "0.9", "--m0", "5"],
        ["--alpha", "0.05", "--w0-bar", "nan", "--m0", "5"],
        ["--alpha", "0.05", "--w0-bar", "inf", "--m0", "5"],
    ])
    def test_non_finite_inputs_exit_1(self, args, capsys):
        assert main(["bounds", "--lambda", "0.2", *args]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")


class TestExitMap:
    # every failure maps to 1 or 2 in main, with a one-line "error:" message

    def test_analyze_no_solution_exit_2_with_hint(self, tmp_path, capsys):
        counts = tmp_path / "counts.csv"
        counts.write_text("0,1,1,0,5\n3,1,2,4,1\n")
        code = main(["analyze", str(counts), "--x", "1,2,3,4,5", "--p-prior", "0.97",
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_NO_SOLUTION
        err = capsys.readouterr().err
        assert err.startswith("error: no multiplier attains")
        assert "\nhint: the pre-data FDP equation needs alpha <= 1 - max(p)" in err

    def test_analyze_calibration_failure_exit_2_without_hint(self, tmp_path, capsys):
        # the calibration misses its target; this used to end in a traceback
        code = main(["analyze", "--synthetic", "30", "--seed", "1", "--x", "1,2,3,4,5",
                     "--p-prior", "0.95", "--target-power", "0.9", "--out", str(tmp_path / "o")])
        assert code == EXIT_NO_SOLUTION
        err = capsys.readouterr().err
        assert err.startswith("error: achieved power") and err.count("\n") == 1
        assert "hint" not in err

    @pytest.mark.parametrize("argv, message", [
        ([], "the following arguments are required: subcommand"),
        (["weights", "prior.csv", "--alpha", "0.05"], "the following arguments are required: --out"),
        (["run", "p.csv", "--alpha", "abc", "--out", "o"], "argument --alpha: invalid float value: 'abc'"),
        (["simulate", "--preset", "1", "--K", "2.5", "--out", "o"],
         "argument --K: invalid int value: '2.5'"),
        (["analyze", "--synthetic", "ten", "--seed", "1", "--x", "1,2", "--out", "o"],
         "argument --synthetic: invalid int value: 'ten'"),
        (["bounds", "--alpha", "0.05", "--lambda", "0.5", "--w0-bar", "1", "--m0", "2.5"],
         "argument --m0: invalid int value: '2.5'"),
        (["analyze", "c.csv", "--synthetic", "5", "--seed", "1", "--x", "1,2", "--out", "o"],
         "argument --synthetic: not allowed with argument counts"),
        (["analyze", "c.csv", "--x", "1,2", "--x-file", "x.txt", "--out", "o"],
         "argument --x-file: not allowed with argument --x"),
        (["analyze", "c.csv", "--x", "1,2", "--p-prior", "0.5", "--p-prior-file", "p.txt",
          "--out", "o"], "argument --p-prior-file: not allowed with argument --p-prior"),
        (["weights", "prior.csv", "--out", "o"], "one of the arguments --alpha --t is required"),
        (["weights", "prior.csv", "--alpha", "0.05", "--t", "0.05", "--out", "o"],
         "argument --t: not allowed with argument --alpha"),
        (["simulate", "--config", "c.cfg", "--preset", "4", "--out", "o"],
         "argument --preset: not allowed with argument --config"),
    ], ids=["no-subcommand", "weights", "run", "simulate", "analyze", "bounds",
            "analyze-counts-and-synthetic", "analyze-x-and-x-file",
            "analyze-p-prior-and-p-prior-file", "weights-no-level", "weights-alpha-and-t",
            "simulate-config-and-preset"])
    def test_usage_error_exit_1(self, capsys, argv, message):
        # argparse's own status 2 would read as "no solution"
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_INPUT
        err = capsys.readouterr().err
        prog = " ".join(["wamdf"] + argv[:1])
        assert err.startswith(f"usage: {prog} ")
        assert err.endswith(f"{prog}: error: {message}\n")

    @pytest.mark.parametrize("flag", ["--help", "--version"])
    def test_help_and_version_exit_0(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main([flag])
        assert exc.value.code == EXIT_OK
        assert capsys.readouterr().out.startswith("usage: wamdf" if flag == "--help" else "wamdf ")

    @pytest.mark.parametrize("argv", [
        ["run", "{}", "--variant", "UU"],
        ["weights", "{}", "--t", "0.1"],
        ["analyze", "{}", "--x", "1,2,3"],
        ["simulate", "--config", "{}"],
    ], ids=["run", "weights", "analyze", "simulate"])
    @pytest.mark.parametrize("kind", ["directory", "missing"])
    def test_unreadable_input_exit_1(self, tmp_path, capsys, argv, kind):
        path = tmp_path if kind == "directory" else tmp_path / "nope.csv"
        argv = [a.format(path) for a in argv] + ["--out", str(tmp_path / "o")]
        assert main(argv) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("profile, named", [
        ('{"weights": [1, 1], "t_bar": 0.1, "u": 1}', "k_star"),
        ('[1, 1]', "weights"),
        ('{"weights": [1, -1], "k_star": 1, "t_bar": 0.1, "u": 1}', "positive and finite"),
        ('{"weights": [1, NaN], "k_star": 1, "t_bar": 0.1, "u": 1}', "positive and finite"),
        ('{"weights": [1, 1], "k_star": null, "t_bar": 0.1, "u": 1}', "numbers"),
        ('{"weights": {"a": 1}, "k_star": 1, "t_bar": 0.1, "u": 1}', "numbers"),
        ('{"weights": [], "k_star": 1, "t_bar": 0.1, "u": 1}', "nonempty vector"),
        ('{"weights": 1, "k_star": 1, "t_bar": 0.1, "u": 1}', "nonempty vector"),
        ('{"weights": [1, 1, 1], "k_star": 1, "t_bar": 0.1, "u": 1}', "differ in length"),
    ], ids=["no-k_star", "not-an-object", "negative", "nan", "null", "object-weights",
            "empty-weights", "scalar-weights", "three-weights-two-p-values"])
    def test_bad_weights_json_exit_1(self, tmp_path, capsys, profile, named):
        pvals = tmp_path / "pvals.csv"
        pvals.write_text("p\n0.01\n0.2\n")
        wjson = tmp_path / "w.json"
        wjson.write_text(profile)
        assert main(["run", str(pvals), "--weights", str(wjson), "--variant", "WA",
                     "--lambda", "0.1", "--out", str(tmp_path / "o")]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err

    @pytest.mark.parametrize("key, value", [("t_bar", "NaN"), ("u", "-1"), ("k_star", "-5")])
    @pytest.mark.parametrize("flags", [[], ["--lambda", "0.2", "--u", "0.9"]],
                             ids=["from-file", "from-flags"])
    def test_bad_profile_value_exit_1(self, tmp_path, capsys, key, value, flags):
        # t_bar NaN used to exit 1 blaming lambda, a flag never given; with
        # --lambda and --u given, each of these files used to run
        pvals = tmp_path / "pvals.csv"
        pvals.write_text("p\n0.01\n0.2\n")
        profile = {"weights": "[1, 1]", "k_star": "1", "t_bar": "0.1", "u": "1", key: value}
        wjson = tmp_path / "w.json"
        wjson.write_text("{" + ", ".join(f'"{k}": {v}' for k, v in profile.items()) + "}")
        out = tmp_path / "o"
        assert main(["run", str(pvals), "--weights", str(wjson), "--variant", "WA", *flags,
                     "--out", str(out)]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith(f"error: {key} must ")
        assert not out.exists()

    @pytest.mark.parametrize("prior, table", [
        ("p,gamma\n0.5\n", None),
        ("p,gamma\n0.5,2\n", "t,power\n0,0\n0.5\n1,1\n"),
        ("p,gamma\n0.5,2,junk\n", None),
        ("p,gamma\n0.5,2\n", "t,power\n0,0,9\n0.5,0.8\n1,1\n"),
        ("p,gamma\n0.5," + "2" * 200_000 + "\n", None),
        ("p,gamma\n0.5,2\n", "t,power\n0,0\n0.5," + "8" * 200_000 + "\n1,1\n"),
    ], ids=["short-prior-row", "short-table-row", "long-prior-row", "long-table-row",
            "huge-prior-field", "huge-table-field"])
    def test_short_csv_row_exit_1(self, tmp_path, capsys, prior, table):
        path = tmp_path / "prior.csv"
        path.write_text(prior)
        argv = ["weights", str(path), "--t", "0.1", "--out", str(tmp_path / "o")]
        if table:
            (tmp_path / "table.csv").write_text(table)
            argv += ["--power-table", str(tmp_path / "table.csv")]
        assert main(argv) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error:")

    def test_spaced_headers_are_read(self, tmp_path):
        # headers are matched after stripping spaces, and rows are read the same way
        prior = tmp_path / "prior.csv"
        prior.write_text(" p , gamma\n0.5,2\n0.5,3\n")
        table = tmp_path / "table.csv"
        table.write_text("t , power\n0,0\n0.2,0.6\n1,1\n")
        pvals = tmp_path / "pvals.csv"
        pvals.write_text("p , weight \n0.01,1\n0.5,1\n")
        assert main(["weights", str(prior), "--t", "0.1", "--power-table", str(table),
                     "--out", str(tmp_path / "w")]) == EXIT_OK
        assert main(["run", str(pvals), "--variant", "WU", "--out", str(tmp_path / "r")]) == EXIT_OK

    def test_config_without_preset_or_sizes_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("alpha = 0.05\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "M, n_reps, seed" in err


class TestJsonPins:
    # literal bytes and key orders; these hold at the parent commit too

    def test_report_json_bytes(self, tmp_path):
        pvals = tmp_path / "pvals.csv"
        pvals.write_text("p\n0.01\n0.2\n0.9\n")
        out = tmp_path / "out"
        assert main(["run", str(pvals), "--variant", "UA", "--alpha", "0.2",
                     "--lambda", "0.5", "--out", str(out)]) == EXIT_OK
        assert (out / "report.json").read_text() == (
            '{\n  "variant": "UA",\n  "alpha": 0.2,\n  "lambda": 0.5,\n  "u": 1.0,\n'
            '  "t_hat": 0.05,\n  "m0_hat": 4.0,\n  "rejected_indices": [\n    0\n  ],\n'
            '  "R": 1\n}\n'
        )

    def test_manifest_key_order(self, tmp_path):
        pvals = tmp_path / "pvals.csv"
        pvals.write_text("p\n0.01\n0.2\n0.9\n")
        out = tmp_path / "out"
        assert main(["run", str(pvals), "--variant", "UU", "--out", str(out)]) == EXIT_OK
        text = (out / "manifest.json").read_text()
        assert text.endswith("}\n")
        assert list(json.loads(text)) == [
            "subcommand", "flags", "inputs", "outputs", "seed", "version", "timestamp",
        ]


class TestSimulateTablePins:
    # literal bytes of table.tsv and long.tsv; these hold at the parent commit too

    def _run(self, tmp_path, *flags):
        out = tmp_path / "out"
        assert main(["simulate", *flags, "--M", "30", "--seed", "4", "--threads", "1",
                     "--out", str(out)]) == EXIT_OK
        return (out / "table.tsv").read_text(), (out / "long.tsv").read_text()

    def test_two_a_values(self, tmp_path):
        table, long_form = self._run(tmp_path, "--preset", "2", "--a", "2", "--a", "5",
                                     "--K", "3")
        assert table == (
            "variant\tcdp_a2\tfdp_a2\tcdp_se_a2\tfdp_se_a2"
            "\tcdp_a5\tfdp_a5\tcdp_se_a5\tfdp_se_a5\n"
            "UU\t0.1296\t0.0000\t0.0668\t0.0000\t0.6444\t0.0370\t0.0222\t0.0370\n"
            "WU\t0.1204\t0.0000\t0.0723\t0.0000\t0.7296\t0.0000\t0.0387\t0.0000\n"
            "UA\t0.1481\t0.0000\t0.0807\t0.0000\t0.6944\t0.0590\t0.0278\t0.0302\n"
            "WA\t0.1574\t0.0000\t0.0791\t0.0000\t0.8907\t0.0000\t0.0145\t0.0000\n"
        )
        assert long_form == (
            "variant\ta\tmetric\tvalue\tse\n"
            "UU\t2\tcdp\t0.129630\t0.066769\n"
            "UU\t2\tfdp\t0.000000\t0.000000\n"
            "WU\t2\tcdp\t0.120370\t0.072317\n"
            "WU\t2\tfdp\t0.000000\t0.000000\n"
            "UA\t2\tcdp\t0.148148\t0.080720\n"
            "UA\t2\tfdp\t0.000000\t0.000000\n"
            "WA\t2\tcdp\t0.157407\t0.079111\n"
            "WA\t2\tfdp\t0.000000\t0.000000\n"
            "UU\t5\tcdp\t0.644444\t0.022222\n"
            "UU\t5\tfdp\t0.037037\t0.037037\n"
            "WU\t5\tcdp\t0.729630\t0.038668\n"
            "WU\t5\tfdp\t0.000000\t0.000000\n"
            "UA\t5\tcdp\t0.694444\t0.027778\n"
            "UA\t5\tfdp\t0.058974\t0.030230\n"
            "WA\t5\tcdp\t0.890741\t0.014463\n"
            "WA\t5\tfdp\t0.000000\t0.000000\n"
        )

    def test_single_replication_has_empty_se_cells(self, tmp_path):
        table, long_form = self._run(tmp_path, "--preset", "1", "--a", "2", "--K", "1")
        assert table == (
            "variant\tcdp_a2\tfdp_a2\tcdp_se_a2\tfdp_se_a2\n"
            "UU\t0.2941\t0.0000\t\t\n"
            "WU\t0.0000\t0.0000\t\t\n"
            "UA\t0.2941\t0.0000\t\t\n"
            "WA\t0.0000\t0.0000\t\t\n"
        )
        assert long_form == (
            "variant\ta\tmetric\tvalue\tse\n"
            "UU\t2\tcdp\t0.294118\t\n"
            "UU\t2\tfdp\t0.000000\t\n"
            "WU\t2\tcdp\t0.000000\t\n"
            "WU\t2\tfdp\t0.000000\t\n"
            "UA\t2\tcdp\t0.294118\t\n"
            "UA\t2\tfdp\t0.000000\t\n"
            "WA\t2\tcdp\t0.000000\t\n"
            "WA\t2\tfdp\t0.000000\t\n"
        )


class TestThreadsResolution:
    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_exit_1(self, tmp_path, capsys, threads):
        # these used to run serially without a word
        out = tmp_path / "o"
        assert main(["simulate", "--preset", "1", "--a", "3", "--M", "20", "--K", "2",
                     "--seed", "1", "--threads", threads, "--out", str(out)]) == EXIT_INPUT
        assert capsys.readouterr().err == f"error: --threads must be at least 1, got {threads}\n"
        assert not out.exists()


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


    @pytest.mark.parametrize("flag", ["--x-file", "--p-prior-file"])
    def test_column_file_needs_one_value_per_line(self, tmp_path, capsys, flag):
        counts = tmp_path / "counts.csv"
        counts.write_text("0,1,1,0,5\n3,1,2,4,1\n")
        column = tmp_path / "column.txt"
        column.write_text("0.7,0.3\n0.3,0.7\n")
        argv = ["analyze", str(counts), "--out", str(tmp_path / "o"), flag, str(column)]
        if flag == "--p-prior-file":
            argv += ["--x", "0.86,1.34,1.81,2.37,3.00"]
        assert main(argv) == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {column}: expected one value per line\n"


class TestManifest:
    def test_inputs_list_every_file_read(self, tmp_path, prior_file):
        table = tmp_path / "table.csv"
        table.write_text("t,power\n0,0\n0.2,0.6\n1,1\n")
        out = tmp_path / "w"
        assert main(["weights", str(prior_file), "--t", "0.1", "--power-table", str(table),
                     "--out", str(out)]) == EXIT_OK
        assert json.loads((out / "manifest.json").read_text())["inputs"] == [
            str(prior_file), str(table)]
        counts = tmp_path / "counts.csv"
        counts.write_text("0,1,1,0,5\n3,1,2,4,1\n")
        x = tmp_path / "x.txt"
        x.write_text("0.86\n1.34\n1.81\n2.37\n3.00\n")
        prior = tmp_path / "priors.txt"
        prior.write_text("0.7\n0.3\n")
        out = tmp_path / "a"
        assert main(["analyze", str(counts), "--x-file", str(x), "--p-prior-file", str(prior),
                     "--out", str(out)]) == EXIT_OK
        assert json.loads((out / "manifest.json").read_text())["inputs"] == [
            str(x), str(counts), str(prior)]

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


def test_startup_skips_scipy_optimize(tmp_path):
    # the package's own Brent solver keeps scipy.optimize out of every CLI
    # call; scipy.special loads at the first normal tail, which run and bounds
    # never evaluate, and the process pool only where simulate starts one
    pvalues = tmp_path / "pv.csv"
    pvalues.write_text("p\n0.01\n0.5\n")
    calls = [[], ["run", str(pvalues), "--variant", "UA", "--lambda", "0.5",
                  "--out", str(tmp_path / "run")],
             ["bounds", "--alpha", "0.05", "--lambda", "0.2", "--w-max", "1.5"]]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(wamdf.__file__)))
    for argv in calls:
        code = (f"import sys, wamdf.cli\nargv = {argv!r}\n"
                "rc = wamdf.cli.main(argv) if argv else 0\n"
                "loaded = sorted(m for m in sys.modules if m.split('.')[0] in\n"
                "                ('scipy', 'multiprocessing') or m == 'concurrent.futures.process')\n"
                "print(rc, loaded)")
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True)
        assert done.stdout.splitlines()[-1] == "0 []", argv


@pytest.mark.parametrize("text, code", [("p\n0.01\n0.5\n", EXIT_OK), ("p\nabc\n", EXIT_INPUT)],
                         ids=["ok", "input-error"])
def test_heap_trimmed_before_and_after_each_command(tmp_path, monkeypatch, text, code):
    # a process running many commands holds only its live memory between them
    calls = []
    monkeypatch.setattr(cli, "_release_freed_memory", lambda: calls.append(None))
    pvalues = tmp_path / "pv.csv"
    pvalues.write_text(text)
    assert main(["run", str(pvalues), "--variant", "UU", "--out", str(tmp_path / "o")]) == code
    assert len(calls) == 2


def test_readme_names_every_flag_and_no_other():
    # README's "Command line" section and the parser name the same long
    # flags, so a flag added or removed on one side shows on the other
    readme = open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")).read()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", section))
    parser = cli.build_parser()
    parsers = [parser] + [sub for action in parser._actions
                          if isinstance(action, argparse._SubParsersAction)
                          for sub in action.choices.values()]
    flags = {flag for p in parsers for action in p._actions for flag in action.option_strings
             if flag.startswith("--")}
    assert "--finite-fdr" in flags and "--power-table" in flags
    assert sorted(documented - flags) == [] and sorted(flags - documented) == []

"""Workload inputs, operations and output checks for the wamdf benchmark.

A workload is a short list of operations ("ops"), one per distinct input,
that the benchmark cycles through.  An op is one or more in-process calls
to ``wamdf.cli.main``; every input is generated from the benchmark seed
during set-up, so the same seed always gives the same files.

Each command carries a check that reads the command's output directory,
raises ``CheckError`` if the output is wrong, and returns the few numbers
(``k*``, rejection counts, ...) that the default-seed goldens pin.  The
checks use their own numpy oracles, not the package's solver code.
"""

import contextlib
import io
import json
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import ndtr, ndtri

WORKLOADS = ("sim-p2", "analyze-synth", "weights-cli", "run-cli")

# Input sizes.  "full" is what the benchmark measures; "tiny" keeps the same
# code paths at a size the self-tests can afford.
SIZES = {
    "full": dict(sim_M=1000, sim_K=4, features=2000, prior_M=10_000,
                 tab_M=20, knots=50, pv_M=200_000),
    "tiny": dict(sim_M=200, sim_K=2, features=150, prior_M=300,
                 tab_M=5, knots=8, pv_M=2_000),
}

# Distinct inputs per workload, cycled op by op.  Where op time depends on the
# input (the number of inner solves in ``analyze``, the tabulated solve in
# ``weights``), every op of a run gets its own input, so a run's median is
# taken over inputs rather than over repeats of one input.  sim-p2 and
# run-cli do the same work for any input; sim-p2 also pays a --threads 2
# reference rerun per input.
N_INPUTS = {"sim-p2": 2, "analyze-synth": 12, "weights-cli": 12, "run-cli": 2}

# The reference kernels (reference.py) that op times are counted in: those
# resembling the work that dominates each workload's ops in the traced split.
REFERENCE = {"sim-p2": ("grid", "sort"), "analyze-synth": ("grid", "sort"),
             "weights-cli": ("grid", "sort", "text"), "run-cli": ("sort", "text")}

ALPHA = 0.05
TARGET_POWER = 0.5              # analyze's default --target-power
COVARIATE = "0.86,1.34,1.81,2.37,3.00"
FIXED_T = 0.05
RUN_LAMBDA = 0.1

FDP_TOL = 1e-10                 # |fdp(k*) - alpha| after the log-k brentq refinement
POWER_TOL = 1e-6                # calibrate_information's certified tolerance
WEIGHT_RTOL = 1e-9              # weights vs thresholds recomputed at k*
GOLDEN_RTOL = 1e-12             # the k* gate: default-seed values vs recorded ones


class CheckError(Exception):
    """An op's output failed its correctness check."""


@dataclass
class Command:
    argv: list          # cli arguments without --out
    check: object       # callable(outdir) -> dict of pinned values; raises CheckError
    rc: int = 0         # expected exit code


@dataclass
class Op:
    commands: list
    hyps: int           # hypotheses the op processes


@dataclass
class Workload:
    name: str
    ops: list           # one per distinct input; the benchmark cycles through them
    sim_refs: object = None


def build(name, seed, size, workdir):
    """Generate the inputs of workload ``name`` under ``workdir`` and return it."""
    sizes = SIZES[size]
    workdir.mkdir(parents=True, exist_ok=True)
    index = WORKLOADS.index(name)
    rngs = [np.random.default_rng([seed, index, i]) for i in range(N_INPUTS[name])]
    return _BUILDERS[name](rngs, sizes, workdir)


def _require(cond, message):
    if not cond:
        raise CheckError(message)


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _write_csv(path, header, columns):
    rows = np.column_stack(columns)
    np.savetxt(path, rows, fmt="%.17g", delimiter=",", header=header, comments="")


# ---------------------------------------------------------------- sim-p2

class SimReferences:
    """Each sim input rerun once at --threads 2: the bitwise reference.

    The rerun times also give ``simulate.scaling_eff``.
    """

    def __init__(self, workdir):
        self.workdir = workdir
        self.summaries = {}
        self.seconds = {}

    def summary(self, key, argv):
        if key not in self.summaries:
            from wamdf.cli import main
            out = self.workdir / f"ref{key}"
            shutil.rmtree(out, ignore_errors=True)
            argv2 = list(argv)
            argv2[argv2.index("--threads") + 1] = "2"
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                rc = main(argv2 + ["--out", str(out)])
            self.seconds[key] = time.perf_counter() - t0
            _require(rc == 0, f"--threads 2 reference exited {rc}")
            self.summaries[key] = (out / "summary_a5.json").read_bytes()
            shutil.rmtree(out)
        return self.summaries[key]


def _sim(rngs, sizes, workdir):
    refs = SimReferences(workdir)
    ops = []
    for key, rng in enumerate(rngs):
        argv = ["simulate", "--preset", "2", "--a", "5", "--M", str(sizes["sim_M"]),
                "--K", str(sizes["sim_K"]), "--threads", "1",
                "--seed", str(int(rng.integers(2**31)))]

        def check(outdir, key=key, argv=argv):
            raw = (outdir / "summary_a5.json").read_bytes()
            _require(raw == refs.summary(key, argv),
                     "summary differs from the --threads 2 rerun")
            s = json.loads(raw)
            pinned = {"n_completed": s["n_completed"], "n_skipped": s["n_skipped"]}
            for v, d in s["variants"].items():
                pinned[f"{v}.cdp_mean"] = d["cdp_mean"]
                pinned[f"{v}.fdp_mean"] = d["fdp_mean"]
            return pinned

        ops.append(Op([Command(argv, check)], hyps=sizes["sim_M"] * sizes["sim_K"]))
    return Workload("sim-p2", ops, sim_refs=refs)


# ---------------------------------------------------------------- analyze-synth

def _analyze(rngs, sizes, workdir):
    from wamdf.counts import generate_synthetic_counts

    x = np.array([float(v) for v in COVARIATE.split(",")])
    ops = []
    for i, rng in enumerate(rngs):
        dataset, _ = generate_synthetic_counts(sizes["features"], x, rng)
        path = workdir / f"counts{i}.csv"
        np.savetxt(path, dataset.counts, fmt="%d", delimiter=",")

        def check(outdir):
            a = _read_json(outdir / "analysis.json")
            tab = np.loadtxt(outdir / "weight_power.tsv", skiprows=1, ndmin=2)
            feats = np.loadtxt(outdir / "features.tsv", skiprows=1, ndmin=2)
            _require(tab.shape[0] == a["n_tested"] == feats.shape[0], "row counts disagree")
            gamma, weight = tab[:, 1], tab[:, 2]
            # power at the per-feature thresholds lambda * w, recomputed here
            power = ndtr(gamma + ndtri(a["lambda"] * weight))
            _require(abs(power.mean() - TARGET_POWER) <= POWER_TOL,
                     f"recomputed average power {power.mean():.9f} misses {TARGET_POWER}")
            _require(abs(a["achieved_avg_power"] - TARGET_POWER) <= POWER_TOL,
                     f"achieved power {a['achieved_avg_power']:.9f} misses {TARGET_POWER}")
            _require(int(feats[:, 7].sum()) == a["rejected_wa"]
                     and int(feats[:, 8].sum()) == a["rejected_ua"],
                     "rejection columns disagree with analysis.json")
            return {k: a[k] for k in ("k_info", "lambda", "u", "achieved_avg_power",
                                      "rejected_wa", "rejected_ua", "n_tested")}

        argv = ["analyze", str(path), "--x", COVARIATE]
        ops.append(Op([Command(argv, check)], hyps=sizes["features"]))
    return Workload("analyze-synth", ops)


# ---------------------------------------------------------------- weights-cli

def _normal_thresholds(p, gamma, k):
    """Normal-location thresholds t_m solving p_m * slope(t_m) = k, with complements."""
    z = 0.5 * gamma + np.log(k / p) / gamma
    return ndtr(-z), ndtr(z), ndtr(gamma - z), ndtr(z - gamma)


def _normal_fdp(p, gamma, k):
    t, tc, pi, pic = _normal_thresholds(p, gamma, k)
    g = (1 - p) * t + p * pi
    gc = (1 - p) * tc + p * pic
    return (gc.mean() / tc.mean()) * (t.mean() / g.mean())


def _table_thresholds(knots, secants, p, k):
    """Tabulated thresholds: the knot where the secant slope crosses k / p_m."""
    j = np.sum(secants[None, :] >= (k / p)[:, None], axis=1)
    return knots[j]


def _concave_table(rng, n_knots):
    """A strictly concave power table t -> t**a on log-spaced random knots."""
    a = rng.uniform(0.2, 0.6)
    while True:
        inner = np.sort(10.0 ** rng.uniform(-6, -0.01, n_knots - 2))
        t = np.concatenate([[0.0], inner, [1.0]])
        power = t ** a
        secants = np.diff(power) / np.diff(t)
        if np.all(np.diff(t) > 0) and np.all(np.diff(power) > 0) and np.all(np.diff(secants) < 0):
            return t, power, secants


def _weights_common(d, weights_tsv_rows):
    w = np.asarray(d["weights"])
    _require(w.size == weights_tsv_rows, "weights.tsv and weights.json differ in length")
    _require(abs(w.mean() - 1.0) <= 1e-12, f"weights average {w.mean():.15g}, not 1")
    _require(abs(d["u"] * w.max() - 1.0) <= 1e-12, "u != 1 / max(w)")
    return w


def _tsv_rows(path):
    return path.read_bytes().count(b"\n") - 1


def _weights(rngs, sizes, workdir):
    ops = []
    for i, rng in enumerate(rngs):
        M, m = sizes["prior_M"], sizes["tab_M"]
        p, gamma = rng.uniform(0.01, 0.9, M), rng.uniform(1.0, 5.0, M)
        p_small, gamma_small = rng.uniform(0.01, 0.9, m), rng.uniform(1.0, 5.0, m)
        knots, power, secants = _concave_table(rng, sizes["knots"])
        prior_path = workdir / f"priors{i}.csv"
        small_path = workdir / f"priors_small{i}.csv"
        table_path = workdir / f"table{i}.csv"
        _write_csv(prior_path, "p,gamma", [p, gamma])
        _write_csv(small_path, "p,gamma", [p_small, gamma_small])
        _write_csv(table_path, "t,power", [knots, power])

        def check_alpha(outdir, p=p, gamma=gamma):
            d = _read_json(outdir / "weights.json")
            w = _weights_common(d, _tsv_rows(outdir / "weights.tsv"))
            k = d["k_star"]
            resid = abs(_normal_fdp(p, gamma, k) - ALPHA)
            _require(resid <= FDP_TOL, f"|fdp(k*) - alpha| = {resid:.3g} > {FDP_TOL:g}")
            t = _normal_thresholds(p, gamma, k)[0]
            _require(np.allclose(w, t / t.mean(), rtol=WEIGHT_RTOL, atol=0),
                     "weights differ from the thresholds at k*")
            return {key: d[key] for key in ("k_star", "t_bar", "u")}

        def check_fixed_t(outdir, p=p_small, knots=knots, secants=secants):
            d = _read_json(outdir / "weights.json")
            w = _weights_common(d, _tsv_rows(outdir / "weights.tsv"))
            k = d["k_star"]
            t = _table_thresholds(knots, secants, p, k)
            _require(np.allclose(d["t_bar"] * w, t, rtol=0, atol=1e-9),
                     "thresholds are not the table knots at k*")
            # the mean threshold is a step function of k: t must sit in its jump at k*
            above = _table_thresholds(knots, secants, p, k * (1 - 1e-9)).mean()
            below = _table_thresholds(knots, secants, p, k * (1 + 1e-9)).mean()
            _require(below - 1e-9 <= FIXED_T <= above + 1e-9,
                     f"mean threshold jumps {below:.6g} -> {above:.6g} around k*, missing t")
            return {key: d[key] for key in ("k_star", "t_bar", "u")}

        ops.append(Op([
            Command(["weights", str(prior_path), "--alpha", str(ALPHA)], check_alpha),
            Command(["weights", str(small_path), "--t", str(FIXED_T),
                     "--power-table", str(table_path)], check_fixed_t),
        ], hyps=M + m))
    return Workload("weights-cli", ops)


# ---------------------------------------------------------------- run-cli

def sup_threshold_rejections(q, alpha, lam, u):
    """Exhaustive sup-threshold oracle for the adaptive procedure.

    Takes the largest candidate threshold t <= u (each weighted p-value at
    or below u, and u itself) whose estimated FDP ``m0_hat * t / max(R(t), 1)``
    is at most alpha, and rejects every ``q <= t``.
    """
    m0_hat = (q.size - np.sum(q <= lam) + 1) / (1.0 - lam)
    qs = np.sort(q)
    cand = np.unique(np.r_[0.0, qs[qs <= u], u])
    r = np.searchsorted(qs, cand, side="right")
    feasible = cand[m0_hat * cand / np.maximum(r, 1) <= alpha]
    return np.flatnonzero(q <= feasible.max())


def _run(rngs, sizes, workdir):
    ops = []
    for i, rng in enumerate(rngs):
        M = sizes["pv_M"]
        theta = rng.random(M) < 0.2
        z = rng.standard_normal(M) + np.where(theta, rng.uniform(1.0, 5.0, M), 0.0)
        p = ndtr(-z)
        w = rng.uniform(0.25, 1.75, M)
        w /= w.mean()
        path = workdir / f"pv{i}.csv"
        _write_csv(path, "p,weight", [p, w])
        # the CLI reads the file back; %.17g round-trips, so these are its inputs
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        expected = sup_threshold_rejections(data[:, 0] / data[:, 1], ALPHA, RUN_LAMBDA,
                                            1.0 / data[:, 1].max())

        def check(outdir, expected=expected, M=M):
            r = _read_json(outdir / "report.json")
            got = np.asarray(r["rejected_indices"], dtype=np.int64)
            _require(r["R"] == got.size, "R disagrees with the rejected indices")
            _require(np.array_equal(got, expected),
                     f"rejected set differs from the sup-threshold oracle "
                     f"({got.size} vs {expected.size})")
            _require(_tsv_rows(outdir / "report.tsv") == M, "report.tsv row count")
            return {"R": r["R"], "t_hat": r["t_hat"], "m0_hat": r["m0_hat"]}

        argv = ["run", str(path), "--variant", "WA", "--lambda", str(RUN_LAMBDA)]
        ops.append(Op([Command(argv, check)], hyps=M))
    return Workload("run-cli", ops)


_BUILDERS = {"sim-p2": _sim, "analyze-synth": _analyze, "weights-cli": _weights, "run-cli": _run}


def compare_golden(pinned, golden):
    """Problems where ``pinned`` differs from the recorded ``golden`` values."""
    problems = []
    for key, want in golden.items():
        got = pinned.get(key)
        if isinstance(want, int):
            ok = got == want
        else:
            ok = got is not None and abs(got - want) <= GOLDEN_RTOL * abs(want)
        if not ok:
            problems.append(f"{key} = {got!r}, recorded {want!r}")
    return problems


def load_golden(path):
    path = Path(path)
    return _read_json(path) if path.is_file() else {}

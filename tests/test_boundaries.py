"""One boundary contract, checked by one table.

Every public entry point rejects NaN, +inf, -inf and an out-of-domain value
of each numeric argument with a ValueError whose message names the
argument.  A scalar argument also rejects a 2-element array.  The checks
themselves live in ``wamdf._checks``.
"""

import numpy as np
import pytest

from wamdf import _checks, counts, power, procedures, simulate, weights
from wamdf.counts import CountDataset
from wamdf.power import NormalLocationModel, TabulatedPowerModel
from wamdf.simulate import SimConfig, substream
from wamdf.weights import PriorSpec, WeightProfile

NAN, INF = float("nan"), float("inf")
X = np.array([0.86, 1.34, 1.81, 2.37, 3.00])
PRIOR = PriorSpec([0.3, 0.6], [2.0, 3.0])
MODELS = {"NormalLocationModel": NormalLocationModel(),
          "TabulatedPowerModel": TabulatedPowerModel([0.0, 0.2, 1.0], [0.0, 0.6, 1.0])}
CONFIG = SimConfig(M=10, n_reps=1, seed=1)
DATASET = CountDataset([[0, 1, 1, 0, 5], [3, 1, 2, 4, 1], [1, 1, 1, 1, 9]], X)
Q = [0.001, 0.2, 0.9]
Q_SHAPES = [np.array([]), np.full((2, 2), 0.01)]
NON_NUMBERS = ("0.5", True, None)


def _from_dict(**d):
    return WeightProfile.from_dict(d)


# entry point -> (callable, valid keyword arguments, rows); a row is
# (argument, name the message uses, out-of-domain value or None, shape,
# the infinities that are out of domain).  A "scalar" argument also gets a
# 2-element array; a "vector" argument gets each bad value in place of its
# first element, and ``extra`` holds whole bad values besides.
def _row(arg, named=None, out=None, shape="scalar", infs=(INF, -INF), extra=()):
    return arg, named or arg, out, shape, infs, extra


TABLE = {
    "estimate_m0": (procedures.estimate_m0, dict(q=Q, lam=0.5), [
        _row("q", out=-1.0, shape="vector", extra=Q_SHAPES),
        _row("lam", "lambda", out=1.0),
    ]),
    "step_up_threshold": (procedures.step_up_threshold,
                          dict(q=Q, m0_hat=3.0, alpha=0.05, u=1.0), [
        _row("q", out=-1.0, shape="vector", extra=Q_SHAPES),
        _row("m0_hat", out=0.0),
        _row("alpha", out=1.0),
        _row("u", out=0.0),
    ]),
    "run_procedure": (procedures.run_procedure,
                      dict(variant="WA", pvalues=Q, weights=[1.0, 1.0, 1.0], alpha=0.05,
                           lam=0.5, u=1.0), [
        _row("pvalues", "p-values", out=1.5, shape="vector"),
        _row("weights", out=0.0, shape="vector"),
        _row("alpha", out=1.0),
        _row("lam", "lambda", out=0.0),
        _row("u", out=0.0),
    ]),
    "alpha_star": (procedures.alpha_star, dict(alpha=0.05, lam=0.5, w_max=1.5), [
        _row("alpha", out=0.0),
        _row("lam", "lambda", out=1.0),
        _row("w_max", out=-1.0),
    ]),
    "fdr_upper_bound": (procedures.fdr_upper_bound, dict(alpha=0.05, lam=0.5, w0_bar=1.0, m0=5), [
        _row("alpha", out=1.5),
        _row("lam", "lambda", out=0.0),
        _row("w0_bar", out=0.0),
        _row("m0", out=0),
    ]),
    "PriorSpec": (PriorSpec, dict(p=[0.3, 0.6], gamma=[2.0, 3.0]), [
        _row("p", out=1.0, shape="vector"),
        _row("gamma", out=0.0, shape="vector"),
    ]),
    # from_dict reads a file: a string, a bool or None is no number, though float() takes some
    "WeightProfile.from_dict": (_from_dict,
                                dict(weights=[1.0, 1.0], k_star=1.0, t_bar=0.1, u=1.0), [
        _row("weights", out=0.0, shape="vector",
             extra=[[v, v] for v in NON_NUMBERS] + [[True, 1.0], [1.0, np.True_]]),
        _row("k_star", out=-5.0, infs=(-INF,),   # 0.0 and inf stand for out-of-range k*
             extra=NON_NUMBERS),
        _row("t_bar", out=1.0, extra=NON_NUMBERS),
        _row("u", out=-1.0, extra=NON_NUMBERS),
    ]),
    "optimal_fixed_t_weights": (weights.optimal_fixed_t_weights, dict(prior=PRIOR, t=0.1), [
        _row("t", out=1.0),
    ]),
    "fdp_approximator": (weights.fdp_approximator, dict(prior=PRIOR, k=1.0), [
        _row("k", out=0.0),
    ]),
    "asymptotically_optimal_weights": (weights.asymptotically_optimal_weights,
                                       dict(prior=PRIOR, alpha=0.05), [
        _row("alpha", out=1.0),
    ]),
    "TabulatedPowerModel": (TabulatedPowerModel, dict(t=[0.0, 0.2, 1.0], power=[0.0, 0.6, 1.0]), [
        _row("t", out=1.5, shape="vector"),
        _row("power", out=1.5, shape="vector"),
    ]),
    "SimConfig": (SimConfig, dict(M=10, n_reps=1, seed=1, alpha=0.05, gamma_a=5.0, p_fixed=0.5,
                                  gamma_fixed=2.0, lambda_fixed=0.2, preset=2), [
        _row("M", out=0),
        _row("n_reps", out=0),
        _row("seed", out=0.5),
        _row("alpha", out=1.0),
        _row("gamma_a", out=0.5),
        _row("p_fixed", out=1.5),
        _row("gamma_fixed", out=0.0),
        _row("lambda_fixed", out=1.0),
        _row("preset", out=7),
    ]),
    "simulation_preset": (simulate.simulation_preset,
                          dict(preset=2, a=5.0, M=10, n_reps=1, seed=1, alpha=0.05), [
        _row("preset", out=0),
        _row("a", "gamma_a", out=0.5),
        _row("M", out=0),
        _row("n_reps", out=-1),
        _row("seed", out=1.5),
        _row("alpha", out=0.0),
    ]),
    "generate_du": (simulate.generate_du, dict(m0=3, m1=2, rng=substream(1, 0)), [
        _row("m0", out=-1),
        _row("m1", out=-1),
    ]),
    "run_simulation": (simulate.run_simulation, dict(config=CONFIG, threads=1), [
        _row("threads", out=0),
    ]),
    "CountDataset": (CountDataset, dict(counts=DATASET.counts, x=X), [
        _row("counts", out=-1.0, shape="vector"),
        _row("x", "covariate", shape="vector", extra=[np.ones(5)]),
    ]),
    "score_statistic": (counts.score_statistic, dict(counts=[0, 1, 1, 0, 5], x=X), [
        _row("counts", out=1.5, shape="vector"),
        _row("x", "covariate", shape="vector", extra=[np.ones(5)]),
    ]),
    "calibrate_information": (counts.calibrate_information,
                              dict(totals=[20.0, 50.0, 80.0], p_prior=0.5, alpha=0.05,
                                   target_avg_power=0.5), [
        _row("totals", "feature total", out=0.5, shape="vector"),
        _row("p_prior", "prior", out=1.0),
        _row("alpha", out=1.0),
        _row("target_avg_power", "target average power", out=1.0),
    ]),
    "analyze": (counts.analyze, dict(dataset=DATASET, alpha=0.05, p_prior=0.5,
                                     target_avg_power=0.5), [
        _row("alpha", out=0.0),
        _row("p_prior", "prior", out=0.0),
        _row("target_avg_power", "target average power", out=0.0),
    ]),
    "generate_synthetic_counts": (counts.generate_synthetic_counts,
                                  dict(n_features=10, x=X, rng=substream(1, 0), beta=0.35,
                                       positive_fraction=0.5, total_min=6, total_max=911), [
        _row("n_features", out=0),
        _row("x", "covariate", shape="vector", extra=[np.ones(5)]),
        _row("beta"),   # every finite trend strength is in domain
        _row("positive_fraction", out=1.5),
        _row("total_min", out=0),
        _row("total_max", out=5),
    ]),
}
for _name, _model in MODELS.items():
    TABLE.update({
        f"{_name}.power": (_model.power, dict(gamma=2.0, t=0.3), [
            _row("gamma", out=-1.0, shape="vector"),
            _row("t", out=1.5, shape="vector"),
        ]),
        f"{_name}.log_power_slope": (_model.log_power_slope, dict(gamma=2.0, t=0.3), [
            _row("gamma", out=0.0, shape="vector"),
            _row("t", out=1.0, shape="vector"),
        ]),
        # a log slope of +inf or -inf is the limit at t = 0 or t = 1
        f"{_name}.threshold_for_log_slope": (_model.threshold_for_log_slope,
                                             dict(gamma=2.0, log_slope=0.5), [
            _row("gamma", out=-2.0, shape="vector"),
            _row("log_slope", "log slope", shape="vector", infs=()),
        ]),
    })


def _cases():
    for entry, (call, valid, rows) in TABLE.items():
        for arg, named, out, shape, infs, extra in rows:
            bad = [NAN, *infs] + ([] if out is None else [out])
            if shape == "scalar":
                values = [(b, repr(b)) for b in bad] + [(np.array([valid[arg]] * 2), "pair")]
            else:
                values = []
                for b in bad:
                    v = np.array(valid[arg], dtype=float, ndmin=1)
                    v.flat[0] = b
                    values.append((v, f"[{b!r}]"))
            values += [(v, f"extra{i}") for i, v in enumerate(extra)]
            for value, label in values:
                yield pytest.param(call, {**valid, arg: value}, named, id=f"{entry}-{arg}-{label}")


@pytest.mark.parametrize("call, kwargs, named", list(_cases()))
def test_rejects_by_name(call, kwargs, named):
    with pytest.raises(ValueError) as info:
        call(**kwargs)
    assert named in str(info.value)


def test_valid_rows_pass():
    # each row's valid arguments are accepted, so every rejection above is
    # the bad value's doing
    for call, valid, _ in TABLE.values():
        call(**valid)


def test_table_holds_every_entry_point():
    # a new public callable joins the table, unless it takes no number or
    # only builds a result
    exempt = {"default_model", "generate_model1", "evaluate", "DecisionReport", "SimSummary",
              "CalibrationResult", "AnalysisResult"}
    listed = {entry.split(".")[0] for entry in TABLE} | exempt
    public = {name for module in (power, weights, procedures, simulate, counts)
              for name, obj in vars(module).items() if name in module.__all__ and callable(obj)
              and not (isinstance(obj, type) and issubclass(obj, Exception))}
    assert sorted(public - listed) == []


# integer arguments with a minimum: (entry point, argument, minimum); one below
# the minimum gets check_int's message
MINIMUMS = [("SimConfig", "M", 1), ("SimConfig", "n_reps", 1), ("run_simulation", "threads", 1),
            ("fdr_upper_bound", "m0", 1), ("generate_du", "m0", 0), ("generate_du", "m1", 0),
            ("generate_synthetic_counts", "n_features", 1),
            ("generate_synthetic_counts", "total_min", 1),
            ("generate_synthetic_counts", "total_max", 6)]   # at least total_min


@pytest.mark.parametrize("entry, arg, low", MINIMUMS,
                         ids=[f"{entry}-{arg}" for entry, arg, _ in MINIMUMS])
def test_minimum_message(entry, arg, low):
    call, valid, _ = TABLE[entry]
    with pytest.raises(ValueError, match=f"^{arg} must be at least {low}, got {low - 1}$"):
        call(**{**valid, arg: low - 1})


@pytest.mark.parametrize("value", ["0.5", None, True, [0.5], np.array([0.5, 0.5]), NAN,
                                   np.array(["0.5"]), 1 + 0j])
def test_no_checker_passes_nan_or_a_non_number(value):
    checks = [lambda x: _checks.check_unit("x", x),
              lambda x: _checks.check_unit("x", x, closed=True),
              lambda x: _checks.check_positive("x", x), lambda x: _checks.check_int("x", x)]
    for check in checks:
        with pytest.raises(ValueError, match="^x must "):
            check(value)


def test_vector_checks_take_arrays():
    _checks.check_unit("p", np.array([0.2, 0.7]), scalar=False)
    _checks.check_unit("p", [0.0, 1.0], closed=True, scalar=False)
    _checks.check_positive("w", np.array([[1, 2], [3, 4]]), scalar=False)
    with pytest.raises(ValueError, match=r"^p must lie in \(0, 1\)$"):
        _checks.check_unit("p", [0.2, 1.0], scalar=False)


# numpy turns a list that mixes bools with numbers into a float array
@pytest.mark.parametrize("value", [[True, 1.0], [0.5, False], (0.5, np.True_), [[0.5], [True]]],
                         ids=["bool-first", "bool-last", "numpy-bool", "nested"])
def test_vector_checks_refuse_a_bool_in_a_list(value):
    checks = [lambda x: _checks.check_unit("x", x, scalar=False),
              lambda x: _checks.check_unit("x", x, closed=True, scalar=False),
              lambda x: _checks.check_positive("x", x, scalar=False)]
    for check in checks:
        with pytest.raises(ValueError, match="^x must "):
            check(value)
    assert _checks.as_numbers(value, scalar=False) is None

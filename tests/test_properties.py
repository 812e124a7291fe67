"""Property tests: invariants of the step-up procedures, the weight solver's
multiplier bracket, and the CSV boundary."""

import contextlib
import io
import json

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from wamdf import weights
from wamdf.cli import EXIT_INPUT, EXIT_OK, main
from wamdf.power import NormalLocationModel, TabulatedPowerModel
from wamdf.procedures import (
    VARIANTS,
    adaptive_fdp_estimate,
    estimate_m0,
    run_procedure,
    step_up_threshold,
)
from wamdf.weights import (
    NoSolutionError,
    PriorSpec,
    WeightProfile,
    asymptotically_optimal_weights,
    optimal_fixed_t_weights,
)


@st.composite
def batteries(draw):
    """(p, w, lam, u, alpha) with ``lam <= u <= min(1, 1/max(w))`` and ``lam < 1``."""
    m = draw(st.integers(1, 40))
    p = draw(arrays(float, m, elements=st.floats(0.0, 1.0)))
    w = draw(arrays(float, m, elements=st.floats(0.1, 10.0)))
    u_max = 1.0 / w.max()
    lam = draw(st.floats(0.01, 0.99)) * min(1.0, u_max)
    u = lam + draw(st.floats(0.0, 1.0)) * (min(1.0, u_max) - lam)
    alpha = draw(st.floats(0.001, 0.5))
    return p, w, lam, u, alpha


@given(batteries(), st.sampled_from(VARIANTS), st.randoms(use_true_random=False))
def test_permutation_equivariance(battery, variant, rnd):
    p, w, lam, _, alpha = battery
    perm = np.array(rnd.sample(range(p.size), p.size))
    a = run_procedure(variant, p, weights=w, alpha=alpha, lam=lam)
    b = run_procedure(variant, p[perm], weights=w[perm], alpha=alpha, lam=lam)
    assert (b.t_hat, b.m0_hat) == (a.t_hat, a.m0_hat)
    np.testing.assert_array_equal(b.rejected, a.rejected[perm])


@given(batteries(), st.floats(0.001, 0.999), st.sampled_from(VARIANTS))
def test_rejections_grow_with_alpha(battery, other, variant):
    p, w, lam, _, alpha = battery
    lo, hi = sorted((alpha, other))
    small = run_procedure(variant, p, weights=w, alpha=lo, lam=lam).rejected
    large = run_procedure(variant, p, weights=w, alpha=hi, lam=lam).rejected
    assert np.all(large[small])


@given(batteries())
def test_step_up_equals_sup_threshold_scan(battery):
    p, w, lam, u, alpha = battery
    q = p / w
    m0_hat = estimate_m0(q, lam)
    rejected = q <= step_up_threshold(q, m0_hat, alpha, u)
    candidates = np.unique(np.r_[0.0, q[q <= u], u])
    best = max(t for t in candidates if adaptive_fdp_estimate(t, q, m0_hat) <= alpha)
    np.testing.assert_array_equal(rejected, q <= best)


@given(batteries(), st.sampled_from([("WA", "UA"), ("WU", "UU")]))
def test_unit_weights_reduce_to_unweighted(battery, pair):
    p, _, lam, _, alpha = battery
    weighted = run_procedure(pair[0], p, weights=np.ones(p.size), alpha=alpha, lam=lam)
    plain = run_procedure(pair[1], p, alpha=alpha, lam=lam)
    assert (weighted.t_hat, weighted.m0_hat, weighted.u) == (plain.t_hat, plain.m0_hat, plain.u)
    np.testing.assert_array_equal(weighted.rejected, plain.rejected)


# ---------------------------------------------------------------- multiplier bracket

@st.composite
def bracket_cases(draw):
    """(p, gamma, table, t, alpha); ``table`` is None for the normal model or
    (first knot, exponent, knot count) of a table ``t**a`` on log-spaced knots."""
    m = draw(st.integers(1, 8))
    p = draw(arrays(float, m, elements=st.floats(0.001, 0.999)))
    gamma = draw(arrays(float, m, elements=st.floats(0.05, 40.0)))
    table = draw(st.none() | st.tuples(st.floats(-14.5, -1.0), st.floats(0.05, 0.9),
                                       st.integers(2, 12)))
    t = draw(st.one_of(st.floats(-40.0, -0.05).map(lambda e: 10 ** e),
                       st.floats(-15.9, -1.0).map(lambda e: 1 - 10 ** e)))
    alpha = draw(st.floats(-10.0, np.log10(0.5)).map(lambda e: 10 ** e))
    return p, gamma, table, t, alpha


def _table_model(table):
    if table is None:
        return NormalLocationModel()
    first, a, n = table
    knots = np.r_[0.0, (10 ** first) ** np.linspace(1.0, 0.0, n)]
    return TabulatedPowerModel(knots, knots ** a)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # out of regime, clamped weights
@given(bracket_cases())
# a table whose p * secant_0 = 0.9 * 10^(0.7 * 13) exceeds 1e8: at that k the
# first pair still sits on the knot 1e-13, so the mean threshold reaches
# t = 2e-14 only where that pair drops to the 1e-15 clamp
@example(([0.9, 0.2], [1.0, 3.0], (-13.0, 0.3, 6), 2e-14, 0.05))
@example(([0.5, 0.3, 0.2], [60.0, 45.0, 50.0], None, 0.05, 0.05))   # k* below 1e-300
def test_one_bracket_holds_the_solution(case):
    p, gamma, table, t, alpha = case
    prior, model = PriorSpec(p, gamma), _table_model(table)
    eps = 1e-15

    def mean_threshold_at(log_k):
        return float(np.mean(weights._thresholds(prior, log_k, model)))

    # fixed t: the bracket straddles t, or the solve says it cannot reach t
    lo, hi = weights._k_bracket(prior, model, min(t, eps), max(t, 1 - eps))
    straddles = mean_threshold_at(lo) >= t >= mean_threshold_at(hi)
    try:
        profile = optimal_fixed_t_weights(prior, t, model)
    except NoSolutionError as exc:
        assert not straddles and f"searched log k in [{lo:g}, {hi:g}]" in str(exc)
        # only a table's clamps stop it
        assert table is not None
    else:
        assert straddles and np.exp(lo) <= profile.k_star <= np.exp(hi)
    # pre-data: past hi, no crossing can follow
    pairs = weights._collapse(prior)
    lo, hi = weights._k_bracket(pairs, model, log_k_hi=max(np.log(1e8), np.log(2.0 / alpha)))
    fdp_hi = weights._fdp_at(pairs, hi, model)
    if table is None:
        assert fdp_hi < alpha
    else:
        # every threshold sits at the 1e-15 clamp: the FDP is constant from here on
        assert np.all(model.threshold_for_log_slope(gamma, hi - np.log(prior.p)) == eps)
        assert weights._fdp_at(pairs, hi + np.log(1e4), model) == fdp_hi
    try:
        asymptotically_optimal_weights(prior, alpha, model)
    except NoSolutionError as exc:
        assert exc.out_of_regime == (alpha > 1 - prior.p_max)
        # in the regime, only a table or a crossing where every threshold underflowed
        assert table is not None or alpha >= 1 - prior.p_max or "underflowed" in str(exc)


@st.composite
def in_regime_priors(draw):
    """(p, gamma, alpha) with ``alpha = u * (1 - max(p))``, u in (1e-6, 1)."""
    m = draw(st.integers(1, 6))
    p = draw(arrays(float, m, elements=st.floats(1e-8, 0.999)))
    gamma = draw(arrays(float, m, elements=st.floats(0.5, 80.0)))
    u = draw(st.floats(1e-6, 1.0, exclude_max=True))
    return p, gamma, float(u * (1.0 - p.max()))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # clamped weights
@given(in_regime_priors())
@example(([0.5, 0.5, 0.5], [45.0, 46.0, 47.0], 0.05))   # k* below the float range
@example(([0.5, 0.3, 0.2], [60.0, 45.0, 50.0], 0.05))
@example(([1e-8], [0.5], 0.125))   # the crossing needs a threshold near 1e-368
@example(([0.5], [4.0], 0.49999999999999994))   # ... and here one within 1e-16 of 1
def test_pre_data_profile_round_trip(case):
    # inside the guaranteed regime the pre-data solve succeeds, and its
    # profile survives JSON into the weighted adaptive procedure
    p, gamma, alpha = case
    try:
        profile = asymptotically_optimal_weights(PriorSpec(p, gamma), alpha)
    except NoSolutionError as exc:
        # the two in-regime exits, each where the crossing needs thresholds
        # that floats cannot hold
        prior = PriorSpec(p, gamma)
        model = NormalLocationModel()
        pairs = weights._collapse(prior)
        if "every threshold underflowed" in str(exc):
            # every threshold at the crossing is below the float range, so
            # t_bar (the lambda to write) is 0: the FDP approximator is still
            # at least alpha where the largest threshold is 1e-300
            log_k = np.max(np.log(prior.p) + model.log_power_slope(prior.gamma, 1e-300))
            assert weights._fdp_at(pairs, log_k, model) >= alpha
        else:
            # alpha within rounding of 1 - max(p): the approximator rises to
            # that limit from below as k -> 0, so the crossing needs every
            # threshold within 1e-15 of 1, past the bracket's low end
            assert "no multiplier attains FDP level" in str(exc)
            assert alpha > (1 - prior.p_max) * (1 - 1e-9)
            assert weights._fdp_at(pairs, weights._k_bracket(pairs, model)[0], model) < alpha
        return
    assert np.all((profile.weights > 0) & (profile.weights < np.inf))
    back = WeightProfile.from_dict(json.loads(json.dumps(profile.to_dict())))
    np.testing.assert_array_equal(back.weights, profile.weights)
    pvalues = np.linspace(0.0, 1.0, profile.M)
    report = run_procedure("WA", pvalues, weights=back.weights, alpha=alpha,
                           lam=back.t_bar, u=back.u)
    assert report.lam == profile.t_bar


# ---------------------------------------------------------------- CSV boundary

def _number(token):
    try:
        return float(token)
    except ValueError:
        return float("nan")


# one nonempty CSV field: no separator, quote or line break (an empty p cell
# in a one-column file is a blank line, which CSV readers skip)
_FIELD = st.text(st.characters(exclude_characters=',"\r\n'), min_size=1, max_size=8)
GOOD_P = st.floats(0.0, 1.0).map(repr)
GOOD_W = st.floats(0.5, 2.0).map(repr)
BAD_P = st.one_of(st.sampled_from(["nan", "inf", "-0.5", "1.5", "1e400", "abc"]),
                  _FIELD.filter(lambda s: not 0 <= _number(s) <= 1))
BAD_W = st.one_of(st.sampled_from(["", "0", "-1", "nan", "inf", "1e400", "abc"]),
                  _FIELD.filter(lambda s: not 0 < _number(s) < np.inf))
BAD_HEADER = st.text(st.characters(exclude_characters='"\r\n'), max_size=12).filter(
    lambda h: [f.strip() for f in h.split(",")] not in (["p"], ["p", "weight"]))


@st.composite
def corrupted_csvs(draw):
    """(valid CSV text, the same text with one defect, variant that reads it)."""
    weighted = draw(st.booleans())
    n = draw(st.integers(1, 5))
    rows = [[draw(GOOD_P)] + ([draw(GOOD_W)] if weighted else []) for _ in range(n)]
    header = "p,weight" if weighted else "p"
    valid = "\n".join([header] + [",".join(r) for r in rows]) + "\n"
    i = draw(st.integers(0, n - 1))
    kind = draw(st.sampled_from(["header", "p", "extra"] + (["weight", "no-weight"] if weighted else [])))
    if kind == "header":
        header = draw(BAD_HEADER)
    elif kind == "p":
        rows[i][0] = draw(BAD_P)
    elif kind == "extra":
        rows[i].append(draw(GOOD_P))
    elif kind == "weight":
        rows[i][1] = draw(BAD_W)
    else:
        rows[i].pop()
    bad = "\n".join([header] + [",".join(r) for r in rows]) + "\n"
    return valid, bad, "WA" if weighted else "UA"


@given(corrupted_csvs())
@example(("p\n0.5\n", "p\n" + "x" * 200_000 + "\n", "UA"))   # over the csv field limit
@example(("p,weight\n0.5,1\n", "p,weight\n0.5,\n", "UA"))      # an all-empty weight column
@example(("p,weight\n0.5,1\n", "p,weight\n0.5\n", "UA"))       # no weight column under its header
def test_malformed_pvalue_csv_exits_1(tmp_path_factory, case):
    valid, bad, variant = case
    tmp = tmp_path_factory.getbasetemp()
    path = tmp / "pvalues.csv"
    argv = ["run", str(path), "--variant", variant, "--lambda", "0.1", "--out", str(tmp / "out")]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        path.write_text(valid)
        assert main(argv) == EXIT_OK
        path.write_text(bad)
        assert main(argv) == EXIT_INPUT
    assert err.getvalue().startswith("error:")

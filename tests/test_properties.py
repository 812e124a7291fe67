"""Property tests: invariants of the step-up procedures, and the CSV boundary."""

import contextlib
import io

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from wamdf.cli import EXIT_INPUT, EXIT_OK, main
from wamdf.procedures import (
    VARIANTS,
    adaptive_fdp_estimate,
    estimate_m0,
    run_procedure,
    step_up_threshold,
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

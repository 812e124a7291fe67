"""Count-data association pipeline: multinomial score tests with
sample-size-informed weighting.

Each feature is a vector of counts over g groups with a known covariate per
group.  A positive association is tested one-sidedly with the standardized
score statistic of the log-linear trend, using the normal approximation to
its null distribution.  Effect sizes for the weighting step scale as
``sqrt(n_m) * K``, where the per-observation information constant K is
calibrated so the posited average power across features hits a target.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import power
from ._brent import brentq
from ._checks import check_int, check_unit
from .power import default_model
from .procedures import run_procedure
from .tables import read_table
from .weights import NoSolutionError, PriorSpec, _collapse, _pre_data_weights

__all__ = [
    "CountDataset",
    "CalibrationResult",
    "AnalysisResult",
    "CalibrationError",
    "score_statistic",
    "calibrate_information",
    "analyze",
    "generate_synthetic_counts",
]

# calibrate_information's tolerance on the achieved average power
_POWER_TOL = 1e-6


class CalibrationError(RuntimeError):
    """The average-power target cannot be bracketed in the information constant.

    ``trials`` holds the ``(constant, average power)`` of each inner solve
    made before the error, in solve order, as ``CalibrationResult.trials``
    does.
    """

    def __init__(self, message, trials=()):
        super().__init__(message)
        self.trials = tuple(trials)


def _check_counts(counts):
    if not np.all(np.isfinite(counts) & (counts >= 0) & (counts == np.floor(counts))):
        raise ValueError("counts must be nonnegative integers")


def _check_covariate(x):
    if not np.all(np.isfinite(x)) or np.unique(x).size < 2:
        raise ValueError("covariate must be finite with at least two distinct values")


@dataclass
class CountDataset:
    """Per-feature count vectors over g groups plus the group covariate."""

    counts: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        self.counts = np.asarray(self.counts)
        self.x = np.asarray(self.x, dtype=float)
        if self.counts.ndim != 2:
            raise ValueError("counts must be a 2-d (features x groups) array")
        if self.x.ndim != 1 or self.x.size != self.counts.shape[1]:
            raise ValueError("covariate length must match the number of groups")
        _check_counts(self.counts)
        _check_covariate(self.x)
        self.counts = self.counts.astype(np.int64)

    @property
    def n_features(self):
        return self.counts.shape[0]

    @property
    def n_groups(self):
        return self.counts.shape[1]

    @property
    def totals(self):
        return self.counts.sum(axis=1)

    @classmethod
    def from_csv(cls, path, x):
        """Load features from a CSV of count columns, one row per feature.

        A leading header row is skipped if its first field is not numeric.
        """
        return cls(read_table(path, dtype=np.int64)[1], x)


def score_statistic(counts, x):
    """Standardized score statistic for a positive covariate trend in counts.

    ``Z = (x'y - n*mean(x)) / sqrt(x' S x)`` with ``S = n (diag(q) - q q')``
    for cell proportions ``q = y / n``.  Large Z is evidence of positive
    association; under the null Z is approximately standard normal.

    Takes one feature's counts (a float Z) or a (features x groups) matrix
    (one Z per row).  Z is NaN for a zero total or all mass in one group.
    Counts and covariate must pass the checks ``CountDataset`` makes.
    """
    y = np.asarray(counts, dtype=float)
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or y.ndim not in (1, 2) or y.shape[-1] != x.size:
        raise ValueError("counts must be a vector or matrix matching the covariate length")
    _check_counts(y)
    _check_covariate(x)
    n = y.sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        q = y / n[..., None]
        ex = np.vecdot(q, x)
        var = n * (np.vecdot(q, x * x) - ex * ex)
        z = (np.vecdot(y, x) - n * x.mean()) / np.sqrt(var)
    # a zero total makes q and var NaN, so it fails ``var > 0`` too
    z = np.where(var > 0, z, np.nan)
    return z if z.ndim else float(z)


@dataclass
class CalibrationResult:
    """Solved information constant with the effect sizes and weights it implies.

    ``trials`` records each constant the calibration solved at, in solve
    order, as ``(constant, average power)``; ``bracket`` is the ``(lo, hi)``
    brentq started from.  ``pairs`` holds the distinct ``(p, sqrt(totals))``
    pairs the calibration solved on: ``pairs.index`` maps each feature to
    its pair and ``pairs.first`` each pair to its first feature.
    """

    k_info: float
    gamma: np.ndarray
    achieved_power: float
    profile: object  # WeightProfile at the solved constant
    trials: tuple
    bracket: tuple
    pairs: object    # weights._Pairs of (p, sqrt(totals))


def _broadcast_prior(p_prior, size):
    p = np.asarray(p_prior, dtype=float)
    if p.ndim == 0:
        return np.full(size, float(p))
    if p.shape != (size,):
        raise ValueError("per-feature priors must match the number of features")
    return p


def _average_power(k_info, pairs, alpha, model):
    """Average power and weight profile at constant ``k_info``, from the
    collapsed pairs of ``(p, sqrt(totals))``.

    Scaling keeps ties and first-occurrence order, so the pairs with gamma
    times ``k_info`` are the collapse of the scaled prior.  Power is taken
    once per pair and expanded before the mean, so it keeps the bits of a
    per-feature computation.
    """
    pairs = replace(pairs, gamma=pairs.gamma * k_info)
    profile = _pre_data_weights(pairs, alpha, model)
    w = profile.weights[pairs.first]
    return float(np.mean(model._power(pairs.gamma, profile.t_bar * w)[pairs.index])), profile


def calibrate_information(totals, p_prior=0.5, alpha=0.05, target_avg_power=0.5):
    """Solve the information constant so posited average power hits a target.

    The solve doubles the constant from 1 until average power reaches the
    target, then halves it until power falls short, keeping the last
    constant that reached it as the upper end: the bracket is [K/2, K] for
    the smallest tried K that reaches the target.  brentq then runs on
    average power (at the solved per-feature thresholds) minus the
    target, wrapping the inner weight solve; every constant is solved
    once, so the bracket's ends cost nothing more.  The inputs are checked
    and the ``(p, sqrt(totals))`` pairs collapsed once; each constant's
    solve runs on those pairs.
    Average power need not be continuous or increasing in the constant:
    the smallest crossing ``k*`` of the inner solve can jump, and power
    jumps with it.  The achieved power is certified to within 1e-6 of
    the target; when brentq lands on a jump across the target, the
    CalibrationError names the constant and the average power on each
    side of it.  ``p_prior`` is a scalar prior shared by all features or
    a per-feature vector.
    """
    totals = np.asarray(totals, dtype=float)
    if not np.all((totals >= 1) & (totals < np.inf)):
        raise ValueError("every feature total must be finite and at least 1")
    check_unit("target average power", target_avg_power)
    root_n = np.sqrt(totals)
    pairs = _collapse(PriorSpec(_broadcast_prior(p_prior, totals.size), root_n))
    check_unit("alpha", alpha)
    model = default_model()

    solved = {}  # constant -> (average power, profile), each solved once
    trials = []  # (constant, average power) per solve, in solve order

    def power_at(k):
        if k not in solved:
            solved[k] = _average_power(k, pairs, alpha, model)
            trials.append((k, solved[k][0]))
        return solved[k][0]

    hi = 1.0
    for _ in range(40):
        if power_at(hi) >= target_avg_power:
            break
        hi *= 2.0
    else:
        raise CalibrationError(f"target {target_avg_power} not reached by K = {hi}", trials)
    # halve down to the first constant that falls short; each one that
    # still reaches the target becomes the upper end
    lo = hi
    for _ in range(60):
        hi, lo = lo, lo / 2.0
        try:
            if power_at(lo) < target_avg_power:
                break
        except NoSolutionError as exc:
            raise CalibrationError(
                f"target {target_avg_power} is below the attainable floor "
                f"(weight solve failed at K = {lo:g}: {exc})", trials
            ) from exc
    else:
        raise CalibrationError(f"could not bracket the target: power reaches it down to K = {lo}",
                               trials)

    k_info = brentq(lambda k: power_at(k) - target_avg_power, lo, hi,
                    xtol=1e-12, rtol=8.9e-16, maxiter=200)
    achieved = power_at(k_info)
    if abs(achieved - target_avg_power) > _POWER_TOL:
        # the tried constants nearest k_info on either side of the target
        # hold the jump between them
        sides = [min((k for k, (v, _) in solved.items() if (v < target_avg_power) == short),
                     key=lambda k: abs(k - k_info)) for short in (True, False)]
        left, right = sorted(sides)
        raise CalibrationError(
            f"achieved power {achieved:.8f} misses target {target_avg_power} beyond {_POWER_TOL}: "
            f"average power jumps from {solved[left][0]:.8g} at K = {left:.12g} "
            f"to {solved[right][0]:.8g} at K = {right:.12g}", trials
        )
    return CalibrationResult(
        k_info=float(k_info),
        gamma=root_n * float(k_info),
        achieved_power=achieved,
        profile=solved[k_info][1],
        trials=tuple(trials),
        bracket=(lo, hi),
        pairs=pairs,
    )


@dataclass
class AnalysisResult:
    """Weighted and unweighted adaptive analyses of one count dataset."""

    wa: object                 # DecisionReport on the valid features
    ua: object
    calibration: CalibrationResult
    valid_indices: np.ndarray  # dataset row index per analyzed feature
    excluded_indices: np.ndarray
    table: dict                # per-feature columns, aligned with valid_indices
    pair_table: dict           # gamma, weight and the two powers once per distinct pair


def analyze(dataset, alpha=0.05, p_prior=0.5, target_avg_power=0.5):
    """Full pipeline: score tests, power calibration, weighted + unweighted runs.

    Degenerate features (zero total or zero variance) are excluded from
    testing and reported.  ``p_prior`` may be a scalar or a vector aligned
    with the dataset rows (excluded rows are dropped from it).  Both
    procedures use the census level equal to the solved mean threshold;
    the weighted run caps the threshold at ``1/max(w)`` and the
    unweighted at 1.  The columns that depend on a feature's
    ``(p, sqrt(n))`` pair alone (``gamma``, ``weight`` and the two powers)
    are computed once per distinct pair, in ``pair_table``, and expanded
    into ``table`` with the bits of a per-feature computation.
    """
    model = default_model()
    z = score_statistic(dataset.counts, dataset.x)
    degenerate = np.isnan(z)
    if degenerate.all():
        raise ValueError("no testable features (all degenerate)")
    valid = np.flatnonzero(~degenerate)
    z = z[valid]
    pvalues = power.ndtr(-z)
    totals = dataset.totals[valid]
    p_prior = _broadcast_prior(p_prior, dataset.n_features)[valid]

    calibration = calibrate_information(
        totals, p_prior=p_prior, alpha=alpha,
        target_avg_power=target_avg_power,
    )
    profile = calibration.profile
    lam = profile.t_bar
    wa = run_procedure("WA", pvalues, weights=profile.weights, alpha=alpha, lam=lam)
    ua = run_procedure("UA", pvalues, alpha=alpha, lam=lam)

    pairs = calibration.pairs
    gamma = pairs.gamma * calibration.k_info
    weight = profile.weights[pairs.first]
    pair_table = {
        "gamma": gamma,
        "weight": weight,
        "power_unweighted": model.power(gamma, np.full(gamma.size, lam)),
        "power_weighted": model.power(gamma, lam * weight),
    }
    table = {
        "n": totals,
        "z": z,
        "p": pvalues,
        "q": wa.q,
        "rejected_wa": wa.rejected,
        "rejected_ua": ua.rejected,
        **{name: column[pairs.index] for name, column in pair_table.items()},
    }
    return AnalysisResult(
        wa=wa,
        ua=ua,
        calibration=calibration,
        valid_indices=valid,
        excluded_indices=np.flatnonzero(degenerate),
        table=table,
        pair_table=pair_table,
    )


def generate_synthetic_counts(n_features, x, rng, beta=0.35, positive_fraction=0.5,
                              total_min=6, total_max=911):
    """Heterogeneous-sample-size synthetic count data with planted positives.

    Feature totals are drawn log-uniformly over [total_min, total_max].
    Positive features get multinomial cell probabilities ``softmax(beta*x)``,
    null features uniform cells.  Returns (CountDataset, theta) with theta
    marking the planted positives.

    The default trend strength is deliberately moderate: its information
    constant roughly matches what the average-power-0.5 calibration posits
    on this totals profile, the regime where weighting has something to
    exploit.
    """
    x = np.asarray(x, dtype=float)
    for name, value, low in (("n_features", n_features, 1), ("total_min", total_min, 1),
                             ("total_max", total_max, total_min)):
        check_int(name, value, low)
        if value > np.iinfo(np.int64).max:   # counts are int64
            raise ValueError(f"{name} must fit in int64, got {value}")
    if np.ndim(beta) or not np.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta}")
    check_unit("positive_fraction", positive_fraction, closed=True)
    _check_covariate(x)   # before the draw, which a non-finite x turns into NaN
    g = x.size
    totals = np.exp(rng.uniform(np.log(total_min), np.log(total_max + 1), n_features))
    totals = np.clip(totals.astype(np.int64), total_min, total_max)
    theta = rng.random(n_features) < positive_fraction
    logits = beta * x - (beta * x).max()
    p_alt = np.exp(logits)
    p_alt /= p_alt.sum()
    p_null = np.full(g, 1.0 / g)
    counts = rng.multinomial(totals, np.where(theta[:, None], p_alt, p_null))
    return CountDataset(counts, x), theta

"""Step-up decision procedures on weighted p-values.

The four variants share one engine: divide p-values by their weights,
optionally estimate the number of true nulls from a census at level
lambda, then run the step-up scan capped at an upper threshold u.
Variant tags follow the weighted/unweighted x adaptive/unadaptive grid:

    UU  unweighted unadaptive (the classic step-up at level alpha)
    WU  weighted unadaptive
    UA  unweighted adaptive
    WA  weighted adaptive
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "VARIANTS",
    "DecisionReport",
    "weighted_pvalues",
    "estimate_m0",
    "step_up_threshold",
    "run_procedure",
    "alpha_star",
    "fdr_upper_bound",
]

VARIANTS = ("UU", "WU", "UA", "WA")


def weighted_pvalues(pvalues, weights):
    """Per-hypothesis weighted p-values ``Q_m = P_m / w_m``.

    Values above 1 are legitimate (small weights); such hypotheses simply
    can never be rejected because the selected threshold never exceeds 1.
    """
    p = np.asarray(pvalues, dtype=float)
    w = np.asarray(weights, dtype=float)
    if p.shape != w.shape:
        raise ValueError("p-values and weights must have equal length")
    if not np.all((p >= 0) & (p <= 1)):
        raise ValueError("p-values must lie in [0, 1]")
    if not np.all((w > 0) & (w < np.inf)):
        raise ValueError("weights must be positive and finite")
    return p / w


@dataclass
class DecisionReport:
    """Outcome of one procedure run: threshold, null-count estimate, rejections."""

    variant: str
    alpha: float
    lam: float | None
    u: float
    t_hat: float
    m0_hat: float
    rejected: np.ndarray
    pvalues: np.ndarray
    weights: np.ndarray
    q: np.ndarray

    @property
    def n_rejected(self):
        return int(self.rejected.sum())

    @property
    def rejected_indices(self):
        return np.flatnonzero(self.rejected)

    def to_dict(self):
        return {
            "variant": self.variant,
            "alpha": self.alpha,
            "lambda": self.lam,
            "u": self.u,
            "t_hat": self.t_hat,
            "m0_hat": self.m0_hat,
            "rejected_indices": self.rejected_indices.tolist(),
            "R": self.n_rejected,
        }


def estimate_m0(q, lam):
    """Census estimate of the number of true nulls from weighted p-values.

    ``(M - #{Q_m <= lambda} + 1) / (1 - lambda)``; the +1 keeps the
    estimate strictly positive, and the value may exceed M.
    """
    if not 0 < lam < 1:
        raise ValueError("lambda must lie in (0, 1)")
    q = np.asarray(q, dtype=float)
    r_lam = int(np.sum(q <= lam))
    return (q.size - r_lam + 1) / (1.0 - lam)


def step_up_threshold(q, m0_hat, alpha, u):
    """Step-up selection of the overall threshold on weighted p-values.

    With ordered ``Q_(1) <= ... <= Q_(M)``, take ``j`` the largest m with
    ``Q_(m) <= min(alpha * m / m0_hat, u)`` (0 if none) and return
    ``t_hat = min(j * alpha / m0_hat, u)``.  Rejecting ``Q_m <= t_hat``
    gives the same set as the largest t in [0, u] whose estimated FDP is
    at or below alpha; tied weighted p-values at the threshold are
    rejected together.  A p-value above u never counts toward j: at
    ``t = u`` it is not rejected, so it cannot lower the estimated FDP.
    """
    if not np.all((m0_hat > 0) & (m0_hat < np.inf)):
        raise ValueError("m0_hat must be positive and finite")
    if not np.all((alpha > 0) & (alpha < 1)):
        raise ValueError("alpha must lie in (0, 1)")
    if not np.all((u > 0) & (u < np.inf)):
        raise ValueError("u must be positive and finite")
    q = np.asarray(q, dtype=float)
    m = q.size
    order = np.sort(q)
    passes = (order <= alpha * np.arange(1, m + 1) / m0_hat) & (order <= u)
    j = int(np.flatnonzero(passes)[-1] + 1) if passes.any() else 0
    return min(j * alpha / m0_hat, u) if j > 0 else 0.0


def run_procedure(variant, pvalues, weights=None, alpha=0.05, lam=None, u=None,
                  finite_fdr=False):
    """Run one of the UU/WU/UA/WA procedures on a p-value battery.

    Parameters
    ----------
    variant : str
        One of ``VARIANTS``.  Unweighted variants force unit weights.
    pvalues : array_like
    weights : array_like, optional
        Required for WU/WA; ignored (forced to 1) for UU/UA.
    alpha : float
        Nominal FDR level.
    lam : float, optional
        Census level for the null-count estimate; required for UA/WA,
        where it must not exceed u.
    u : float, optional
        Upper bound for the selected threshold.  Defaults to
        ``1 / max(weights)`` (so unit weights give 1).
    finite_fdr : bool
        Finite-sample FDR mode: forces ``u = lam`` and shrinks the level
        to ``alpha_star(alpha, lam, max(weights))`` so the FDR is at most
        alpha for arbitrary fixed weights under independence.

    Returns
    -------
    DecisionReport
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    if not np.all((alpha > 0) & (alpha < 1)):
        raise ValueError("alpha must lie in (0, 1)")
    p = np.asarray(pvalues, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("p-values must be a nonempty 1-d vector")
    if variant in ("UU", "UA"):
        w = np.ones_like(p)
    else:
        if weights is None:
            raise ValueError(f"variant {variant} requires weights")
        w = np.asarray(weights, dtype=float)
        if w.shape != p.shape:
            raise ValueError("weights must match the p-value vector length")
    q = weighted_pvalues(p, w)

    adaptive = variant in ("UA", "WA")
    if adaptive and lam is None:
        raise ValueError(f"variant {variant} requires lambda")
    if lam is not None and not np.all((lam > 0) & (lam < 1)):
        raise ValueError("lambda must lie in (0, 1)")

    level = alpha
    w_max = float(w.max())
    if finite_fdr:
        if lam is None:
            raise ValueError("finite-FDR mode requires lambda")
        level = alpha_star(alpha, lam, w_max)
        u = lam
    elif u is None:
        u = 1.0 / w_max
    if not np.all((u > 0) & (u < np.inf)):
        raise ValueError("u must be positive and finite")
    if u * w_max > 1.0 + 1e-9:
        raise ValueError("u * max(weights) must not exceed 1")
    if adaptive and lam > u + 1e-12:
        raise ValueError("lambda must not exceed u")

    m0_hat = estimate_m0(q, lam) if adaptive else float(q.size)
    t_hat = step_up_threshold(q, m0_hat, level, u)
    return DecisionReport(
        variant=variant,
        alpha=alpha,
        lam=lam,
        u=u,
        t_hat=t_hat,
        m0_hat=m0_hat,
        rejected=q <= t_hat,
        pvalues=p,
        weights=w,
        q=q,
    )


def alpha_star(alpha, lam, w_max):
    """Shrunken nominal level guaranteeing finite-sample FDR control.

    Running the adaptive procedure at ``alpha * (1/w_max) *
    (1 - lam*w_max) / (1 - lam)`` with ``u = lam`` keeps the FDR at or
    below alpha for any fixed weights with maximum ``w_max``, under
    independence of the null statistics.
    """
    if not np.all((alpha > 0) & (alpha < 1)):
        raise ValueError("alpha must lie in (0, 1)")
    if not np.all((w_max > 0) & (w_max < np.inf)):
        raise ValueError("w_max must be positive and finite")
    if not 0 < lam < 1:
        raise ValueError("lambda must lie in (0, 1)")
    if lam * w_max >= 1.0:
        raise ValueError("lambda * w_max must be below 1")
    return alpha * (1.0 / w_max) * (1.0 - lam * w_max) / (1.0 - lam)


def fdr_upper_bound(alpha, lam, w0_bar, m0):
    """Finite-sample FDR bound for the adaptive procedure with u = lambda.

    ``alpha * w0_bar * (1 - lam) / (1 - lam * w0_bar) * [1 - (lam*w0_bar)^m0]``
    where ``w0_bar`` is the mean weight over true nulls.  Unit weights
    recover the classic adaptive bound ``alpha * (1 - lam^m0)``.
    """
    if not np.all((alpha > 0) & (alpha < 1)):
        raise ValueError("alpha must lie in (0, 1)")
    if not np.all(np.isfinite(m0) & (m0 >= 1) & (np.floor(m0) == m0)):
        raise ValueError("m0 must be an integer of at least 1")
    if not 0 < lam < 1:
        raise ValueError("lambda must lie in (0, 1)")
    if not np.all((w0_bar > 0) & (w0_bar < np.inf)):
        raise ValueError("w0_bar must be positive and finite")
    if lam * w0_bar >= 1.0:
        raise ValueError("lambda * w0_bar must be below 1")
    geom = 1.0 - (lam * w0_bar) ** m0
    return alpha * w0_bar * (1.0 - lam) / (1.0 - lam * w0_bar) * geom

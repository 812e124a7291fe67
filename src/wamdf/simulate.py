"""Monte Carlo harness for the decision procedures under the random effects model.

Each replication draws per-hypothesis priors and effect sizes, generates
one-sided normal test statistics, re-solves the pre-data weights from the
realized priors (the procedure is assumed to know them), runs the requested
procedure variants, and records the realized false and correct discovery
proportions.  Replications use independent counter-based RNG substreams
keyed by (seed, replication), so serial and parallel runs agree bitwise.
"""

from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import power
from ._checks import check_int, check_positive, check_unit
from .procedures import VARIANTS, run_procedure
from .weights import NoSolutionError, PriorSpec, asymptotically_optimal_weights

__all__ = [
    "SimConfig",
    "SimSummary",
    "simulation_preset",
    "generate_model1",
    "generate_du",
    "evaluate",
    "run_simulation",
]

_WEIGHT_MODES = ("optimal", "perturbed", "independent")
_MASK64 = (1 << 64) - 1
# resampling rounds _draw_positive_uniform02 makes before it gives up
_DRAW_TRIES = 100


@dataclass
class SimConfig:
    """One Monte Carlo experiment: data law, weight scheme, and bookkeeping.

    Each law is fixed at its value, or drawn when the value is ``None``:
    priors equal ``p_fixed`` or are drawn from Uniform(0, 1) each
    replication; effect sizes equal ``gamma_fixed`` or are drawn from
    Uniform(1, gamma_a) (``gamma_a == 1`` gives the homogeneous case); the
    census level is ``lambda_fixed`` or the mean threshold at the solved
    multiplier.
    """

    M: int
    n_reps: int
    seed: int
    alpha: float = 0.05
    variants: tuple = VARIANTS
    p_fixed: float | None = 0.5
    gamma_a: float = 5.0
    gamma_fixed: float | None = None
    weight_mode: str = "optimal"
    lambda_fixed: float | None = None
    preset: int | None = None

    def __post_init__(self):
        check_int("M", self.M, low=1)
        check_int("n_reps", self.n_reps, low=1)
        check_int("seed", self.seed)
        check_unit("alpha", self.alpha)
        check_positive("gamma_a", self.gamma_a)
        if self.gamma_a < 1:
            raise ValueError("gamma_a must be finite and at least 1")
        if self.p_fixed is not None:
            check_unit("p_fixed", self.p_fixed, closed=True)
        if self.gamma_fixed is not None:
            check_positive("gamma_fixed", self.gamma_fixed)
        if self.lambda_fixed is not None:
            check_unit("lambda_fixed", self.lambda_fixed)
        if self.weight_mode not in _WEIGHT_MODES:
            raise ValueError(f"unknown weight_mode {self.weight_mode!r}")
        self.variants = tuple(self.variants)
        if not self.variants:
            raise ValueError("variants must name at least one variant")
        unknown = set(self.variants) - set(VARIANTS)
        if unknown:
            raise ValueError(f"unknown variants: {sorted(unknown)}")
        if self.preset is not None:
            check_int("preset", self.preset)
            if not 1 <= self.preset <= 4:
                raise ValueError(f"preset must be from 1 to 4, got {self.preset!r}")

    @classmethod
    def from_file(cls, path):
        """Load a config from a ``key = value`` file.

        Lines starting with ``#`` are comments.  A ``preset`` key (1-4)
        seeds the remaining fields, which individual keys then override.
        ``None`` as the value of ``p_fixed``, ``gamma_fixed`` or
        ``lambda_fixed`` draws that law.
        """
        raw = {}
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected 'key = value'")
                key, value = (s.strip() for s in line.split("=", 1))
                raw[key] = value
        known = {f.name for f in fields(cls)}
        kwargs = {}
        for key, value in raw.items():
            nullable = key in ("p_fixed", "gamma_fixed", "lambda_fixed")
            if key == "variants":
                kwargs[key] = tuple(v.strip() for v in value.split(","))
            elif key == "weight_mode":
                kwargs[key] = value
            elif nullable and value == "None":
                kwargs[key] = None
            elif key in known:
                integral = key in ("M", "n_reps", "seed", "preset")
                try:
                    kwargs[key] = int(value) if integral else float(value)
                except ValueError:
                    expected = ("an integer" if integral else
                                "a number or None" if nullable else "a number")
                    raise ValueError(f"{path}: {key}: expected {expected}, "
                                     f"got {value!r}") from None
            else:
                raise ValueError(f"{path}: unknown config key {key!r}")
        preset = kwargs.pop("preset", None)
        if preset is not None:
            return replace(simulation_preset(preset), **kwargs)
        missing = [k for k in ("M", "n_reps", "seed") if k not in kwargs]
        if missing:
            raise ValueError(f"{path}: no preset, and missing {', '.join(missing)}")
        return cls(**kwargs)


def simulation_preset(preset, a=5.0, M=1000, n_reps=1000, seed=0, alpha=0.05):
    """Canned configurations for the four standard weight-scheme studies.

    1. homogeneous priors (p = 0.5), solved weights
    2. Uniform(0, 1) priors, solved weights
    3. Uniform(0, 1) priors, solved weights perturbed by Uniform(0, 2) noise
    4. Uniform(0, 1) priors, weights drawn Uniform(0, 2) independent of the data
    """
    # the config checks preset and a before they are looked up or converted
    config = SimConfig(M=M, n_reps=n_reps, seed=seed, alpha=alpha, gamma_a=a, preset=preset)
    modes = {1: "optimal", 2: "optimal", 3: "perturbed", 4: "independent"}
    return replace(config, gamma_a=float(a), p_fixed=0.5 if preset == 1 else None,
                   weight_mode=modes[preset])


def substream(seed, rep):
    """Counter-based generator for one replication; independent across reps."""
    key = np.array([seed & _MASK64, rep & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def generate_model1(config, rng):
    """Draw one replication of the random effects model.

    Returns (theta, p, gamma, pvalues): per-hypothesis truth indicators,
    priors, effect sizes, and one-sided p-values ``1 - Phi(Z)`` for
    ``Z ~ N(theta * gamma, 1)``.
    """
    m = config.M
    if config.p_fixed is None:
        p = rng.uniform(0.0, 1.0, m)
    else:
        p = np.full(m, float(config.p_fixed))
    if config.gamma_fixed is None:
        gamma = rng.uniform(1.0, float(config.gamma_a), m)
    else:
        gamma = np.full(m, float(config.gamma_fixed))
    theta = rng.random(m) < p
    z = rng.standard_normal(m) + np.where(theta, gamma, 0.0)
    pvalues = power.ndtr(-z)
    return theta, p, gamma, pvalues


def generate_du(m0, m1, rng):
    """Least-favorable p-value configuration: m0 Uniform(0, 1) nulls first,
    then m1 exact zeros for the false nulls."""
    check_int("m0", m0, low=0)
    check_int("m1", m1, low=0)
    if m0 + m1 < 1:
        raise ValueError("need m0 + m1 >= 1")
    return np.concatenate([rng.uniform(0.0, 1.0, m0), np.zeros(m1)])


def evaluate(theta, report):
    """Realized (FDP, CDP) of a decision report against the truth vector."""
    theta = np.asarray(theta, dtype=bool)
    rejected = np.asarray(report.rejected, dtype=bool)
    if theta.shape != rejected.shape:
        raise ValueError("truth and rejection vectors must have equal length")
    r = int(rejected.sum())
    v = int((rejected & ~theta).sum())
    m1 = int(theta.sum())
    fdp = v / max(r, 1)
    cdp = int((rejected & theta).sum()) / max(m1, 1)
    return fdp, cdp


def _draw_positive_uniform02(rng, size, limit=None):
    """Uniform(0, 2) draws, resampling zeros and entries breaking ``x*limit <= 1``."""
    x = rng.uniform(0.0, 2.0, size)
    for _ in range(_DRAW_TRIES):
        bad = x <= 0.0
        if limit is not None:
            bad |= x * limit > 1.0
        if not bad.any():
            return x
        x[bad] = rng.uniform(0.0, 2.0, int(bad.sum()))
    raise RuntimeError("could not draw admissible weight multipliers")


def _replicate(config, rep):
    """One replication; returns None when skipped, else (warned, {variant: (fdp, cdp)}).

    A replication whose weight solve has no solution is skipped, and one
    whose solved profile carries a warning is warned.  Any other
    failure is re-raised with its type kept and ``(seed, rep)`` in its
    message, so ``substream(seed, rep)`` can replay it.  ``run_procedure``
    caps each threshold at ``1/max(w)`` and gives UU and UA unit weights.
    """
    try:
        rng = substream(config.seed, rep)
        theta, p, gamma, pvalues = generate_model1(config, rng)
        try:
            profile = asymptotically_optimal_weights(PriorSpec(p, gamma), config.alpha)
        except NoSolutionError:
            return None

        lam = profile.t_bar if config.lambda_fixed is None else float(config.lambda_fixed)
        if config.weight_mode == "optimal":
            weights = profile.weights
        elif config.weight_mode == "perturbed":
            mult = _draw_positive_uniform02(rng, config.M, limit=profile.thresholds)
            weights = mult * profile.weights
        else:
            weights = _draw_positive_uniform02(rng, config.M)
        return bool(profile.warning), {
            variant: evaluate(theta, run_procedure(variant, pvalues, weights=weights,
                                                   alpha=config.alpha, lam=lam))
            for variant in config.variants
        }
    except Exception as exc:
        exc.args = (f"replication (seed={config.seed}, rep={rep}): {exc}",)
        raise


@dataclass
class SimSummary:
    """Aggregated Monte Carlo results for one configuration."""

    config: SimConfig
    n_completed: int
    n_skipped: int
    n_warned: int
    fdp: dict = field(default_factory=dict)   # variant -> per-rep array
    cdp: dict = field(default_factory=dict)

    def mean(self, variant, metric):
        return float(np.mean(self._metric(variant, metric)))

    def se(self, variant, metric):
        """Monte Carlo standard error (sample SD over sqrt of completed reps)."""
        x = self._metric(variant, metric)
        if x.size < 2:
            return None
        return float(np.std(x, ddof=1) / np.sqrt(x.size))

    def _metric(self, variant, metric):
        if metric not in ("fdp", "cdp"):
            raise ValueError("metric must be 'fdp' or 'cdp'")
        return (self.fdp if metric == "fdp" else self.cdp)[variant]

    def to_dict(self):
        out = {
            "M": self.config.M,
            "n_reps": self.config.n_reps,
            "n_completed": self.n_completed,
            "n_skipped": self.n_skipped,
            "n_warned": self.n_warned,
            "alpha": self.config.alpha,
            "seed": self.config.seed,
            "preset": self.config.preset,
            "gamma_a": self.config.gamma_a,
            "weight_mode": self.config.weight_mode,
            "variants": {},
        }
        for v in self.config.variants:
            out["variants"][v] = {
                "cdp_mean": self.mean(v, "cdp"),
                "cdp_se": self.se(v, "cdp"),
                "fdp_mean": self.mean(v, "fdp"),
                "fdp_se": self.se(v, "fdp"),
            }
        return out


def run_simulation(config, threads=1):
    """Run all replications of a configuration and aggregate.

    Replications failing the weight solve are skipped and counted; those
    whose solved profile carries a warning (out of regime, or a weight
    raised to the smallest normal float) are counted as warned.  Per-rep
    metrics are collected in replication order and reduced with numpy's
    pairwise mean, so results do not depend on ``threads``.  At most one
    worker process per replication is started.
    """
    check_int("threads", threads, low=1)
    reps = range(config.n_reps)
    workers = min(threads, config.n_reps)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        power._load_special()   # forked workers inherit scipy instead of each importing it
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = max(1, config.n_reps // (workers * 8))
            results = list(pool.map(_replicate, [config] * config.n_reps, reps, chunksize=chunk))
    else:
        results = [_replicate(config, rep) for rep in reps]

    done = [r for r in results if r is not None]
    if not done:
        raise NoSolutionError("every replication failed the weight solve")
    return SimSummary(
        config=config,
        n_completed=len(done),
        n_skipped=config.n_reps - len(done),
        n_warned=sum(warned for warned, _ in done),
        fdp={v: np.array([metrics[v][0] for _, metrics in done]) for v in config.variants},
        cdp={v: np.array([metrics[v][1] for _, metrics in done]) for v in config.variants},
    )

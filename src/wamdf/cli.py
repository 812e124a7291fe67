"""Command-line front end.

Subcommands cover weight computation, procedure execution on p-value files,
the canned simulation studies, the count-data pipeline, and the finite-FDR
bound calculators.  Every invocation writes a manifest alongside its
outputs so a result can be re-derived from its manifest alone.

Exit codes: 0 success, 1 input or usage error, 2 model-precondition failure
(no-solution), 3 success with a model warning attached.
"""

import argparse
import contextlib
import ctypes
import datetime
import functools
import json
import os
import sys
from dataclasses import replace
from itertools import chain

import numpy as np

from . import __version__
from .counts import CalibrationError, CountDataset, analyze, generate_synthetic_counts
from .power import TabulatedPowerModel
from .procedures import VARIANTS, alpha_star, fdr_upper_bound, run_procedure
from .simulate import (
    SimConfig,
    run_simulation,
    simulation_preset,
    substream,
)
from .tables import read_table
from .weights import (
    NoSolutionError,
    PriorSpec,
    WeightProfile,
    asymptotically_optimal_weights,
    optimal_fixed_t_weights,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NO_SOLUTION = 2
EXIT_WARNING = 3

# Rows per block in _write_tsv: each block is formatted into one string of about
# 60 KB, well under glibc's 128 KiB starting mmap threshold.  Larger blocks write
# no faster and hold more memory.
_TSV_BLOCK = 1024
# _write_tsv's cell format by dtype kind, objects being the cells _cells formatted;
# every other kind is written as a float
_FORMATS = {"b": "%d", "i": "%d", "u": "%d", "U": "%s", "O": "%s"}
# The argparse dests that name input files, in the order the manifest lists them
_INPUTS = ("prior", "power_table", "pvalues", "weights", "config", "x_file", "counts",
           "p_prior_file")


def _finish(args, outputs, summary, seed=None, warning=()):
    """Write a command's outputs and its manifest into ``--out``, print its
    summary lines and one ``warning:`` line per warning message, and return
    its exit code: 3 with a warning, else 0.

    ``outputs`` maps each file name to its content, in write order: a dict
    is written as JSON, a ``(header, columns)`` pair as a table (see
    ``_write_tsv``), comma separated for a ``.csv`` name and tab separated
    otherwise.  Commands call this last, so a failed command leaves no
    ``--out``.
    """
    manifest = {
        "subcommand": args.subcommand,
        "flags": {k: v for k, v in vars(args).items() if k != "func"},
        "inputs": [path for path in (getattr(args, dest, None) for dest in _INPUTS) if path],
        "outputs": [os.path.join(args.out, name) for name in outputs],
        "seed": seed,
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    os.makedirs(args.out, exist_ok=True)
    for name, content in {**outputs, "manifest.json": manifest}.items():
        path = os.path.join(args.out, name)
        if isinstance(content, dict):
            _write_json(path, content)
        else:
            _write_tsv(path, *content, sep="," if name.endswith(".csv") else "\t")
    for line in summary:
        print(line)
    for message in warning:
        print(f"warning: {message}", file=sys.stderr)
    return EXIT_WARNING if warning else EXIT_OK


def _write_json(path, obj):
    """Write ``obj`` as indented JSON with a trailing newline."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def _cells(values):
    """``values`` formatted as ``_write_tsv`` formats their dtype, into an object array."""
    fmt = _FORMATS.get(values.dtype.kind, "%.10g")
    return np.array([fmt % v for v in values.tolist()], dtype=object)


def _write_tsv(path, header, columns, sep="\t"):
    """Write equal-length columns as a table, with cells separated by ``sep``.

    Float columns are written as ``.10g``, integer and boolean columns as
    integers, and string columns (a tuple of strings among them) as they
    are; an object column holds cells ``_cells`` formatted.
    Rows are formatted in blocks, so memory stays bounded.
    """
    columns = [np.asarray(c) for c in columns]
    line = sep.join(_FORMATS.get(c.dtype.kind, "%.10g") for c in columns) + "\n"
    with open(path, "w") as fh:
        fh.write(sep.join(header) + "\n")
        for start in range(0, columns[0].size, _TSV_BLOCK):
            block = [c[start:start + _TSV_BLOCK].tolist() for c in columns]
            fh.write(line * len(block[0]) % tuple(chain.from_iterable(zip(*block))))


def _given(**kwargs):
    """The keyword arguments whose flag was given; the library's defaults fill the rest."""
    return {key: value for key, value in kwargs.items() if value is not None}


# ---------------------------------------------------------------- weights

def cmd_weights(args):
    prior = PriorSpec.from_csv(args.prior)
    model = TabulatedPowerModel.from_csv(args.power_table) if args.power_table else None
    if args.alpha is not None:
        profile = asymptotically_optimal_weights(prior, args.alpha, model)
    else:
        profile = optimal_fixed_t_weights(prior, args.t, model)
    return _finish(args, {
        "weights.json": profile.to_dict(),
        "weights.tsv": (["index", "p", "gamma", "weight", "threshold"],
                        [np.arange(prior.M), prior.p, prior.gamma, profile.weights,
                         profile.thresholds]),
    }, (), warning=profile.warning)


# ---------------------------------------------------------------- run

def cmd_run(args):
    header, table = read_table(args.pvalues, [("p",), ("p", "weight")])
    pvalues = table[:, 0]
    weights = table[:, 1] if header == ("p", "weight") else None
    lam, u = args.lam, args.u
    if args.weights:
        if weights is not None:
            raise ValueError(f"{args.pvalues} has a weight column, so --weights cannot be given")
        with open(args.weights) as fh:
            profile = WeightProfile.from_dict(json.load(fh))
        weights = profile.weights
        if lam is None and args.variant in ("UA", "WA"):
            lam = profile.t_bar
        # finite-FDR mode sets u = lambda itself
        if u is None and args.variant in ("WU", "WA") and not args.finite_fdr:
            u = profile.u
    if weights is not None and weights.size != pvalues.size:
        raise ValueError("weights and p-values differ in length")
    report = run_procedure(args.variant, pvalues, weights=weights, finite_fdr=args.finite_fdr,
                           **_given(alpha=args.alpha, lam=lam, u=u))
    return _finish(args, {
        "report.json": report.to_dict(),
        "report.tsv": (["index", "p", "weight", "q", "rejected"],
                       [np.arange(report.pvalues.size), report.pvalues, report.weights,
                        report.q, report.rejected]),
    }, [f"{args.variant}: rejected {report.n_rejected} of {pvalues.size} "
        f"(t_hat={report.t_hat:.6g}, m0_hat={report.m0_hat:.6g})"])


# ---------------------------------------------------------------- simulate

def _summary_tables(summaries, labels):
    """The entries of ``table.tsv`` (one row per variant; CDP, FDP and their
    SEs per a value, to 4 places) and ``long.tsv`` (one row per a value,
    variant and metric, to 6 places).  Each a value is written as its
    label.  A missing SE is an empty cell."""
    def cell(x, places):
        return "" if x is None else f"{x:.{places}f}"

    variants = summaries[0].config.variants
    metrics = ("cdp", "fdp")
    header, columns, rows = ["variant"], [variants], []
    for s, a in zip(summaries, labels):
        header += [f"{m}_a{a}" for m in metrics] + [f"{m}_se_a{a}" for m in metrics]
        columns += [[cell(s.mean(v, m), 4) for v in variants] for m in metrics]
        columns += [[cell(s.se(v, m), 4) for v in variants] for m in metrics]
        rows += [(v, a, m, cell(s.mean(v, m), 6), cell(s.se(v, m), 6))
                 for v in variants for m in metrics]
    return {"table.tsv": (header, columns),
            "long.tsv": (["variant", "a", "metric", "value", "se"], list(zip(*rows)))}


def cmd_simulate(args):
    if args.config:
        given = [f"--{n}" for n in ("a", "M", "K", "alpha") if getattr(args, n) is not None]
        if given:
            raise ValueError(f"--config sets the study, so {', '.join(given)} cannot be given")
        config = SimConfig.from_file(args.config)
        if args.seed is not None:
            config = replace(config, seed=args.seed)
        configs = [config]
    else:
        if args.seed is None:
            raise ValueError("--seed is required (no silent nondeterminism)")
        kwargs = _given(M=args.M, n_reps=args.K, alpha=args.alpha)
        configs = [simulation_preset(args.preset, a=a, seed=args.seed, **kwargs)
                   for a in args.a or [1.0, 3.0, 5.0]]
    # each a value names its outputs, so two that print alike would share them
    labels = [f"{c.gamma_a:g}" for c in configs]
    for i, label in enumerate(labels):
        if label in labels[:i]:
            raise ValueError(f"--a values {configs[labels.index(label)].gamma_a!r} and "
                             f"{configs[i].gamma_a!r} share the output label a{label}")
    threads = (os.cpu_count() or 1) if args.threads is None else args.threads
    summaries = [run_simulation(c, threads=threads) for c in configs]
    outputs = {f"summary_a{label}.json": s.to_dict() for s, label in zip(summaries, labels)}
    summary = [f"a={label}: "
               + "  ".join(f"{v} CDP={s.mean(v, 'cdp'):.3f} FDP={s.mean(v, 'fdp'):.3f}"
                           for v in s.config.variants)
               + (f", skipped {s.n_skipped}" if s.n_skipped else "")
               for s, label in zip(summaries, labels)]
    return _finish(args, {**outputs, **_summary_tables(summaries, labels)}, summary,
                   seed=configs[0].seed)


# ---------------------------------------------------------------- analyze

def _read_column(path):
    """Values of a one-column table file (one value per line)."""
    table = read_table(path)[1]
    if table.shape[1] != 1:
        raise ValueError(f"{path}: expected one value per line")
    return table[:, 0]


def _analysis_outputs(result):
    """The entries of ``features.tsv``, ``weight_power.tsv`` and ``analysis.json``.

    The columns computed per distinct pair are formatted once per pair and
    expanded, and the two tables share the cells."""
    index = result.calibration.pairs.index
    columns = {**result.table,
               **{name: _cells(values)[index] for name, values in result.pair_table.items()}}

    def table(names):
        return ["feature"] + names, [result.valid_indices] + [columns[c] for c in names]

    return {
        "features.tsv": table(["n", "z", "p", "gamma", "weight", "q", "rejected_wa",
                               "rejected_ua"]),
        "weight_power.tsv": table(["gamma", "weight", "power_unweighted", "power_weighted"]),
        "analysis.json": {
            "n_features": int(result.valid_indices.size + result.excluded_indices.size),
            "n_tested": int(result.valid_indices.size),
            "excluded_features": result.excluded_indices.tolist(),
            "k_info": result.calibration.k_info,
            "achieved_avg_power": result.calibration.achieved_power,
            "calibration_bracket": list(result.calibration.bracket),
            "calibration_trials": [list(t) for t in result.calibration.trials],
            "lambda": result.calibration.profile.t_bar,
            "u": result.calibration.profile.u,
            "rejected_wa": result.wa.n_rejected,
            "rejected_ua": result.ua.n_rejected,
            "wa": result.wa.to_dict(),
            "ua": result.ua.to_dict(),
        },
    }


def cmd_analyze(args):
    if args.x is not None:
        try:
            x = np.array([float(v) for v in args.x.split(",")])
        except ValueError:
            raise ValueError(f"--x must be comma-separated numbers, got {args.x!r}")
    else:
        x = _read_column(args.x_file)
    if args.synthetic is not None:
        if args.seed is None:
            raise ValueError("--seed is required with --synthetic")
        rng = substream(args.seed, 0)
        dataset, theta = generate_synthetic_counts(
            args.synthetic, x, rng,
            **_given(beta=args.beta, positive_fraction=args.positive_fraction),
        )
    else:
        given = [f"--{n.replace('_', '-')}" for n in ("beta", "positive_fraction", "seed")
                 if getattr(args, n) is not None]
        if given:
            raise ValueError(f"a counts file sets the data, so {', '.join(given)} cannot be given")
        dataset = CountDataset.from_csv(args.counts, x)
        theta = None
    p_prior = _read_column(args.p_prior_file) if args.p_prior_file else args.p_prior
    result = analyze(dataset, **_given(alpha=args.alpha, p_prior=p_prior,
                                       target_avg_power=args.target_power))
    outputs = _analysis_outputs(result)
    if theta is not None:
        # the counts alone, so the file can be analysed again; the truth apart
        outputs["synthetic_counts.csv"] = ([f"g{i}" for i in range(dataset.n_groups)],
                                           dataset.counts.T)
        outputs["synthetic_truth.csv"] = (["planted"], [theta])
    return _finish(args, outputs,
                   [f"WA rejected {result.wa.n_rejected}, UA rejected {result.ua.n_rejected} "
                    f"of {result.valid_indices.size} tested features "
                    f"({result.excluded_indices.size} excluded)"],
                   seed=args.seed, warning=result.calibration.profile.warning)


# ---------------------------------------------------------------- bounds

def cmd_bounds(args):
    out = {"alpha": args.alpha, "lambda": args.lam}
    if args.w_max is not None:
        out["alpha_star"] = alpha_star(args.alpha, args.lam, args.w_max)
    if (args.w0_bar is None) != (args.m0 is None):
        raise ValueError("--m0 is required with --w0-bar" if args.m0 is None
                         else "--w0-bar is required with --m0")
    if args.w0_bar is not None:
        out["fdr_upper_bound"] = fdr_upper_bound(args.alpha, args.lam, args.w0_bar, args.m0)
    if len(out) == 2:
        raise ValueError("nothing to compute: give --w-max and/or --w0-bar")
    print(json.dumps(out, indent=2))
    return EXIT_OK


# ---------------------------------------------------------------- parser

def build_parser():
    """A new parser of the command line; ``main`` parses with ``_parser()``."""
    parser = argparse.ArgumentParser(
        prog="wamdf",
        description="Weighted adaptive multiple decision functions for FDR control.",
    )
    parser.add_argument("--version", action="version", version=f"wamdf {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    w = sub.add_parser("weights", help="compute optimal weights from a prior file")
    w.add_argument("prior", help="CSV with header p,gamma")
    level = w.add_mutually_exclusive_group(required=True)
    level.add_argument("--alpha", type=float, help="target FDP level (pre-data weights)")
    level.add_argument("--t", type=float, help="fixed mean threshold (fixed-t weights)")
    w.add_argument("--power-table", help="CSV t,power for a tabulated power curve")
    w.add_argument("--out", required=True, help="output directory")
    w.set_defaults(func=cmd_weights)

    r = sub.add_parser("run", help="run a procedure on a p-value file")
    r.add_argument("pvalues", help="CSV with header p or p,weight")
    r.add_argument("--weights", help="weights JSON produced by the weights subcommand")
    r.add_argument("--variant", default="WA", choices=VARIANTS)
    r.add_argument("--alpha", type=float)
    r.add_argument("--lambda", dest="lam", type=float, help="census level for adaptive variants")
    r.add_argument("--u", type=float, help="upper threshold bound (default 1/max weight)")
    r.add_argument("--finite-fdr", action="store_true",
                   help="finite-sample FDR mode: u = lambda and level alpha_star")
    r.add_argument("--out", required=True)
    r.set_defaults(func=cmd_run)

    s = sub.add_parser("simulate", help="run a canned Monte Carlo study")
    study = s.add_mutually_exclusive_group(required=True)
    study.add_argument("--preset", type=int, help="study 1-4")
    study.add_argument("--config", help="key = value config file, in place of the preset flags")
    s.add_argument("--a", type=float, action="append",
                   help="effect-size upper bound; repeatable (default 1, 3 and 5)")
    s.add_argument("--M", type=int, help="hypotheses per replication")
    s.add_argument("--K", type=int, help="replications")
    s.add_argument("--alpha", type=float)
    s.add_argument("--seed", type=int)
    s.add_argument("--threads", type=int, help="worker processes (default: all cores)")
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_simulate)

    a = sub.add_parser("analyze", help="count-data association pipeline")
    # each input has two sources, of which at most one may be given; the
    # data and the covariate need one
    data, x = (a.add_mutually_exclusive_group(required=True) for _ in range(2))
    prior = a.add_mutually_exclusive_group()
    data.add_argument("counts", nargs="?", help="CSV of count columns, one row per feature")
    x.add_argument("--x", help="comma-separated group covariate")
    x.add_argument("--x-file", help="covariate vector file (one value per line)")
    a.add_argument("--alpha", type=float)
    prior.add_argument("--p-prior", type=float)
    prior.add_argument("--p-prior-file", help="per-feature priors, one value per dataset row")
    a.add_argument("--target-power", type=float)
    data.add_argument("--synthetic", type=int, metavar="M",
                      help="generate M synthetic features instead of reading a file")
    a.add_argument("--beta", type=float, help="synthetic trend strength")
    a.add_argument("--positive-fraction", type=float)
    a.add_argument("--seed", type=int)
    a.add_argument("--out", required=True)
    a.set_defaults(func=cmd_analyze)

    b = sub.add_parser("bounds", help="finite-FDR level adjustment and bound")
    b.add_argument("--alpha", type=float, required=True)
    b.add_argument("--lambda", dest="lam", type=float, required=True)
    b.add_argument("--w-max", type=float, help="maximum weight (for alpha_star)")
    b.add_argument("--w0-bar", type=float, help="mean true-null weight (for the FDR bound)")
    b.add_argument("--m0", type=int, help="number of true nulls (for the FDR bound)")
    b.set_defaults(func=cmd_bounds)

    return parser


# main's one parser per process, built at its first call, not at import; parsing
# leaves no state in a parser, so one call's flags never reach the next
_parser = functools.cache(build_parser)


def _release_freed_memory():
    """Hand the heap's free pages back to the operating system.

    glibc keeps freed heap memory resident, and whether a later large
    allocation reuses it or grows the heap depends on where earlier frees
    left holes, which differs from process to process with address-space
    randomization.  Trimming before and after each command keeps a
    process that runs many commands at its live memory, so its peak is
    the same from run to run.  A no-op where ``malloc_trim`` is missing.
    """
    with contextlib.suppress(AttributeError, OSError, TypeError):
        ctypes.CDLL(None).malloc_trim(0)


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, the no-solution code here
        raise SystemExit(EXIT_INPUT if exc.code == 2 else exc.code)
    _release_freed_memory()
    try:
        return args.func(args)
    except (NoSolutionError, CalibrationError) as exc:
        # NoSolutionError is a ValueError, so this clause comes first
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, NoSolutionError) and exc.out_of_regime:
            print(
                "hint: the pre-data FDP equation needs alpha <= 1 - max(p); "
                "a prior placing that much mass on false nulls cannot be "
                "weighted at this level.",
                file=sys.stderr,
            )
        return EXIT_NO_SOLUTION
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    finally:
        _release_freed_memory()


if __name__ == "__main__":
    sys.exit(main())

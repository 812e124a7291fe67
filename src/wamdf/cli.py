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
import json
import os
import sys
from dataclasses import replace
from itertools import chain

import numpy as np

from . import __version__
from .counts import CalibrationError, CountDataset, analyze, generate_synthetic_counts
from .power import TabulatedPowerModel
from .procedures import alpha_star, fdr_upper_bound, run_procedure
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


def _outdir(args):
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _write_json(path, obj):
    """Write ``obj`` as indented JSON with a trailing newline."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, default=str)
        fh.write("\n")


def _manifest(args, inputs, outputs, seed=None):
    """Provenance record written next to every output."""
    _write_json(os.path.join(args.out, "manifest.json"), {
        "subcommand": args.subcommand,
        "flags": {k: v for k, v in vars(args).items() if k != "func"},
        "inputs": inputs,
        "outputs": outputs,
        "seed": seed,
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    })


def _write_tsv(path, header, columns):
    """Write equal-length columns as a tab-separated table.

    Float columns are written as ``.10g``, integer and boolean columns as
    integers, and string columns as they are.  Rows are formatted in
    blocks, so memory stays bounded.
    """
    columns = [np.asarray(c) for c in columns]
    formats = {"b": "%d", "i": "%d", "u": "%d", "U": "%s"}
    line = "\t".join(formats.get(c.dtype.kind, "%.10g") for c in columns) + "\n"
    with open(path, "w") as fh:
        fh.write("\t".join(header) + "\n")
        for start in range(0, columns[0].size, _TSV_BLOCK):
            block = [c[start:start + _TSV_BLOCK].tolist() for c in columns]
            fh.write(line * len(block[0]) % tuple(chain.from_iterable(zip(*block))))


def _exit_for(profile):
    """Exit 3 with one ``warning:`` line per message of the solved profile's
    warning, or exit 0 when it has none."""
    for message in profile.warning:
        print(f"warning: {message}", file=sys.stderr)
    return EXIT_WARNING if profile.warning else EXIT_OK


# ---------------------------------------------------------------- weights

def cmd_weights(args):
    prior = PriorSpec.from_csv(args.prior)
    model = TabulatedPowerModel.from_csv(args.power_table) if args.power_table else None
    if args.alpha is not None:
        profile = asymptotically_optimal_weights(prior, args.alpha, model)
    else:
        profile = optimal_fixed_t_weights(prior, args.t, model)
    outdir = _outdir(args)
    out = os.path.join(outdir, "weights.json")
    _write_json(out, profile.to_dict())
    tsv = os.path.join(outdir, "weights.tsv")
    _write_tsv(tsv, ["index", "p", "gamma", "weight", "threshold"],
               [np.arange(prior.M), prior.p, prior.gamma, profile.weights, profile.thresholds])
    _manifest(args, [f for f in (args.prior, args.power_table) if f], [out, tsv])
    return _exit_for(profile)


# ---------------------------------------------------------------- run

def cmd_run(args):
    header, table = read_table(args.pvalues, [("p",), ("p", "weight")])
    pvalues = table[:, 0]
    weights = None
    inputs = [args.pvalues]
    if args.weights:
        inputs.append(args.weights)
        with open(args.weights) as fh:
            profile = WeightProfile.from_dict(json.load(fh))
        weights = profile.weights
        if args.lam is None and args.variant in ("UA", "WA"):
            args.lam = profile.t_bar
        # finite-FDR mode sets u = lambda itself
        if args.u is None and args.variant in ("WU", "WA") and not args.finite_fdr:
            args.u = profile.u
    elif header == ("p", "weight"):
        weights = table[:, 1]
    if args.variant in ("WU", "WA") and weights is None:
        raise ValueError(f"variant {args.variant} needs --weights or a weight column")
    if weights is not None and weights.size != pvalues.size:
        raise ValueError("weights and p-values differ in length")
    report = run_procedure(args.variant, pvalues, weights=weights, alpha=args.alpha,
                           lam=args.lam, u=args.u, finite_fdr=args.finite_fdr)
    outdir = _outdir(args)
    out_json = os.path.join(outdir, "report.json")
    out_tsv = os.path.join(outdir, "report.tsv")
    _write_json(out_json, report.to_dict())
    _write_tsv(out_tsv, ["index", "p", "weight", "q", "rejected"],
               [np.arange(report.pvalues.size), report.pvalues, report.weights, report.q,
                report.rejected])
    _manifest(args, inputs, [out_json, out_tsv])
    print(f"{args.variant}: rejected {report.n_rejected} of {pvalues.size} "
          f"(t_hat={report.t_hat:.6g}, m0_hat={report.m0_hat:.6g})")
    return EXIT_OK


# ---------------------------------------------------------------- simulate

def _write_summary_tables(summaries, outdir):
    """``table.tsv`` (one row per variant; CDP, FDP and their SEs per a
    value, to 4 places) and ``long.tsv`` (one row per a value, variant and
    metric, to 6 places).  A missing SE is an empty cell."""
    def cell(x, places):
        return "" if x is None else f"{x:.{places}f}"

    variants = summaries[0].config.variants
    metrics = ("cdp", "fdp")
    header, columns, rows = ["variant"], [variants], []
    for s in summaries:
        a = f"{s.config.gamma_a:g}"
        header += [f"{m}_a{a}" for m in metrics] + [f"{m}_se_a{a}" for m in metrics]
        columns += [[cell(s.mean(v, m), 4) for v in variants] for m in metrics]
        columns += [[cell(s.se(v, m), 4) for v in variants] for m in metrics]
        rows += [(v, a, m, cell(s.mean(v, m), 6), cell(s.se(v, m), 6))
                 for v in variants for m in metrics]
    table = os.path.join(outdir, "table.tsv")
    long_form = os.path.join(outdir, "long.tsv")
    _write_tsv(table, header, columns)
    _write_tsv(long_form, ["variant", "a", "metric", "value", "se"], list(zip(*rows)))
    return [table, long_form]


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
        kwargs = {"M": args.M, "n_reps": args.K, "alpha": args.alpha}
        kwargs = {key: value for key, value in kwargs.items() if value is not None}
        configs = [simulation_preset(args.preset, a=a, seed=args.seed, **kwargs)
                   for a in args.a or [1.0, 3.0, 5.0]]
    if args.threads is not None and args.threads < 1:
        raise ValueError(f"--threads must be at least 1, got {args.threads}")
    threads = args.threads or os.cpu_count() or 1
    summaries = [run_simulation(c, threads=threads) for c in configs]
    outdir = _outdir(args)
    outputs = []
    for s in summaries:
        out = os.path.join(outdir, f"summary_a{s.config.gamma_a:g}.json")
        _write_json(out, s.to_dict())
        outputs.append(out)
    outputs += _write_summary_tables(summaries, outdir)
    _manifest(args, [args.config] if args.config else [], outputs, seed=configs[0].seed)
    for s in summaries:
        skipped = f", skipped {s.n_skipped}" if s.n_skipped else ""
        print(f"a={s.config.gamma_a:g}: "
              + "  ".join(f"{v} CDP={s.mean(v, 'cdp'):.3f} FDP={s.mean(v, 'fdp'):.3f}"
                          for v in s.config.variants)
              + skipped)
    return EXIT_OK


# ---------------------------------------------------------------- analyze

def _read_column(path):
    """Values of a one-column table file (one value per line)."""
    table = read_table(path)[1]
    if table.shape[1] != 1:
        raise ValueError(f"{path}: expected one value per line")
    return table[:, 0]


def _write_analysis(result, outdir):
    out_tsv = os.path.join(outdir, "features.tsv")
    features = ["n", "z", "p", "gamma", "weight", "q", "rejected_wa", "rejected_ua"]
    _write_tsv(out_tsv, ["feature"] + features,
               [result.valid_indices] + [result.table[c] for c in features])
    out_power = os.path.join(outdir, "weight_power.tsv")
    power = ["gamma", "weight", "power_unweighted", "power_weighted"]
    _write_tsv(out_power, ["feature"] + power,
               [result.valid_indices] + [result.table[c] for c in power])
    out_json = os.path.join(outdir, "analysis.json")
    _write_json(out_json, {
        "n_features": int(result.valid_indices.size + result.excluded_indices.size),
        "n_tested": int(result.valid_indices.size),
        "excluded_features": result.excluded_indices.tolist(),
        "k_info": result.calibration.k_info,
        "achieved_avg_power": result.calibration.achieved_power,
        "lambda": result.calibration.profile.t_bar,
        "u": result.calibration.profile.u,
        "rejected_wa": result.wa.n_rejected,
        "rejected_ua": result.ua.n_rejected,
        "wa": result.wa.to_dict(),
        "ua": result.ua.to_dict(),
    })
    return [out_tsv, out_power, out_json]


def cmd_analyze(args):
    inputs = []
    if args.x:
        try:
            x = np.array([float(v) for v in args.x.split(",")])
        except ValueError:
            raise ValueError(f"--x must be comma-separated numbers, got {args.x!r}")
    elif args.x_file:
        x = _read_column(args.x_file)
        inputs.append(args.x_file)
    else:
        raise ValueError("a covariate is required: --x or --x-file")
    if args.synthetic is not None:
        if args.seed is None:
            raise ValueError("--seed is required with --synthetic")
        rng = substream(args.seed, 0)
        dataset, theta = generate_synthetic_counts(
            args.synthetic, x, rng, beta=args.beta,
            positive_fraction=args.positive_fraction,
        )
    else:
        if not args.counts:
            raise ValueError("either a counts file or --synthetic is required")
        dataset = CountDataset.from_csv(args.counts, x)
        theta = None
        inputs.append(args.counts)
    p_prior = args.p_prior
    if args.p_prior_file:
        inputs.append(args.p_prior_file)
        p_prior = _read_column(args.p_prior_file)
    result = analyze(dataset, alpha=args.alpha, p_prior=p_prior,
                     target_avg_power=args.target_power)
    outdir = _outdir(args)
    outputs = _write_analysis(result, outdir)
    if theta is not None:
        # the counts alone, so the file can be analysed again; the truth apart
        data_out = os.path.join(outdir, "synthetic_counts.csv")
        truth_out = os.path.join(outdir, "synthetic_truth.csv")
        np.savetxt(data_out, dataset.counts, fmt="%d", delimiter=",", comments="",
                   header=",".join(f"g{i}" for i in range(dataset.n_groups)))
        np.savetxt(truth_out, theta, fmt="%d", header="planted", comments="")
        outputs += [data_out, truth_out]
    _manifest(args, inputs, outputs, seed=args.seed)
    print(f"WA rejected {result.wa.n_rejected}, UA rejected {result.ua.n_rejected} "
          f"of {result.valid_indices.size} tested features "
          f"({result.excluded_indices.size} excluded)")
    return _exit_for(result.calibration.profile)


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
    r.add_argument("--variant", default="WA", choices=["UU", "WU", "UA", "WA"])
    r.add_argument("--alpha", type=float, default=0.05)
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
    # each input has two sources, of which at most one may be given
    data, x, prior = (a.add_mutually_exclusive_group() for _ in range(3))
    data.add_argument("counts", nargs="?", help="CSV of count columns, one row per feature")
    x.add_argument("--x", help="comma-separated group covariate")
    x.add_argument("--x-file", help="covariate vector file (one value per line)")
    a.add_argument("--alpha", type=float, default=0.05)
    prior.add_argument("--p-prior", type=float, default=0.5)
    prior.add_argument("--p-prior-file", help="per-feature priors, one value per dataset row")
    a.add_argument("--target-power", type=float, default=0.5)
    data.add_argument("--synthetic", type=int, metavar="M",
                      help="generate M synthetic features instead of reading a file")
    a.add_argument("--beta", type=float, default=0.35, help="synthetic trend strength")
    a.add_argument("--positive-fraction", type=float, default=0.5)
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
        args = build_parser().parse_args(argv)
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

#!/usr/bin/env python3
"""Benchmark for wamdf: one workload per run, timed through ``wamdf.cli.main``.

    python3 perfbench/run.py --workload sim-p2 --seed 1 --seconds 15 --trace 0

Set-up generates the workload's inputs from ``--seed`` and times fresh
imports of ``wamdf.cli``.  With ``--trace 0`` the run then calls the CLI
in-process, op after op, until ``--seconds`` of op time (and at least
``MIN_OPS`` ops) have been measured, checking every op's outputs outside
the timed region, and reports the end-to-end metrics, with op times as
multiples of reference kernels timed around each op (``reference.py``).
With ``--trace 1`` it alternates untraced and traced ops instead and
reports per-op layer metrics (see ``tracing.py``).  Human-readable lines
go first; the last line of standard output is one JSON object.  See
README.md.
"""

import os

# Pin native thread pools before numpy loads; child processes inherit these.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
GOLDEN = HERE / "golden.json"

DEFAULT_SEED = 0          # the seed whose k* and rejection counts are pinned in golden.json
MIN_OPS = 13              # enough ops for a steady median; the printed tail has 10 beyond it
WALL_CAP_S = 120.0        # start no op after this much measuring, so a run ends within 180 s
SETUP_REPEATS = {"full": 3, "tiny": 1}
TRACE_INPUTS = 2          # the traced run cycles over this many inputs, so its counts repeat

# "ref" is one run of the workload's reference kernels (reference.py), timed next to the op
UNITS = {"setup_s": "s", "op_p50_ref": "ref", "hyp_per_ref": "1/ref", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "power.calls": "count", "power.evals": "count", "power.self_s": "s",
    "power.tab_self_s": "s",
    "weights.solves": "count", "weights.self_s": "s", "weights.scan_rows": "count",
    "weights.refine_evals": "count", "weights.peak_mb": "MB", "weights.kstar_resid": "ratio",
    "procedures.calls": "count", "procedures.self_s": "s", "procedures.rejected": "count",
    "simulate.self_s": "s", "simulate.generate_s": "s", "simulate.skipped": "ratio",
    "simulate.scaling_eff": "ratio",
    "counts.self_s": "s", "counts.score_s": "s", "counts.calibrate_s": "s",
    "counts.inner_solves": "count", "counts.distinct_frac": "ratio",
    "cli.self_s": "s", "cli.bytes_written": "B",
    "trace.op_s": "s", "trace.overhead_s": "s",
}


def locate_package():
    """Import wamdf from this checkout's ``src``; exit non-zero when it is absent."""
    init = SRC / "wamdf" / "__init__.py"
    if not init.is_file():
        sys.exit(f"perfbench: {init} not found; run from a checkout of the wamdf repository")
    sys.path.insert(0, str(SRC))
    import wamdf
    if Path(wamdf.__file__).resolve() != init.resolve():
        sys.exit(f"perfbench: imported wamdf from {wamdf.__file__}, not {init}")


def environment():
    import numpy
    import scipy
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas_threads": 1}


def measure_setup(repeats):
    """Median wall time of a fresh interpreter importing ``wamdf.cli``.

    The median also discards the one slow import that writes the bytecode
    caches in a fresh checkout.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import wamdf.cli"]
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Runner:
    """Runs a workload's ops, checks their outputs and keeps the tallies."""

    def __init__(self, workload, workdir, golden, tamper=None):
        from wamdf.cli import main
        self.workload = workload
        self.outroot = workdir / "out"
        self.golden = golden
        self.tamper = tamper
        self.main = main
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.pinned = {}          # op index -> values each command's check pinned

    def run(self, index, main=None):
        """Run op ``index``; returns (seconds, hypotheses, output bytes)."""
        op = self.workload.ops[index]
        dirs = [self.outroot / f"c{j}" for j in range(len(op.commands))]
        for d in dirs:
            shutil.rmtree(d, ignore_errors=True)
        main = main or self.main
        problems = []
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                for cmd, d in zip(op.commands, dirs):
                    rc = main(cmd.argv + ["--out", str(d)])
                    if rc != cmd.rc:
                        raise RuntimeError(f"{cmd.argv[0]} exited {rc}, expected {cmd.rc}")
        except (Exception, SystemExit) as exc:
            problems.append(f"raised {exc!r}")
            traceback.print_exc(file=sys.stderr)
        elapsed = time.perf_counter() - t0
        written = sum(f.stat().st_size for d in dirs if d.is_dir() for f in d.iterdir())
        if not problems:
            problems = self.check(index, op, dirs)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{self.workload.name} input {index}: {p}" for p in problems]
        return elapsed, op.hyps, written

    def check(self, index, op, dirs):
        from workloads import CheckError, compare_golden
        problems = []
        for j, (cmd, d) in enumerate(zip(op.commands, dirs)):
            if self.tamper is not None:
                self.tamper(self.workload.name, j, d)
            try:
                pinned = cmd.check(d)
            except (CheckError, OSError, ValueError, KeyError) as exc:
                problems.append(f"{cmd.argv[0]}: {exc}")
                continue
            self.pinned.setdefault(index, {})[j] = pinned
            if self.golden is not None:
                want = self.golden.get(self.workload.name, [])
                if index >= len(want):
                    problems.append("no recorded default-seed values")
                else:
                    problems += [f"{cmd.argv[0]}: {p}" for p in compare_golden(pinned, want[index][j])]
        return problems


def measure(runner, seconds, min_ops=MIN_OPS):
    """Untraced ops, cycling inputs, until ``seconds`` of op time and ``min_ops`` ops.

    The reference kernel is timed before every op and after the last, so
    ``refs`` has one entry more than ``times``.
    """
    from reference import reference_seconds
    from workloads import REFERENCE

    kinds = REFERENCE[runner.workload.name]
    times, refs, hyps = [], [reference_seconds(kinds)], 0
    start = time.perf_counter()
    while (sum(times) < seconds or len(times) < min_ops) and time.perf_counter() - start < WALL_CAP_S:
        dt, h, _ = runner.run(len(times) % len(runner.workload.ops))
        times.append(dt)
        refs.append(reference_seconds(kinds))
        hyps += h
    return times, refs, hyps


def end_to_end(times, refs, hyps, setup_s, kinds):
    """End-to-end metrics; op times count in reference-kernel times around each op.

    Also returns the readable-only lines: raw seconds, and the tail, which is
    printed but not a metric (with 13-25 ops a run's "highest percentile with
    10 ops beyond it" is at or below the median, and swings with single ops).
    """
    rel = [t / (0.5 * (a + b)) for t, a, b in zip(times, refs, refs[1:])]
    ordered = sorted(rel)
    n = len(ordered)
    tail = n - 11 if n >= 11 else n - 1           # index with 10 samples beyond it
    metrics = {
        "setup_s": setup_s,
        "op_p50_ref": statistics.median(ordered),
        "hyp_per_ref": hyps / sum(ordered),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    raw = sorted(times)
    extra = [
        ("op_tail_ref", ordered[tail], "ref", f"p{100.0 * (tail + 1) / n:.0f} of {n} ops, "
                                              f"{n - tail - 1} beyond"),
        ("op_p50_s", statistics.median(raw), "s", "raw wall time"),
        ("op_tail_s", raw[tail], "s", "raw wall time"),
        ("hyp_per_s", hyps / sum(raw), "1/s", "raw wall time"),
        ("ref_p50_s", statistics.median(refs), "s", f"reference kernels {'+'.join(kinds)}"),
    ]
    return metrics, extra


def traced(runner, seconds, spans_path):
    """Alternate untraced and traced ops per input; per-op layer metrics."""
    from tracing import Tracer, instrument, layer_metrics

    tracer = Tracer()
    plain, with_trace, written = [], [], []
    t1 = {}
    start = time.perf_counter()
    cycles = 0
    # whole cycles over the inputs, so per-op counts repeat exactly for a seed;
    # stop before a cycle that would end after ``seconds``
    while cycles == 0 or (time.perf_counter() - start) * (cycles + 1) / cycles <= seconds:
        cycles += 1
        for i in range(min(TRACE_INPUTS, len(runner.workload.ops))):
            dt, _, _ = runner.run(i)
            plain.append(dt)
            t1.setdefault(i, []).append(dt)
            tracer.op = len(with_trace)
            with instrument(tracer) as traced_main:
                dt, _, nbytes = runner.run(i, traced_main)
            with_trace.append(dt)
            written.append(nbytes)
    metrics = layer_metrics(tracer, len(with_trace))

    # allocation peaks in a separate op: tracemalloc slows Python-heavy code
    memory = Tracer(track_memory=True)
    if tracer.solves:
        tracemalloc.start()
        try:
            with instrument(memory) as traced_main:
                runner.run(0, traced_main)
        finally:
            tracemalloc.stop()
    metrics["weights.peak_mb"] = max(memory.solve_peaks, default=0) / 1e6

    refs = runner.workload.sim_refs
    if refs is not None and refs.seconds:
        num = sum(statistics.median(t1[i]) for i in refs.seconds)
        metrics["simulate.scaling_eff"] = num / (2.0 * sum(refs.seconds.values()))
    else:
        metrics["simulate.scaling_eff"] = 0.0
    metrics["cli.bytes_written"] = statistics.mean(written)
    metrics["trace.op_s"] = statistics.mean(with_trace)
    metrics["trace.overhead_s"] = statistics.mean(with_trace) - statistics.mean(plain)
    tracer.dump(spans_path)
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny is for the self-tests")
    args = parser.parse_args(argv)

    locate_package()
    sys.path.insert(0, str(HERE))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    # a terminated run still removes its files and waits for its workers
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    env = environment()
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        setup_s = None if args.trace else measure_setup(SETUP_REPEATS[args.size])
        workload = workloads.build(args.workload, args.seed, args.size, workdir / "in")
        use_golden = args.seed == DEFAULT_SEED and args.size == "full"
        golden = workloads.load_golden(GOLDEN) if use_golden else None
        runner = Runner(workload, workdir, golden)
        if args.size == "full":      # warm-up: lazy imports and caches, not counted
            warm = Runner(workloads.build(args.workload, args.seed, "tiny", workdir / "warm"),
                          workdir / "warm", None)
            warm.run(0)
        if args.trace:
            metrics = traced(runner, args.seconds, WORK / f"spans-{args.workload}-{args.seed}.json")
            units, extra = LAYER_UNITS, []
        else:
            times, refs, hyps = measure(runner, args.seconds)
            metrics, extra = end_to_end(times, refs, hyps, setup_s,
                                        workloads.REFERENCE[args.workload])
            units = UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("env: " + " ".join(f"{k}={v!r}" if isinstance(v, str) else f"{k}={v}" for k, v in env.items()))
    print(f"workload {args.workload} seed {args.seed} size {args.size} trace {args.trace}: "
          f"{runner.attempted} ops ({len(workload.ops)} inputs), {runner.failed} failed")
    for problem in runner.problems:
        print(f"  FAILED {problem}")
    for name, value in metrics.items():
        print(f"  {name:22s} {value:14.6g} {units[name]:6s}")
    for name, value, unit, note in extra:
        print(f"  {name:22s} {value:14.6g} {unit:6s} {note}")
    print(f"  {'fail_frac':22s} {runner.failed / max(runner.attempted, 1):14.6g} {'ratio':6s} "
          f"{runner.failed}/{runner.attempted}")
    if args.trace:
        op_s = metrics["trace.op_s"]
        print(f"  share of traced op time: weights+power "
              f"{(metrics['weights.self_s'] + metrics['power.self_s']) / op_s:.3f}, "
              f"cli {metrics['cli.self_s'] / op_s:.3f}, overhead "
              f"{metrics['trace.overhead_s'] / (op_s - metrics['trace.overhead_s']):+.3f}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

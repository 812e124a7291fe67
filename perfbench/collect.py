#!/usr/bin/env python3
"""Run the benchmark over several seeds and workloads and summarise the spread.

    python3 perfbench/collect.py --seeds 1-10 [--workloads sim-p2,run-cli]
                                 [--trace 0] [--out perfbench/work/collect.json]

Runs ``run.py`` once per (workload, seed), one process at a time, with the
run length from BENCHMARK.json, then prints for every metric its median,
quartiles and the spread (quartile distance over median) that the
benchmark's bounds are set against.  With one seed this is the one command
that prints every metric of every workload.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


LINE = re.compile(r"^  (\S+) +(\S+) (\S+)")


def readable(lines):
    """name -> unit of every metric line a run printed."""
    return {m[1]: m[3] for m in map(LINE.match, lines) if m and _number(m[2])}


def readable_value(lines, name):
    return next(float(m[2]) for m in map(LINE.match, lines) if m and m[1] == name)


def _number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


def summarise(into, name, unit, values, bound):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    spread = (q3 - q1) / med if med else 0.0
    flag = "" if bound is None else f"bound {bound:g} {'OK' if spread < bound / 3 else 'WIDE'}"
    print(f"  {name:22s} median {med:12.6g} {unit:6s} "
          f"q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:7.4f} {flag}")
    into[name] = {"unit": unit, "median": med, "q1": q1, "q3": q3, "spread": spread,
                  "values": values}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=[1])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = {}
    # seed-major order, so a slow spell of the machine spreads over all workloads
    for seed in args.seeds:
        for workload in args.workloads.split(","):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            wall = time.perf_counter() - t0
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            result["wall_s"] = wall
            result["lines"] = lines[:-1]
            runs.setdefault(workload, []).append(result)
            print(f"{workload} seed {seed}: wall {wall:.1f} s, {result['attempted']} ops, "
                  f"{result['failed']} failed, correct {result['correct']}", flush=True)
            if not result["correct"]:
                print("\n".join(result["lines"]))

    print(runs[next(iter(runs))][0]["lines"][0])
    summary = {}
    for workload, results in runs.items():
        print(f"\n{workload}: {len(results)} runs, wall max {max(r['wall_s'] for r in results):.1f} s")
        summary[workload] = {}
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            summarise(summary[workload], name, first["unit"], values, bounds.get(name))
        # the readable-only lines (raw seconds, tail, reference time), without a bound
        for name, unit in readable(results[0]["lines"]).items():
            if name in results[0]["metrics"] or name == "fail_frac":
                continue
            values = [readable_value(r["lines"], name) for r in results]
            summarise(summary[workload], name, unit, values, None)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        env = runs[next(iter(runs))][0]["lines"][0]
        args.out.write_text(json.dumps({"env": env, "seeds": args.seeds, "trace": args.trace,
                                        "workloads": summary}, indent=1) + "\n")


if __name__ == "__main__":
    main()

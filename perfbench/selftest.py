#!/usr/bin/env python3
"""Self-tests of the benchmark itself (not collected by the package's pytest run).

    python3 perfbench/selftest.py
"""

import json
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.locate_package()
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    """A tiny run of every workload prints every named metric with its unit."""

    def test_every_metric_is_printed(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in SPEC[key]}
            for w in SPEC["workloads"]:
                with self.subTest(workload=w["name"], trace=trace):
                    proc = subprocess.run(
                        [sys.executable, str(HERE / "run.py"), "--workload", w["name"],
                         "--seed", "5", "--seconds", "0.2", "--trace", str(trace),
                         "--size", "tiny"],
                        cwd=run.ROOT, capture_output=True, text=True, timeout=170)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = last_json(proc.stdout)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], proc.stdout)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, expected)
                    for name, unit in expected.items():
                        self.assertRegex(proc.stdout, rf"\n  {re.escape(name)} +\S+ {re.escape(unit)} ")


def _perturb_json(path, key, factor):
    d = json.loads(path.read_text())
    d[key] *= factor
    path.write_text(json.dumps(d))


def _flip_rejection(path):
    d = json.loads(path.read_text())
    d["rejected_indices"] = d["rejected_indices"][1:]
    d["R"] -= 1
    path.write_text(json.dumps(d))


def _nudge_summary(path):
    d = json.loads(path.read_text())
    d["variants"]["WA"]["fdp_mean"] += 1e-9
    path.write_text(json.dumps(d, indent=2) + "\n")


TAMPER = {   # workload -> (command index, corruption of its output directory)
    "weights-cli": (0, lambda d: _perturb_json(d / "weights.json", "k_star", 1 + 1e-6)),
    "run-cli": (0, lambda d: _flip_rejection(d / "report.json")),
    "sim-p2": (0, lambda d: _nudge_summary(d / "summary_a5.json")),
    "analyze-synth": (0, lambda d: _perturb_json(d / "analysis.json", "lambda", 1 + 1e-4)),
}


class CorruptionTest(unittest.TestCase):
    """A corrupted output is caught by its check and counted as a failed op."""

    def setUp(self):
        self.workdir = run.WORK / "selftest"
        shutil.rmtree(self.workdir, ignore_errors=True)

    def tearDown(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def runner(self, name, tamper=None):
        wl = workloads.build(name, 7, "tiny", self.workdir / name / "in")
        return run.Runner(wl, self.workdir / name, None, tamper)

    def test_corrupted_outputs_count_as_failures(self):
        for name, (index, corrupt) in TAMPER.items():
            with self.subTest(workload=name):
                clean = self.runner(name)
                run.measure(clean, 0, min_ops=2)
                self.assertEqual((clean.attempted, clean.failed), (2, 0), clean.problems)

                def tamper(workload, j, outdir):
                    if j == index:
                        corrupt(outdir)

                bad = self.runner(name, tamper)
                run.measure(bad, 0, min_ops=2)
                self.assertEqual((bad.attempted, bad.failed), (2, 2))

    def test_golden_comparison_is_relative_1e12(self):
        self.assertEqual(workloads.compare_golden({"k": 2.0 * (1 + 1e-13), "R": 3},
                                                  {"k": 2.0, "R": 3}), [])
        self.assertEqual(len(workloads.compare_golden({"k": 2.0 * (1 + 1e-11), "R": 4},
                                                      {"k": 2.0, "R": 3})), 2)


class MissingSourcesTest(unittest.TestCase):
    """Without the package sources the benchmark exits non-zero and prints no result."""

    def test_exits_nonzero(self):
        bare = run.WORK / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            (bare / "perfbench").mkdir(parents=True)
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            for f in HERE.glob("*.py"):
                shutil.copy(f, bare / "perfbench")
            proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sim-p2",
                                   "--seed", "1", "--seconds", "1", "--trace", "0"],
                                  cwd=bare, capture_output=True, text=True, timeout=170)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("{", proc.stdout)


if __name__ == "__main__":
    unittest.main()

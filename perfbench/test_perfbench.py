#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Builds the benchmark binary through run.py (under .bench_build/) and
checks that:

- every metric named in BENCHMARK.json is printed with its unit, on
  every workload, untraced and traced;
- a deliberately corrupted simulator result or radix output is counted
  as a failed operation;
- the traced run's sim.events and simulated results equal the untraced
  run's.
"""

import json
import os
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def build_binary():
    bdir = run.build_root()
    env = dict(os.environ)
    env["TMPDIR"] = str(bdir / "tmp")
    (bdir / "tmp").mkdir(parents=True, exist_ok=True)
    return run.build(bdir, env), bdir / "work" / f"test-{os.getpid()}"


EXE, WORK = build_binary()


def invoke(workload, trace, *extra, seconds=1, seed=7):
    """Run the benchmark binary directly; returns (info dict, result dict)."""
    out = subprocess.run(
        [str(EXE), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace),
         "--work-dir", str(WORK), *extra],
        capture_output=True, text=True, timeout=170, check=True)
    lines = out.stdout.splitlines()
    info = {}
    for line in lines[:-1]:
        if line.startswith("perfbench-info "):
            info.update(json.loads(line[len("perfbench-info "):]))
    return info, json.loads(lines[-1])


class MetricsTest(unittest.TestCase):
    def test_every_metric_printed_with_its_unit(self):
        for workload in [w["name"] for w in SPEC["workloads"]]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    out = subprocess.run(
                        [sys.executable, str(HERE / "run.py"), "--workload",
                         workload, "--seed", "3", "--seconds", "1",
                         "--trace", str(trace)],
                        cwd=ROOT, capture_output=True, text=True,
                        timeout=400, check=True)
                    result = json.loads(out.stdout.splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in SPEC[key]}
                    got = {name: m["unit"]
                           for name, m in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, m in result["metrics"].items():
                        self.assertIsInstance(m["value"], (int, float), name)


class CorruptionTest(unittest.TestCase):
    def test_corrupted_sim_result_is_a_failure(self):
        _, clean = invoke("sim_sweeps", 0)
        _, bad = invoke("sim_sweeps", 0, "--corrupt", "sim")
        self.assertEqual(clean["failed"], 0)
        self.assertEqual(bad["failed"], 1)
        self.assertFalse(bad["correct"])
        self.assertEqual(bad["attempted"], clean["attempted"])

    def test_corrupted_radix_output_is_a_failure(self):
        _, bad = invoke("native_deque", 0, "--corrupt", "radix")
        self.assertEqual(bad["failed"], 1)
        self.assertFalse(bad["correct"])


class TracedRunTest(unittest.TestCase):
    def test_traced_sweeps_equal_untraced(self):
        info, untraced = invoke("sim_sweeps", 0)
        traced_info, traced = invoke("sim_sweeps", 1)
        self.assertTrue(untraced["correct"])
        self.assertTrue(traced["correct"])
        self.assertEqual(traced["metrics"]["sim.events"]["value"],
                         info["sim_events_first_pass"])
        self.assertEqual(traced_info["results_digest"],
                         info["results_digest"])


if __name__ == "__main__":
    unittest.main()

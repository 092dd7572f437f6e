#!/usr/bin/env python3
"""The benchmark's own tests: metric names, determinism and the output
contract of run.py.

    python3 perfbench/test_perfbench.py

Builds the harness first (as run.py does), then runs shortened (--smoke)
rounds, so the whole file takes well under a minute after the build.
"""

import json
import math
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def binary(*args):
    done = subprocess.run([str(run.BINARY), *args], capture_output=True,
                          text=True, timeout=120, check=True)
    return done.stdout


def smoke_round(workload, seed=42, trace=False):
    return run.run_round(workload, seed, trace, smoke=True)


def run_py(*args, cwd=run.ROOT, script=Path("perfbench") / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as spec:
            cls.spec = json.load(spec)
        cls.layer_names = [m["name"] for m in cls.spec["per_layer"]]
        cls.end_to_end_names = [m["name"] for m in cls.spec["end_to_end"]]

    def test_declared_layer_metrics_match_benchmark_json(self):
        listed = binary("--list-metrics").split()
        self.assertEqual(listed, self.layer_names)
        names = self.layer_names + self.end_to_end_names
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertTrue(NAME.fullmatch(name) and len(name) <= 64, name)

    def test_traced_round_prints_exactly_the_declared_set(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                result = smoke_round(workload, trace=True)
                self.assertEqual(result["failures"], [])
                self.assertEqual(result["failed"], 0)
                self.assertEqual(list(result["layers"]), self.layer_names)
                for name, value in result["layers"].items():
                    self.assertTrue(math.isfinite(value) and value >= 0.0,
                                    f"{name} = {value}")
                self.assertGreater(result["layers"]["sim.events"], 0)

    def test_digest_repeats_for_a_seed_and_follows_the_seed(self):
        first = smoke_round("scale", seed=7)
        again = smoke_round("scale", seed=7)
        other = smoke_round("scale", seed=8)
        self.assertEqual(first["digest"], again["digest"])
        self.assertEqual(first["committed"], again["committed"])
        self.assertNotEqual(first["digest"], other["digest"])

    def test_run_py_prints_the_result_object_last(self):
        for trace, names in (("0", self.end_to_end_names),
                             ("1", self.layer_names)):
            with self.subTest(trace=trace):
                done = run_py("--workload", "burst", "--seed", "3",
                              "--seconds", "1", "--trace", trace, "--smoke")
                self.assertEqual(done.returncode, 0, done.stderr)
                result = json.loads(done.stdout.strip().splitlines()[-1])
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed",
                                  "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                self.assertEqual(list(result["metrics"]), names)
                for metric in result["metrics"].values():
                    self.assertEqual(set(metric), {"value", "unit"})

    def test_end_to_end_times_sum_each_experiments_median(self):
        serial = [{"wall_s": 9.0, "run_wall_s": [2.0, 7.0]},
                  {"wall_s": 8.0, "run_wall_s": [3.0, 5.0]},
                  {"wall_s": 9.5, "run_wall_s": [9.0, 0.5]}]
        self.assertEqual(run.median_total(serial, "wall_s", "run_wall_s"),
                         8.0)
        campaign = [{"wall_s": 4.5, "run_wall_s": []},
                    {"wall_s": 4.25, "run_wall_s": []},
                    {"wall_s": 6.0, "run_wall_s": []}]
        self.assertEqual(
            run.median_total(campaign, "wall_s", "run_wall_s"), 4.5)

    def test_fails_without_the_simulator_sources(self):
        # A checkout holding only the benchmark cannot build it.
        isolated = run.BUILD_DIR / "isolated_checkout"
        shutil.rmtree(isolated, ignore_errors=True)
        shutil.copytree(run.BENCH_DIR, isolated / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", isolated)
        try:
            done = run_py("--workload", "scale", "--seconds", "1",
                          cwd=isolated)
            self.assertNotEqual(done.returncode, 0)
            self.assertFalse(done.stdout.strip().startswith("{"))
            self.assertNotIn('"metrics"', done.stdout)
        finally:
            shutil.rmtree(isolated, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()

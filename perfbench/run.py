#!/usr/bin/env python3
"""Runs the STABL simulator's benchmark.

    python3 perfbench/run.py --workload paper_matrix|scale|burst \
        [--seed N] [--seconds S] [--trace 0|1]

Builds perfbench/ (and with it the simulator library from src/) into
.bench_build/, then runs rounds of the workload, each in a fresh
stabl_perfbench process, until --seconds of wall time are used. Every round
repeats the same inputs (generated from --seed) and must produce the same
output digest. The last line of stdout is one JSON object: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1, each a
median over the rounds (times of a serial workload per experiment, see
median_total). BENCHMARK.json at the repository root declares both metric
sets and their units. Exits non-zero without a result when the build or a
round fails.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "stabl_perfbench"
WORKLOADS = ("paper_matrix", "scale", "burst")
# Rounds take seconds; one that runs this long is hung and fails the run.
ROUND_TIMEOUT_S = 120


class BenchError(Exception):
    pass


def build():
    """Configures and builds the harness; build output goes to stderr."""
    configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if not (BUILD_DIR / "CMakeCache.txt").exists() and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for command in (configure,
                    ["cmake", "--build", str(BUILD_DIR), "-j", jobs]):
        if subprocess.run(command, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            raise BenchError("build failed: " + " ".join(command))


def run_round(workload, seed, trace, smoke=False, cpu=None):
    """Runs one round; `cpu` pins a single-threaded round to that CPU, so
    scheduler migrations do not throw away its caches mid-round."""
    command = [str(BINARY), "--workload", workload, "--seed", str(seed)]
    if trace:
        command.append("--trace")
    if smoke:
        command.append("--smoke")
    pin = None if cpu is None else lambda: os.sched_setaffinity(0, {cpu})
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=ROUND_TIMEOUT_S, preexec_fn=pin)
    except subprocess.TimeoutExpired as error:
        raise BenchError(f"round timed out after {ROUND_TIMEOUT_S} s") \
            from error
    if done.returncode != 0 or not done.stdout.strip():
        raise BenchError(f"round exited {done.returncode}: "
                         f"{done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def load_declared():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as spec:
        declared = json.load(spec)
    return ({m["name"]: m["unit"] for m in declared["end_to_end"]},
            {m["name"]: m["unit"] for m in declared["per_layer"]})


def median_total(rounds, total, per_run):
    """A workload's time over the rounds. For a serial workload, each
    experiment's median round, summed over the experiments: a round that a
    busy host slowed in one experiment then moves only that experiment's
    term. For the campaign, whose lanes run experiments side by side, the
    median round."""
    if not rounds[0][per_run]:
        return median_of(rounds, total)
    return sum(statistics.median(r[per_run][i] for r in rounds)
               for i in range(len(rounds[0][per_run])))


def end_to_end_values(rounds):
    wall_s = median_total(rounds, "wall_s", "run_wall_s")
    return {
        "wall_s": wall_s,
        "cpu_s": median_total(rounds, "cpu_s", "run_cpu_s"),
        "committed_tx_per_wall_s": rounds[0]["committed"] / wall_s,
        "peak_rss_mb": median_of(rounds, "peak_rss_mb"),
        "setup_s": median_of(rounds, "setup_s"),
    }


def median_of(rounds, name):
    return statistics.median(r[name] for r in rounds)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shortened cells, for the benchmark's own test")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    try:
        end_to_end_units, layer_units = load_declared()
        build()
        # paper_matrix fans its campaign out over several threads; the
        # other workloads are serial, and their rounds take the allowed
        # CPUs in turn so that no one busy CPU decides the median.
        cpus = sorted(os.sched_getaffinity(0))
        rounds = []
        start = time.monotonic()
        while True:
            round_start = time.monotonic()
            cpu = (None if args.workload == "paper_matrix"
                   else cpus[len(rounds) % len(cpus)])
            rounds.append(run_round(args.workload, args.seed,
                                    args.trace == 1, args.smoke, cpu))
            now = time.monotonic()
            # Start another round only if it should end in the budget.
            if now + (now - round_start) > start + args.seconds:
                break
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    digests = sorted({r["digest"] for r in rounds})
    for reason in sorted({f for r in rounds for f in r["failures"]}):
        print(f"FAILED: {reason}")
    if len(digests) > 1:
        print(f"FAILED: same inputs gave different outputs: {digests}")
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds, "
          f"{attempted} runs, failed_share {failed / attempted:.4g}, "
          f"digest {digests[0]}")

    if args.trace:
        if set(rounds[0]["layers"]) != set(layer_units):
            print("perfbench: the harness's layer metrics differ from "
                  "BENCHMARK.json per_layer", file=sys.stderr)
            return 1
        untraced = median_of(rounds, "wall_s")
        traced = median_of(rounds, "traced_wall_s")
        print(f"tracing overhead: traced {traced:.3f} s - untraced "
              f"{untraced:.3f} s = {traced - untraced:+.3f} s")
        metrics = {name: {"value": statistics.median(
                              r["layers"][name] for r in rounds),
                          "unit": unit}
                   for name, unit in layer_units.items()}
    else:
        values = end_to_end_values(rounds)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in end_to_end_units.items()}
        for name, metric in metrics.items():
            print(f"  {name:<24} {metric['value']:.6g} {metric['unit']}")

    print(json.dumps({"correct": failed == 0 and len(digests) == 1,
                      "attempted": attempted,
                      "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

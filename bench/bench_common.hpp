// Shared plumbing for the benches that run paper cells: the paper's cell
// geometry, its duration, and a main that prints the bench's table after
// the google-benchmark pass. The experiment duration defaults to the
// paper's 400 s and can be overridden with the STABL_BENCH_DURATION
// environment variable (seconds) for quick runs.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdlib>

#include "core/experiment.hpp"
#include "core/report.hpp"

namespace stabl::bench {

inline long bench_duration_s() {
  if (const char* env = std::getenv("STABL_BENCH_DURATION")) {
    const long v = std::atol(env);
    if (v >= 30) return v;
  }
  return 400;
}

inline core::ExperimentConfig paper_config(core::ChainKind chain,
                                           core::FaultType fault) {
  core::ExperimentConfig base;
  base.chain = chain;
  base.seed = 42;
  core::apply_run_window(base, bench_duration_s());
  return core::paper_cell(base, fault);
}

/// Standard main: run benchmarks, then print the figure via `print`.
#define STABL_BENCH_MAIN(print_figure)                       \
  int main(int argc, char** argv) {                          \
    ::benchmark::Initialize(&argc, argv);                    \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) \
      return 1;                                              \
    ::benchmark::RunSpecifiedBenchmarks();                   \
    print_figure();                                          \
    ::benchmark::Shutdown();                                 \
    return 0;                                                \
  }

}  // namespace stabl::bench

// Shared plumbing for the benches that run paper cells: the paper's cell
// geometry, its duration, and a main that prints the bench's table after
// the google-benchmark pass. The experiment duration defaults to the
// paper's 400 s and can be overridden with the STABL_BENCH_DURATION
// environment variable (seconds) for quick runs.
#pragma once

#include <benchmark/benchmark.h>

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "core/experiment.hpp"
#include "core/report.hpp"

namespace stabl::bench {

/// Simulated seconds per run: STABL_BENCH_DURATION when set, else
/// `fallback`. The value must be a whole integer >= 30, stabl_cli's
/// --duration floor; anything else ("20", "abc", "60x") exits 2 naming
/// the variable instead of silently running another geometry.
inline long bench_duration_s(long fallback = 400) {
  const char* env = std::getenv("STABL_BENCH_DURATION");
  if (env == nullptr) return fallback;
  long value = 0;
  const char* end = env + std::strlen(env);
  const auto [ptr, ec] = std::from_chars(env, end, value);
  if (ec != std::errc{} || ptr != end || value < 30) {
    std::fprintf(stderr,
                 "STABL_BENCH_DURATION must be an integer >= 30 (got '%s')\n",
                 env);
    std::exit(2);
  }
  return value;
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

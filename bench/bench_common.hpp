// Shared plumbing for the figure-reproduction benches.
//
// Every figure binary runs the paper's experiment pairs (baseline vs
// altered) under google-benchmark timing, caches the results, and prints
// the figure's rows/series after the benchmark pass. The experiment
// duration defaults to the paper's 400 s and can be overridden with the
// STABL_BENCH_DURATION environment variable (seconds) for quick runs.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <initializer_list>
#include <map>
#include <string>

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

/// Per-binary cache so the printing step reuses the benchmarked runs.
inline core::SensitivityRun& cached_run(core::ChainKind chain,
                                        core::FaultType fault) {
  static std::map<std::pair<core::ChainKind, core::FaultType>,
                  core::SensitivityRun>
      cache;
  const auto key = std::make_pair(chain, fault);
  auto it = cache.find(key);
  if (it == cache.end()) {
    it = cache
             .emplace(key,
                      core::run_sensitivity(paper_config(chain, fault)))
             .first;
  }
  return it->second;
}

/// Benchmark body: run (and cache) one chain/fault pair.
inline void run_pair_benchmark(benchmark::State& state,
                               core::ChainKind chain,
                               core::FaultType fault) {
  for (auto _ : state) {
    const core::SensitivityRun& run = cached_run(chain, fault);
    benchmark::DoNotOptimize(run.score.value);
    state.counters["score"] = run.score.infinite ? -1.0 : run.score.value;
    state.counters["committed"] =
        static_cast<double>(run.altered.committed);
    state.counters["events"] = static_cast<double>(run.altered.events);
  }
}

/// Registers a 1-iteration benchmark named `name` for one experiment pair.
inline void register_pair_benchmark(const std::string& name,
                                    core::ChainKind chain,
                                    core::FaultType fault) {
  ::benchmark::RegisterBenchmark(name.c_str(),
                                 [chain, fault](::benchmark::State& state) {
                                   run_pair_benchmark(state, chain, fault);
                                 })
      ->Iterations(1)
      ->Unit(::benchmark::kSecond);
}

/// Registers one benchmark per (chain, fault) cell — the registration
/// block every figure binary used to repeat by hand. Benchmarks are named
/// "<chain>" when a single fault is given and "<chain>/<fault>" otherwise.
/// Returns true so figures can register from a namespace-scope
/// initializer, the same way the BENCHMARK macro does.
inline bool register_chain_benchmarks(
    std::initializer_list<core::FaultType> faults) {
  for (const core::ChainKind chain : core::kAllChains) {
    for (const core::FaultType fault : faults) {
      register_pair_benchmark(
          faults.size() == 1 ? core::to_string(chain)
                             : core::to_string(chain) + "/" +
                                   core::to_string(fault),
          chain, fault);
    }
  }
  return true;
}

inline bool register_chain_benchmarks(core::FaultType fault) {
  return register_chain_benchmarks({fault});
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

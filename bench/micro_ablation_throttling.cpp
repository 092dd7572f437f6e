// Ablation: Avalanche's InboundMsgThrottler on vs off under the paper's
// transient-failure experiment. The paper attributes Avalanche's permanent
// liveness loss to the throttler ("the throttling prevented them from
// being processed in a timely manner, resulting in no new blocks being
// agreed upon"); disabling it restores recovery.
#include "bench_common.hpp"

#include <cstdio>

namespace {

using namespace stabl;

core::ExperimentResult& result(bool throttling) {
  static std::map<bool, core::ExperimentResult> cache;
  auto it = cache.find(throttling);
  if (it == cache.end()) {
    core::ExperimentConfig config = bench::paper_config(
        core::ChainKind::kAvalanche, core::FaultType::kTransient);
    config.chain_params["throttling"] = throttling ? 1.0 : 0.0;
    it = cache.emplace(throttling, core::run_experiment(config)).first;
  }
  return it->second;
}

void throttling_on(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(result(true).committed);
  }
}
void throttling_off(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(result(false).committed);
  }
}
BENCHMARK(throttling_on)->Iterations(1)->Unit(benchmark::kSecond);
BENCHMARK(throttling_off)->Iterations(1)->Unit(benchmark::kSecond);

void print_figure() {
  std::printf("\n=== Ablation: Avalanche transient failure, throttler on/off"
              " ===\n");
  core::Table table(
      {"throttler", "committed", "live at end", "recovery(s)"});
  for (const bool on : {true, false}) {
    const core::ExperimentResult& r = result(on);
    table.add_row({on ? "enabled (default)" : "disabled (ablation)",
                   std::to_string(r.committed) + "/" +
                       std::to_string(r.submitted),
                   r.live_at_end ? "yes" : "NO",
                   r.recovery_seconds >= 0
                       ? core::Table::num(r.recovery_seconds, 1)
                       : "never"});
  }
  std::printf("%s", table.to_string().c_str());
}

}  // namespace

STABL_BENCH_MAIN(print_figure)

// Ablation: Solana with warm-up epochs (the deployment-script default that
// triggers the EAH panic, agave issue #1491) vs the fix of running only
// full-length epochs (>= 360 slots).
#include "bench_common.hpp"

#include <cstdio>

namespace {

using namespace stabl;

core::ExperimentResult& result(bool warmup) {
  static std::map<bool, core::ExperimentResult> cache;
  auto it = cache.find(warmup);
  if (it == cache.end()) {
    core::ExperimentConfig config = bench::paper_config(
        core::ChainKind::kSolana, core::FaultType::kTransient);
    config.chain_params["warmup_epochs"] = warmup ? 1.0 : 0.0;
    it = cache.emplace(warmup, core::run_experiment(config)).first;
  }
  return it->second;
}

void warmup_epochs(benchmark::State& state) {
  for (auto _ : state) benchmark::DoNotOptimize(result(true).committed);
}
void full_epochs(benchmark::State& state) {
  for (auto _ : state) benchmark::DoNotOptimize(result(false).committed);
}
BENCHMARK(warmup_epochs)->Iterations(1)->Unit(benchmark::kSecond);
BENCHMARK(full_epochs)->Iterations(1)->Unit(benchmark::kSecond);

void print_figure() {
  std::printf("\n=== Ablation: Solana transient failure, warm-up vs full"
              " epochs ===\n");
  core::Table table({"epochs", "committed", "live at end", "note"});
  const auto& broken = result(true);
  const auto& fixed = result(false);
  table.add_row({"warm-up (32,64,..)",
                 std::to_string(broken.committed) + "/" +
                     std::to_string(broken.submitted),
                 broken.live_at_end ? "yes" : "NO",
                 "EAH panic kills all validators"});
  table.add_row({">=8192 slots",
                 std::to_string(fixed.committed) + "/" +
                     std::to_string(fixed.submitted),
                 fixed.live_at_end ? "yes" : "NO",
                 "no panic; recovers after restart"});
  std::printf("%s", table.to_string().c_str());
}

}  // namespace

STABL_BENCH_MAIN(print_figure)

// Ablation: Redbelly's MaxIdleTime under the partition experiment. The
// Redbelly developers confirmed to the authors that lowering the existing
// 30-second MaxIdleTime timeout would speed up partition recovery; this
// bench sweeps the knob and reports the measured recovery time.
#include "bench_common.hpp"

#include <cstdio>

namespace {

using namespace stabl;

core::ExperimentResult& result(double idle_s) {
  static std::map<double, core::ExperimentResult> cache;
  auto it = cache.find(idle_s);
  if (it == cache.end()) {
    core::ExperimentConfig config = bench::paper_config(
        core::ChainKind::kRedbelly, core::FaultType::kPartition);
    config.chain_params["max_idle_s"] = idle_s;
    it = cache.emplace(idle_s, core::run_experiment(config)).first;
  }
  return it->second;
}

void idle_60s(benchmark::State& state) {
  for (auto _ : state) benchmark::DoNotOptimize(result(60.0).committed);
}
void idle_30s(benchmark::State& state) {
  for (auto _ : state) benchmark::DoNotOptimize(result(30.0).committed);
}
void idle_15s(benchmark::State& state) {
  for (auto _ : state) benchmark::DoNotOptimize(result(15.0).committed);
}
BENCHMARK(idle_60s)->Iterations(1)->Unit(benchmark::kSecond);
BENCHMARK(idle_30s)->Iterations(1)->Unit(benchmark::kSecond);
BENCHMARK(idle_15s)->Iterations(1)->Unit(benchmark::kSecond);

void print_figure() {
  std::printf("\n=== Ablation: Redbelly partition recovery vs MaxIdleTime"
              " ===\n");
  core::Table table({"MaxIdleTime", "recovery(s)", "committed"});
  for (const double idle : {60.0, 30.0, 15.0}) {
    const core::ExperimentResult& r = result(idle);
    table.add_row({core::Table::num(idle, 0) + "s",
                   r.recovery_seconds >= 0
                       ? core::Table::num(r.recovery_seconds, 1)
                       : "never",
                   std::to_string(r.committed) + "/" +
                       std::to_string(r.submitted)});
  }
  std::printf("%s", table.to_string().c_str());
  std::printf("(shorter idle timeout => earlier break detection => earlier"
              " redial => faster recovery)\n");
}

}  // namespace

STABL_BENCH_MAIN(print_figure)

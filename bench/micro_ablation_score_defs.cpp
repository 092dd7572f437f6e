// Ablation: the two readings of the sensitivity formula — evaluating both
// super-cumulatives at the common endpoint max(b1,b2) (our default; the
// between-curves area of Fig. 1) vs at each distribution's own endpoint
// (the paper's literal |S1(b1) - S2(b2)|). The common-endpoint reading is
// the one under which the paper's outlier-resilience property holds; this
// bench quantifies the difference on synthetic and measured data.
#include "bench_common.hpp"

#include <cstdio>

#include "sim/rng.hpp"

namespace {

using namespace stabl;

core::SensitivityScore score_with(const std::vector<double>& baseline,
                                  const std::vector<double>& altered,
                                  core::ScoreEndpoint endpoint) {
  core::SensitivityOptions options;
  options.endpoint = endpoint;
  return core::sensitivity(baseline, altered, true, options);
}

void synthetic_outlier(benchmark::State& state) {
  sim::Rng rng(3);
  std::vector<double> baseline;
  for (int i = 0; i < 50000; ++i) {
    baseline.push_back(rng.lognormal_median(1.0, 0.3));
  }
  auto altered = baseline;
  altered[0] = 300.0;  // one straggler
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        score_with(baseline, altered, core::ScoreEndpoint::kCommon));
    benchmark::DoNotOptimize(score_with(
        baseline, altered, core::ScoreEndpoint::kPerDistribution));
  }
}
BENCHMARK(synthetic_outlier)->Iterations(1)->Unit(benchmark::kSecond);

void print_figure() {
  std::printf("\n=== Ablation: sensitivity-score endpoint definitions"
              " ===\n");
  core::Table table({"input", "common endpoint", "per-distribution"});

  sim::Rng rng(3);
  std::vector<double> baseline;
  for (int i = 0; i < 50000; ++i) {
    baseline.push_back(rng.lognormal_median(1.0, 0.3));
  }
  auto outlier = baseline;
  outlier[0] = 300.0;
  table.add_row(
      {"50k samples + 1 outlier (300s)",
       core::format_score(
           score_with(baseline, outlier, core::ScoreEndpoint::kCommon)),
       core::format_score(score_with(
           baseline, outlier, core::ScoreEndpoint::kPerDistribution))});

  auto shifted = baseline;
  for (double& x : shifted) x += 5.0;
  table.add_row(
      {"uniform +5s shift",
       core::format_score(
           score_with(baseline, shifted, core::ScoreEndpoint::kCommon)),
       core::format_score(score_with(
           baseline, shifted, core::ScoreEndpoint::kPerDistribution))});

  const core::SensitivityRun run = core::run_sensitivity(
      bench::paper_config(core::ChainKind::kRedbelly, core::FaultType::kCrash));
  table.add_row(
      {"measured: redbelly f=t crash",
       core::format_score(score_with(run.baseline.latencies,
                                     run.altered.latencies,
                                     core::ScoreEndpoint::kCommon)),
       core::format_score(score_with(run.baseline.latencies,
                                     run.altered.latencies,
                                     core::ScoreEndpoint::kPerDistribution))});
  std::printf("%s", table.to_string().c_str());
  std::printf("(one outlier swings the per-distribution score by O(outlier)"
              " but the common-endpoint score by O(1/m))\n");
}

}  // namespace

STABL_BENCH_MAIN(print_figure)

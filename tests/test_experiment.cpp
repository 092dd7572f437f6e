// Integration tests for the experiment runner: geometry, determinism,
// fault defaults, result bookkeeping.
#include "core/experiment.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/metrics.hpp"

namespace stabl::core {
namespace {

TEST(FaultToleranceThresholds, MatchPaperTable) {
  // n = 10: Algorand/Avalanche t = ceil(10/5 - 1) = 1; others 3.
  EXPECT_EQ(fault_tolerance(ChainKind::kAlgorand, 10), 1u);
  EXPECT_EQ(fault_tolerance(ChainKind::kAvalanche, 10), 1u);
  EXPECT_EQ(fault_tolerance(ChainKind::kAptos, 10), 3u);
  EXPECT_EQ(fault_tolerance(ChainKind::kRedbelly, 10), 3u);
  EXPECT_EQ(fault_tolerance(ChainKind::kSolana, 10), 3u);
}

TEST(ChainNames, RoundTrip) {
  EXPECT_EQ(to_string(ChainKind::kAlgorand), "algorand");
  EXPECT_EQ(to_string(ChainKind::kSolana), "solana");
  EXPECT_EQ(std::size(kAllChains), 5u);
}

TEST(Experiment, BaselineRedbellyShortRun) {
  ExperimentConfig config;
  config.chain = ChainKind::kRedbelly;
  config.duration = sim::sec(30);
  const ExperimentResult result = run_experiment(config);
  EXPECT_EQ(result.submitted, 5900u);  // 5 clients * 40 tps * 29.5 s
  EXPECT_GT(result.committed, 5500u);
  EXPECT_TRUE(result.live_at_end);
  EXPECT_EQ(result.throughput.size(), 30u);
  EXPECT_GT(result.mean_latency_s, 0.0);
  EXPECT_GE(result.p99_latency_s, result.p50_latency_s);
  EXPECT_GT(result.blocks, 10u);
  EXPECT_GT(result.events, 10000u);
}

TEST(Experiment, DeterministicForSameSeed) {
  ExperimentConfig config;
  config.chain = ChainKind::kAptos;
  config.duration = sim::sec(20);
  config.seed = 123;
  const ExperimentResult a = run_experiment(config);
  const ExperimentResult b = run_experiment(config);
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_EQ(a.events, b.events);
  ASSERT_EQ(a.latencies.size(), b.latencies.size());
  for (std::size_t i = 0; i < a.latencies.size(); ++i) {
    ASSERT_DOUBLE_EQ(a.latencies[i], b.latencies[i]);
  }
}

TEST(Experiment, DifferentSeedsDiffer) {
  ExperimentConfig config;
  config.chain = ChainKind::kAlgorand;
  config.duration = sim::sec(20);
  config.seed = 1;
  const ExperimentResult a = run_experiment(config);
  config.seed = 2;
  const ExperimentResult b = run_experiment(config);
  // The deterministic timer structure keeps event counts close, but the
  // sampled latencies must differ.
  double sum_a = 0.0;
  double sum_b = 0.0;
  for (const double x : a.latencies) sum_a += x;
  for (const double x : b.latencies) sum_b += x;
  EXPECT_NE(sum_a, sum_b);
}

TEST(Experiment, CrashDefaultsToTFaults) {
  ExperimentConfig config;
  config.chain = ChainKind::kRedbelly;
  config.duration = sim::sec(40);
  config.inject_at = sim::sec(10);
  config.fault = FaultType::kCrash;
  // t = 3 crashes land on nodes 5..7; Redbelly keeps committing.
  const ExperimentResult result = run_experiment(config);
  EXPECT_TRUE(result.live_at_end);
  EXPECT_GT(result.committed, 7000u);
}

TEST(Experiment, ExplicitFaultCountOverridesDefault) {
  ExperimentConfig config;
  config.chain = ChainKind::kRedbelly;
  config.duration = sim::sec(40);
  config.inject_at = sim::sec(10);
  config.fault = FaultType::kCrash;
  FaultPlan plan = paper_plan(config);
  plan.targets = {5, 6, 7, 8};  // beyond t: the chain halts
  config.fault_schedule.add(plan);
  const ExperimentResult result = run_experiment(config);
  EXPECT_FALSE(result.live_at_end);
}

// Chain-side results come from a node no plan faults. With entry node 0
// crashed, resilient clients fail over and the cluster keeps committing,
// so the run is live and commits after the crash, and the height gauge
// keeps rising.
TEST(Experiment, CrashedEntryNodeLeavesTheRunLive) {
  ExperimentConfig config;
  config.chain = ChainKind::kRedbelly;
  config.duration = sim::sec(60);
  config.inject_at = sim::sec(20);
  config.fault = FaultType::kCrash;
  config.resilience.enabled = true;
  FaultPlan plan = paper_plan(config);
  plan.targets = {0};
  config.fault_schedule.add(plan);
  MetricsRegistry metrics;
  config.metrics = &metrics;
  const ExperimentResult result = run_experiment(config);
  EXPECT_TRUE(result.live_at_end);
  ASSERT_EQ(result.throughput.size(), 60u);
  // Above half the offered 200 tx/s over the bins after the crash.
  double committed_after = 0.0;
  for (std::size_t bin = 21; bin < 60; ++bin) {
    committed_after += result.throughput[bin];
  }
  EXPECT_GT(committed_after, 0.5 * 200.0 * 39.0);
  const auto height = std::find_if(
      metrics.series().begin(), metrics.series().end(),
      [](const MetricSeries& series) { return series.name == "height"; });
  ASSERT_NE(height, metrics.series().end());
  ASSERT_EQ(height->samples.size(), 60u);
  EXPECT_GT(height->samples.back(), height->samples[20]);
}

TEST(Experiment, SecureClientRunsFanout) {
  ExperimentConfig config;
  config.chain = ChainKind::kRedbelly;
  config.duration = sim::sec(30);
  config.fault = FaultType::kSecureClient;
  config.client_fanout = 4;
  const ExperimentResult result = run_experiment(config);
  EXPECT_TRUE(result.live_at_end);
  EXPECT_GT(result.committed, 5000u);
}

TEST(RunSensitivity, PairsBaselineAgainstAltered) {
  ExperimentConfig config;
  config.chain = ChainKind::kRedbelly;
  config.duration = sim::sec(45);
  config.inject_at = sim::sec(15);
  config.recover_at = sim::sec(30);
  config.fault = FaultType::kTransient;
  const SensitivityRun run = run_sensitivity(config);
  EXPECT_GT(run.baseline.committed, run.altered.committed);
  EXPECT_FALSE(run.score.infinite);
  EXPECT_GT(run.score.value, 0.0);
  EXPECT_GT(run.altered.recovery_seconds, 0.0);
}

TEST(RunSensitivity, DeadAlteredRunScoresInfinite) {
  ExperimentConfig config;
  config.chain = ChainKind::kRedbelly;
  config.duration = sim::sec(45);
  config.inject_at = sim::sec(15);
  config.fault = FaultType::kCrash;
  FaultPlan plan = paper_plan(config);
  plan.targets = {5, 6, 7, 8};  // > t: halt, no recovery
  config.fault_schedule.add(plan);
  const SensitivityRun run = run_sensitivity(config);
  EXPECT_TRUE(run.score.infinite);
}

TEST(RunSensitivity, MatchingClientPairsWithANaiveBaseline) {
  // A 3-matching secure client's twin has one endpoint; it must wait for
  // that answer, not for three matching ones it can never collect.
  ExperimentConfig config;
  config.chain = ChainKind::kRedbelly;
  config.duration = sim::sec(30);
  config.fault = FaultType::kSecureClient;
  config.client_fanout = 4;
  config.client_matching = 3;
  EXPECT_EQ(baseline_of(config).client_matching, 0u);
  const SensitivityRun run = run_sensitivity(config);
  EXPECT_GT(run.baseline.committed, 5000u);
  EXPECT_GT(run.altered.committed, 5000u);
  EXPECT_FALSE(run.score.invalid_baseline);
}

TEST(PaperCell, MovesThePrimaryPlanAndKeepsTargetsKnobsAndComposedPlans) {
  ExperimentConfig base;
  FaultPlan primary = paper_plan(base);
  primary.targets = {6, 7};
  primary.loss_probability = 0.3;
  primary.gray_latency = sim::sec(1);
  FaultPlan gray = primary;
  gray.type = FaultType::kGray;
  gray.targets.clear();
  base.fault_schedule.add(primary).add(gray);

  const ExperimentConfig cell = paper_cell(base, FaultType::kLoss);
  EXPECT_EQ(cell.fault, FaultType::kLoss);
  EXPECT_EQ(cell.client_fanout, 1);
  ASSERT_EQ(cell.fault_schedule.plans.size(), 2u);
  const FaultPlan& moved = cell.fault_schedule.plans[0];
  EXPECT_EQ(moved.type, FaultType::kLoss);
  EXPECT_EQ(moved.targets, (std::vector<net::NodeId>{6, 7}));
  EXPECT_DOUBLE_EQ(moved.loss_probability, 0.3);
  EXPECT_EQ(moved.gray_latency, sim::sec(1));
  EXPECT_EQ(moved.inject_at, base.inject_at);
  EXPECT_EQ(moved.recover_at, base.recover_at);
  EXPECT_EQ(cell.fault_schedule.plans[1].type, FaultType::kGray);
  EXPECT_TRUE(cell.fault_schedule.plans[1].targets.empty());

  // The §7 geometry rides along on the secure-client cell, unless the
  // base pinned a fanout.
  const ExperimentConfig secure = paper_cell(base, FaultType::kSecureClient);
  EXPECT_EQ(secure.client_fanout, 4);
  EXPECT_DOUBLE_EQ(secure.vcpus, 8.0);
  ExperimentConfig pinned = base;
  pinned.client_fanout = 2;
  const ExperimentConfig two = paper_cell(pinned, FaultType::kSecureClient);
  EXPECT_EQ(two.client_fanout, 2);
  EXPECT_DOUBLE_EQ(two.vcpus, 4.0);
  // An empty schedule stays empty: it stands for the cell's paper_plan.
  EXPECT_TRUE(
      paper_cell(ExperimentConfig{}, FaultType::kCrash).fault_schedule.empty());
}

TEST(ResolvedSchedule, FillsEmptyTargetsAndDropsPlansThatFaultNothing) {
  // Redbelly at n = 10: t = 3, five entry nodes.
  ExperimentConfig config;
  config.fault = FaultType::kPartition;
  FaultSchedule armed = resolved_schedule(config);
  ASSERT_EQ(armed.plans.size(), 1u);
  EXPECT_EQ(armed.plans[0].targets, (std::vector<net::NodeId>{5, 6, 7, 8}));
  EXPECT_EQ(armed.plans[0].inject_at, config.inject_at);

  FaultPlan none = paper_plan(config);
  none.type = FaultType::kNone;
  none.targets = {5};
  FaultPlan secure = paper_plan(config);
  secure.type = FaultType::kSecureClient;
  FaultPlan crash = paper_plan(config);
  crash.type = FaultType::kCrash;
  config.fault_schedule.add(none).add(secure).add(crash);
  armed = resolved_schedule(config);
  ASSERT_EQ(armed.plans.size(), 1u);
  EXPECT_EQ(armed.plans[0].type, FaultType::kCrash);
  EXPECT_EQ(armed.plans[0].targets, (std::vector<net::NodeId>{5, 6, 7}));

  // t = 0 at n = 3: a crash of t nodes faults nothing.
  config.n = 3;
  EXPECT_TRUE(resolved_schedule(config).empty());
}

}  // namespace
}  // namespace stabl::core

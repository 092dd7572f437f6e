// Tests for the crash-recovery churn fault and the per-chain diagnostic
// metrics surfaced through ExperimentResult.
#include <gtest/gtest.h>

#include "core/experiment.hpp"

namespace stabl::core {
namespace {

TEST(ChurnFault, NamesAndDefaults) {
  EXPECT_EQ(to_string(FaultType::kChurn), "churn");
  FaultPlan plan;
  EXPECT_GT(plan.churn_down.count(), 0);
  EXPECT_GT(plan.churn_up.count(), 0);
}

TEST(ChurnFault, RedbellySurvivesQuorumPreservingChurn) {
  // f = t nodes bounce every (10 s down, 15 s up); leaderless DBFT keeps a
  // quorum throughout and commits the whole workload.
  ExperimentConfig config;
  config.chain = ChainKind::kRedbelly;
  config.duration = sim::sec(150);
  config.inject_at = sim::sec(30);
  config.recover_at = sim::sec(120);
  config.fault = FaultType::kChurn;
  const ExperimentResult result = run_experiment(config);
  EXPECT_TRUE(result.live_at_end);
  EXPECT_GT(result.committed, result.submitted - 1500);
}

TEST(ChurnFault, AptosToleratesChurnWithDegradation) {
  ExperimentConfig config;
  config.chain = ChainKind::kAptos;
  config.duration = sim::sec(150);
  config.inject_at = sim::sec(30);
  config.recover_at = sim::sec(120);
  config.fault = FaultType::kChurn;
  const ExperimentResult result = run_experiment(config);
  EXPECT_TRUE(result.live_at_end);
  EXPECT_GT(result.committed, 20000u);
}

TEST(ChurnFault, ChurnBeyondThresholdHaltsPeriodically) {
  // f = t+1 churn: the chain halts while the targets are down and resumes
  // while they are up — committed lands between "always up" and "down for
  // the whole window".
  ExperimentConfig config;
  config.chain = ChainKind::kRedbelly;
  config.duration = sim::sec(150);
  config.inject_at = sim::sec(30);
  config.recover_at = sim::sec(120);
  config.fault = FaultType::kChurn;
  FaultPlan plan = paper_plan(config);
  plan.targets = {5, 6, 7, 8};  // t + 1
  config.fault_schedule.add(plan);
  const ExperimentResult result = run_experiment(config);
  EXPECT_TRUE(result.live_at_end);
  // 150 s * 200 TPS ~ 29.9k submitted; halting ~4 windows of 10+ s costs
  // throughput during the window but the backlog clears after each.
  EXPECT_GT(result.committed, 25000u);
}

TEST(ChainMetrics, AptosExposesSpeculativeAborts) {
  ExperimentConfig config;
  config.chain = ChainKind::kAptos;
  config.duration = sim::sec(30);
  config.fault = FaultType::kSecureClient;
  config.client_fanout = 4;
  config.vcpus = 8.0;
  const ExperimentResult result = run_experiment(config);
  ASSERT_TRUE(result.chain_metrics.contains("speculative_aborts"));
  EXPECT_GT(result.chain_metrics.at("speculative_aborts"), 10000.0);
}

TEST(ChainMetrics, SolanaExposesPanicCount) {
  ExperimentConfig config;
  config.chain = ChainKind::kSolana;
  config.duration = sim::sec(200);
  config.inject_at = sim::sec(133);
  config.fault = FaultType::kCrash;
  FaultPlan plan = paper_plan(config);
  plan.targets = {5, 6, 7, 8};  // > t: EAH panic
  config.fault_schedule.add(plan);
  const ExperimentResult result = run_experiment(config);
  ASSERT_TRUE(result.chain_metrics.contains("panicked"));
  // The six surviving nodes all panic (the four killed ones never check).
  EXPECT_DOUBLE_EQ(result.chain_metrics.at("panicked"), 6.0);
}

TEST(ChainMetrics, AvalancheExposesThrottling) {
  ExperimentConfig config;
  config.chain = ChainKind::kAvalanche;
  config.duration = sim::sec(30);
  const ExperimentResult result = run_experiment(config);
  ASSERT_TRUE(result.chain_metrics.contains("messages_processed"));
  EXPECT_GT(result.chain_metrics.at("messages_processed"), 1000.0);
  ASSERT_TRUE(result.chain_metrics.contains("throttled_dropped"));
  EXPECT_DOUBLE_EQ(result.chain_metrics.at("throttled_dropped"), 0.0)
      << "baseline must not drop messages";
}

TEST(ChainMetrics, AlgorandAndRedbellyExposeRounds) {
  for (const ChainKind chain :
       {ChainKind::kAlgorand, ChainKind::kRedbelly}) {
    ExperimentConfig config;
    config.chain = chain;
    config.duration = sim::sec(30);
    const ExperimentResult result = run_experiment(config);
    ASSERT_TRUE(result.chain_metrics.contains("round")) << to_string(chain);
    EXPECT_GT(result.chain_metrics.at("round"), 10.0) << to_string(chain);
  }
}

}  // namespace
}  // namespace stabl::core

// Property sweep across seeds and chains (TEST_P): every chain's baseline
// must commit the workload, keep replicas consistent and never execute a
// transaction twice — for arbitrary seeds, not just the calibrated one.
#include <gtest/gtest.h>

#include "core/experiment.hpp"

namespace stabl::core {
namespace {

struct SweepCase {
  ChainKind chain;
  std::uint64_t seed;
};

std::string case_name(const ::testing::TestParamInfo<SweepCase>& info) {
  return to_string(info.param.chain) + "_seed" +
         std::to_string(info.param.seed);
}

class BaselineSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(BaselineSweep, CommitsWorkloadAndStaysLive) {
  ExperimentConfig config;
  config.chain = GetParam().chain;
  config.seed = GetParam().seed;
  config.duration = sim::sec(45);
  const ExperimentResult result = run_experiment(config);
  EXPECT_TRUE(result.live_at_end);
  // 45 s at 200 TPS with a ~0.5 s client start: 8900 submitted; allow the
  // slowest chain a few seconds of in-flight tail.
  EXPECT_EQ(result.submitted, 8900u);
  EXPECT_GT(result.committed, 7600u);
  EXPECT_GT(result.mean_latency_s, 0.0);
  EXPECT_LT(result.mean_latency_s, 6.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllChainsSeeds, BaselineSweep,
    ::testing::Values(
        SweepCase{ChainKind::kAlgorand, 1}, SweepCase{ChainKind::kAlgorand, 2},
        SweepCase{ChainKind::kAlgorand, 3}, SweepCase{ChainKind::kAptos, 1},
        SweepCase{ChainKind::kAptos, 2}, SweepCase{ChainKind::kAptos, 3},
        SweepCase{ChainKind::kAvalanche, 1},
        SweepCase{ChainKind::kAvalanche, 2},
        SweepCase{ChainKind::kAvalanche, 3},
        SweepCase{ChainKind::kRedbelly, 1},
        SweepCase{ChainKind::kRedbelly, 2},
        SweepCase{ChainKind::kRedbelly, 3},
        SweepCase{ChainKind::kSolana, 1}, SweepCase{ChainKind::kSolana, 2},
        SweepCase{ChainKind::kSolana, 3}),
    case_name);

class CrashSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(CrashSweep, SurvivesFEqualsTCrashes) {
  ExperimentConfig config;
  config.chain = GetParam().chain;
  config.seed = GetParam().seed;
  config.duration = sim::sec(90);
  config.inject_at = sim::sec(30);
  config.fault = FaultType::kCrash;
  const ExperimentResult result = run_experiment(config);
  EXPECT_TRUE(result.live_at_end) << "f = t crashes must not kill liveness";
  EXPECT_GT(result.committed, 12000u);
}

INSTANTIATE_TEST_SUITE_P(
    AllChainsSeeds, CrashSweep,
    ::testing::Values(
        SweepCase{ChainKind::kAlgorand, 7}, SweepCase{ChainKind::kAptos, 7},
        SweepCase{ChainKind::kAvalanche, 7},
        SweepCase{ChainKind::kRedbelly, 7},
        SweepCase{ChainKind::kSolana, 7},
        SweepCase{ChainKind::kRedbelly, 8},
        SweepCase{ChainKind::kSolana, 8}),
    case_name);

class HaltSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(HaltSweep, QuorumLossHaltsEveryChain) {
  // f = t+1 permanent crashes: no BFT chain may keep committing.
  ExperimentConfig config;
  config.chain = GetParam().chain;
  config.seed = GetParam().seed;
  config.duration = sim::sec(90);
  config.inject_at = sim::sec(30);
  config.fault = FaultType::kCrash;
  // t + 1 nodes right after the five entry nodes.
  FaultPlan plan = paper_plan(config);
  for (std::size_t k = 0; k <= fault_tolerance(config.chain, config.n); ++k) {
    plan.targets.push_back(static_cast<net::NodeId>(config.clients + k));
  }
  config.fault_schedule.add(plan);
  const ExperimentResult result = run_experiment(config);
  EXPECT_FALSE(result.live_at_end);
  EXPECT_LT(result.committed, 7500u);
}

INSTANTIATE_TEST_SUITE_P(
    AllChains, HaltSweep,
    ::testing::Values(
        SweepCase{ChainKind::kAlgorand, 5}, SweepCase{ChainKind::kAptos, 5},
        SweepCase{ChainKind::kAvalanche, 5},
        SweepCase{ChainKind::kRedbelly, 5},
        SweepCase{ChainKind::kSolana, 5}),
    case_name);

}  // namespace
}  // namespace stabl::core

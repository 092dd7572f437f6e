// Campaign orchestration tests: matrix coverage, shared runs, output
// formats, the CI gate semantics.
#include "core/campaign.hpp"

#include <gtest/gtest.h>

#include "core/scenario.hpp"
#include "core/serialize.hpp"

namespace stabl::core {
namespace {

CampaignConfig small_campaign() {
  CampaignConfig config;
  config.chains = {ChainKind::kRedbelly};
  config.faults = {FaultType::kNone, FaultType::kCrash};
  config.base.duration = sim::sec(30);
  config.base.inject_at = sim::sec(10);
  config.base.recover_at = sim::sec(20);
  return config;
}

TEST(Campaign, RunsEveryCellAndRecordsRadar) {
  const CampaignResult result = run_campaign(small_campaign());
  EXPECT_EQ(result.runs.size(), 2u);
  ASSERT_NE(result.get(ChainKind::kRedbelly, FaultType::kCrash), nullptr);
  EXPECT_EQ(result.get(ChainKind::kAptos, FaultType::kCrash), nullptr);
  ASSERT_NE(result.radar.get(ChainKind::kRedbelly, FaultType::kCrash),
            nullptr);
}

TEST(Campaign, PaperMatrixRunsThirtyDistinctExperiments) {
  CampaignConfig config;
  apply_run_window(config.base, 30);
  config.jobs = 4;
  const CampaignResult result = run_campaign(config);
  EXPECT_EQ(result.runs.size(), 20u);
  // Each chain's crash, transient and partition cells share one twin.
  EXPECT_EQ(result.experiments, 30u);
}

TEST(Campaign, PinnedSecureClientFanoutMatchesTheSingleRun) {
  ScenarioSpec spec;
  spec.fault = "secure-client";
  spec.fanout = 2;
  spec.duration_s = 30;
  const ExperimentConfig config = resolve_scenario(spec).config;
  ASSERT_EQ(config.client_fanout, 2);
  ASSERT_DOUBLE_EQ(config.vcpus, 4.0);
  CampaignConfig campaign;
  campaign.chains = {config.chain};
  campaign.faults = {config.fault};
  campaign.base = config;
  campaign.jobs = 2;
  const CampaignResult result = run_campaign(campaign);
  const SensitivityRun* cell = result.get(config.chain, config.fault);
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(to_json(config.chain, config.fault, *cell),
            to_json(config.chain, config.fault, run_sensitivity(config)));
}

TEST(Campaign, CsvHasOneRowPerCell) {
  const CampaignResult result = run_campaign(small_campaign());
  const std::string csv = result.to_csv();
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 3);  // header + 2
  EXPECT_NE(csv.find("redbelly,crash,"), std::string::npos);
}

TEST(Campaign, JsonIsAnArrayOfCells) {
  const CampaignResult result = run_campaign(small_campaign());
  const std::string json = result.to_json();
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  EXPECT_NE(json.find("\"chain\":\"redbelly\""), std::string::npos);
  EXPECT_NE(json.find("\"fault\":\"crash\""), std::string::npos);
}

TEST(CampaignGateCheck, PassesWithinBounds) {
  const CampaignResult result = run_campaign(small_campaign());
  CampaignGate gate;
  gate.max_score[FaultType::kCrash] = 1e9;
  gate.max_score[FaultType::kNone] = 1e9;
  EXPECT_TRUE(check_gate(result, gate).empty());
}

TEST(CampaignGateCheck, FlagsExceededScores) {
  const CampaignResult result = run_campaign(small_campaign());
  CampaignGate gate;
  gate.max_score[FaultType::kCrash] = -1.0;  // impossible bound
  const auto violations = check_gate(result, gate);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("redbelly/crash"), std::string::npos);
  EXPECT_NE(violations[0].find("exceeds gate"), std::string::npos);
}

TEST(CampaignGateCheck, FlagsUnexpectedLiveness) {
  // Redbelly survives f=t crashes; a gate that expects it to die flags it.
  const CampaignResult result = run_campaign(small_campaign());
  CampaignGate gate;
  gate.expected_infinite = {{ChainKind::kRedbelly, FaultType::kCrash}};
  const auto violations = check_gate(result, gate);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("expected liveness loss"),
            std::string::npos);
}

TEST(CampaignGateCheck, FlagsUnexpectedDeath) {
  CampaignConfig config = small_campaign();
  config.faults = {FaultType::kCrash};
  FaultPlan beyond_t = paper_plan(config.base);
  beyond_t.targets = {5, 6, 7, 8};  // beyond t: Redbelly halts
  config.base.fault_schedule.add(beyond_t);
  const CampaignResult result = run_campaign(config);
  CampaignGate gate;
  gate.max_score[FaultType::kCrash] = 1e9;
  const auto violations = check_gate(result, gate);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("unexpected liveness loss"),
            std::string::npos);
}

TEST(CampaignGateCheck, CoarseModeIgnoresLivenessLoss) {
  CampaignConfig config = small_campaign();
  config.faults = {FaultType::kCrash};
  FaultPlan beyond_t = paper_plan(config.base);
  beyond_t.targets = {5, 6, 7, 8};  // beyond t: Redbelly halts
  config.base.fault_schedule.add(beyond_t);
  const CampaignResult result = run_campaign(config);
  CampaignGate gate;
  gate.flag_unexpected_liveness_loss = false;
  EXPECT_TRUE(check_gate(result, gate).empty());
}

}  // namespace
}  // namespace stabl::core

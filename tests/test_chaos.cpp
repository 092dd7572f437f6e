// Chaos engine (core/chaos.hpp): schedule generator validity and
// determinism, JSON repro round-trips, the delta-debugging shrinker on a
// synthetic evaluator, and campaign-level byte-determinism across thread
// counts.
#include <gtest/gtest.h>

#include <set>

#include "core/chaos.hpp"
#include "core/fault.hpp"
#include "sim/rng.hpp"

namespace stabl::core {
namespace {

TEST(ChaosGenerator, EverySampledScheduleIsValidAndCanonical) {
  const ChaosGenConfig config;
  sim::Rng rng(123);
  for (int i = 0; i < 200; ++i) {
    const FaultSchedule schedule = generate_schedule(rng, config);
    ASSERT_GE(schedule.plans.size(), config.min_plans);
    ASSERT_LE(schedule.plans.size(), config.max_plans);
    for (const FaultPlan& plan : schedule.plans) {
      EXPECT_EQ(validate(plan, config.n), "");
      // Entry nodes (0..4) carry client traffic and are off-limits by
      // default.
      for (const net::NodeId target : plan.targets) {
        EXPECT_GE(target, config.entry_nodes);
        EXPECT_LT(target, config.n);
      }
      if (uses_recovery_window(plan.type)) {
        EXPECT_GE(sim::to_seconds(plan.inject_at),
                  config.earliest_inject_s);
        EXPECT_LE(sim::to_seconds(plan.recover_at),
                  config.latest_recover_s);
      }
      // canonical() is idempotent on generator output.
      const FaultPlan again = canonical(plan);
      EXPECT_EQ(again.targets, plan.targets);
      EXPECT_EQ(again.recover_at, plan.recover_at);
    }
  }
}

TEST(ChaosGenerator, SameRngStateSameSchedule) {
  const ChaosGenConfig config;
  sim::Rng a(99);
  sim::Rng b(99);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(schedule_to_json(generate_schedule(a, config)),
              schedule_to_json(generate_schedule(b, config)));
  }
}

TEST(ChaosGenerator, DeriveGivesOrderIndependentStreams) {
  const sim::Rng root(42);
  sim::Rng forward_first = root.derive(1);
  // Deriving other streams in between must not disturb stream 1.
  (void)root.derive(7);
  (void)root.derive(3);
  sim::Rng forward_second = root.derive(1);
  EXPECT_EQ(forward_first.next_u64(), forward_second.next_u64());
  // Distinct streams diverge.
  EXPECT_NE(root.derive(1).next_u64(), root.derive(2).next_u64());
}

TEST(ChaosGenerator, EntryTargetsCanBeOptedIn) {
  ChaosGenConfig config;
  config.allow_entry_targets = true;
  config.max_targets = 10;
  sim::Rng rng(5);
  std::set<net::NodeId> seen;
  for (int i = 0; i < 100; ++i) {
    for (const FaultPlan& plan : generate_schedule(rng, config).plans) {
      seen.insert(plan.targets.begin(), plan.targets.end());
    }
  }
  EXPECT_TRUE(seen.contains(0));  // entry nodes become fair game
}

TEST(ChaosJson, RoundTripIsByteStable) {
  const ChaosGenConfig config;
  sim::Rng rng(4242);
  for (int i = 0; i < 100; ++i) {
    const FaultSchedule schedule = generate_schedule(rng, config);
    const std::string json = schedule_to_json(schedule);
    const FaultSchedule parsed = schedule_from_json(json);
    EXPECT_EQ(schedule_to_json(parsed), json);
    ASSERT_EQ(parsed.plans.size(), schedule.plans.size());
    for (std::size_t p = 0; p < parsed.plans.size(); ++p) {
      EXPECT_EQ(parsed.plans[p].type, schedule.plans[p].type);
      EXPECT_EQ(parsed.plans[p].targets, schedule.plans[p].targets);
      EXPECT_EQ(parsed.plans[p].inject_at, schedule.plans[p].inject_at);
      EXPECT_EQ(parsed.plans[p].recover_at, schedule.plans[p].recover_at);
    }
  }
}

TEST(ChaosJson, MalformedDocumentsAreRejected) {
  EXPECT_THROW(schedule_from_json(""), std::invalid_argument);
  EXPECT_THROW(schedule_from_json("{\"plans\":"), std::invalid_argument);
  EXPECT_THROW(schedule_from_json("{\"nope\":[]}"), std::invalid_argument);
  EXPECT_THROW(
      schedule_from_json("{\"plans\":[{\"type\":\"warp\"}]}"),
      std::invalid_argument);
  EXPECT_THROW(
      schedule_from_json("{\"plans\":[{\"frobnicate\":1}]}"),
      std::invalid_argument);
  EXPECT_THROW(schedule_from_json("{\"plans\":[]} trailing"),
               std::invalid_argument);
}

TEST(ChaosJson, EmptyScheduleRoundTrips) {
  EXPECT_EQ(schedule_to_json(schedule_from_json("{\"plans\":[]}")),
            "{\"plans\":[]}");
}

// Synthetic shrinker target: the violation fires iff a partition plan
// targeting node 7 is present with a window of at least 4 s. Everything
// else in the schedule is noise the shrinker must strip.
OracleReport synthetic_evaluate(const FaultSchedule& schedule) {
  OracleReport report;
  OracleFinding finding;
  finding.oracle = "agreement";
  for (const FaultPlan& plan : schedule.plans) {
    const double window = sim::to_seconds(plan.recover_at) -
                          sim::to_seconds(plan.inject_at);
    if (plan.type == FaultType::kPartition && window >= 4.0 &&
        std::count(plan.targets.begin(), plan.targets.end(), 7) > 0) {
      finding.verdict = OracleVerdict::kViolation;
      finding.detail = "synthetic fork";
    }
  }
  report.findings.push_back(finding);
  report.verdict = finding.verdict;
  return report;
}

TEST(ChaosShrinker, StripsNoisePlansTargetsAndTime) {
  FaultSchedule schedule;
  FaultPlan partition;
  partition.type = FaultType::kPartition;
  partition.targets = {5, 6, 7, 8};
  partition.inject_at = sim::sec(40);
  partition.recover_at = sim::sec(104);
  schedule.add(partition);
  FaultPlan gray;
  gray.type = FaultType::kGray;
  gray.targets = {9};
  schedule.add(gray);
  FaultPlan churn;
  churn.type = FaultType::kChurn;
  churn.targets = {5};
  schedule.add(churn);

  const std::optional<ShrinkResult> shrunk =
      shrink_schedule(schedule, synthetic_evaluate);
  ASSERT_TRUE(shrunk.has_value());
  EXPECT_EQ(shrunk->oracle, "agreement");
  EXPECT_EQ(shrunk->initial_plans, 3u);
  ASSERT_EQ(shrunk->schedule.plans.size(), 1u);
  const FaultPlan& minimal = shrunk->schedule.plans.front();
  EXPECT_EQ(minimal.type, FaultType::kPartition);
  EXPECT_EQ(minimal.targets, (std::vector<net::NodeId>{7}));
  // 64 s window halves down to the smallest multiple still >= 4 s.
  const double window = sim::to_seconds(minimal.recover_at) -
                        sim::to_seconds(minimal.inject_at);
  EXPECT_GE(window, 4.0);
  EXPECT_LE(window, 8.0);
  EXPECT_TRUE(synthetic_evaluate(shrunk->schedule).violated());
}

TEST(ChaosShrinker, ReturnsNulloptWhenNothingViolates) {
  FaultSchedule schedule;
  FaultPlan gray;
  gray.type = FaultType::kGray;
  gray.targets = {9};
  schedule.add(gray);
  EXPECT_FALSE(shrink_schedule(schedule, [](const FaultSchedule&) {
                 return OracleReport{};
               }).has_value());
}

TEST(ChaosShrinker, RespectsTheRunBudget) {
  FaultSchedule schedule;
  for (net::NodeId id = 5; id < 9; ++id) {
    FaultPlan plan;
    plan.type = FaultType::kPartition;
    plan.targets = {id, 7};
    schedule.add(plan);
  }
  std::size_t calls = 0;
  ShrinkOptions options;
  options.max_runs = 3;
  const auto counted = [&](const FaultSchedule& candidate) {
    ++calls;
    return synthetic_evaluate(candidate);
  };
  const std::optional<ShrinkResult> shrunk =
      shrink_schedule(schedule, counted, options);
  ASSERT_TRUE(shrunk.has_value());
  EXPECT_LE(calls, options.max_runs);
  EXPECT_EQ(shrunk->runs, calls);
}

// ------------------------------------------------------------- campaigns

ChaosCampaignConfig small_campaign() {
  ChaosCampaignConfig config;
  config.chains = {ChainKind::kRedbelly, ChainKind::kAptos};
  config.trials_per_chain = 2;
  config.seed = 7;
  config.base.duration = sim::sec(60);
  return config;
}

TEST(ChaosCampaign, DeterministicAcrossRepeatRuns) {
  const ChaosCampaignResult first = run_chaos_campaign(small_campaign());
  const ChaosCampaignResult second = run_chaos_campaign(small_campaign());
  EXPECT_EQ(first.to_json(), second.to_json());
  EXPECT_EQ(first.summary_table(), second.summary_table());
}

TEST(ChaosCampaign, ByteIdenticalForAnyJobCount) {
  ChaosCampaignConfig serial = small_campaign();
  serial.jobs = 1;
  ChaosCampaignConfig parallel = small_campaign();
  parallel.jobs = 4;
  EXPECT_EQ(run_chaos_campaign(serial).to_json(),
            run_chaos_campaign(parallel).to_json());
}

TEST(ChaosCampaign, ChainReorderingKeepsSchedules) {
  // Trial schedules key off the chain's identity, not its list position.
  ChaosCampaignConfig forward = small_campaign();
  ChaosCampaignConfig reversed = small_campaign();
  reversed.chains = {ChainKind::kAptos, ChainKind::kRedbelly};
  const ChaosCampaignResult a = run_chaos_campaign(forward);
  const ChaosCampaignResult b = run_chaos_campaign(reversed);
  ASSERT_EQ(a.trials.size(), b.trials.size());
  for (const ChaosTrial& trial : a.trials) {
    bool matched = false;
    for (const ChaosTrial& other : b.trials) {
      if (other.chain == trial.chain && other.trial == trial.trial) {
        EXPECT_EQ(schedule_to_json(other.schedule),
                  schedule_to_json(trial.schedule));
        EXPECT_EQ(other.experiment_seed, trial.experiment_seed);
        matched = true;
      }
    }
    EXPECT_TRUE(matched);
  }
}

TEST(ChaosCampaign, TrialConfigCarriesTheScheduleOnly) {
  const ChaosCampaignConfig config = small_campaign();
  FaultSchedule schedule;
  FaultPlan plan;
  plan.type = FaultType::kLoss;
  plan.targets = {6};
  schedule.add(plan);
  const ExperimentConfig cell =
      chaos_trial_config(config, ChainKind::kSolana, 99, schedule);
  EXPECT_EQ(cell.chain, ChainKind::kSolana);
  EXPECT_EQ(cell.fault, FaultType::kNone);
  EXPECT_EQ(cell.seed, 99u);
  EXPECT_TRUE(cell.capture_replicas);
  ASSERT_EQ(cell.fault_schedule.plans.size(), 1u);
  EXPECT_EQ(cell.fault_schedule.plans.front().type, FaultType::kLoss);
}

}  // namespace
}  // namespace stabl::core

// Declarative scenarios (core/scenario.hpp): strict parsing, byte-stable
// round-trips, and the property the layer exists for — a dumped spec,
// re-parsed and resolved, reproduces the flag-configured run's report
// byte for byte.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/experiment.hpp"
#include "core/scenario.hpp"
#include "core/serialize.hpp"

namespace stabl {
namespace {

std::string error_of(const std::string& json) {
  try {
    (void)core::scenario_from_json(json);
    return "";
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
}

// ------------------------------------------------------------ round trip

TEST(Scenario, DefaultSpecRoundTripsByteStably) {
  const core::ScenarioSpec spec;
  const std::string json = core::scenario_to_json(spec);
  EXPECT_EQ(core::scenario_from_json(json), spec);
  EXPECT_EQ(core::scenario_to_json(core::scenario_from_json(json)), json);
  // "n" at its default is left out, like an unset "traffic".
  EXPECT_EQ(json.find("\"n\""), std::string::npos) << json;
}

TEST(Scenario, EmptyObjectIsTheDefaultRedbellyBaseline) {
  const core::ScenarioSpec spec = core::scenario_from_json("{}");
  EXPECT_EQ(spec, core::ScenarioSpec{});
  EXPECT_EQ(spec.chain, "redbelly");
  EXPECT_EQ(spec.duration_s, 400);
}

TEST(Scenario, MissingKeysKeepTheirDefaults) {
  const core::ScenarioSpec spec = core::scenario_from_json(
      R"({"chain": "solana", "fault": "transient", "duration_s": 120})");
  EXPECT_EQ(spec.chain, "solana");
  EXPECT_EQ(spec.fault, "transient");
  EXPECT_EQ(spec.duration_s, 120);
  EXPECT_EQ(spec.seed, 42u);
  EXPECT_EQ(spec.workload, "constant");
  EXPECT_FALSE(spec.resilient);
  EXPECT_EQ(spec.n, 10);
  EXPECT_EQ(core::scenario_from_json(R"({"n": 10})"), core::ScenarioSpec{});
}

TEST(Scenario, NonDefaultSpecRoundTripsByteStably) {
  core::ScenarioSpec spec;
  spec.name = "fig6 avalanche partition, tuned";
  spec.chain = "avalanche";
  spec.chain_params = {{"cpu_target", 0.8}, {"throttling", 0.0}};
  spec.n = 16;
  spec.fault = "partition";
  spec.fault_targets = {0, 1, 2};
  spec.extra_faults = {"loss", "gray"};
  spec.loss_probability = 0.3;
  spec.duration_s = 90;
  spec.num_seeds = 3;
  spec.workload = "bursty";
  spec.resilient = true;
  spec.trace = "out.trace.json";
  const std::string json = core::scenario_to_json(spec);
  EXPECT_NE(json.find("\n  \"n\": 16,\n"), std::string::npos) << json;
  EXPECT_EQ(core::scenario_from_json(json), spec);
  EXPECT_EQ(core::scenario_to_json(core::scenario_from_json(json)), json);
}

TEST(Scenario, CheckedInSpecsRoundTripAndStateNOnlyOffItsDefault) {
  // Every spec under examples/scenarios, suites included: the dump
  // re-parses to the same bytes, and carries "n" exactly when the spec
  // moves it off 10, so the specs that predate the field dump unchanged.
  std::size_t specs = 0;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(
           STABL_SCENARIO_DIR)) {
    if (entry.path().extension() != ".json") continue;
    std::ifstream file(entry.path());
    std::ostringstream text;
    text << file.rdbuf();
    const core::ScenarioSpec spec = core::scenario_from_json(text.str());
    const std::string dump = core::scenario_to_json(spec);
    EXPECT_EQ(core::scenario_to_json(core::scenario_from_json(dump)), dump)
        << entry.path();
    EXPECT_EQ(dump.find("\"n\":") != std::string::npos, spec.n != 10)
        << entry.path();
    ++specs;
  }
  EXPECT_GE(specs, 16u);
}

TEST(Scenario, SpecThatChangesNoPlanLeavesTheScheduleEmpty) {
  core::ScenarioSpec spec;
  spec.fault = "crash";
  EXPECT_TRUE(core::resolve_scenario(spec).config.fault_schedule.empty());
  spec.fault_targets = {6, 7};
  EXPECT_EQ(core::resolve_scenario(spec).config.fault_schedule.plans.size(),
            1u);
  spec.fault_targets.clear();
  spec.loss_probability = 0.3;
  EXPECT_EQ(core::resolve_scenario(spec).config.fault_schedule.plans.size(),
            1u);

  // So every checked-in fault-free spec is its own fault-free twin and
  // runs once.
  std::size_t fault_free = 0;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(
           STABL_SCENARIO_DIR)) {
    if (entry.path().extension() != ".json") continue;
    std::ifstream file(entry.path());
    std::ostringstream text;
    text << file.rdbuf();
    const core::ExperimentConfig config =
        core::resolve_scenario(core::scenario_from_json(text.str())).config;
    if (config.fault != core::FaultType::kNone) continue;
    EXPECT_EQ(core::plan_pairs({config}).runs.size(), 1u) << entry.path();
    ++fault_free;
  }
  EXPECT_EQ(fault_free, 7u);
}

// -------------------------------------------------------------- rejection

TEST(Scenario, UnknownKeysAreRejected) {
  const std::string what = error_of(R"({"chian": "redbelly"})");
  EXPECT_NE(what.find("unknown key \"chian\""), std::string::npos) << what;
}

TEST(Scenario, DuplicateKeysAreRejected) {
  const std::string what =
      error_of(R"({"seed": 1, "seed": 2})");
  EXPECT_NE(what.find("duplicate key \"seed\""), std::string::npos) << what;
}

TEST(Scenario, TrailingGarbageIsRejected) {
  EXPECT_THROW((void)core::scenario_from_json("{} trailing"),
               std::invalid_argument);
}

TEST(Scenario, NonIntegralIntegersAreRejected) {
  const std::string what = error_of(R"({"duration_s": 60.5})");
  EXPECT_NE(what.find("\"duration_s\" must be an integer"),
            std::string::npos)
      << what;
  EXPECT_NE(error_of(R"({"n": 6.5})").find("\"n\" must be an integer"),
            std::string::npos);
}

TEST(Scenario, OutOfRangeValuesAreRejected) {
  EXPECT_NE(error_of(R"({"duration_s": 10})")
                .find("\"duration_s\" must be >= 30"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"num_seeds": 0})").find("must be >= 1"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"loss_probability": 1.5})").find("(0, 1]"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"seed": -3})").find("\"seed\" must be >= 0"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"workload": "spiky"})")
                .find("constant, bursty, ramp, diurnal or flash"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"shrink": true})")
                .find("\"shrink\" needs \"chaos_trials\" > 0"),
            std::string::npos);
  // The fault engine rejects zero delays, so the front door does too.
  EXPECT_NE(error_of(R"({"gray_delay_s": 0})")
                .find("\"gray_delay_s\" must be > 0"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"eclipse_delay_s": 0})")
                .find("\"eclipse_delay_s\" must be > 0"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"n": 3})").find("\"n\" must be >= 4 and <= 1000"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"n": 1001})").find("\"n\" must be >= 4 and <= 1000"),
            std::string::npos);
  EXPECT_EQ(error_of(R"({"n": 4})"), "");
  EXPECT_EQ(error_of(R"({"n": 1000})"), "");
}

// --------------------------------------------------------------- resolve

TEST(Scenario, ResolvePerformsTheHistoricalFlagPostprocessing) {
  core::ScenarioSpec spec;
  spec.fault = "partition";
  const core::ResolvedScenario resolved = core::resolve_scenario(spec);
  // 400 s keeps the paper's 133 s / 266 s fault window.
  EXPECT_EQ(resolved.config.duration, sim::sec(400));
  EXPECT_EQ(resolved.config.inject_at, sim::sec(133));
  EXPECT_EQ(resolved.config.recover_at, sim::sec(266));
  EXPECT_EQ(resolved.config.chain, core::ChainKind::kRedbelly);
  EXPECT_EQ(resolved.config.fault, core::FaultType::kPartition);

  // The §7 secure-client geometry: fanout 4, 8-vCPU VMs — unless the
  // scenario pinned a fanout itself.
  spec.fault = "secure-client";
  EXPECT_EQ(core::resolve_scenario(spec).config.client_fanout, 4);
  EXPECT_DOUBLE_EQ(core::resolve_scenario(spec).config.vcpus, 8.0);
  spec.fanout = 2;
  EXPECT_EQ(core::resolve_scenario(spec).config.client_fanout, 2);

  // The schedule is the primary plan, then the extra plans, all on the
  // primary window and carrying the knob values.
  spec = core::ScenarioSpec{};
  spec.fault = "partition";
  spec.extra_faults = {"loss"};
  spec.loss_probability = 0.3;
  const core::ResolvedScenario composed = core::resolve_scenario(spec);
  const std::vector<core::FaultPlan>& plans =
      composed.config.fault_schedule.plans;
  ASSERT_EQ(plans.size(), 2u);
  EXPECT_EQ(plans[0].type, core::FaultType::kPartition);
  EXPECT_EQ(plans[1].type, core::FaultType::kLoss);
  for (const core::FaultPlan& plan : plans) {
    EXPECT_EQ(plan.inject_at, sim::sec(133));
    EXPECT_EQ(plan.recover_at, sim::sec(266));
    EXPECT_DOUBLE_EQ(plan.loss_probability, 0.3);
  }
}

TEST(Scenario, ComposedPlansFollowTheBurstFaultPhase) {
  // exchange_burst re-anchors the fault into the flash crowd; a composed
  // plan must land in the same window as the primary, not at the thirds.
  core::ScenarioSpec spec;
  spec.fault = "partition";
  spec.extra_faults = {"loss"};
  spec.has_traffic = true;
  spec.traffic.preset = "exchange_burst";
  const core::ExperimentConfig config = core::resolve_scenario(spec).config;
  EXPECT_NE(config.inject_at, sim::sec(133));
  ASSERT_EQ(config.fault_schedule.plans.size(), 2u);
  const core::FaultSchedule armed = core::resolved_schedule(config);
  ASSERT_EQ(armed.plans.size(), 2u);
  for (const core::FaultPlan& plan : armed.plans) {
    EXPECT_EQ(plan.inject_at, config.inject_at) << core::to_string(plan.type);
    EXPECT_EQ(plan.recover_at, config.recover_at)
        << core::to_string(plan.type);
  }
}

TEST(Scenario, ResolveRejectsPlansTheFaultEngineWouldReject) {
  const auto resolve_error = [](const core::ScenarioSpec& spec) {
    try {
      (void)core::resolve_scenario(spec);
      return std::string();
    } catch (const std::invalid_argument& error) {
      return std::string(error.what());
    }
  };
  // Aptos faults t+1 = 4 eclipse attackers, nodes 5-8: victim 8 would be
  // one of them.
  core::ScenarioSpec spec;
  spec.chain = "aptos";
  spec.fault = "eclipse";
  spec.eclipse_victim = 8;
  EXPECT_NE(resolve_error(spec).find("victim node 8"), std::string::npos)
      << resolve_error(spec);

  spec = core::ScenarioSpec{};
  spec.fault = "crash";
  spec.fault_targets = {12};
  EXPECT_NE(resolve_error(spec).find("targets node 12"), std::string::npos)
      << resolve_error(spec);

  // Five clients on the first min(clients, n) = 5 nodes: a sixth endpoint
  // would repeat one, and the wait-for-all client would never complete.
  spec = core::ScenarioSpec{};
  spec.fault = "secure-client";
  spec.fanout = 6;
  EXPECT_NE(resolve_error(spec).find("\"fanout\" 6 exceeds the 5 entry"),
            std::string::npos)
      << resolve_error(spec);
  spec.fanout = 5;
  EXPECT_EQ(resolve_error(spec), "");
  // No answer set of 2 endpoints can hold 3 matching results.
  spec.fanout = 2;
  spec.matching = 3;
  EXPECT_NE(resolve_error(spec).find("\"matching\" 3 exceeds the resolved "
                                     "\"fanout\" 2"),
            std::string::npos)
      << resolve_error(spec);
  // The bound is the resolved fanout: secure-client's default is 4.
  spec.fanout = 1;
  spec.matching = 4;
  EXPECT_EQ(resolve_error(spec), "");
  spec.matching = 5;
  EXPECT_NE(resolve_error(spec).find("exceeds the resolved \"fanout\" 4"),
            std::string::npos)
      << resolve_error(spec);
}

TEST(Scenario, NodeCountMovesTheDefaultTargetsPastTheEntryNodes) {
  // Redbelly at n = 16 tolerates t = 5 crashes, placed right after the
  // five entry nodes.
  core::ScenarioSpec spec;
  spec.fault = "crash";
  spec.n = 16;
  const core::ExperimentConfig config = core::resolve_scenario(spec).config;
  EXPECT_EQ(config.n, 16u);
  const core::FaultSchedule armed = core::resolved_schedule(config);
  ASSERT_EQ(armed.plans.size(), 1u);
  EXPECT_EQ(armed.plans.front().targets,
            (std::vector<net::NodeId>{5, 6, 7, 8, 9}));
}

TEST(Scenario, ResolveRejectsUnknownNamesAndParameters) {
  core::ScenarioSpec spec;
  spec.chain = "cardano";
  try {
    (void)core::resolve_scenario(spec);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("cardano"), std::string::npos);
  }
  spec.chain = "avalanche";
  spec.chain_params = {{"beta", 8.0}};  // real knob, but not a registered one
  EXPECT_THROW((void)core::resolve_scenario(spec), std::invalid_argument);
  spec.chain_params.clear();
  spec.fault = "meteor";
  EXPECT_THROW((void)core::resolve_scenario(spec), std::invalid_argument);
}

// ------------------------------------------------- report byte identity

TEST(Scenario, DumpedSpecReproducesTheFlagRunReportBytes) {
  // The flag path: what stabl_cli historically built from
  // `--chain redbelly --fault crash --duration 60`.
  core::ExperimentConfig flag_config;
  flag_config.chain = core::ChainKind::kRedbelly;
  flag_config.fault = core::FaultType::kCrash;
  flag_config.duration = sim::sec(60);
  flag_config.inject_at = sim::sec(20);
  flag_config.recover_at = sim::sec(40);
  const core::SensitivityRun flag_run = core::run_sensitivity(flag_config);

  // The scenario path: the equivalent spec, dumped, re-parsed, resolved.
  core::ScenarioSpec spec;
  spec.fault = "crash";
  spec.duration_s = 60;
  const core::ScenarioSpec reloaded =
      core::scenario_from_json(core::scenario_to_json(spec));
  const core::SensitivityRun scenario_run =
      core::run_sensitivity(core::resolve_scenario(reloaded).config);

  EXPECT_EQ(
      core::to_json(core::ChainKind::kRedbelly, core::FaultType::kCrash,
                    flag_run),
      core::to_json(core::ChainKind::kRedbelly, core::FaultType::kCrash,
                    scenario_run));
}

}  // namespace
}  // namespace stabl

// The nversion meta-chain plugin (chains/nversion): registry derivation
// with inherited parameters, the health monitor's missed-heartbeat and
// stalled-commit detectors, end-to-end crash masking through the full
// experiment runner, the standby-budget limit, and the paired mitigation
// campaign — including byte-identical output across --jobs settings.
#include "chains/nversion/nversion.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "chain_test_util.hpp"
#include "core/campaign.hpp"
#include "core/experiment.hpp"

namespace stabl {
namespace {

using testing::Harness;

const chain::ChainTraits& traits_of(const std::string& name) {
  nversion::ensure_registered();
  return core::chain_traits(core::parse_chain_name(name));
}

// ----------------------------------------------------------- registration

TEST(NVersion, FiveDerivedChainsRegisterAsMetaChains) {
  for (const std::string base :
       {"algorand", "aptos", "avalanche", "redbelly", "solana"}) {
    const chain::ChainTraits& derived = traits_of("nversion_" + base);
    const chain::ChainTraits& original = traits_of(base);
    EXPECT_EQ(derived.meta_of, base);
    EXPECT_EQ(derived.tier, 1);
    ASSERT_TRUE(derived.make_services != nullptr);
    // The derived parameter map is a strict superset of the base chain's
    // (so scenario overrides written for the base chain keep working) plus
    // the monitor knobs.
    for (const auto& [key, value] : original.default_params) {
      ASSERT_TRUE(derived.default_params.count(key) == 1)
          << base << " key " << key;
      EXPECT_DOUBLE_EQ(derived.default_params.at(key), value);
    }
    EXPECT_DOUBLE_EQ(derived.default_params.at("nversion_versions"), 3.0);
    EXPECT_DOUBLE_EQ(derived.default_params.at("nversion_check_ms"), 500.0);
    // Same tolerance formula as the base chain.
    EXPECT_EQ(derived.fault_tolerance(10), original.fault_tolerance(10));
  }
}

TEST(NVersion, MonitorConfigDecodesParams) {
  const chain::ChainTraits& derived = traits_of("nversion_redbelly");
  chain::ChainParams params = derived.default_params;
  params["nversion_versions"] = 5.0;
  params["nversion_check_ms"] = 250.0;
  params["nversion_missed_heartbeats"] = 2.0;
  params["nversion_stall_s"] = 12.0;
  params["nversion_failover_boot_ms"] = 100.0;
  const nversion::MonitorConfig config =
      nversion::monitor_config_from_params(params);
  EXPECT_EQ(config.versions, 5u);
  EXPECT_EQ(config.check_period, sim::ms(250));
  EXPECT_EQ(config.missed_heartbeats, 2u);
  EXPECT_EQ(config.stall_after, sim::sec(12));
  EXPECT_EQ(config.failover_boot, sim::ms(100));
}

// ------------------------------------------------------- monitor, direct

TEST(NVersion, KilledPrimaryFailsOverWithinHealthCheckWindow) {
  const chain::ChainTraits& traits = traits_of("nversion_redbelly");
  Harness harness;
  chain::NodeConfig node_config;
  node_config.n = 4;
  node_config.network_seed = 77;
  const chain::ChainParams params = traits.default_params;
  harness.nodes = traits.make_cluster(harness.simulation, harness.network,
                                      node_config, params);
  harness.add_clients(2, 20.0, sim::sec(30));

  std::vector<chain::BlockchainNode*> node_ptrs;
  for (const auto& node : harness.nodes) node_ptrs.push_back(node.get());
  auto services = traits.make_services(
      harness.simulation, node_ptrs,
      static_cast<sim::ProcessId>(harness.nodes.size() +
                                  harness.clients.size()),
      params);
  ASSERT_EQ(services.size(), 1u);
  auto* monitor = dynamic_cast<nversion::NVersionMonitor*>(services[0].get());
  ASSERT_NE(monitor, nullptr);

  harness.start_all();
  for (auto& service : services) service->start();

  harness.simulation.run_until(sim::sec(10));
  harness.nodes[3]->kill();
  ASSERT_FALSE(harness.nodes[3]->alive());

  // Detection needs 4 consecutive missed 500 ms heartbeats (last one at
  // t = 12) plus the 250 ms warm-standby boot: recovered well before 13 s.
  harness.simulation.run_until(sim::sec(13));
  EXPECT_TRUE(harness.nodes[3]->alive());
  EXPECT_GE(harness.nodes[3]->restarts(), 1);
  EXPECT_EQ(monitor->failovers(), 1u);
  EXPECT_EQ(monitor->stall_failovers(), 0u);
  EXPECT_EQ(monitor->exhausted(), 0u);

  // The failed-over version rejoins consensus: commits keep flowing.
  harness.simulation.run_until(sim::sec(30));
  EXPECT_GT(harness.nodes[3]->ledger().height(), 0u);
}

// ------------------------------------------------- end-to-end experiments

core::ExperimentConfig nversion_crash_config() {
  core::ExperimentConfig config;
  config.chain = core::parse_chain_name("nversion_redbelly");
  config.fault = core::FaultType::kCrash;
  config.duration = sim::sec(120);
  config.inject_at = sim::sec(40);
  config.recover_at = sim::sec(80);
  return config;
}

TEST(NVersion, CrashFaultIsMaskedEndToEnd) {
  core::ExperimentConfig config = nversion_crash_config();
  config.capture_replicas = true;
  const core::ExperimentResult result = core::run_experiment(config);
  EXPECT_TRUE(result.live_at_end);
  // Every crashed version was failed over (redbelly crash default: t = 3
  // targets) and the logical nodes ended the run restored.
  ASSERT_TRUE(result.chain_metrics.count("nversion_failovers") == 1);
  EXPECT_GE(result.chain_metrics.at("nversion_failovers"), 3.0);
  for (const core::ReplicaSnapshot& replica : result.replicas) {
    EXPECT_TRUE(replica.alive_at_end) << "node " << replica.id;
  }
}

TEST(NVersion, ExhaustedStandbyBudgetLeavesNodeDown) {
  core::ExperimentConfig config = nversion_crash_config();
  config.capture_replicas = true;
  config.chain_params = {{"nversion_versions", 1.0}};  // no standbys
  const core::ExperimentResult result = core::run_experiment(config);
  // Nothing to fail over to: the monitor notes exhaustion, the crashed
  // nodes stay down, and the failover counter is elided (zero).
  EXPECT_EQ(result.chain_metrics.count("nversion_failovers"), 0u);
  ASSERT_TRUE(result.chain_metrics.count("nversion_exhausted") == 1);
  EXPECT_GE(result.chain_metrics.at("nversion_exhausted"), 3.0);
  std::size_t down = 0;
  for (const core::ReplicaSnapshot& replica : result.replicas) {
    if (!replica.alive_at_end) ++down;
  }
  EXPECT_EQ(down, 3u);
}

TEST(NVersion, StallDetectorCatchesPartitionedVersions) {
  core::ExperimentConfig config;
  config.chain = core::parse_chain_name("nversion_redbelly");
  // Partition 2 nodes (below the default t+1 = 4, so the majority side
  // keeps quorum and advances the frontier the stranded versions trail).
  config.fault = core::FaultType::kPartition;
  config.duration = sim::sec(160);
  config.inject_at = sim::sec(40);
  config.recover_at = sim::sec(120);
  core::FaultPlan plan = core::paper_plan(config);
  plan.targets = {5, 6};
  config.fault_schedule.add(plan);
  const core::ExperimentResult result = core::run_experiment(config);
  EXPECT_TRUE(result.live_at_end);
  ASSERT_TRUE(result.chain_metrics.count("nversion_stall_failovers") == 1);
  EXPECT_GE(result.chain_metrics.at("nversion_stall_failovers"), 1.0);
}

TEST(NVersion, BaselineMatchesTheWrappedChain) {
  // Without faults the monitor only watches: the meta-chain's report is
  // the base chain's report (same commits, same latencies).
  core::ExperimentConfig config;
  config.fault = core::FaultType::kNone;
  config.duration = sim::sec(60);
  config.chain = core::ChainKind::kRedbelly;
  const core::ExperimentResult base = core::run_experiment(config);
  config.chain = core::parse_chain_name("nversion_redbelly");
  const core::ExperimentResult wrapped = core::run_experiment(config);
  EXPECT_EQ(base.committed, wrapped.committed);
  EXPECT_EQ(base.blocks, wrapped.blocks);
  EXPECT_EQ(base.latencies, wrapped.latencies);
}

// ------------------------------------------------- mitigation campaign

TEST(NVersion, MitigationPairMasksCrashSensitivity) {
  core::MitigationConfig config;
  config.chains = {core::ChainKind::kRedbelly};
  config.faults = {core::FaultType::kCrash};
  config.base.duration = sim::sec(120);
  config.base.inject_at = sim::sec(40);
  config.base.recover_at = sim::sec(80);
  const core::MitigationResult result =
      core::run_mitigation_campaign(config);
  ASSERT_EQ(result.pairs.size(), 1u);
  const core::MitigationPair& pair = result.pairs[0];
  EXPECT_EQ(pair.mitigated_chain, "nversion_redbelly");
  EXPECT_TRUE(pair.improved());
  EXPECT_GT(pair.delta(), 0.0);
  EXPECT_GE(pair.mitigated.altered.chain_metrics.at("nversion_failovers"),
            1.0);
  // The hedging layer was live too.
  EXPECT_GT(pair.mitigated.altered.resilience.hedges_armed, 0u);
  EXPECT_EQ(result.improvements(), 1u);
  EXPECT_EQ(result.regressions(), 0u);
}

TEST(NVersion, PairedCampaignByteIdenticalAcrossJobs) {
  core::MitigationConfig config;
  config.chains = {core::ChainKind::kRedbelly, core::ChainKind::kAptos};
  config.faults = {core::FaultType::kCrash};
  config.base.duration = sim::sec(60);
  config.base.inject_at = sim::sec(20);
  config.base.recover_at = sim::sec(40);
  config.chaos_pairs = 1;

  config.jobs = 1;
  const core::MitigationResult serial = core::run_mitigation_campaign(config);
  config.jobs = 4;
  const core::MitigationResult parallel =
      core::run_mitigation_campaign(config);
  ASSERT_EQ(serial.pairs.size(), 4u);  // 2 matrix + 2 chaos pairs
  EXPECT_EQ(serial.delta_csv(), parallel.delta_csv());
  EXPECT_EQ(serial.to_json(), parallel.to_json());
}

}  // namespace
}  // namespace stabl

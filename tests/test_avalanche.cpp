// Avalanche model tests: Snowball progress, throttler behaviour, the
// metastable collapse under quorum-exceeding transient failures, and the
// throttling ablation that restores recovery.
#include "chains/avalanche/avalanche.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "chain_test_util.hpp"
#include "core/chaos.hpp"
#include "core/experiment.hpp"
#include "core/oracle.hpp"

namespace stabl::avalanche {
namespace {

using testing::Harness;

void build(Harness& harness, std::size_t n = 10,
           AvalancheConfig config = {}) {
  chain::NodeConfig node_config;
  node_config.n = n;
  node_config.network_seed = 53;
  harness.nodes =
      make_cluster(harness.simulation, harness.network, node_config, config);
}

const AvalancheNode& node_at(const Harness& harness, std::size_t index) {
  return static_cast<const AvalancheNode&>(*harness.nodes[index]);
}

TEST(Avalanche, BaselineCommitsWorkload) {
  Harness harness;
  build(harness);
  harness.add_clients(5, 40.0, sim::sec(40));
  harness.start_all();
  harness.simulation.run_until(sim::sec(50));
  EXPECT_GT(harness.total_client_committed(), 6800u);
  testing::expect_prefix_consistent(harness);
  testing::expect_no_double_execution(harness);
}

TEST(Avalanche, BlockCadenceNearInterval) {
  Harness harness;
  build(harness);
  harness.add_clients(5, 40.0, sim::sec(40));
  harness.start_all();
  harness.simulation.run_until(sim::sec(40));
  const auto blocks = harness.nodes[0]->ledger().height();
  // ~2s block interval plus consensus: between 10 and 20 blocks in 40s.
  EXPECT_GE(blocks, 10u);
  EXPECT_LE(blocks, 22u);
}

TEST(Avalanche, BaselineThrottlerStaysQuiet) {
  Harness harness;
  build(harness);
  harness.add_clients(5, 40.0, sim::sec(30));
  harness.start_all();
  harness.simulation.run_until(sim::sec(30));
  for (std::size_t i = 0; i < harness.nodes.size(); ++i) {
    EXPECT_EQ(node_at(harness, i).throttler().dropped(), 0u)
        << "node " << i << " dropped messages in a healthy baseline";
    EXPECT_LT(node_at(harness, i).throttler().queued(), 64u);
  }
}

TEST(Avalanche, SurvivesSingleCrash) {
  Harness harness;
  build(harness);
  harness.add_clients(5, 40.0, sim::sec(60));
  harness.start_all();
  harness.simulation.run_until(sim::sec(20));
  harness.nodes[9]->kill();  // f = t = 1
  harness.simulation.run_until(sim::sec(70));
  // Slower and less stable, but alive.
  EXPECT_GT(harness.total_client_committed(), 9000u);
}

TEST(Avalanche, TransientBeyondThresholdNeverRecovers) {
  Harness harness;
  build(harness);
  harness.add_clients(5, 40.0, sim::sec(180));
  harness.start_all();
  harness.simulation.run_until(sim::sec(30));
  harness.nodes[8]->kill();
  harness.nodes[9]->kill();  // f = t+1 = 2
  harness.simulation.run_until(sim::sec(90));
  harness.nodes[8]->start();
  harness.nodes[9]->start();
  harness.simulation.run_until(sim::sec(180));
  // The throttling-induced overload is self-sustaining: essentially no
  // progress even 90s after both nodes returned.
  const auto height_mid = harness.nodes[0]->ledger().tx_count();
  EXPECT_LT(height_mid, 9000u) << "collapse should persist after restart";
  bool throttled = false;
  for (std::size_t i = 0; i < harness.nodes.size(); ++i) {
    if (node_at(harness, i).throttler().dropped() > 0 ||
        node_at(harness, i).throttler().queued() > 256) {
      throttled = true;
    }
  }
  EXPECT_TRUE(throttled) << "the collapse is throttling-induced";
}

TEST(Avalanche, AblationDisablingThrottlerRestoresRecovery) {
  AvalancheConfig config;
  config.throttler.enabled = false;
  Harness harness;
  build(harness, 10, config);
  harness.add_clients(5, 40.0, sim::sec(180));
  harness.start_all();
  harness.simulation.run_until(sim::sec(30));
  harness.nodes[8]->kill();
  harness.nodes[9]->kill();
  harness.simulation.run_until(sim::sec(90));
  harness.nodes[8]->start();
  harness.nodes[9]->start();
  harness.simulation.run_until(sim::sec(180));
  // Without the InboundMsgThrottler consensus resumes after restart and
  // the backlog drains (the paper's diagnosis, inverted). The drain is
  // bounded by gossip's unordered nonce delivery, so it is slower than the
  // nominal capacity but must clearly exceed the collapsed case (<9000).
  EXPECT_GT(harness.nodes[0]->ledger().tx_count(), 14000u);
}

TEST(Avalanche, SecureClientImprovesLatency) {
  auto mean_latency = [](int fanout) {
    Harness harness;
    build(harness);
    harness.add_clients(5, 40.0, sim::sec(60), fanout);
    harness.start_all();
    harness.simulation.run_until(sim::sec(60));
    double sum = 0.0;
    std::size_t count = 0;
    for (const auto& client : harness.clients) {
      for (const double latency : client->latencies()) {
        sum += latency;
        ++count;
      }
    }
    return sum / static_cast<double>(count);
  };
  // Redundant submission seeds four pools at once, compensating the
  // unordered gossip (paper §7: Avalanche benefits — the striped bar).
  EXPECT_LT(mean_latency(4), mean_latency(1));
}

TEST(Avalanche, ClusterSmallerThanThePollSampleIsRejected) {
  // A Snowball poll samples sample_k = 6 peers besides the poller, so
  // n = 1..6 must be refused up front rather than sample out of range.
  for (std::size_t n = 1; n <= 6; ++n) {
    Harness harness;
    try {
      build(harness, n);
      ADD_FAILURE() << "n = " << n << " was accepted";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("avalanche needs n >= 7"),
                std::string::npos)
          << error.what();
    }
  }
  // The experiment runner reaches the same factory through the registry.
  core::ExperimentConfig config;
  config.chain = core::ChainKind::kAvalanche;
  config.n = 6;
  config.duration = sim::sec(30);
  EXPECT_THROW((void)core::run_experiment(config), std::invalid_argument);
  config.n = 7;
  EXPECT_GT(core::run_experiment(config).committed, 0u);
}

TEST(AnchorLogTest, FirstDecisionWins) {
  AnchorLog log;
  EXPECT_EQ(log.decide(3, 111u), 111u);
  EXPECT_EQ(log.decide(3, 222u), 111u);
  ASSERT_NE(log.get(3), nullptr);
  EXPECT_EQ(*log.get(3), 111u);
  EXPECT_EQ(log.get(4), nullptr);
}

TEST(ThrottlerUnit, PassesThroughUnderQuota) {
  sim::Simulation simulation(1);
  class Host final : public sim::Process {
   public:
    using Process::Process;
  } host(simulation, 0);
  host.start();
  int handled = 0;
  ThrottlerConfig config;
  config.cpu_target = 0.5;
  InboundThrottler throttler(
      host, config, [](const net::Envelope&) { return sim::ms(1); },
      [&](const net::Envelope&) { ++handled; });
  throttler.start();
  net::Envelope envelope;
  for (int i = 0; i < 10; ++i) throttler.enqueue(envelope);
  EXPECT_EQ(handled, 10);
  EXPECT_EQ(throttler.queued(), 0u);
}

TEST(ThrottlerUnit, DefersAboveQuotaAndDrainsLater) {
  sim::Simulation simulation(1);
  class Host final : public sim::Process {
   public:
    using Process::Process;
  } host(simulation, 0);
  host.start();
  int handled = 0;
  ThrottlerConfig config;
  config.cpu_target = 0.5;
  InboundThrottler throttler(
      host, config, [](const net::Envelope&) { return sim::ms(200); },
      [&](const net::Envelope&) { ++handled; });
  throttler.start();
  net::Envelope envelope;
  for (int i = 0; i < 20; ++i) throttler.enqueue(envelope);
  EXPECT_LT(handled, 20) << "quota exceeded: messages must queue";
  EXPECT_GT(throttler.queued(), 0u);
  simulation.run_until(sim::sec(30));
  EXPECT_EQ(handled, 20) << "decay eventually drains the queue";
}

TEST(ThrottlerUnit, BufferThrottlerDropsBeyondCapacity) {
  sim::Simulation simulation(1);
  class Host final : public sim::Process {
   public:
    using Process::Process;
  } host(simulation, 0);
  host.start();
  ThrottlerConfig config;
  config.cpu_target = 0.01;
  config.max_unprocessed = 8;
  int handled = 0;
  InboundThrottler throttler(
      host, config, [](const net::Envelope&) { return sim::sec(1); },
      [&](const net::Envelope&) { ++handled; });
  throttler.start();
  net::Envelope envelope;
  for (int i = 0; i < 100; ++i) throttler.enqueue(envelope);
  EXPECT_GT(throttler.dropped(), 80u);
  EXPECT_LE(throttler.queued(), 8u);
}

TEST(ThrottlerUnit, BandwidthQuotaDefersLargeMessages) {
  sim::Simulation simulation(1);
  class Host final : public sim::Process {
   public:
    using Process::Process;
  } host(simulation, 0);
  host.start();
  ThrottlerConfig config;
  config.cpu_target = 100.0;           // CPU never binds here
  config.bandwidth_target_bps = 1e6;   // 1 MB/s
  int handled = 0;
  InboundThrottler throttler(
      host, config, [](const net::Envelope&) { return sim::us(1); },
      [&](const net::Envelope&) { ++handled; });
  throttler.start();
  net::Envelope big;
  big.bytes = 1'000'000;  // 1 MB frames
  for (int i = 0; i < 10; ++i) throttler.enqueue(big);
  EXPECT_LT(handled, 10) << "sustained multi-MB/s inflow must defer";
  EXPECT_GT(throttler.bandwidth_bps(), 0.0);
  simulation.run_until(sim::sec(60));
  EXPECT_EQ(handled, 10) << "the meter decays and the queue drains";
}

TEST(ThrottlerUnit, SmallMessagesIgnoreBandwidthQuota) {
  sim::Simulation simulation(1);
  class Host final : public sim::Process {
   public:
    using Process::Process;
  } host(simulation, 0);
  host.start();
  ThrottlerConfig config;
  config.cpu_target = 100.0;
  config.bandwidth_target_bps = 1e6;
  int handled = 0;
  InboundThrottler throttler(
      host, config, [](const net::Envelope&) { return sim::us(1); },
      [&](const net::Envelope&) { ++handled; });
  throttler.start();
  net::Envelope small;
  small.bytes = 128;
  for (int i = 0; i < 200; ++i) throttler.enqueue(small);
  EXPECT_EQ(handled, 200);
}

TEST(ThrottlerUnit, DisabledProcessesEverythingInline) {
  sim::Simulation simulation(1);
  class Host final : public sim::Process {
   public:
    using Process::Process;
  } host(simulation, 0);
  host.start();
  ThrottlerConfig config;
  config.enabled = false;
  int handled = 0;
  InboundThrottler throttler(
      host, config, [](const net::Envelope&) { return sim::sec(1); },
      [&](const net::Envelope&) { ++handled; });
  net::Envelope envelope;
  for (int i = 0; i < 50; ++i) throttler.enqueue(envelope);
  EXPECT_EQ(handled, 50);
  EXPECT_EQ(throttler.dropped(), 0u);
}

// State sync must move a replica on to the next undecided height. The
// seed-42, 400 s chaos hunt (`stabl_cli --chaos 8 --seed 42 --duration 400
// --shrink`) shrinks Avalanche trial 0 to this one plan: node 6 serves
// everything 4,225 ms late from 59 to 62 s, falls behind and catches up by
// state sync. A replica that kept its old height afterwards committed an
// empty block for it on top of the synced tip when the late decision came
// in: a fork at height 26 (0 vs 652 transactions). 66 s is the shortest
// run that still forked.
TEST(AvalancheSync, SyncedReplicaDoesNotReDecideItsOldHeight) {
  core::ChaosCampaignConfig chaos;
  chaos.base.duration = sim::sec(66);
  const core::ExperimentConfig cell = core::chaos_trial_config(
      chaos, core::ChainKind::kAvalanche, 5646664708902707414ull,
      core::schedule_from_json(
          R"({"plans":[{"type":"gray","targets":[6],"inject_at_s":59.000,)"
          R"("recover_at_s":62.000,"gray_ms":4225}]})"));
  const core::ExperimentResult result = core::run_experiment(cell);
  const core::OracleReport report =
      core::check_invariants(core::make_oracle_context(cell), result);
  EXPECT_EQ(report.safety_violation(), nullptr) << report.summary();
}

}  // namespace
}  // namespace stabl::avalanche

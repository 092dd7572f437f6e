// Redbelly protocol model tests: leaderless progress, superblocks,
// crash-insensitivity, quorum loss, recovery, determinism, echo tallies.
#include "chains/redbelly/redbelly.hpp"

#include <gtest/gtest.h>

#include "chain_test_util.hpp"

namespace stabl::redbelly {
namespace {

using testing::Harness;

void build(Harness& harness, std::size_t n = 10,
           RedbellyConfig config = {}) {
  chain::NodeConfig node_config;
  node_config.n = n;
  node_config.network_seed = 77;
  harness.nodes =
      make_cluster(harness.simulation, harness.network, node_config, config);
}

TEST(Redbelly, BaselineCommitsWorkload) {
  Harness harness;
  build(harness);
  harness.add_clients(5, 40.0, sim::sec(30));
  harness.start_all();
  harness.simulation.run_until(sim::sec(35));
  // ~30s * 200tps, everything should land.
  EXPECT_GT(harness.total_client_committed(), 5500u);
  EXPECT_EQ(harness.total_client_committed(),
            harness.nodes[0]->ledger().tx_count());
}

TEST(Redbelly, ReplicasStayIdentical) {
  Harness harness;
  build(harness);
  harness.add_clients(5, 40.0, sim::sec(20));
  harness.start_all();
  harness.simulation.run_until(sim::sec(25));
  testing::expect_prefix_consistent(harness);
  testing::expect_no_double_execution(harness);
  // All replicas alive & connected: same height too.
  for (const auto& node : harness.nodes) {
    EXPECT_EQ(node->ledger().tx_count(),
              harness.nodes[0]->ledger().tx_count());
  }
}

TEST(Redbelly, SuperblockMergesAllProposals) {
  // Transactions submitted to different nodes land in the same superblock
  // round rather than serializing one proposer at a time.
  Harness harness;
  build(harness);
  harness.add_clients(5, 40.0, sim::sec(20));
  harness.start_all();
  harness.simulation.run_until(sim::sec(25));
  std::size_t multi_proposer_blocks = 0;
  for (const auto& block : harness.nodes[0]->ledger().blocks()) {
    std::set<chain::AccountId> senders;
    for (const auto& tx : block.txs()) senders.insert(tx.from);
    if (senders.size() >= 4) ++multi_proposer_blocks;
  }
  EXPECT_GT(multi_proposer_blocks, 5u);
}

TEST(Redbelly, ToleratesTCrashesWithoutSlowdown) {
  Harness harness;
  build(harness);
  harness.add_clients(5, 40.0, sim::sec(40));
  harness.start_all();
  harness.simulation.run_until(sim::sec(10));
  for (net::NodeId id = 5; id < 8; ++id) harness.nodes[id]->kill();  // f=t=3
  harness.simulation.run_until(sim::sec(45));
  // Leaderless DBFT: commits keep flowing at full rate.
  EXPECT_GT(harness.total_client_committed(), 7400u);
  testing::expect_prefix_consistent(harness);
}

TEST(Redbelly, HaltsBeyondThresholdThenRecovers) {
  Harness harness;
  build(harness);
  harness.add_clients(5, 40.0, sim::sec(60));
  harness.start_all();
  harness.simulation.run_until(sim::sec(10));
  for (net::NodeId id = 5; id < 9; ++id) harness.nodes[id]->kill();  // f=t+1
  harness.simulation.run_until(sim::sec(30));
  const std::uint64_t during = harness.nodes[0]->ledger().tx_count();
  EXPECT_LT(during, 2600u) << "quorum lost: no commits during the outage";
  for (net::NodeId id = 5; id < 9; ++id) harness.nodes[id]->start();
  harness.simulation.run_until(sim::sec(60));
  // Active recovery + superblock: the backlog clears.
  EXPECT_GT(harness.nodes[0]->ledger().tx_count(), 9000u);
  testing::expect_prefix_consistent(harness);
}

TEST(Redbelly, DeterministicAcrossRuns) {
  auto run = [](std::uint64_t seed) {
    Harness harness(seed);
    build(harness);
    harness.add_clients(5, 40.0, sim::sec(15));
    harness.start_all();
    harness.simulation.run_until(sim::sec(20));
    std::vector<std::uint64_t> summary;
    for (const auto& block : harness.nodes[0]->ledger().blocks()) {
      std::uint64_t h = block.round;
      for (const auto& tx : block.txs()) h = chain::hash_combine(h, tx.id);
      summary.push_back(h);
    }
    return summary;
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));
}

TEST(Redbelly, RestartedNodeCatchesUp) {
  Harness harness;
  build(harness);
  harness.add_clients(5, 40.0, sim::sec(40));
  harness.start_all();
  harness.simulation.run_until(sim::sec(10));
  harness.nodes[9]->kill();  // f=1 < t: chain keeps going
  harness.simulation.run_until(sim::sec(25));
  const auto reference = harness.nodes[0]->ledger().tx_count();
  EXPECT_GT(reference, 2000u);
  harness.nodes[9]->start();
  harness.simulation.run_until(sim::sec(40));
  EXPECT_GE(harness.nodes[9]->ledger().tx_count(), reference);
  testing::expect_prefix_consistent(harness);
}

TEST(DecisionLogTest, FirstCandidateWins) {
  DecisionLog log;
  DecisionLog::Decision first;
  first.proposers = {1, 2};
  DecisionLog::Decision second;
  second.proposers = {3};
  const auto& canonical = log.decide(7, first);
  EXPECT_EQ(canonical.proposers, (std::vector<net::NodeId>{1, 2}));
  const auto& replay = log.decide(7, second);
  EXPECT_EQ(replay.proposers, (std::vector<net::NodeId>{1, 2}));
  EXPECT_NE(log.get(7), nullptr);
  EXPECT_EQ(log.get(8), nullptr);
}

// One real node (0) of a four-node cluster (t = 1, quorum 3, a proposal
// joins the superblock with t + 1 = 2 echoes) and three scripted peers
// that send hand-built proposals and echoes (make_proposal, make_echo).
// Each round's decision reads the running echo counts, so it catches a
// count that is not moved when an echo is replaced and a count or echoer
// total that survives the round.
struct ScriptedPeer final : net::Endpoint {
  void deliver(const net::Envelope&) override {}
  [[nodiscard]] bool endpoint_alive() const override { return true; }
};

TEST(RedbellyTally, ReplacedEchoMovesCountsAndRoundsStartFromZero) {
  Harness harness;
  sim::Simulation& simulation = harness.simulation;
  net::Network& network = harness.network;
  const auto decisions = std::make_shared<DecisionLog>();
  chain::NodeConfig node_config;
  node_config.n = 4;
  node_config.network_seed = 77;
  RedbellyNode node(simulation, network, node_config, RedbellyConfig{},
                    decisions);
  std::vector<ScriptedPeer> peers(3);
  for (net::NodeId id = 1; id <= 3; ++id) network.attach(id, &peers[id - 1]);

  const auto at = [&](double seconds, net::NodeId from,
                      net::PayloadPtr payload) {
    simulation.schedule_at(sim::seconds(seconds), [&network, from, payload] {
      network.send(from, 0, payload);
    });
  };
  const auto proposal = [](std::uint64_t round, net::NodeId proposer) {
    chain::Transaction tx;
    tx.id = 100 * round + proposer;
    tx.from = proposer;
    return make_proposal(round, proposer, {tx});
  };
  const auto echo = make_echo;

  // Round 0. Node 0 echoes {0, 1, 2} near 1 s. Peer 1 echoes {2}, then
  // replaces it with {1}; peer 2's echo {0} completes the quorum. Held
  // counts: proposer 0 and 1 have two echoes, proposer 2 only node 0's.
  at(0.1, 1, proposal(0, 1));
  at(0.1, 2, proposal(0, 2));
  at(2.0, 1, echo(0, {2}));
  at(2.1, 1, echo(0, {1}));
  at(2.2, 2, echo(0, {0}));
  // Round 1 opens near 2.8 s and node 0 echoes {0, 1, 2} again; peers 3
  // and 2 echo {2}. Only proposer 2 reaches two echoes of this round.
  at(2.5, 1, proposal(1, 1));
  at(2.5, 2, proposal(1, 2));
  at(4.0, 3, echo(1, {2}));
  at(4.1, 2, echo(1, {2}));

  node.start();
  simulation.run_until(sim::sec(3));
  ASSERT_NE(decisions->get(0), nullptr);
  EXPECT_EQ(decisions->get(0)->proposers, (std::vector<net::NodeId>{0, 1}));
  EXPECT_EQ(decisions->get(1), nullptr) << "round 1 decided before its quorum";
  simulation.run_until(sim::sec(5));
  ASSERT_NE(decisions->get(1), nullptr);
  EXPECT_EQ(decisions->get(1)->proposers, (std::vector<net::NodeId>{2}));
  EXPECT_EQ(node.current_round(), 2u);
}

}  // namespace
}  // namespace stabl::redbelly

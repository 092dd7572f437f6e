// Algorand protocol model tests: sortition-driven rounds, dynamic round
// time, empty rounds on dead proposers, quorum threshold, recovery.
#include "chains/algorand/algorand.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "chain/vrf.hpp"
#include "chain_test_util.hpp"

namespace stabl::algorand {
namespace {

using testing::Harness;

void build(Harness& harness, std::size_t n = 10, AlgorandConfig config = {}) {
  chain::NodeConfig node_config;
  node_config.n = n;
  node_config.network_seed = 31;
  harness.nodes =
      make_cluster(harness.simulation, harness.network, node_config, config);
}

AlgorandNode& node_at(Harness& harness, std::size_t index) {
  return static_cast<AlgorandNode&>(*harness.nodes[index]);
}

TEST(Algorand, BaselineCommitsWorkload) {
  Harness harness;
  build(harness);
  harness.add_clients(5, 40.0, sim::sec(40));
  harness.start_all();
  harness.simulation.run_until(sim::sec(50));
  EXPECT_GT(harness.total_client_committed(), 7000u);
  testing::expect_prefix_consistent(harness);
  testing::expect_no_double_execution(harness);
}

TEST(Algorand, DynamicRoundTimeAdaptsDown) {
  // The filter wait creeps from its default toward the floor over clean
  // rounds — the paper's "throughput increase after approximately 133
  // seconds" in miniature.
  Harness harness;
  build(harness);
  harness.add_clients(5, 40.0, sim::sec(60));
  harness.start_all();
  harness.simulation.run_until(sim::sec(5));
  const auto early = node_at(harness, 0).filter_wait();
  harness.simulation.run_until(sim::sec(60));
  const auto late = node_at(harness, 0).filter_wait();
  EXPECT_LT(late, early);
}

TEST(Algorand, CrashedProposerResetsTiming) {
  AlgorandConfig config;
  Harness harness;
  build(harness, 10, config);
  harness.add_clients(5, 40.0, sim::sec(120));
  harness.start_all();
  harness.simulation.run_until(sim::sec(60));
  const auto adapted = node_at(harness, 0).filter_wait();
  EXPECT_LT(adapted, config.default_filter_wait);
  harness.nodes[9]->kill();  // f = t = 1
  // Sooner or later sortition picks node 9 as proposer; that round commits
  // empty and resets the timing parameters to their defaults.
  harness.simulation.run_until(sim::sec(120));
  bool saw_empty_round = false;
  for (const auto& block : harness.nodes[0]->ledger().blocks()) {
    if (block.txs().empty() &&
        block.committed_at > sim::sec(60)) {
      saw_empty_round = true;
    }
  }
  EXPECT_TRUE(saw_empty_round);
  EXPECT_GT(harness.total_client_committed(), 20000u) << "still live";
}

TEST(Algorand, HaltsWhenQuorumLost) {
  Harness harness;
  build(harness);
  harness.add_clients(5, 40.0, sim::sec(60));
  harness.start_all();
  harness.simulation.run_until(sim::sec(20));
  // f = t+1 = 2 > t: below the 85% stake threshold, rounds cannot certify.
  harness.nodes[8]->kill();
  harness.nodes[9]->kill();
  const auto before = harness.nodes[0]->ledger().height();
  harness.simulation.run_until(sim::sec(50));
  EXPECT_LE(harness.nodes[0]->ledger().height(), before + 2);
}

TEST(Algorand, RecoversAfterTransientFailure) {
  Harness harness;
  build(harness);
  harness.add_clients(5, 40.0, sim::sec(90));
  harness.start_all();
  harness.simulation.run_until(sim::sec(20));
  harness.nodes[8]->kill();
  harness.nodes[9]->kill();
  harness.simulation.run_until(sim::sec(50));
  harness.nodes[8]->start();
  harness.nodes[9]->start();
  harness.simulation.run_until(sim::sec(90));
  // Backlog clears: nearly everything submitted by t=90 commits.
  EXPECT_GT(harness.total_client_committed(), 15500u);
  testing::expect_prefix_consistent(harness);
}

TEST(Algorand, ProposerRotatesByRound) {
  Harness harness;
  build(harness);
  harness.add_clients(5, 40.0, sim::sec(60));
  harness.start_all();
  harness.simulation.run_until(sim::sec(60));
  std::set<net::NodeId> proposers;
  for (const auto& block : harness.nodes[0]->ledger().blocks()) {
    if (!block.txs().empty()) proposers.insert(block.proposer);
  }
  EXPECT_GE(proposers.size(), 5u) << "sortition spreads proposals";
}

TEST(Algorand, GossipSharesTransactionsWithNonEntryNodes) {
  Harness harness;
  build(harness);
  harness.add_clients(5, 40.0, sim::sec(10));
  harness.start_all();
  harness.simulation.run_until(sim::sec(5));
  // Node 9 never receives client submissions, yet pools transactions.
  const auto& remote = *harness.nodes[9];
  EXPECT_GT(remote.mempool().size() + remote.ledger().tx_count(), 50u);
}

// One real node (0) of a four-node cluster (certification quorum
// floor(0.8 * 4) + 1 = 4, every node) and three scripted peers that send
// hand-built proposals and votes (make_proposal, make_soft_vote,
// make_cert_vote). Each step's quorum reads running counts, so the
// rounds below catch a count that is not moved when a vote is replaced
// (soft in round 0, cert in round 1) and counts that survive the round
// (round 1 opens with round 0's full quorum for value 1).
struct ScriptedPeer final : net::Endpoint {
  void deliver(const net::Envelope&) override {}
  [[nodiscard]] bool endpoint_alive() const override { return true; }
};

TEST(AlgorandTally, ReplacedVotesMoveCountsAndRoundsStartFromZero) {
  constexpr net::NodeId kEmpty = AlgorandNode::kEmptyValue;
  Harness harness;
  sim::Simulation& simulation = harness.simulation;
  net::Network& network = harness.network;
  chain::NodeConfig node_config;
  node_config.n = 4;
  // Node 0 must not be the sortition proposer of rounds 0 and 1, so that
  // it adopts the scripted proposals.
  node_config.network_seed = 1;
  while (chain::sortition_leader(node_config.network_seed, 0, 0, 4) == 0 ||
         chain::sortition_leader(node_config.network_seed, 1, 0, 4) == 0) {
    ++node_config.network_seed;
  }
  AlgorandNode node(simulation, network, node_config, AlgorandConfig{},
                    std::make_shared<CertAnchor>(), /*is_relay=*/true);
  std::vector<ScriptedPeer> peers(3);
  for (net::NodeId id = 1; id <= 3; ++id) network.attach(id, &peers[id - 1]);

  const auto at = [&](double seconds, net::NodeId from,
                      net::PayloadPtr payload) {
    simulation.schedule_at(sim::seconds(seconds), [&network, from, payload] {
      network.send(from, 0, payload);
    });
  };
  const auto tx = [](chain::TxId id, chain::AccountId from) {
    chain::Transaction out;
    out.id = id;
    out.from = from;
    out.to = 900;
    out.amount = 1;
    return out;
  };

  // Round 0. Proposer 1's batch arrives; peers 1 and 3 soft-vote it, peer
  // 2 votes it and then replaces that vote with the empty value. Node 0
  // soft-votes 1 at its 2 s filter wait: 3 of 4 votes, so no cert vote,
  // and the peers' three cert votes cannot commit either.
  at(0.1, 1, make_proposal(0, 1, {tx(101, 1)}));
  for (net::NodeId peer = 1; peer <= 3; ++peer) {
    at(0.5, peer, make_soft_vote(0, peer, 1));
  }
  at(0.6, 2, make_soft_vote(0, 2, kEmpty));
  for (net::NodeId peer = 1; peer <= 3; ++peer) {
    at(2.5, peer, make_cert_vote(0, peer, 1));
  }
  // Peer 2 switches back: the soft quorum forms, node 0 cert-votes and
  // round 0 commits value 1 at once.
  at(3.1, 2, make_soft_vote(0, 2, 1));
  // Round 1 (opens near 3.1 s; node 0 soft-votes near 5.1 s). All peers
  // soft-vote proposer 2. Peer 2 cert-votes 2 and replaces it with the
  // empty value before peers 1 and 3 cert-vote 2: 3 of 4 cert votes.
  at(3.4, 2, make_proposal(1, 2, {tx(202, 2)}));
  for (net::NodeId peer = 1; peer <= 3; ++peer) {
    at(3.5, peer, make_soft_vote(1, peer, 2));
  }
  at(5.5, 2, make_cert_vote(1, 2, 2));
  at(5.6, 2, make_cert_vote(1, 2, kEmpty));
  at(5.7, 1, make_cert_vote(1, 1, 2));
  at(5.7, 3, make_cert_vote(1, 3, 2));
  // Peer 2's cert vote returns to 2: round 1 commits proposer 2's batch.
  at(6.1, 2, make_cert_vote(1, 2, 2));

  node.start();
  simulation.run_until(sim::sec(3));
  EXPECT_EQ(node.ledger().height(), 0u)
      << "round 0 certified with a replaced soft vote still counted";
  simulation.run_until(sim::seconds(3.3));
  ASSERT_EQ(node.ledger().height(), 1u);
  EXPECT_EQ(node.ledger().blocks()[0].proposer, 1u);
  EXPECT_EQ(node.current_round(), 1u);
  simulation.run_until(sim::sec(6));
  EXPECT_EQ(node.ledger().height(), 1u)
      << "round 1 committed with a replaced cert vote still counted";
  simulation.run_until(sim::seconds(6.3));
  ASSERT_EQ(node.ledger().height(), 2u)
      << "round 1 never committed: round 0's counts leaked into it";
  EXPECT_EQ(node.ledger().blocks()[1].proposer, 2u);
  ASSERT_EQ(node.ledger().blocks()[1].txs().size(), 1u);
  EXPECT_EQ(node.ledger().blocks()[1].txs()[0].id, 202u);
  EXPECT_EQ(node.current_round(), 2u);
}

}  // namespace
}  // namespace stabl::algorand

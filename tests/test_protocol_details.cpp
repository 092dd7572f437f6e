// Deeper protocol-level tests across the five chain models: round/sync
// edge cases that the headline experiments exercise only implicitly.
#include <gtest/gtest.h>

#include "chain/vrf.hpp"
#include "chain_test_util.hpp"
#include "chains/algorand/algorand.hpp"
#include "chains/aptos/aptos.hpp"
#include "chains/avalanche/avalanche.hpp"
#include "chains/redbelly/redbelly.hpp"
#include "chains/solana/solana.hpp"

namespace stabl {
namespace {

using testing::Harness;

template <typename MakeCluster, typename Config>
void build_chain(Harness& harness, MakeCluster make, Config config,
                 std::size_t n = 10) {
  chain::NodeConfig node_config;
  node_config.n = n;
  node_config.network_seed = 23;
  harness.nodes = make(harness.simulation, harness.network, node_config,
                       config);
}

// ------------------------------------------------------------------ Aptos

TEST(AptosDetail, LaggingReplicaJumpsRoundsViaSync) {
  Harness harness;
  build_chain(harness, aptos::make_cluster, aptos::AptosConfig{});
  harness.add_clients(5, 40.0, sim::sec(60));
  harness.start_all();
  harness.simulation.run_until(sim::sec(10));
  // Take one replica out for a while; the chain keeps going (9 >= 7).
  harness.nodes[6]->kill();
  harness.simulation.run_until(sim::sec(40));
  const auto& reference = *harness.nodes[0];
  ASSERT_GT(reference.ledger().height(), 50u);
  harness.nodes[6]->start();
  harness.simulation.run_until(sim::sec(60));
  // The restarted replica must be within a few blocks of the tip and in
  // the same round neighbourhood.
  const auto& lagger = static_cast<const aptos::AptosNode&>(
      *harness.nodes[6]);
  EXPECT_GT(lagger.ledger().height() + 10, reference.ledger().height());
  EXPECT_GT(lagger.current_round() + 10,
            static_cast<const aptos::AptosNode&>(reference).current_round());
  testing::expect_prefix_consistent(harness);
}

TEST(AptosDetail, TimeoutsFormCertificatesWithoutCommits) {
  // With an idle workload and a dead leader, rounds advance through
  // timeout certificates (no blocks needed).
  Harness harness;
  build_chain(harness, aptos::make_cluster, aptos::AptosConfig{});
  harness.start_all();
  harness.simulation.run_until(sim::sec(2));
  harness.nodes[3]->kill();
  harness.simulation.run_until(sim::sec(40));
  const auto& node = static_cast<const aptos::AptosNode&>(
      *harness.nodes[0]);
  EXPECT_GT(node.current_round(), 30u)
      << "rounds must advance past dead leaders via TCs";
}

TEST(AptosDetail, ExclusionIsEventuallySharedByAllReplicas) {
  aptos::AptosConfig config;
  config.leader_fail_threshold = 3;
  Harness harness;
  build_chain(harness, aptos::make_cluster, config);
  harness.add_clients(5, 40.0, sim::sec(50));
  harness.start_all();
  harness.simulation.run_until(sim::sec(10));
  harness.nodes[8]->kill();
  harness.simulation.run_until(sim::sec(50));
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_TRUE(static_cast<const aptos::AptosNode&>(*harness.nodes[i])
                    .excluded_leaders()
                    .contains(8))
        << "replica " << i;
  }
}

// --------------------------------------------------------------- Redbelly

TEST(RedbellyDetail, EmptyRoundsKeepHeightAlignedWithRound) {
  Harness harness;
  build_chain(harness, redbelly::make_cluster, redbelly::RedbellyConfig{});
  harness.start_all();  // no clients: all rounds empty
  harness.simulation.run_until(sim::sec(20));
  const auto& node = static_cast<const redbelly::RedbellyNode&>(
      *harness.nodes[0]);
  EXPECT_GT(node.ledger().height(), 10u);
  EXPECT_EQ(node.ledger().height(), node.current_round());
  for (const auto& block : node.ledger().blocks()) {
    EXPECT_TRUE(block.txs().empty());
  }
}

TEST(RedbellyDetail, IsolatedProposerTransactionsWaitForItsProposal) {
  // A transaction submitted to a node whose proposal cannot reach the
  // deciders (the node is crashed right after pooling) is not lost: the
  // client's copy is only at that node, so it commits after restart.
  Harness harness;
  build_chain(harness, redbelly::make_cluster, redbelly::RedbellyConfig{});
  harness.add_clients(1, 10.0, sim::sec(8));
  harness.start_all();
  harness.simulation.run_until(sim::sec(5));
  const auto pooled = harness.nodes[0]->mempool().size() +
                      harness.nodes[0]->ledger().tx_count();
  EXPECT_GT(pooled, 20u);
  harness.nodes[0]->kill();
  harness.simulation.run_until(sim::sec(20));
  harness.nodes[0]->start();
  harness.simulation.run_until(sim::sec(40));
  // All submitted transactions eventually commit (client keeps no retry
  // logic: the restarted node lost its mempool, so only the pre-crash
  // committed ones are guaranteed; assert no double execution regardless).
  testing::expect_no_double_execution(harness);
  testing::expect_prefix_consistent(harness);
}

// ----------------------------------------------------------------- Solana

TEST(SolanaDetail, ForwardRetryResendsUncommitted) {
  solana::SolanaConfig config;
  Harness harness;
  build_chain(harness, solana::make_cluster, config);
  harness.add_clients(5, 40.0, sim::sec(60));
  harness.start_all();
  harness.simulation.run_until(sim::sec(20));
  // Kill three validators: some leader groups blank; retries must still
  // land every transaction eventually.
  for (net::NodeId id = 5; id < 8; ++id) harness.nodes[id]->kill();
  harness.simulation.run_until(sim::sec(70));
  EXPECT_GT(harness.total_client_committed(),
            harness.total_client_submitted() - 500);
}

TEST(SolanaDetail, PanicIsPermanentWithinTheRun) {
  Harness harness;
  build_chain(harness, solana::make_cluster, solana::SolanaConfig{});
  harness.add_clients(5, 40.0, sim::sec(400));
  harness.start_all();
  harness.simulation.run_until(sim::sec(133));
  for (net::NodeId id = 5; id < 9; ++id) harness.nodes[id]->kill();
  harness.simulation.run_until(sim::sec(200));
  const auto& panicked = static_cast<const solana::SolanaNode&>(
      *harness.nodes[0]);
  ASSERT_TRUE(panicked.panicked());
  // Even restarting the panicked node manually re-panics it at the next
  // EAH integration point while the supermajority stays offline.
  harness.nodes[0]->start();
  harness.simulation.run_until(sim::sec(399));
  EXPECT_FALSE(harness.nodes[0]->alive());
}

// -------------------------------------------------------------- Avalanche

TEST(AvalancheDetail, LaggardLearnsCandidateThroughPullRepair) {
  Harness harness;
  build_chain(harness, avalanche::make_cluster,
              avalanche::AvalancheConfig{});
  harness.add_clients(5, 40.0, sim::sec(90));
  harness.start_all();
  harness.simulation.run_until(sim::sec(20));
  harness.nodes[9]->kill();  // within t: chain continues
  harness.simulation.run_until(sim::sec(50));
  const auto before = harness.nodes[9]->ledger().height();
  harness.nodes[9]->start();
  harness.simulation.run_until(sim::sec(90));
  EXPECT_GT(harness.nodes[9]->ledger().height(), before + 5)
      << "restart + pull repair must re-join consensus";
  testing::expect_prefix_consistent(harness);
}

TEST(AvalancheDetail, HeightsNeverSkip) {
  Harness harness;
  build_chain(harness, avalanche::make_cluster,
              avalanche::AvalancheConfig{});
  harness.add_clients(5, 40.0, sim::sec(40));
  harness.start_all();
  harness.simulation.run_until(sim::sec(40));
  const auto& blocks = harness.nodes[0]->ledger().blocks();
  ASSERT_FALSE(blocks.empty());
  for (std::size_t h = 0; h < blocks.size(); ++h) {
    EXPECT_EQ(blocks[h].height(), h);
    EXPECT_EQ(blocks[h].round, h) << "consensus height == ledger height";
  }
}

// --------------------------------------------------------------- Algorand

TEST(AlgorandDetail, EmptyRoundsCarryNoTransactionsButAdvance) {
  Harness harness;
  build_chain(harness, algorand::make_cluster, algorand::AlgorandConfig{});
  harness.start_all();  // idle network
  harness.simulation.run_until(sim::sec(30));
  const auto& node = static_cast<const algorand::AlgorandNode&>(
      *harness.nodes[0]);
  EXPECT_GT(node.current_round(), 5u);
  EXPECT_EQ(node.ledger().tx_count(), 0u);
}

TEST(AlgorandDetail, FilterWaitNeverLeavesConfiguredBounds) {
  algorand::AlgorandConfig config;
  Harness harness;
  build_chain(harness, algorand::make_cluster, config);
  harness.add_clients(5, 40.0, sim::sec(90));
  harness.start_all();
  harness.simulation.run_until(sim::sec(30));
  harness.nodes[9]->kill();  // cause resets
  for (int t = 31; t <= 90; t += 7) {
    harness.simulation.run_until(sim::sec(t));
    const auto wait = static_cast<const algorand::AlgorandNode&>(
                          *harness.nodes[0])
                          .filter_wait();
    EXPECT_GE(wait, config.min_filter_wait);
    EXPECT_LE(wait, config.default_filter_wait);
  }
}

// --------------------------------------------------------------- Dispatch
//
// Algorand and Redbelly each keep a private ProposalPayload of the same
// name and layout (round, proposer, transactions). A node dispatches on
// its own type only: one real node of a four-node cluster receives a
// scripted round whose proposal is the other chain's, and must decide as
// if that proposal never arrived. The same script with the node's own
// proposal shows what a mix-up would make of it.

struct ScriptedPeer final : net::Endpoint {
  void deliver(const net::Envelope&) override {}
  [[nodiscard]] bool endpoint_alive() const override { return true; }
};

// Nodes 1..3 of a four-node cluster whose node 0 is the real one; at()
// schedules a hand-built payload from one of them to node 0.
struct ScriptedPeers {
  explicit ScriptedPeers(Harness& harness) : harness(harness) {
    for (net::NodeId id = 1; id <= 3; ++id) {
      harness.network.attach(id, &peers[id - 1]);
    }
  }
  // The network and the scheduled sends hold this object's address.
  ScriptedPeers(const ScriptedPeers&) = delete;
  ScriptedPeers& operator=(const ScriptedPeers&) = delete;
  void at(double seconds, net::NodeId from, net::PayloadPtr payload) {
    harness.simulation.schedule_at(
        sim::seconds(seconds), [this, from, payload] {
          harness.network.send(from, 0, payload);
        });
  }
  Harness& harness;
  ScriptedPeer peers[3];
};

chain::Transaction scripted_tx(chain::TxId id, chain::AccountId from) {
  chain::Transaction tx;
  tx.id = id;
  tx.from = from;
  tx.to = 900;
  tx.amount = 1;
  return tx;
}

// Round 0 at an Algorand node 0 (certification quorum 4, every node):
// peer 1's proposal, every peer's soft and cert vote for it. Returns the
// ids node 0 commits.
std::vector<chain::TxId> algorand_round_with(net::PayloadPtr proposal) {
  Harness harness;
  chain::NodeConfig node_config;
  node_config.n = 4;
  node_config.network_seed = 1;
  while (chain::sortition_leader(node_config.network_seed, 0, 0, 4) == 0) {
    ++node_config.network_seed;  // node 0 must adopt the scripted proposal
  }
  algorand::AlgorandNode node(harness.simulation, harness.network,
                              node_config, algorand::AlgorandConfig{},
                              std::make_shared<algorand::CertAnchor>(),
                              /*is_relay=*/true);
  ScriptedPeers peers(harness);
  peers.at(0.1, 1, std::move(proposal));
  for (net::NodeId peer = 1; peer <= 3; ++peer) {
    peers.at(0.5, peer, algorand::make_soft_vote(0, peer, 1));
    peers.at(2.5, peer, algorand::make_cert_vote(0, peer, 1));
  }
  node.start();
  harness.simulation.run_until(sim::sec(4));
  std::vector<chain::TxId> committed;
  for (const chain::Block& block : node.ledger().blocks()) {
    for (const chain::Transaction& tx : block.txs()) {
      committed.push_back(tx.id);
    }
  }
  return committed;
}

TEST(Dispatch, AlgorandIgnoresARedbellyProposal) {
  const chain::Transaction tx = scripted_tx(101, 1);
  EXPECT_EQ(algorand_round_with(algorand::make_proposal(0, 1, {tx})),
            (std::vector<chain::TxId>{101}));
  EXPECT_TRUE(
      algorand_round_with(redbelly::make_proposal(0, 1, {tx})).empty())
      << "an Algorand node took a Redbelly proposal for its own";
}

// Round 0 at a Redbelly node 0 (t = 1, quorum 3): peer 1's proposal, then
// peers 1 and 2 echo proposers 0 and 1. Returns the round's superblock
// proposers; a proposal counts only when node 0 holds its content.
std::vector<net::NodeId> redbelly_round_with(net::PayloadPtr proposal) {
  Harness harness;
  const auto decisions = std::make_shared<redbelly::DecisionLog>();
  chain::NodeConfig node_config;
  node_config.n = 4;
  node_config.network_seed = 77;
  redbelly::RedbellyNode node(harness.simulation, harness.network,
                              node_config, redbelly::RedbellyConfig{},
                              decisions);
  ScriptedPeers peers(harness);
  peers.at(0.1, 1, std::move(proposal));
  peers.at(2.0, 1, redbelly::make_echo(0, {0, 1}));
  peers.at(2.1, 2, redbelly::make_echo(0, {0, 1}));
  node.start();
  harness.simulation.run_until(sim::sec(3));
  const auto* decision = decisions->get(0);
  return decision != nullptr ? decision->proposers
                             : std::vector<net::NodeId>{};
}

TEST(Dispatch, RedbellyIgnoresAnAlgorandProposal) {
  const chain::Transaction tx = scripted_tx(101, 1);
  EXPECT_EQ(redbelly_round_with(redbelly::make_proposal(0, 1, {tx})),
            (std::vector<net::NodeId>{0, 1}));
  EXPECT_EQ(redbelly_round_with(algorand::make_proposal(0, 1, {tx})),
            (std::vector<net::NodeId>{0}))
      << "a Redbelly node took an Algorand proposal for its own";
}

}  // namespace
}  // namespace stabl

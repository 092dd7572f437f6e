// Tests for the BlockchainNode base: RPC handling, watcher notification,
// commit filtering, crash/restart semantics and state sync.
#include "chain/node.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

namespace stabl::chain {
namespace {

/// Minimal concrete chain: commits whatever it is told to, no consensus.
class StubNode final : public BlockchainNode {
 public:
  using BlockchainNode::BlockchainNode;
  using BlockchainNode::commit_block;
  using BlockchainNode::pool_transaction;
  using BlockchainNode::request_sync;

  int protocol_starts = 0;
  int protocol_stops = 0;
  std::vector<Transaction> seen;

 protected:
  void start_protocol() override { ++protocol_starts; }
  void stop_protocol() override { ++protocol_stops; }
  void on_app_message(const net::Envelope& envelope) override {
    // Gossip: pool a peer's batch, as the chains' TxBatchPayload handlers do.
    if (const auto* batch =
            dynamic_cast<const TxBatchPayload*>(envelope.payload.get())) {
      for (const Transaction& tx : batch->txs) {
        if (pool_transaction(tx)) on_transaction(tx);
      }
    }
  }
  void on_transaction(const Transaction& tx) override { seen.push_back(tx); }
};

/// A client-side probe that records commit notifications.
class ClientProbe final : public sim::Process, public net::Endpoint {
 public:
  ClientProbe(sim::Simulation& simulation, net::Network& network,
              net::NodeId id)
      : Process(simulation, id) {
    network.attach(id, this);
    start();
  }
  void deliver(const net::Envelope& envelope) override {
    if (const auto* notify = dynamic_cast<const CommitNotifyPayload*>(
            envelope.payload.get())) {
      notifications.push_back(notify->id);
      commit_times.push_back(notify->committed_at);
    }
  }
  [[nodiscard]] bool endpoint_alive() const override { return alive(); }
  std::vector<TxId> notifications;
  std::vector<sim::Time> commit_times;  ///< Parallel to notifications.
};

Transaction make_tx(TxId id, AccountId from, std::uint64_t nonce) {
  Transaction tx;
  tx.id = id;
  tx.from = from;
  tx.to = 500;
  tx.amount = 1;
  tx.nonce = nonce;
  return tx;
}

class NodeBaseTest : public ::testing::Test {
 protected:
  NodeBaseTest() : simulation(3), network(simulation, net::LatencyConfig{}) {
    NodeConfig config;
    config.n = 2;
    config.network_seed = 9;
    config.restart_boot_delay = sim::sec(1);
    for (net::NodeId id = 0; id < 2; ++id) {
      config.id = id;
      nodes.push_back(
          std::make_unique<StubNode>(simulation, network, config));
      nodes.back()->start();
    }
    client = std::make_unique<ClientProbe>(simulation, network, 2);
    simulation.run_until(sim::ms(100));  // connections up
  }

  void submit(StubNode& node, const Transaction& tx) {
    network.send(client->id(), node.node_id(),
                 std::make_shared<const SubmitTxPayload>(tx));
    simulation.run_until(simulation.now() + sim::ms(20));
  }

  sim::Simulation simulation;
  net::Network network;
  std::vector<std::unique_ptr<StubNode>> nodes;
  std::unique_ptr<ClientProbe> client;
};

TEST_F(NodeBaseTest, SubmitPoolsAndHooksFire) {
  submit(*nodes[0], make_tx(1, 7, 0));
  EXPECT_TRUE(nodes[0]->mempool().contains(1));
  ASSERT_EQ(nodes[0]->seen.size(), 1u);
  EXPECT_EQ(nodes[0]->seen[0].id, 1u);
}

TEST_F(NodeBaseTest, CommitNotifiesWatcher) {
  submit(*nodes[0], make_tx(1, 7, 0));
  nodes[0]->commit_block({make_tx(1, 7, 0)}, 0);
  simulation.run_until(simulation.now() + sim::ms(20));
  ASSERT_EQ(client->notifications.size(), 1u);
  EXPECT_EQ(client->notifications[0], 1u);
}

TEST_F(NodeBaseTest, DuplicateSubmitAfterCommitAnswersImmediately) {
  submit(*nodes[0], make_tx(1, 7, 0));
  nodes[0]->commit_block({make_tx(1, 7, 0)}, 0);
  simulation.run_until(simulation.now() + sim::ms(20));
  submit(*nodes[0], make_tx(1, 7, 0));  // secure-client duplicate
  simulation.run_until(simulation.now() + sim::ms(20));
  EXPECT_EQ(client->notifications.size(), 2u);
}

TEST_F(NodeBaseTest, CommitBlockFiltersDuplicatesAndNonceGaps) {
  const Block* block = nodes[0]->commit_block(
      {make_tx(1, 7, 0), make_tx(2, 7, 2), make_tx(3, 8, 0)}, 0);
  ASSERT_NE(block, nullptr);
  EXPECT_EQ(block->txs().size(), 2u);  // nonce-2 tx filtered (gap)
  // Re-committing tx 1 is a no-op.
  const Block* again = nodes[0]->commit_block({make_tx(1, 7, 0)}, 0);
  EXPECT_EQ(again, nullptr);
}

TEST_F(NodeBaseTest, EmptyCommitOnlyWithAllowEmpty) {
  EXPECT_EQ(nodes[0]->commit_block({}, 0), nullptr);
  EXPECT_NE(nodes[0]->commit_block({}, 0, 5, /*allow_empty=*/true), nullptr);
  EXPECT_EQ(nodes[0]->ledger().blocks().back().round, 5u);
}

TEST_F(NodeBaseTest, CrashClearsVolatileKeepsLedger) {
  submit(*nodes[0], make_tx(1, 7, 0));
  nodes[0]->commit_block({make_tx(1, 7, 0)}, 0);
  submit(*nodes[0], make_tx(2, 7, 1));  // still pooled
  nodes[0]->kill();
  EXPECT_EQ(nodes[0]->protocol_stops, 1);
  EXPECT_EQ(nodes[0]->mempool().size(), 0u);
  EXPECT_EQ(nodes[0]->ledger().tx_count(), 1u);  // persistent
}

TEST_F(NodeBaseTest, RestartRebuildsAccountsFromLedger) {
  nodes[0]->commit_block({make_tx(1, 7, 0), make_tx(2, 7, 1)}, 0);
  nodes[0]->kill();
  nodes[0]->start();
  simulation.run_until(simulation.now() + sim::sec(2));  // boot delay
  EXPECT_EQ(nodes[0]->protocol_starts, 2);
  EXPECT_EQ(nodes[0]->accounts().next_nonce(7), 2u);
}

TEST_F(NodeBaseTest, BootDelayGatesDelivery) {
  nodes[0]->kill();
  nodes[0]->start();
  // Before the boot delay elapses the process drops messages silently.
  submit(*nodes[0], make_tx(1, 7, 0));
  EXPECT_FALSE(nodes[0]->mempool().contains(1));
  simulation.run_until(simulation.now() + sim::sec(2));
  submit(*nodes[0], make_tx(1, 7, 0));
  EXPECT_TRUE(nodes[0]->mempool().contains(1));
}

TEST_F(NodeBaseTest, StateSyncTransfersBlocks) {
  for (std::uint64_t n = 0; n < 3; ++n) {
    nodes[0]->commit_block({make_tx(100 + n, 7, n)}, 0, n);
  }
  EXPECT_EQ(nodes[1]->ledger().height(), 0u);
  nodes[1]->request_sync(0);
  simulation.run_until(simulation.now() + sim::ms(100));
  EXPECT_EQ(nodes[1]->ledger().height(), 3u);
  EXPECT_EQ(nodes[1]->ledger().tx_count(), 3u);
  EXPECT_EQ(nodes[1]->accounts().next_nonce(7), 3u);
}

TEST_F(NodeBaseTest, StateSyncNotifiesWatchers) {
  // A client watches on node 1; the commit arrives via sync from node 0.
  submit(*nodes[1], make_tx(1, 7, 0));
  nodes[0]->commit_block({make_tx(1, 7, 0)}, 0);
  nodes[1]->request_sync(0);
  simulation.run_until(simulation.now() + sim::ms(100));
  ASSERT_EQ(client->notifications.size(), 1u);
  EXPECT_EQ(client->notifications[0], 1u);
}

TEST_F(NodeBaseTest, PoolTransactionRejectsStale) {
  nodes[0]->commit_block({make_tx(1, 7, 0)}, 0);
  EXPECT_FALSE(nodes[0]->pool_transaction(make_tx(1, 7, 0)));  // committed
  EXPECT_FALSE(nodes[0]->pool_transaction(make_tx(9, 7, 0)));  // old nonce
  EXPECT_TRUE(nodes[0]->pool_transaction(make_tx(10, 7, 1)));
}

// pool_transaction, commit_block and the state-sync path hold no ledger
// probe: a committed transaction was applied, so its sender's nonce has
// passed it, and boot() rebuilds the nonces from the ledger before any
// message is accepted. Node 0 commits, crashes and restarts (nonces
// replayed from its ledger); node 1 crashes, restarts and learns the same
// blocks by state sync (nonces applied from the chunk). Committed
// transactions re-delivered to either one by gossip, by client submit or
// in a later decision must not enter the mempool, must not count as
// duplicate submissions, and a submit must still be answered with the
// original commit time. Checked with gtest assertions, so every build
// type runs it (Ledger::append's double-commit assert does not).
TEST_F(NodeBaseTest, CommittedTransactionsStayOutAfterRestartAndSync) {
  const std::vector<Transaction> committed{make_tx(1, 7, 0), make_tx(2, 7, 1),
                                           make_tx(3, 8, 0)};
  nodes[0]->commit_block({committed[0], committed[1]}, 0);
  const sim::Time first_commit = simulation.now();
  simulation.run_until(simulation.now() + sim::ms(50));
  nodes[0]->commit_block({committed[2]}, 0);
  const sim::Time second_commit = simulation.now();
  for (StubNode* node : {nodes[0].get(), nodes[1].get()}) {
    node->kill();
    node->start();
  }
  simulation.run_until(simulation.now() + sim::sec(2));  // boot delay
  nodes[1]->request_sync(0);
  simulation.run_until(simulation.now() + sim::ms(100));
  ASSERT_EQ(nodes[1]->ledger().height(), 2u);
  ASSERT_EQ(nodes[1]->ledger().tx_count(), 3u);

  for (net::NodeId id = 0; id < 2; ++id) {
    StubNode& node = *nodes[id];
    const auto pooled = node.mempool().size();
    const auto duplicates = node.mempool().duplicate_submissions();
    const auto hooked = node.seen.size();
    network.send(1 - id, id, std::make_shared<const TxBatchPayload>(committed));
    simulation.run_until(simulation.now() + sim::ms(20));
    client->notifications.clear();
    client->commit_times.clear();
    for (const Transaction& tx : committed) submit(node, tx);
    EXPECT_EQ(node.commit_block(committed, 0), nullptr) << "node " << id;
    EXPECT_EQ(node.mempool().size(), pooled) << "node " << id;
    EXPECT_EQ(node.mempool().duplicate_submissions(), duplicates)
        << "node " << id;
    EXPECT_EQ(node.seen.size(), hooked) << "node " << id;
    EXPECT_EQ(node.ledger().tx_count(), 3u) << "node " << id;
    EXPECT_EQ(client->notifications, (std::vector<TxId>{1, 2, 3}))
        << "node " << id;
    EXPECT_EQ(client->commit_times,
              (std::vector<sim::Time>{first_commit, first_commit,
                                      second_commit}))
        << "node " << id;
  }
}

// The sync path's filter, without a ledger probe: a chunk whose block
// holds a transaction this replica already committed (at another height)
// applies only the rest.
TEST_F(NodeBaseTest, StateSyncSkipsTransactionsAlreadyCommittedHere) {
  nodes[0]->commit_block({make_tx(3, 8, 0)}, 0);
  nodes[0]->commit_block({make_tx(1, 7, 0), make_tx(2, 7, 1)}, 0);
  nodes[1]->commit_block({make_tx(1, 7, 0)}, 0);
  nodes[1]->request_sync(0);  // asks from height 1
  simulation.run_until(simulation.now() + sim::ms(100));
  const auto& blocks = nodes[1]->ledger().blocks();
  ASSERT_EQ(blocks.size(), 2u);
  ASSERT_EQ(blocks[1].txs().size(), 1u);
  EXPECT_EQ(blocks[1].txs()[0].id, 2u);
  EXPECT_EQ(nodes[1]->ledger().tx_count(), 2u);
  EXPECT_EQ(nodes[1]->ledger().block_index(1), 0u);
  EXPECT_EQ(nodes[1]->accounts().next_nonce(7), 2u);
}

}  // namespace
}  // namespace stabl::chain

// Tests for the cluster-shared block store and the ledgers that point into
// it: one node per decided block however many replicas commit it, answers
// from each replica's own path only, forks kept apart, restart and state
// sync keeping the shared nodes.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "chain/block_store.hpp"
#include "chain/hash.hpp"
#include "chain/ledger.hpp"
#include "chain/node.hpp"
#include "core/experiment.hpp"
#include "sim/simulation.hpp"

namespace stabl::chain {
namespace {

Transaction make_tx(TxId id, AccountId from = 1, std::uint64_t nonce = 0) {
  Transaction tx;
  tx.id = id;
  tx.from = from;
  tx.to = 999;
  tx.amount = 1;
  tx.nonce = nonce;
  return tx;
}

std::vector<Transaction> txs_of(std::initializer_list<TxId> ids) {
  std::vector<Transaction> txs;
  for (const TxId id : ids) txs.push_back(make_tx(id));
  return txs;
}

/// The digest of a ledger's first `height` blocks as a walk over copied
/// blocks computes it: heights and transaction ids, in order.
std::uint64_t walked_hash(const std::vector<std::vector<Transaction>>& blocks,
                          std::size_t height) {
  std::uint64_t h = 0x5374616221ull;
  for (std::size_t i = 0; i < height; ++i) {
    h = hash_combine(h, i);
    h = hash_combine(h, static_cast<std::uint64_t>(blocks[i].size()));
    for (const Transaction& tx : blocks[i]) h = hash_combine(h, tx.id);
  }
  return h;
}

TEST(BlockStore, ReplicasAppendingTheSameBlocksShareOneNodePerHeight) {
  const auto store = std::make_shared<BlockStore>();
  std::vector<Ledger> ledgers(10, Ledger(store));
  const std::vector<std::vector<Transaction>> decided = {
      txs_of({1, 2, 3}), txs_of({}), txs_of({4}), txs_of({5, 6})};
  for (std::size_t h = 0; h < decided.size(); ++h) {
    for (std::size_t r = 0; r < ledgers.size(); ++r) {
      // Replica-local fields differ per replica; the content does not.
      ledgers[r].append(decided[h], /*round=*/h + r,
                        static_cast<net::NodeId>(r),
                        sim::sec(static_cast<std::int64_t>(10 * h + r)));
    }
  }
  EXPECT_EQ(store->size(), decided.size());
  for (std::size_t r = 0; r < ledgers.size(); ++r) {
    const Ledger& ledger = ledgers[r];
    ASSERT_EQ(ledger.height(), decided.size());
    EXPECT_EQ(ledger.tx_count(), 6u);
    for (std::size_t h = 0; h < decided.size(); ++h) {
      const Block& block = ledger.blocks()[h];
      EXPECT_EQ(block.node, ledgers[0].blocks()[h].node) << r << "@" << h;
      EXPECT_EQ(block.height(), h);
      EXPECT_EQ(block.round, h + r);
      EXPECT_EQ(block.proposer, r);
      EXPECT_EQ(block.committed_at,
                sim::sec(static_cast<std::int64_t>(10 * h + r)));
    }
    for (std::size_t h = 0; h <= decided.size(); ++h) {
      EXPECT_EQ(ledger.content_hash_at(h), walked_hash(decided, h))
          << "replica " << r << " prefix " << h;
    }
    EXPECT_EQ(ledger.commit_time(5),
              sim::sec(static_cast<std::int64_t>(30 + r)));
    EXPECT_EQ(ledger.block_index(4), 2u);
  }
}

TEST(BlockStore, DifferentContentOnOneTipForks) {
  const auto store = std::make_shared<BlockStore>();
  Ledger a(store);
  Ledger b(store);
  a.append(txs_of({1, 2}), 0, 0, sim::sec(1));
  b.append(txs_of({2, 1}), 0, 0, sim::sec(1));  // same ids, other order
  EXPECT_EQ(store->size(), 2u);
  EXPECT_NE(a.blocks()[0].node, b.blocks()[0].node);
  EXPECT_NE(a.content_hash(), b.content_hash());
  Ledger c(store);
  c.append(txs_of({1}), 0, 0, sim::sec(1));  // a prefix of a's block
  EXPECT_EQ(store->size(), 3u);
}

TEST(BlockStore, ForkedBranchesAnswerOnlyOnTheirOwnPath) {
  const auto store = std::make_shared<BlockStore>();
  Ledger a(store);
  Ledger b(store);
  Ledger behind(store);
  for (Ledger* ledger : {&a, &b, &behind}) {
    ledger->append(txs_of({1}), 0, 0, sim::sec(1));
  }
  // Height 1 forks: tx 3 sits on both branches; tx 2 is only on a's until
  // b commits it one block later.
  a.append(txs_of({2, 3}), 1, 0, sim::sec(2));
  b.append(txs_of({3, 4}), 1, 1, sim::sec(3));
  b.append(txs_of({2}), 2, 1, sim::sec(4));
  EXPECT_EQ(store->size(), 4u);
  EXPECT_EQ(a.blocks()[0].node, b.blocks()[0].node);
  EXPECT_NE(a.blocks()[1].node, b.blocks()[1].node);

  EXPECT_FALSE(a.is_committed(4)) << "stored on b's branch only";
  ASSERT_TRUE(b.is_committed(4));
  EXPECT_EQ(b.block_index(4), 1u);

  ASSERT_TRUE(a.is_committed(3));
  ASSERT_TRUE(b.is_committed(3));
  EXPECT_EQ(a.commit_time(3), sim::sec(2));
  EXPECT_EQ(b.commit_time(3), sim::sec(3));

  ASSERT_TRUE(a.is_committed(2));
  ASSERT_TRUE(b.is_committed(2));
  EXPECT_EQ(a.block_index(2), 1u);
  EXPECT_EQ(b.block_index(2), 2u);
  EXPECT_EQ(a.commit_time(2), sim::sec(2));
  EXPECT_EQ(b.commit_time(2), sim::sec(4));

  for (const TxId id : {2, 3, 4}) {
    EXPECT_FALSE(behind.is_committed(id)) << id;
  }
  EXPECT_TRUE(behind.is_committed(1));
  EXPECT_EQ(a.tx_count(), 3u);
  EXPECT_EQ(b.tx_count(), 4u);
  EXPECT_EQ(a.content_hash_at(1), b.content_hash_at(1));
  EXPECT_NE(a.content_hash_at(2), b.content_hash_at(2));

  // A replica catching up on b's branch shares b's nodes, not a's.
  behind.append(txs_of({3, 4}), 1, 1, sim::sec(5));
  EXPECT_EQ(behind.blocks()[1].node, b.blocks()[1].node);
  EXPECT_EQ(store->size(), 4u);
  EXPECT_TRUE(behind.is_committed(4));
  EXPECT_FALSE(behind.is_committed(2));
}

// ------------------------------------------------ nodes sharing a store

/// Minimal concrete chain: commits whatever it is told to, no consensus.
class StubNode final : public BlockchainNode {
 public:
  using BlockchainNode::BlockchainNode;
  using BlockchainNode::booted;
  using BlockchainNode::commit_block;
  using BlockchainNode::request_sync;

 protected:
  void start_protocol() override {}
  void on_app_message(const net::Envelope&) override {}
};

class SharedStoreTest : public ::testing::Test {
 protected:
  SharedStoreTest() : simulation(3), network(simulation, net::LatencyConfig{}) {
    NodeConfig config;
    config.n = 2;
    config.network_seed = 9;
    config.restart_boot_delay = sim::sec(1);
    config.store = store;
    for (net::NodeId id = 0; id < 2; ++id) {
      config.id = id;
      nodes.push_back(std::make_unique<StubNode>(simulation, network, config));
      nodes.back()->start();
    }
    simulation.run_until(sim::ms(100));  // connections up
  }

  /// `count` one-transaction blocks on node 0 only.
  void commit_on_source(std::uint64_t count) {
    for (std::uint64_t h = 0; h < count; ++h) {
      nodes[0]->commit_block({make_tx(1000 + h, 1, h)}, 0, h);
    }
  }

  const std::shared_ptr<BlockStore> store = std::make_shared<BlockStore>();
  sim::Simulation simulation;
  net::Network network;
  std::vector<std::unique_ptr<StubNode>> nodes;
};

TEST_F(SharedStoreTest, RestartKeepsThePath) {
  nodes[0]->commit_block({make_tx(1, 7, 0), make_tx(2, 7, 1)}, 0, 4);
  nodes[0]->commit_block({make_tx(3, 7, 2)}, 0, 5);
  const std::vector<Block> before = nodes[0]->ledger().blocks();
  nodes[0]->kill();
  nodes[0]->start();
  simulation.run_until(simulation.now() + sim::sec(2));  // booted again
  ASSERT_TRUE(nodes[0]->booted());
  const std::vector<Block>& after = nodes[0]->ledger().blocks();
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t h = 0; h < after.size(); ++h) {
    EXPECT_EQ(after[h].node, before[h].node);
    EXPECT_EQ(after[h].round, before[h].round);
    EXPECT_EQ(after[h].committed_at, before[h].committed_at);
  }
  EXPECT_TRUE(nodes[0]->ledger().is_committed(3));
  EXPECT_EQ(nodes[0]->accounts().next_nonce(7), 3u);  // replayed
  EXPECT_EQ(store->size(), 2u);
}

TEST_F(SharedStoreTest, SyncChunkReusesTheServersNodes) {
  commit_on_source(300);  // two sync chunks
  simulation.run_until(simulation.now() + sim::ms(500));
  ASSERT_EQ(store->size(), 300u);
  nodes[1]->request_sync(0);
  simulation.run_until(simulation.now() + sim::sec(2));
  const Ledger& server = nodes[0]->ledger();
  const Ledger& target = nodes[1]->ledger();
  ASSERT_EQ(target.height(), 300u);
  EXPECT_EQ(store->size(), 300u) << "sync must not copy stored blocks";
  for (std::size_t h = 0; h < 300; ++h) {
    EXPECT_EQ(target.blocks()[h].node, server.blocks()[h].node) << h;
    EXPECT_EQ(target.blocks()[h].round, h);
    EXPECT_EQ(target.blocks()[h].committed_at,
              server.blocks()[h].committed_at);
  }
  EXPECT_EQ(target.content_hash(), server.content_hash());
  EXPECT_EQ(nodes[1]->accounts().next_nonce(1), 300u);
}

TEST(BlockStore, FaultFreeRedbellyRunStoresOneNodePerLedgerHeight) {
  core::ExperimentConfig config;
  config.chain = core::ChainKind::kRedbelly;
  config.n = 10;
  config.duration = sim::sec(30);
  config.capture_replicas = true;
  const core::ExperimentResult result = core::run_experiment(config);
  std::uint64_t longest = 0;
  for (const core::ReplicaSnapshot& replica : result.replicas) {
    longest = std::max<std::uint64_t>(longest, replica.blocks.size());
  }
  ASSERT_GT(longest, 0u);
  EXPECT_EQ(result.stored_blocks, longest);
}

}  // namespace
}  // namespace stabl::chain

// The committed chain of blocks, one replica per node.
//
// The blocks themselves live in a BlockStore, shared by every replica of a
// cluster (a ledger built alone keeps a private one). A ledger is this
// replica's path through the store's tree: one Block per height, each a
// pointer to the shared content plus the fields this replica recorded
// when it committed the block. Every query answers from that path only: a
// transaction stored on a sibling fork is not committed here.
//
// The ledger survives crash/restart cycles (it models on-disk storage);
// protocol state and mempools do not.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "chain/block_store.hpp"
#include "chain/types.hpp"

namespace stabl::chain {

/// A committed block (or superblock, for Redbelly) on one replica's ledger.
struct Block {
  /// The agreed-upon content, shared with every replica that committed it.
  const BlockStore::Node* node = nullptr;
  /// Protocol-level sequence the block was decided in (consensus round,
  /// view, or slot — chain-specific).
  std::uint64_t round = 0;
  net::NodeId proposer = 0;
  sim::Time committed_at{0};

  [[nodiscard]] std::uint64_t height() const { return node->height; }
  [[nodiscard]] const std::vector<Transaction>& txs() const {
    return node->txs;
  }
};

class Ledger {
 public:
  /// A ledger appending into `store`, which other replicas may share. A
  /// ledger given no store makes a private one at its first append, so a
  /// node that never commits allocates none.
  explicit Ledger(std::shared_ptr<BlockStore> store = nullptr)
      : store_(std::move(store)) {}

  /// Append a block of `txs` at height(). committed_at must be
  /// monotonically non-decreasing, and no transaction may already be
  /// committed on this ledger. When another replica already stored the
  /// same transaction sequence on this ledger's tip, the block points at
  /// that content and `txs` is dropped. Returns the appended block.
  const Block& append(std::vector<Transaction> txs, std::uint64_t round,
                      net::NodeId proposer, sim::Time committed_at);

  /// The block of this ledger holding a transaction, or nullptr.
  [[nodiscard]] const Block* find(TxId id) const;

  [[nodiscard]] bool is_committed(TxId id) const {
    return find(id) != nullptr;
  }

  /// Commit time of a transaction; requires is_committed(id).
  [[nodiscard]] sim::Time commit_time(TxId id) const;

  /// Index of the block containing a transaction; requires
  /// is_committed(id).
  [[nodiscard]] std::size_t block_index(TxId id) const;

  /// Next height to append at (= number of blocks).
  [[nodiscard]] std::uint64_t height() const { return blocks_.size(); }

  [[nodiscard]] std::uint64_t tx_count() const {
    return blocks_.empty() ? 0 : blocks_.back().node->tx_count;
  }
  [[nodiscard]] const std::vector<Block>& blocks() const { return blocks_; }

  /// Commit time of the most recent block, or zero when empty.
  [[nodiscard]] sim::Time last_commit_time() const;

  /// Order-sensitive digest of the committed sequence (heights and
  /// transaction ids; commit times and rounds are replica-local and
  /// deliberately excluded, so replicas holding the same chain hash the
  /// same). A replica that is merely behind hashes differently, so prefix
  /// comparisons must use content_hash_at().
  [[nodiscard]] std::uint64_t content_hash() const {
    return content_hash_at(height());
  }

  /// Digest of the first `height` blocks only — the prefix-agreement probe
  /// the invariant oracles use: for any two replicas, the hashes at
  /// min(height_a, height_b) must match.
  [[nodiscard]] std::uint64_t content_hash_at(std::uint64_t height) const;

 private:
  std::shared_ptr<BlockStore> store_;
  std::vector<Block> blocks_;  // this replica's path, by height
};

}  // namespace stabl::chain

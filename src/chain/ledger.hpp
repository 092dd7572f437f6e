// The committed chain of blocks, one replica per node.
//
// The ledger survives crash/restart cycles (it models on-disk storage);
// protocol state and mempools do not.
#pragma once

#include <cstdint>
#include <vector>

#include "chain/tx_table.hpp"
#include "chain/types.hpp"

namespace stabl::chain {

class Ledger {
 public:
  /// Append a block. The block's height must equal height(); committed_at
  /// must be monotonically non-decreasing. Returns the stored block.
  const Block& append(Block block);

  [[nodiscard]] bool is_committed(TxId id) const;

  /// Commit time of a transaction; requires is_committed(id).
  [[nodiscard]] sim::Time commit_time(TxId id) const;

  /// Index of the block containing a transaction; requires
  /// is_committed(id).
  [[nodiscard]] std::size_t block_index(TxId id) const;

  /// Next height to append at (= number of blocks).
  [[nodiscard]] std::uint64_t height() const { return blocks_.size(); }

  [[nodiscard]] std::uint64_t tx_count() const { return tx_blocks_.size(); }
  [[nodiscard]] const std::vector<Block>& blocks() const { return blocks_; }

  /// Commit time of the most recent block, or zero when empty.
  [[nodiscard]] sim::Time last_commit_time() const;

  /// Order-sensitive digest of the committed sequence (heights and
  /// transaction ids; commit times and rounds are replica-local and
  /// deliberately excluded, so replicas holding the same chain hash the
  /// same). A replica that is merely behind hashes differently, so prefix
  /// comparisons must use content_hash_at().
  [[nodiscard]] std::uint64_t content_hash() const;

  /// Digest of the first `height` blocks only — the prefix-agreement probe
  /// the invariant oracles use: for any two replicas, the hashes at
  /// min(height_a, height_b) must match.
  [[nodiscard]] std::uint64_t content_hash_at(std::uint64_t height) const;

 private:
  std::vector<Block> blocks_;
  // tx id -> index of its block in blocks_ (whose committed_at is the
  // transaction's commit time).
  TxTable<std::uint32_t> tx_blocks_;
};

}  // namespace stabl::chain

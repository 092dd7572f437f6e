#include "chain/ledger.hpp"

#include <cassert>
#include <limits>
#include <utility>

#include "chain/hash.hpp"

namespace stabl::chain {

const Block& Ledger::append(Block block) {
  assert(block.height == blocks_.size() && "out-of-order block append");
  assert(block.committed_at >= last_commit_time());
  assert(blocks_.size() < std::numeric_limits<std::uint32_t>::max());
  const auto index = static_cast<std::uint32_t>(blocks_.size());
  for (const Transaction& tx : block.txs) {
    const bool inserted = tx_blocks_.insert(tx.id, index);
    assert(inserted && "transaction committed twice");
    (void)inserted;
  }
  blocks_.push_back(std::move(block));
  return blocks_.back();
}

bool Ledger::is_committed(TxId id) const { return tx_blocks_.contains(id); }

sim::Time Ledger::commit_time(TxId id) const {
  return blocks_[block_index(id)].committed_at;
}

std::size_t Ledger::block_index(TxId id) const {
  const std::uint32_t* index = tx_blocks_.find(id);
  assert(index != nullptr);
  return *index;
}

sim::Time Ledger::last_commit_time() const {
  return blocks_.empty() ? sim::Time{0} : blocks_.back().committed_at;
}

std::uint64_t Ledger::content_hash() const {
  return content_hash_at(height());
}

std::uint64_t Ledger::content_hash_at(std::uint64_t height) const {
  assert(height <= blocks_.size());
  // Hash only the agreed-upon content: heights and transaction sequences.
  // committed_at (and, on some chains, round) is replica-local — each node
  // records its own commit instant — so including it would make two
  // replicas holding the SAME chain hash differently.
  std::uint64_t h = 0x5374616221ull;  // arbitrary non-zero start
  for (std::uint64_t i = 0; i < height; ++i) {
    const Block& block = blocks_[i];
    h = hash_combine(h, block.height);
    h = hash_combine(h, static_cast<std::uint64_t>(block.txs.size()));
    for (const Transaction& tx : block.txs) h = hash_combine(h, tx.id);
  }
  return h;
}

}  // namespace stabl::chain

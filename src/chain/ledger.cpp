#include "chain/ledger.hpp"

#include <cassert>
#include <unordered_set>
#include <utility>

namespace stabl::chain {
namespace {

/// No transaction of `txs` is on `ledger` already, nor twice in `txs`.
[[maybe_unused]] bool all_fresh(const Ledger& ledger,
                                const std::vector<Transaction>& txs) {
  std::unordered_set<TxId> seen;
  for (const Transaction& tx : txs) {
    if (ledger.is_committed(tx.id) || !seen.insert(tx.id).second) {
      return false;
    }
  }
  return true;
}

}  // namespace

const Block& Ledger::append(std::vector<Transaction> txs,
                            std::uint64_t round, net::NodeId proposer,
                            sim::Time committed_at) {
  assert(committed_at >= last_commit_time());
  assert(all_fresh(*this, txs) && "transaction committed twice");
  if (store_ == nullptr) store_ = std::make_shared<BlockStore>();
  const BlockStore::Node* tip =
      blocks_.empty() ? nullptr : blocks_.back().node;
  const BlockStore::Node& node = store_->append(tip, std::move(txs));
  blocks_.push_back(Block{&node, round, proposer, committed_at});
  return blocks_.back();
}

const Block* Ledger::find(TxId id) const {
  if (blocks_.empty()) return nullptr;  // possibly no store yet
  const BlockStore::Node* node =
      store_->find(id, [this](const BlockStore::Node& candidate) {
        return candidate.height < blocks_.size() &&
               blocks_[candidate.height].node == &candidate;
      });
  return node == nullptr ? nullptr : &blocks_[node->height];
}

sim::Time Ledger::commit_time(TxId id) const {
  const Block* block = find(id);
  assert(block != nullptr);
  return block->committed_at;
}

std::size_t Ledger::block_index(TxId id) const {
  const Block* block = find(id);
  assert(block != nullptr);
  return block->height();
}

sim::Time Ledger::last_commit_time() const {
  return blocks_.empty() ? sim::Time{0} : blocks_.back().committed_at;
}

std::uint64_t Ledger::content_hash_at(std::uint64_t height) const {
  assert(height <= blocks_.size());
  return height == 0 ? BlockStore::kEmptyHash
                     : blocks_[height - 1].node->content_hash;
}

}  // namespace stabl::chain

// The decided blocks of one cluster, held once: an append-only,
// content-addressed tree that every replica's Ledger points into.
//
// A node is one decided block: its parent, height and transactions, plus
// two prefix summaries computed once when it is stored — the cumulative
// transaction count and the order-sensitive content hash of the chain
// ending at it. A node is addressed by its content: its parent and its
// transaction-id sequence. Appending content that a child of the parent
// already holds returns that child, so replicas that decide the same block
// share one node, and replicas that decide different blocks at one height
// (an equivocation split) branch into siblings: forks stay representable.
//
// The store owns the one transaction index (id -> node). A transaction
// normally sits in one node; on a fork it may sit in one node per branch,
// and the extra occurrences go to a side table. Whether a transaction is
// committed is a question about a path, so the store only answers "which
// node holding `id` does this predicate accept" (Ledger asks with its own
// path).
//
// Nothing is ever removed, and nodes never move: a Ledger, a sync payload
// or an Avalanche fetch reply may hold a node pointer for as long as the
// store lives. Not thread-safe; a store belongs to one simulation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "chain/tx_table.hpp"
#include "chain/types.hpp"

namespace stabl::chain {

class BlockStore {
 public:
  struct Node {
    /// nullptr at height 0.
    const Node* parent = nullptr;
    std::uint64_t height = 0;
    std::vector<Transaction> txs;
    /// Transactions in the chain ending at this node, this node included.
    std::uint64_t tx_count = 0;
    /// Ledger::content_hash() of the chain ending at this node.
    std::uint64_t content_hash = 0;

   private:
    friend class BlockStore;
    // Children of one parent, as an intrusive list in store order; mutable
    // because storing a block links it into its (stored, const) parent.
    mutable const Node* first_child = nullptr;
    mutable const Node* next_sibling = nullptr;
  };

  /// Content hash of the empty chain.
  static constexpr std::uint64_t kEmptyHash = 0x5374616221ull;

  BlockStore() = default;
  BlockStore(const BlockStore&) = delete;
  BlockStore& operator=(const BlockStore&) = delete;

  /// The child of `parent` (nullptr = the empty chain) whose transaction
  /// ids equal those of `txs`, in order; stored from `txs` when no child
  /// holds that content yet. `txs` is consumed only in that case.
  const Node& append(const Node* parent, std::vector<Transaction>&& txs);

  /// The first node holding transaction `id` that `accept` returns true
  /// for, or nullptr. Checks the first node stored with `id`, then the
  /// other branches' copies.
  template <typename Accept>
  [[nodiscard]] const Node* find(TxId id, Accept&& accept) const {
    const Node* const* first = index_.find(id);
    if (first == nullptr) return nullptr;
    if (accept(**first)) return *first;
    const auto [begin, end] = forked_.equal_range(id);
    for (auto it = begin; it != end; ++it) {
      if (accept(*it->second)) return it->second;
    }
    return nullptr;
  }

  /// Stored blocks, on every branch.
  [[nodiscard]] std::size_t size() const { return nodes_.size(); }

 private:
  std::deque<Node> nodes_;
  const Node* first_root_ = nullptr;  // children of the empty chain
  // tx id -> the first node stored with it.
  TxTable<const Node*> index_;
  // tx id -> each later node holding it (one per further branch).
  std::unordered_multimap<TxId, const Node*> forked_;
};

}  // namespace stabl::chain

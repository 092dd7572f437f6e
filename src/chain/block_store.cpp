#include "chain/block_store.hpp"

#include <algorithm>
#include <utility>

#include "chain/hash.hpp"

namespace stabl::chain {
namespace {

bool same_ids(const std::vector<Transaction>& a,
              const std::vector<Transaction>& b) {
  return std::equal(
      a.begin(), a.end(), b.begin(), b.end(),
      [](const Transaction& x, const Transaction& y) { return x.id == y.id; });
}

}  // namespace

const BlockStore::Node& BlockStore::append(const Node* parent,
                                           std::vector<Transaction>&& txs) {
  const Node** link =
      parent == nullptr ? &first_root_ : &parent->first_child;
  for (; *link != nullptr; link = &(*link)->next_sibling) {
    if (same_ids((*link)->txs, txs)) return **link;
  }

  Node& node = nodes_.emplace_back();
  node.parent = parent;
  node.height = parent == nullptr ? 0 : parent->height + 1;
  node.txs = std::move(txs);
  node.tx_count = (parent == nullptr ? 0 : parent->tx_count) + node.txs.size();
  // Only the agreed-upon content is hashed: heights and transaction
  // sequences. Commit times, rounds and proposers are replica-local.
  std::uint64_t h = parent == nullptr ? kEmptyHash : parent->content_hash;
  h = hash_combine(h, node.height);
  h = hash_combine(h, static_cast<std::uint64_t>(node.txs.size()));
  for (const Transaction& tx : node.txs) {
    h = hash_combine(h, tx.id);
    if (!index_.insert(tx.id, &node)) forked_.emplace(tx.id, &node);
  }
  node.content_hash = h;
  *link = &node;
  return node;
}

}  // namespace stabl::chain

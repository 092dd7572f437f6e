#include "chain/mempool.hpp"

#include <iterator>

namespace stabl::chain {

bool Mempool::add(const Transaction& tx) {
  if (by_id_.contains(tx.id)) {
    ++duplicate_submissions_;
    return false;
  }
  // A different transaction already occupying this (sender, nonce) slot is
  // a conflict; first-come-first-served (no fee-replacement modeled).
  const auto [pooled, inserted] = by_sender_[tx.from].try_emplace(tx.nonce, tx);
  if (!inserted) {
    ++duplicate_submissions_;
    return false;
  }
  by_id_.insert(tx.id, &pooled->second);
  return true;
}

bool Mempool::contains(TxId id) const { return by_id_.contains(id); }

const Transaction* Mempool::get(TxId id) const {
  const Transaction* const* pooled = by_id_.find(id);
  return pooled == nullptr ? nullptr : *pooled;
}

std::vector<Transaction> Mempool::collect_ready(
    std::size_t max_count, const NonceFn& next_nonce) const {
  ReadyStats stats;
  return collect_ready(max_count, next_nonce, stats);
}

std::vector<Transaction> Mempool::collect_ready(
    std::size_t max_count, const NonceFn& next_nonce,
    ReadyStats& stats) const {
  std::vector<Transaction> out;
  out.reserve(std::min(max_count, by_id_.size()));
  for (const auto& [sender, by_nonce] : by_sender_) {
    std::uint64_t expected = next_nonce(sender);
    auto it = by_nonce.lower_bound(expected);
    for (; it != by_nonce.end(); ++it) {
      if (it->first != expected) break;  // nonce gap: stop this sender
      if (out.size() >= max_count) return out;
      out.push_back(it->second);
      ++expected;
    }
    if (it != by_nonce.end()) {
      // Pooled transactions stranded behind the gap — the batch quota is
      // not the reason (that path returned above), a missing nonce is.
      ++stats.gap_stalled_senders;
      const auto stranded = static_cast<std::uint64_t>(
          std::distance(it, by_nonce.end()));
      stats.gap_stalled_txs += stranded;
      if (sender == kHotKey) stats.hot_gap_stalled_txs += stranded;
    }
  }
  return out;
}

void Mempool::remove(const std::vector<Transaction>& txs) {
  for (const Transaction& tx : txs) {
    const Transaction* const* pooled = by_id_.find(tx.id);
    if (pooled == nullptr) continue;
    const AccountId from = (*pooled)->from;
    const std::uint64_t nonce = (*pooled)->nonce;
    by_id_.erase(tx.id);
    auto sender_it = by_sender_.find(from);
    if (sender_it != by_sender_.end()) {
      sender_it->second.erase(nonce);
      if (sender_it->second.empty()) by_sender_.erase(sender_it);
    }
  }
}

void Mempool::remove_stale(const NonceFn& next_nonce) {
  for (auto sender_it = by_sender_.begin(); sender_it != by_sender_.end();) {
    const std::uint64_t expected = next_nonce(sender_it->first);
    auto& by_nonce = sender_it->second;
    for (auto it = by_nonce.begin();
         it != by_nonce.end() && it->first < expected;) {
      by_id_.erase(it->second.id);
      it = by_nonce.erase(it);
    }
    sender_it = by_nonce.empty() ? by_sender_.erase(sender_it)
                                 : std::next(sender_it);
  }
}

std::vector<TxId> Mempool::known_ids() const {
  std::vector<TxId> ids;
  ids.reserve(by_id_.size());
  for (const auto& [sender, by_nonce] : by_sender_) {
    for (const auto& [nonce, tx] : by_nonce) ids.push_back(tx.id);
  }
  return ids;
}

void Mempool::clear() {
  by_id_.clear();
  by_sender_.clear();
}

}  // namespace stabl::chain

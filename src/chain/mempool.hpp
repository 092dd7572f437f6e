// Deduplicating memory pool with per-sender nonce ordering.
//
// The paper leans on two mempool behaviours:
//  * deduplication — the secure client (§7) submits the same transaction to
//    t+1 nodes; "thanks to the deduplication mechanisms, legitimate
//    transactions are executed only once";
//  * nonce gaps — a transaction can only be proposed once all lower nonces
//    of its sender are executed (§7, Avalanche: "for a transaction of an
//    account owner to be executed, all its previous transactions (with
//    lower nonces) must first reach the leader").
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "chain/tx_table.hpp"
#include "chain/types.hpp"

namespace stabl::chain {

class Mempool {
 public:
  /// Resolver from account to the next expected nonce (the replica's view).
  using NonceFn = std::function<std::uint64_t(AccountId)>;

  Mempool() = default;
  // by_id_ points into by_sender_'s nodes, so a copy would point into
  // the original.
  Mempool(const Mempool&) = delete;
  Mempool& operator=(const Mempool&) = delete;

  /// Add a transaction. Returns true when newly added; false for
  /// duplicates (which are counted, see duplicate_submissions()).
  bool add(const Transaction& tx);

  [[nodiscard]] bool contains(TxId id) const;
  /// The pooled transaction, or null; valid until the pool next changes.
  [[nodiscard]] const Transaction* get(TxId id) const;
  [[nodiscard]] std::size_t size() const { return by_id_.size(); }
  [[nodiscard]] bool empty() const { return by_id_.empty(); }

  /// Collect up to `max_count` transactions whose nonces are consecutive
  /// from each sender's current nonce (i.e. executable as a batch).
  /// Deterministic: senders are visited in increasing AccountId order.
  [[nodiscard]] std::vector<Transaction> collect_ready(
      std::size_t max_count, const NonceFn& next_nonce) const;

  /// What collect_ready left behind: senders whose pooled transactions
  /// could not be proposed because a lower nonce has not arrived here yet
  /// — the paper's §7 ordering hazard ("all its previous transactions
  /// (with lower nonces) must first reach the leader"), which the traffic
  /// model's shared hot wallet (kHotKey) turns into a cluster-wide stall.
  struct ReadyStats {
    std::uint64_t gap_stalled_senders = 0;
    std::uint64_t gap_stalled_txs = 0;
    std::uint64_t hot_gap_stalled_txs = 0;  ///< Of those, from kHotKey.
  };
  [[nodiscard]] std::vector<Transaction> collect_ready(
      std::size_t max_count, const NonceFn& next_nonce,
      ReadyStats& stats) const;

  /// Remove the given transactions (after they committed).
  void remove(const std::vector<Transaction>& txs);

  /// Drop transactions whose nonce is below the sender's current nonce
  /// (already executed elsewhere — arises with the secure client).
  void remove_stale(const NonceFn& next_nonce);

  /// All transaction ids currently pooled (for pull gossip).
  [[nodiscard]] std::vector<TxId> known_ids() const;

  void clear();

  /// Count of add() calls that hit the deduplication path.
  [[nodiscard]] std::uint64_t duplicate_submissions() const {
    return duplicate_submissions_;
  }

 private:
  // Dedup index: tx id -> the pooled transaction in by_sender_ (a map
  // node does not move, and both entries are erased together).
  TxTable<const Transaction*> by_id_;
  // sender -> nonce -> transaction; ordered maps give deterministic
  // iteration.
  std::map<AccountId, std::map<std::uint64_t, Transaction>> by_sender_;
  std::uint64_t duplicate_submissions_ = 0;
};

}  // namespace stabl::chain

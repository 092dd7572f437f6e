// Core blockchain data types shared by all five protocol models.
//
// Terminology follows Table 1 of the paper:
//  * crash            — node halted and not restarted during the experiment
//  * transient failure — node halted and restarted later with the same
//                        identity
//  * partition        — loss of network connectivity between subsets of
//                        nodes
//  * leader           — node with a distinguished role in the current
//                        consensus round
//  * sensitivity      — deviation of transaction latencies in response to
//                        variations in the execution environment
//  * resilience       — system latency under failures
//  * recoverability   — ability to recover after a transient failure
//  * f                — number of failures in an experiment
//  * t_B              — maximum number of failures tolerated by chain B
//  * n                — number of nodes in the blockchain network
#pragma once

#include <cstdint>

#include "net/message.hpp"
#include "sim/time.hpp"

namespace stabl::chain {

/// Transaction identifier (content hash in a real chain).
using TxId = std::uint64_t;

/// Account identifier. The paper's workload uses one account per client;
/// the traffic model (core/traffic.hpp) assigns many per client.
using AccountId = std::uint32_t;

/// Reserved shared "hot wallet" account the traffic model's contended
/// transactions are sent FROM (an exchange's omnibus wallet during a
/// withdrawal rush). Every client draws globally-sequenced nonces for it,
/// so its inclusion order is a cluster-wide serialization point: chains
/// that order by nonce (Avalanche) stall on gossip-induced gaps, and
/// optimistic executors (Aptos Block-STM) pay re-execution for the
/// unpredicted write-write conflicts. Default workloads never touch it.
inline constexpr AccountId kHotKey = 999'999'999u;

/// Transfer sink of the hot wallet's transactions.
inline constexpr AccountId kHotSink = 999'999'998u;

/// A native transfer transaction — the only transaction type the paper's
/// workload submits (§8: "the workload ... only sends native transfer
/// transactions at a constant rate of 200 TPS").
struct Transaction {
  TxId id = 0;
  AccountId from = 0;
  AccountId to = 0;
  std::uint64_t amount = 0;
  /// Per-sender sequence number; consecutive nonces enforce issuance order.
  std::uint64_t nonce = 0;
  /// Client-side submission time, carried for bookkeeping in tests; the
  /// latency metric uses the client's own records, not this field.
  sim::Time submitted_at{0};
};

/// Client -> node RPC: submit one transaction.
struct SubmitTxPayload final : net::PayloadOf<SubmitTxPayload> {
  explicit SubmitTxPayload(Transaction transaction) : tx(transaction) {}
  Transaction tx;
};

/// Node -> client notification: a watched transaction committed.
///
/// `result_hash` digests the execution result (block + position) so that a
/// client talking to several replicas can check that their answers agree —
/// the credence.js idea the paper recommends for Redbelly (§7): a response
/// is only trusted once it is "replicated at at least f+1 nodes".
struct CommitNotifyPayload final : net::PayloadOf<CommitNotifyPayload> {
  CommitNotifyPayload(TxId tx, sim::Time at, std::uint64_t hash)
      : id(tx), committed_at(at), result_hash(hash) {}
  TxId id;
  sim::Time committed_at;
  std::uint64_t result_hash;
};

}  // namespace stabl::chain

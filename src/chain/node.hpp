// Base class for the five blockchain node implementations.
//
// A BlockchainNode is a simulated process attached to the network. The base
// class provides everything the paper's harness interacts with and that is
// common across chains:
//  * the TCP-like connection manager (per-chain reconnection policy);
//  * the mempool (deduplication, nonce ordering) and client RPC handling
//    (submit + committed-notification watchers);
//  * the persistent ledger + account state, with replay on restart;
//  * a block-transfer state-sync service used by restarted replicas;
//  * a CPU capacity model.
//
// Subclasses implement the consensus protocol: start_protocol(),
// on_app_message() and the commit decision, calling commit_block() when a
// batch of transactions is decided.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <memory>
#include <unordered_map>
#include <vector>

#include "chain/account.hpp"
#include "chain/cpu.hpp"
#include "chain/ledger.hpp"
#include "chain/mempool.hpp"
#include "chain/types.hpp"
#include "core/misbehavior.hpp"
#include "net/connection.hpp"
#include "net/network.hpp"
#include "sim/process.hpp"

namespace stabl::chain {

/// A batch of transactions on the wire; chains reuse this for tx gossip.
struct TxBatchPayload final : net::PayloadOf<TxBatchPayload> {
  explicit TxBatchPayload(std::vector<Transaction> batch)
      : txs(std::move(batch)) {}
  std::vector<Transaction> txs;
};

/// State-sync: "send me blocks from this height".
struct SyncRequestPayload final : net::PayloadOf<SyncRequestPayload> {
  explicit SyncRequestPayload(std::uint64_t height) : from_height(height) {}
  std::uint64_t from_height;
};

/// State-sync: a chunk of the serving replica's blocks starting at
/// `from_height`. The blocks point into the server's store; a receiver
/// sharing that store appends the same nodes.
struct SyncResponsePayload final : net::PayloadOf<SyncResponsePayload> {
  SyncResponsePayload(std::uint64_t height, std::vector<Block> chunk)
      : from_height(height), blocks(std::move(chunk)) {}
  std::uint64_t from_height;
  std::vector<Block> blocks;
};

struct NodeConfig {
  net::NodeId id = 0;
  std::size_t n = 10;  ///< number of blockchain nodes (NodeIds 0..n-1)
  double vcpus = 4.0;  ///< paper default; 8.0 for the §7 experiment
  std::uint64_t network_seed = 0;
  net::ConnectionPolicy connection{};
  /// Process boot time after a restart (binary start + ledger open);
  /// contributes to the chain-specific transient recovery times.
  sim::Duration restart_boot_delay = sim::sec(3);
  /// Overlay topology: peers this node maintains connections to. Empty =
  /// fully connected (the paper's deployment). Chains with hierarchical
  /// topologies (Algorand relay nodes) restrict this.
  std::vector<net::NodeId> peers;
  /// Peer-misbehavior defense knobs (disabled by default; the registered
  /// "misbehavior_defense"/"misbehavior_ban" chain parameters set them).
  core::MisbehaviorConfig misbehavior{};
  /// Decided-block store the node's ledger appends into. run_experiment
  /// hands one store to every node of a cluster; with null the ledger
  /// makes a private store at its first commit.
  std::shared_ptr<BlockStore> store;
};

class BlockchainNode : public sim::Process, public net::Endpoint {
 public:
  BlockchainNode(sim::Simulation& simulation, net::Network& network,
                 NodeConfig config);

  // net::Endpoint
  void deliver(const net::Envelope& envelope) final;
  [[nodiscard]] bool endpoint_alive() const final { return alive(); }

  [[nodiscard]] net::NodeId node_id() const { return config_.id; }
  [[nodiscard]] std::size_t cluster_size() const { return config_.n; }
  [[nodiscard]] const Ledger& ledger() const { return ledger_; }
  [[nodiscard]] const Mempool& mempool() const { return mempool_; }
  [[nodiscard]] const AccountState& accounts() const { return accounts_; }
  [[nodiscard]] const CpuModel& cpu() const { return cpu_; }

  /// Make this node's RPC endpoint Byzantine: it confirms every submitted
  /// transaction immediately with a fabricated result hash and never
  /// forwards it — the "trusting one specific node effectively brings the
  /// number of tolerated Byzantine faults to zero" attack of §7.
  void set_rpc_byzantine(bool byzantine) { rpc_byzantine_ = byzantine; }
  [[nodiscard]] bool rpc_byzantine() const { return rpc_byzantine_; }

  /// Compromise this node with equivocation (kEquivocate): every broadcast
  /// whose payload the chain can equivocate is split-brained — one half of
  /// the peers receives the original, the other half a conflicting variant
  /// built by the chain's equivocate_payload() hook.
  void set_equivocating(bool on) { equivocating_ = on; }
  [[nodiscard]] bool equivocating() const { return equivocating_; }

  /// Compromise this node with withholding (kWithhold): broadcasts the
  /// chain marks withholdable() are suppressed; the first suppressed
  /// payload is replayed (stale) in place of every later fresh one.
  void set_withholding(bool on) {
    withholding_ = on;
    if (!on) withheld_replay_.reset();
  }
  [[nodiscard]] bool withholding() const { return withholding_; }

  /// The peer-misbehavior scorer guarding this node's inbound traffic.
  [[nodiscard]] const core::MisbehaviorScorer& misbehavior() const {
    return misbehavior_;
  }

  /// Adversarial/defense diagnostic counters, aggregated by the harness
  /// separately from the chain-specific metrics(). All zero on benign runs.
  [[nodiscard]] std::map<std::string, double> adversarial_metrics() const;

  /// Result digest a correct replica reports for a committed transaction;
  /// identical across replicas (position in the agreed block sequence).
  static std::uint64_t result_hash(TxId id, const Block& block);

  /// Chain-specific diagnostic counters (the quantities the paper digs out
  /// of node logs: speculative aborts, throttled messages, empty rounds,
  /// panics, ...). Keys are short snake_case names; values are counts.
  [[nodiscard]] virtual std::map<std::string, double> metrics() const {
    return {};
  }

 protected:
  /// Consensus lifecycle hooks.
  virtual void start_protocol() = 0;
  virtual void stop_protocol() {}
  virtual void on_app_message(const net::Envelope& envelope) = 0;
  virtual void on_peer_up(net::NodeId peer) { (void)peer; }
  virtual void on_peer_down(net::NodeId peer) { (void)peer; }

  /// A new transaction entered the mempool (client RPC or gossip).
  virtual void on_transaction(const Transaction& tx) { (void)tx; }

  /// Client RPC entry point; default pools the transaction. Solana
  /// overrides this (no mempool: transactions are forwarded to leaders).
  virtual void accept_transaction(const Transaction& tx);

  /// Commit a decided batch. Filters transactions that are already
  /// committed or not applicable (nonce/balance), applies the rest, appends
  /// a block and notifies client watchers. Returns the appended block, or
  /// nullptr when everything was filtered out and `allow_empty` is false.
  /// Chains that need height to track their round counter (Redbelly) pass
  /// allow_empty = true so empty rounds still produce a block.
  const Block* commit_block(std::vector<Transaction> txs,
                            net::NodeId proposer, std::uint64_t round = 0,
                            bool allow_empty = false);

  /// Record that this node put `txs` into a consensus proposal (batch,
  /// candidate, bank, ...) for `round`. Chains call this where they build
  /// the proposal payload; it stamps the lifecycle kProposed stage for
  /// each transaction and emits one batch-level trace instant. First-reach
  /// semantics: re-proposals of the same transaction keep the first time.
  void mark_proposed(const std::vector<Transaction>& txs,
                     std::uint64_t round);

  /// Hook invoked after a state-sync chunk was applied to the ledger.
  virtual void on_synced() {}

  /// kEquivocate hook: return a payload conflicting with `payload` (same
  /// round/slot, different content) or nullptr when this payload cannot be
  /// equivocated. Only consulted while the node is compromised.
  [[nodiscard]] virtual net::PayloadPtr equivocate_payload(
      const net::PayloadPtr& payload) {
    (void)payload;
    return nullptr;
  }

  /// kWithhold hook: true when `payload` is a proposal/vote the adversary
  /// suppresses. Only consulted while the node is compromised.
  [[nodiscard]] virtual bool withholdable(const net::Payload& payload) const {
    (void)payload;
    return false;
  }

  /// Chains call this when they hold protocol-level evidence that `peer`
  /// misbehaved (conflicting payloads for one round/slot, stale replay).
  /// No-op while the defense is disabled.
  void report_misbehavior(net::NodeId peer, core::Offense offense);

  /// Pool a transaction learned from another node (gossip), with the same
  /// dedup/stale checks as the RPC path. Returns true when newly pooled.
  bool pool_transaction(const Transaction& tx);

  /// Ask `peer` for blocks we are missing (restart catch-up).
  void request_sync(net::NodeId peer);

  /// Send/broadcast over established connections to blockchain peers.
  bool send_to(net::NodeId peer, net::PayloadPtr payload,
               std::uint32_t bytes = 256);
  void broadcast(const net::PayloadPtr& payload, std::uint32_t bytes = 256);

  [[nodiscard]] net::ConnectionManager& connections() { return connections_; }
  [[nodiscard]] Mempool& mutable_mempool() { return mempool_; }
  [[nodiscard]] CpuModel& mutable_cpu() { return cpu_; }
  [[nodiscard]] sim::Rng& rng() { return rng_; }
  [[nodiscard]] net::Network& network() { return net_; }
  [[nodiscard]] std::uint64_t network_seed() const {
    return config_.network_seed;
  }
  [[nodiscard]] const NodeConfig& config() const { return config_; }
  [[nodiscard]] bool booted() const { return booted_; }

  /// True for ids of blockchain nodes (as opposed to client machines).
  [[nodiscard]] bool is_blockchain_peer(net::NodeId id) const {
    return id < config_.n;
  }

  // sim::Process
  void on_start() final;
  void on_crash() final;

 private:
  void boot();
  void handle_submit(const net::Envelope& envelope);
  void handle_sync_request(const net::Envelope& envelope);
  void handle_sync_response(const net::Envelope& envelope);
  void notify_watchers(const Block& block);
  void rebuild_accounts();

  NodeConfig config_;
  net::Network& net_;
  net::ConnectionManager connections_;
  Mempool mempool_;
  Ledger ledger_;  // persistent across restarts
  AccountState accounts_;
  CpuModel cpu_;
  sim::Rng rng_;
  bool booted_ = false;
  // tx id -> client machines waiting for the commit notification. Volatile.
  std::unordered_map<TxId, std::vector<net::NodeId>> watchers_;
  bool rpc_byzantine_ = false;
  // Adversarial compromise switches (fault engine, kEquivocate/kWithhold).
  bool equivocating_ = false;
  bool withholding_ = false;
  net::PayloadPtr withheld_replay_;  // first suppressed payload
  std::uint64_t equivocations_sent_ = 0;
  std::uint64_t withheld_count_ = 0;
  // Defense: inbound peer reputation. `misbehavior_active_` flips on at
  // the first reported offense, so an armed-but-idle scorer costs one
  // branch per delivery (gated by bench/micro_adversarial_overhead).
  core::MisbehaviorScorer misbehavior_;
  bool misbehavior_active_ = false;
  std::uint64_t misbehavior_dropped_ = 0;
};

}  // namespace stabl::chain

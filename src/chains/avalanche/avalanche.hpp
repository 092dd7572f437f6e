// Avalanche (C-Chain / Snowman) model (paper §2, §4-§7).
//
// Consensus is the Snow family: to decide the block at a height, every node
// repeatedly samples k peers *from the whole validator set* (sampling is
// stake-based and liveness-oblivious, so crashed nodes keep being sampled),
// queries their preference, and counts a success when at least α of the
// answers agree with its own preference, switching preference when α agree
// on something else; β consecutive successes decide. Blocks are issued
// every ~2 s and carry at most 714 transfers (15 M gas / 21 k gas per
// transfer — the ~357 TPS capacity the paper quotes).
//
// Transactions propagate through batched random gossip out of an unordered
// pool ("the gossip-based protocol collects transactions from a HashMap in
// a loop, but HashMap keys do not enforce order"), so a sender's
// lower-nonce transaction can reach the proposer *after* a higher-nonce
// one, delaying both. Sending to t+1 nodes (the secure client) seeds four
// pools at once, which is why redundancy *improves* Avalanche's latency in
// Fig. 3d (the largest striped bar).
//
// All inbound protocol traffic passes through the InboundThrottler (see
// throttler.hpp): under crashes the nodes hover at their CPU quota and
// throughput turns unstable (Fig. 4); under transient failures or
// partitions, full gossip batches plus always-on polling exceed the
// throttled service rate, chits go stale, polls re-issue, and the overload
// becomes self-sustaining — no block is ever agreed again, even after every
// node is back (Figs. 5, 6: infinite sensitivity). Disabling the throttler
// (ablation) restores recovery.
//
// Like the Redbelly model, concurrent deciders are anchored to one
// canonical block per height via a shared AnchorLog — agreement that real
// Snowball reaches probabilistically; latency and liveness still come from
// the simulated message exchange.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "chain/node.hpp"
#include "chains/avalanche/throttler.hpp"

namespace stabl::avalanche {

struct AvalancheConfig {
  // Snowball parameters (scaled to n = 10; k <= n-1 and α > k/2).
  int sample_k = 6;
  int alpha = 5;
  int beta = 8;
  sim::Duration poll_interval = sim::ms(50);
  sim::Duration query_timeout = sim::ms(1000);

  // Block production.
  sim::Duration block_interval = sim::sec(2);
  sim::Duration attempt_timeout = sim::sec(1);
  std::size_t max_block_txs = 714;

  // Transaction gossip.
  sim::Duration gossip_interval = sim::ms(250);
  int gossip_fanout = 2;
  std::size_t gossip_batch = 128;
  int gossip_max_sends = 2;  // batches each tx is put into, per node

  // Message processing costs charged to the throttler's CPU tracker.
  sim::Duration cost_query = sim::us(4000);
  sim::Duration cost_chit = sim::us(4000);
  sim::Duration cost_candidate = sim::ms(3);
  sim::Duration cost_decided = sim::ms(1);
  sim::Duration cost_batch_overhead = sim::us(1500);
  sim::Duration cost_per_tx = sim::us(150);

  ThrottlerConfig throttler{};

  sim::Duration dead_after = sim::sec(10);
  sim::Duration dial_retry_period = sim::sec(30);
  sim::Duration restart_boot_delay = sim::sec(3);
};

/// Canonical block-per-height anchor shared by the cluster.
class AnchorLog {
 public:
  /// Register `block_id` for `height`; returns the canonical id.
  std::uint64_t decide(std::uint64_t height, std::uint64_t block_id);
  [[nodiscard]] const std::uint64_t* get(std::uint64_t height) const;

 private:
  std::map<std::uint64_t, std::uint64_t> ids_;
};

class AvalancheNode final : public chain::BlockchainNode {
 public:
  AvalancheNode(sim::Simulation& simulation, net::Network& network,
                chain::NodeConfig node_config, AvalancheConfig config,
                std::shared_ptr<AnchorLog> anchors);

  [[nodiscard]] std::uint64_t current_height() const { return height_; }
  [[nodiscard]] const InboundThrottler& throttler() const {
    return throttler_;
  }

  /// Hot-wallet transactions found stranded behind a nonce gap at propose
  /// time, summed over proposals (zero under the default workload).
  [[nodiscard]] std::uint64_t hot_nonce_stalls() const {
    return hot_nonce_stalls_;
  }

  [[nodiscard]] std::map<std::string, double> metrics() const override {
    std::map<std::string, double> out{
        {"throttled_dropped", static_cast<double>(throttler_.dropped())},
        {"throttled_queued", static_cast<double>(throttler_.queued())},
        {"messages_processed",
         static_cast<double>(throttler_.processed())},
        {"height", static_cast<double>(height_)}};
    // Elide-when-zero keeps default-workload report bytes unchanged.
    if (hot_nonce_stalls_ > 0) {
      out.emplace("hot_nonce_stalls",
                  static_cast<double>(hot_nonce_stalls_));
    }
    return out;
  }

 protected:
  void start_protocol() override;
  void stop_protocol() override;
  void on_app_message(const net::Envelope& envelope) override;
  void on_transaction(const chain::Transaction& tx) override;
  void on_synced() override;
  [[nodiscard]] net::PayloadPtr equivocate_payload(
      const net::PayloadPtr& payload) override;
  [[nodiscard]] bool withholdable(const net::Payload& payload) const override;

 private:
  struct Candidate {
    std::uint64_t id = 0;
    net::NodeId proposer = 0;
    std::vector<chain::Transaction> txs;
  };
  struct Poll {
    std::uint64_t preferred = 0;
    std::map<std::uint64_t, int> counts;
    int responses = 0;
    int sent = 0;
    sim::Time deadline{0};
    bool open = true;
  };

  void begin_height();
  void handle_app(const net::Envelope& envelope);
  [[nodiscard]] net::NodeId proposer_of(std::uint64_t height,
                                        int attempt) const;
  void propose();
  void arm_attempt_timer(sim::Duration delay);
  void on_attempt_timeout();
  void poll_tick();
  void issue_poll();
  void evaluate_poll(std::uint64_t poll_id);
  void on_decision(std::uint64_t id);
  void commit_decided(const Candidate& candidate);
  void gossip_tick();
  void request_fetch();
  [[nodiscard]] sim::Duration message_cost(const net::Envelope& e) const;

  AvalancheConfig config_;
  std::shared_ptr<AnchorLog> anchors_;
  InboundThrottler throttler_;

  // Volatile consensus state for the height being decided.
  std::uint64_t height_ = 0;
  sim::Time height_start_{0};
  int attempt_ = 0;
  std::unordered_map<std::uint64_t, Candidate> candidates_;
  std::uint64_t preference_ = 0;  // 0 = none yet
  int success_ = 0;
  bool decided_ = false;
  std::uint64_t decided_id_ = 0;   // nonzero while waiting for content
  std::map<std::uint64_t, Poll> polls_;
  std::uint64_t next_poll_id_ = 1;
  // Recent decisions, to answer laggards' queries.
  std::map<std::uint64_t, std::uint64_t> decided_ids_;
  // Gossip bookkeeping: txs not yet placed into `gossip_max_sends` batches.
  std::vector<chain::TxId> gossip_queue_;
  std::unordered_map<chain::TxId, int> gossip_sent_;
  std::uint64_t hot_nonce_stalls_ = 0;
};

/// Throws std::invalid_argument when n < sample_k + 1: a Snowball poll
/// needs sample_k distinct peers besides the poller.
std::vector<std::unique_ptr<chain::BlockchainNode>> make_cluster(
    sim::Simulation& simulation, net::Network& network,
    chain::NodeConfig node_config_template, AvalancheConfig config = {});

/// No-op that anchors this chain's ChainRegistrar: a binary that calls it
/// (core::chain_registry() does) cannot have the registration object's
/// translation unit dropped by the static-archive linker.
void ensure_registered();

}  // namespace stabl::avalanche

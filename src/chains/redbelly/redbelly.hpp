// Redbelly blockchain model (paper §2, §4-§7).
//
// Redbelly builds on DBFT, a *leaderless*, deterministic Byzantine
// consensus for partially synchronous networks, and commits *superblocks*:
// the union of as many valid proposed blocks as possible, so throughput
// scales with the number of proposers and an accumulated backlog clears in
// one or two rounds (the sharp recovery peak of Fig. 5).
//
// Protocol model. Each round r:
//   1. every node broadcasts a Proposal carrying its ready mempool batch;
//   2. after a short collection window each node broadcasts an Echo listing
//      the proposers it has seen;
//   3. a node holding echoes from a quorum (n - t) computes the candidate
//      superblock — proposals echoed by at least t+1 nodes — and commits it,
//      broadcasting a Commit so that everyone else adopts the decision.
// Agreement across concurrent deciders is anchored by a DecisionLog shared
// by the cluster: the first candidate registered for a round becomes
// canonical. This is a standard simulation device — real DBFT reaches the
// same agreement through its binary consensus instances; the *latency* and
// *liveness* of a decision still come entirely from the simulated message
// exchange (a node can only decide or adopt after quorum communication),
// which is what the experiments measure.
//
// Fault behaviour reproduced:
//  * f = t crashes: any node reaching quorum decides; no leader, no
//    timeouts on the critical path — throughput stays flat (Fig. 4).
//  * f = t+1 transient: quorum lost, rounds stall; restarted nodes dial
//    back actively, state-sync, and the next superblock absorbs the whole
//    backlog (~7 s recovery, Fig. 5).
//  * partition: break detected only after MaxIdleTime of silence and
//    redials are periodic, so recovery is slow (~81 s, Fig. 6); the
//    MaxIdleTime ablation shows the developers' suggested speed-up.
//  * secure client: a transaction sent to t+1 nodes appears in several
//    proposals and is included at the *earliest* proposing node's pace —
//    a slight latency improvement (striped bar in Fig. 3d).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "chain/node.hpp"

namespace stabl::redbelly {

struct RedbellyConfig {
  /// Wait for other nodes' proposals before echoing.
  sim::Duration proposal_window = sim::ms(400);
  /// Pause between committing round r and proposing round r+1 (block
  /// pacing); a per-round jitter of up to `pacing_jitter` is added, which
  /// is what lets a secure client catch an earlier proposer.
  sim::Duration round_pacing = sim::ms(500);
  sim::Duration pacing_jitter = sim::ms(200);
  /// Re-broadcast the current round's proposal/echo while it is stuck
  /// (drives recovery after reconnection).
  sim::Duration rebroadcast_interval = sim::sec(2);
  /// Superblock capacity: effectively unbounded relative to the workload.
  std::size_t max_batch = 25'000;
  /// MaxIdleTime: inbound silence before a connection is declared broken
  /// (Redbelly developers confirmed 30 s would speed up recovery; the
  /// deployed default behaves like 60 s).
  sim::Duration max_idle_time = sim::sec(60);
  /// Periodic redial after a failed connection attempt.
  sim::Duration dial_retry_period = sim::sec(155);
  /// Process boot time after a restart.
  sim::Duration restart_boot_delay = sim::sec(5);
};

/// Shared agreement anchor (see file comment).
class DecisionLog {
 public:
  struct Decision {
    std::vector<net::NodeId> proposers;
    std::vector<chain::Transaction> txs;
  };

  /// Register `candidate` for `round`; returns the canonical decision
  /// (the first registered candidate wins).
  const Decision& decide(std::uint64_t round, Decision candidate);

  [[nodiscard]] const Decision* get(std::uint64_t round) const;

 private:
  std::map<std::uint64_t, Decision> decisions_;
};

class RedbellyNode final : public chain::BlockchainNode {
 public:
  RedbellyNode(sim::Simulation& simulation, net::Network& network,
               chain::NodeConfig node_config, RedbellyConfig config,
               std::shared_ptr<DecisionLog> decisions);

  [[nodiscard]] std::uint64_t current_round() const { return round_; }

  [[nodiscard]] std::map<std::string, double> metrics() const override {
    return {{"round", static_cast<double>(round_)},
            {"duplicate_submissions",
             static_cast<double>(mempool().duplicate_submissions())}};
  }

 protected:
  void start_protocol() override;
  void stop_protocol() override;
  void on_app_message(const net::Envelope& envelope) override;
  void on_peer_up(net::NodeId peer) override;
  void on_synced() override;
  [[nodiscard]] net::PayloadPtr equivocate_payload(
      const net::PayloadPtr& payload) override;
  [[nodiscard]] bool withholdable(const net::Payload& payload) const override;

 private:
  void schedule_round_start();
  void start_round();
  void send_echo();
  void maybe_decide();
  void adopt_decision(std::uint64_t round,
                      const std::vector<chain::Transaction>& txs,
                      net::NodeId decider);
  void commit_round(const std::vector<chain::Transaction>& txs,
                    net::NodeId decider);
  /// Close the current round and drop everything received for it.
  void clear_round();
  void reset_round_state();
  /// Hold `echoer`'s echo and move its proposers' counts from the echo
  /// it replaces, if any.
  void record_echo(net::NodeId echoer, net::PayloadPtr echo);
  void rebroadcast();
  [[nodiscard]] std::size_t quorum() const;
  [[nodiscard]] std::size_t t() const;

  RedbellyConfig config_;
  std::shared_ptr<DecisionLog> decisions_;

  // Volatile per-round state (cleared on crash). Proposals and echoes are
  // the shared payloads they arrived in, indexed by proposer and echoer
  // (only cluster nodes, ids below cluster_size(), send either).
  // `echo_counts_[p]` is the number of held echoes listing proposer p and
  // `echoers_` the number of held echoes; both change only together with
  // `echoes_`, so maybe_decide() reads them instead of re-tallying.
  std::uint64_t round_ = 0;
  bool round_open_ = false;
  bool echoed_ = false;
  std::vector<net::PayloadPtr> proposals_;
  std::vector<net::PayloadPtr> echoes_;
  std::vector<std::uint32_t> echo_counts_;
  std::size_t echoers_ = 0;
  sim::TimerId echo_timer_ = sim::kInvalidTimer;
  sim::TimerId rebroadcast_timer_ = sim::kInvalidTimer;
  net::PayloadPtr own_proposal_;
  net::PayloadPtr own_echo_;
};

/// A round's proposal and echo as a node sends them, for harnesses that
/// script a peer. The payload types stay in redbelly.cpp: with internal
/// linkage, a dynamic_cast that misses them skips libstdc++'s type-name
/// strcmp on every delivered message.
net::PayloadPtr make_proposal(std::uint64_t round, net::NodeId proposer,
                              std::vector<chain::Transaction> txs);
net::PayloadPtr make_echo(std::uint64_t round, std::vector<net::NodeId> seen);

/// Build a Redbelly cluster of `node_config_template.n` nodes (ids 0..n-1).
/// The template's `id` field is overwritten per node.
std::vector<std::unique_ptr<chain::BlockchainNode>> make_cluster(
    sim::Simulation& simulation, net::Network& network,
    chain::NodeConfig node_config_template, RedbellyConfig config = {});

/// No-op that anchors this chain's ChainRegistrar: a binary that calls it
/// (core::chain_registry() does) cannot have the registration object's
/// translation unit dropped by the static-archive linker.
void ensure_registered();

}  // namespace stabl::redbelly

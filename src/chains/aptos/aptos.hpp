// Aptos model (paper §2, §4-§7).
//
// Aptos runs AptosBFT (DiemBFT, a HotStuff descendant): a *leader-based*
// protocol with rotating leaders, a pacemaker that advances rounds through
// timeout certificates when the leader fails, and a leader-reputation
// mechanism that eventually drops unresponsive validators from the
// rotation. Execution is Block-STM: speculative parallel execution whose
// wasted re-executions (SEQUENCE_NUMBER_TOO_OLD) are what the paper blames
// for the secure-client degradation in §7 — duplicated transactions add
// CPU load, forcing the authors onto 8-vCPU VMs.
//
// Behaviours reproduced:
//  * f = t crashes (Fig. 4): rounds led by dead validators burn a pacemaker
//    timeout each; throughput oscillates until leader reputation excludes
//    the dead validators (~80 s), then stabilizes — "the throughput
//    instability reduces in about 82 seconds".
//  * f = t+1 transient (Fig. 5): quorum lost, rounds stall; after restart
//    the chain resumes quickly, but block capacity is only modestly above
//    the offered load, so the accumulated backlog never drains before the
//    experiment ends — "Aptos fails to clear the backlog ... performance
//    remains degraded for the rest of the experiment".
//  * partition (Fig. 6): connectivity is probed every 5 s, so reconnection
//    after the partition heals is fast and the partition score matches the
//    transient score.
//  * secure client (Fig. 3d): duplicate arrivals trigger speculative
//    re-execution work on the CPU model; at 4 vCPUs the node saturates
//    (hence the paper's 8-vCPU deployment), at 8 vCPUs latency still
//    degrades measurably.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "chain/node.hpp"

namespace stabl::aptos {

struct AptosConfig {
  /// Leader pacing: delay between entering a round and proposing.
  sim::Duration block_interval = sim::ms(250);
  /// Pacemaker round timeout (flat; DiemBFT's exponential backoff is
  /// capped aggressively in production deployments).
  sim::Duration round_timeout = sim::ms(500);
  /// Proposal batch limit — bounds chain capacity to well under 2x the
  /// offered load, which is what makes the post-transient backlog stick
  /// around for the rest of the run.
  std::size_t max_block_txs = 120;
  /// Consecutive failed leader rounds before reputation excludes a node.
  int leader_fail_threshold = 10;
  /// Having voted for a proposal extending parent p, refuse to endorse a
  /// *sibling* (another proposal extending the same p) for this many
  /// rounds. A committed round implies a quorum of voters, so a quorum
  /// stays locked while the commit certificate propagates — the lossy-link
  /// race in which part of the cluster commits round R while the rest
  /// certifies a sibling at the same height cannot close within the
  /// window. Expires for liveness: the voted round may really be dead.
  int sibling_lockout_rounds = 3;
  /// CPU cost of executing one transaction (Block-STM, per-core).
  sim::Duration per_tx_exec = sim::ms(2);
  /// Block-STM work wasted per duplicate arrival (the speculative
  /// execution that aborts with SEQUENCE_NUMBER_TOO_OLD). It contends with
  /// block execution, which is what degrades commit latency under the
  /// secure client.
  sim::Duration duplicate_exec = sim::us(1200);
  /// Cap on accumulated speculative work charged to one block execution.
  sim::Duration max_spec_work_per_block = sim::sec(2);
  /// Block-STM work wasted per write-write conflict re-execution: every
  /// hot-wallet transaction in a block beyond the first touches state a
  /// concurrently scheduled one wrote, aborts validation and re-executes.
  /// Same-sender nonce runs are statically predicted by the scheduler and
  /// cost nothing extra; the shared hot key (chain::kHotKey) is exactly
  /// the cross-client conflict the predictor cannot see.
  sim::Duration conflict_exec = sim::us(900);
  /// Connectivity probing (paper: every 5 s, 2 s backoff base) makes
  /// partition recovery fast.
  sim::Duration dead_after = sim::sec(10);
  sim::Duration dial_retry_period = sim::sec(5);
  sim::Duration restart_boot_delay = sim::sec(3);
};

class AptosNode final : public chain::BlockchainNode {
 public:
  AptosNode(sim::Simulation& simulation, net::Network& network,
            chain::NodeConfig node_config, AptosConfig config);

  [[nodiscard]] std::uint64_t current_round() const { return round_; }
  [[nodiscard]] const std::set<net::NodeId>& excluded_leaders() const {
    return excluded_;
  }
  /// Count of speculative duplicate re-executions (SEQUENCE_NUMBER_TOO_OLD).
  [[nodiscard]] std::uint64_t speculative_aborts() const {
    return speculative_aborts_;
  }

  /// Block-STM conflict re-executions charged by committed blocks (hot-key
  /// contention; zero under the default workload).
  [[nodiscard]] std::uint64_t stm_conflict_reexecs() const {
    return stm_conflict_reexecs_;
  }

  [[nodiscard]] std::map<std::string, double> metrics() const override {
    std::map<std::string, double> out{
        {"speculative_aborts", static_cast<double>(speculative_aborts_)},
        {"excluded_leaders", static_cast<double>(excluded_.size())},
        {"round", static_cast<double>(round_)}};
    // Elide-when-zero: default-workload reports keep the exact key set
    // (and bytes) they had before the contention model existed.
    if (stm_conflict_reexecs_ > 0) {
      out.emplace("stm_conflict_reexecs",
                  static_cast<double>(stm_conflict_reexecs_));
    }
    return out;
  }

 protected:
  void start_protocol() override;
  void stop_protocol() override;
  void on_app_message(const net::Envelope& envelope) override;
  void accept_transaction(const chain::Transaction& tx) override;
  void on_transaction(const chain::Transaction& tx) override;
  void on_peer_up(net::NodeId peer) override;

  void on_synced() override;
  [[nodiscard]] net::PayloadPtr equivocate_payload(
      const net::PayloadPtr& payload) override;
  [[nodiscard]] bool withholdable(const net::Payload& payload) const override;

 private:
  void enter_round(std::uint64_t round);
  [[nodiscard]] net::NodeId leader_of(std::uint64_t round) const;
  void propose();
  void on_round_timeout();
  void maybe_vote();
  /// Store `voter`'s vote and move its tallies from the vote it replaces.
  void record_vote(net::NodeId voter, net::NodeId leader,
                   std::uint64_t digest);
  void clear_votes();
  void try_commit();
  void record_round_outcome(std::uint64_t round, bool success);
  void jump_to_round(std::uint64_t round, net::NodeId peer_hint);
  /// Round of the last committed block; -1 before genesis. Proposals chain
  /// to a parent round: a replica only votes for / commits a proposal
  /// whose parent equals its own tip, repairing its ledger first when it
  /// is behind — otherwise a replica that timed out of a round others
  /// committed would silently skip that block and fork its ledger.
  [[nodiscard]] std::int64_t tip_round() const;

  AptosConfig config_;

  // Volatile protocol state.
  std::uint64_t round_ = 0;
  bool voted_ = false;
  bool committing_ = false;
  net::NodeId proposal_leader_ = 0;
  bool have_proposal_ = false;
  std::int64_t proposal_parent_ = -1;
  /// Sibling lockout: parent round and round of our last vote. Survives
  /// round changes (that is the point); cleared on restart.
  std::int64_t lock_parent_ = -1;
  std::uint64_t lock_round_ = 0;
  std::vector<chain::Transaction> proposal_txs_;
  std::uint64_t proposal_digest_ = 0;
  /// voter -> (leader voted for, content digest the voter claims). The
  /// quorum count is content-blind like DiemBFT's vote tally; with the
  /// misbehavior defense on, only digest-matching votes certify a block.
  struct VoteInfo {
    net::NodeId leader = 0;
    std::uint64_t digest = 0;
  };
  std::map<net::NodeId, VoteInfo> votes_;
  /// Running tallies of `votes_` per leader and per (leader, digest),
  /// changed only together with it (record_vote / clear_votes).
  std::map<net::NodeId, std::size_t> leader_votes_;
  std::map<std::pair<net::NodeId, std::uint64_t>, std::size_t>
      content_votes_;
  std::set<net::NodeId> timeouts_;               // round-timeout senders
  std::map<net::NodeId, int> consecutive_fails_; // leader reputation
  std::set<net::NodeId> excluded_;
  sim::TimerId round_timer_ = sim::kInvalidTimer;
  sim::TimerId propose_timer_ = sim::kInvalidTimer;
  std::uint64_t speculative_aborts_ = 0;
  std::uint64_t stm_conflict_reexecs_ = 0;
  /// Speculative (wasted) execution accumulated since the last block; it
  /// is charged to the next block's Block-STM execution.
  sim::Duration pending_spec_work_{0};
};

std::vector<std::unique_ptr<chain::BlockchainNode>> make_cluster(
    sim::Simulation& simulation, net::Network& network,
    chain::NodeConfig node_config_template, AptosConfig config = {});

/// No-op that anchors this chain's ChainRegistrar: a binary that calls it
/// (core::chain_registry() does) cannot have the registration object's
/// translation unit dropped by the static-archive linker.
void ensure_registered();

}  // namespace stabl::aptos

// Algorand model (paper §2, §4-§7).
//
// Algorand selects a proposer and vote committees per round through
// cryptographic sortition (VRF). Sortition is stake-based and oblivious to
// liveness, so crashed nodes keep being selected; a round whose proposer is
// dead only completes (empty) after a timeout, and Algorand's *dynamic
// round time* then resets its adaptive timing parameters to their defaults
// (paper §4: "there are periods when the decreased timing parameters are
// reset to their default values, which reduces the average throughput and
// increases transaction latency").
//
// Round model (a compressed BA★):
//   1. proposer = lowest sortition draw for the round; it broadcasts a
//      proposal with its ready mempool batch (transactions reach every
//      mempool through push gossip; a pull exchange runs on reconnection);
//   2. after the adaptive filter wait, every node soft-votes for the
//      proposal it saw (or the empty value if none arrived);
//   3. a quorum of matching soft-votes triggers a cert-vote; a quorum of
//      matching cert-votes commits the round (empty rounds commit an empty
//      block, keeping height == round).
//
// Liveness threshold: certification requires votes from strictly more
// than 80% of the stake (Algorand's online-stake requirement); with n = 10
// this means 9 nodes, so f = t = 1 crash degrades but does not halt, while
// f = t+1 = 2 halts until the nodes return — exactly the paper's Fig. 4/5
// behaviour. Partition recovery is passive and driven by the connection
// policy (detection after ~10 s of silence, periodic redial), producing the
// ~99 s recovery of Fig. 6.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "chain/node.hpp"

namespace stabl::algorand {

/// Canonical value committed per round, shared by the cluster.
///
/// Real BA* guarantees through its additional voting periods that at most
/// one value can be certified per round; the compressed two-step model
/// here re-votes when a proposal arrives late (partition recovery), which
/// can transiently certify both the proposal and the empty value. The
/// anchor pins the first certified value as canonical — agreement by
/// construction, with latency and liveness still coming entirely from the
/// simulated vote exchange (a node only commits after observing a
/// certification quorum).
class CertAnchor {
 public:
  struct Decision {
    net::NodeId value = 0;
    std::vector<chain::Transaction> txs;
  };

  const Decision& decide(std::uint64_t round, Decision candidate);
  [[nodiscard]] const Decision* get(std::uint64_t round) const;

 private:
  std::map<std::uint64_t, Decision> decisions_;
};

struct AlgorandConfig {
  /// Dynamic round time: default (reset) filter wait, its floor, and the
  /// per-clean-round reduction. The slow descent is why throughput keeps
  /// improving for the first couple of minutes of a run.
  sim::Duration default_filter_wait = sim::ms(2000);
  sim::Duration min_filter_wait = sim::ms(850);
  sim::Duration filter_wait_step = sim::ms(20);
  /// Extra grace after the filter wait before voting the empty value.
  sim::Duration proposal_grace = sim::ms(1200);
  /// Certification requires strictly more than this fraction of the total
  /// stake (Algorand's ~80% online-stake liveness requirement).
  double vote_threshold_fraction = 0.8;
  /// Proposal batch limit.
  std::size_t max_batch = 5'000;
  /// Re-gossip the current round's votes while the round is stuck.
  sim::Duration rebroadcast_interval = sim::sec(2);
  /// Relay topology: 0 = every node is both relay and participation node,
  /// fully connected (the paper's deployment, which is why the secure
  /// client changes nothing for Algorand in §7). r > 0 dedicates nodes
  /// 0..r-1 as relays; participation nodes connect only to relays and all
  /// traffic is relayed through them — the hierarchical structure "that
  /// typically benefits from such optimizations".
  std::size_t relay_count = 0;
  /// Connection policy: silence before tearing a connection down, and the
  /// periodic redial interval (drives the ~99 s partition recovery).
  sim::Duration dead_after = sim::sec(10);
  sim::Duration dial_retry_period = sim::sec(108);
  sim::Duration restart_boot_delay = sim::sec(7);
};

class AlgorandNode final : public chain::BlockchainNode {
 public:
  AlgorandNode(sim::Simulation& simulation, net::Network& network,
               chain::NodeConfig node_config, AlgorandConfig config,
               std::shared_ptr<CertAnchor> anchor, bool is_relay);

  /// Vote value meaning "no proposal seen" (the empty block).
  static constexpr net::NodeId kEmptyValue = ~net::NodeId{0};

  [[nodiscard]] bool is_relay() const { return is_relay_; }

  [[nodiscard]] std::uint64_t current_round() const { return round_; }
  [[nodiscard]] sim::Duration filter_wait() const { return filter_wait_; }

  [[nodiscard]] std::map<std::string, double> metrics() const override {
    return {{"round", static_cast<double>(round_)},
            {"filter_wait_s", sim::to_seconds(filter_wait_)},
            {"duplicate_submissions",
             static_cast<double>(mempool().duplicate_submissions())}};
  }

 protected:
  void start_protocol() override;
  void stop_protocol() override;
  void on_app_message(const net::Envelope& envelope) override;
  void on_transaction(const chain::Transaction& tx) override;
  void on_peer_up(net::NodeId peer) override;
  void on_synced() override;
  [[nodiscard]] net::PayloadPtr equivocate_payload(
      const net::PayloadPtr& payload) override;
  [[nodiscard]] bool withholdable(const net::Payload& payload) const override;

 private:
  /// One voting step's votes (voter -> value) with a running count per
  /// value, so a quorum check reads counts() instead of recounting the
  /// round's votes on every message. record() is the only writer: a
  /// voter's new vote first takes its replaced vote's count away.
  class VoteTally {
   public:
    void record(net::NodeId voter, net::NodeId value);
    void clear();
    /// The voter's current vote, or nullptr.
    [[nodiscard]] const net::NodeId* vote_of(net::NodeId voter) const;
    /// Votes per value, in value order (values no vote holds any more
    /// stay at zero until clear()).
    [[nodiscard]] const std::map<net::NodeId, std::size_t>& counts() const {
      return counts_;
    }

   private:
    std::map<net::NodeId, net::NodeId> votes_;
    std::map<net::NodeId, std::size_t> counts_;
  };

  void begin_round();
  void propose_if_selected();
  void cast_soft_vote();
  void tally_soft_votes();
  void tally_cert_votes();
  void commit_value(net::NodeId value);
  void relay_forward(const net::Envelope& envelope, std::uint64_t key);
  void reset_round_state();
  void rebroadcast();
  [[nodiscard]] std::size_t vote_quorum() const;

  AlgorandConfig config_;
  std::shared_ptr<CertAnchor> anchor_;
  bool is_relay_ = false;

  /// Relay forwarding dedup (consensus messages already forwarded).
  std::set<std::uint64_t> forwarded_;

  // Volatile protocol state.
  std::uint64_t round_ = 0;
  sim::Duration filter_wait_{0};
  bool soft_voted_ = false;
  bool cert_voted_ = false;
  bool grace_used_ = false;
  net::NodeId proposal_value_ = kEmptyValue;  // proposer we saw
  std::vector<chain::Transaction> proposal_txs_;
  VoteTally soft_votes_;
  VoteTally cert_votes_;
  net::PayloadPtr own_soft_vote_;
  net::PayloadPtr own_cert_vote_;
  net::PayloadPtr own_proposal_;
  /// The round's proposal as received (relayed on reconnection so nodes
  /// that missed it — e.g. when its proposer died — can still vote).
  net::PayloadPtr seen_proposal_;
  /// Proposals received for rounds we have not entered yet (a node that
  /// finishes round r a moment after its peers would otherwise drop the
  /// proposal for r+1 and trail behind forever).
  std::map<std::uint64_t, net::PayloadPtr> future_proposals_;

  /// Votes already cast per round. Algorand persists this to disk before
  /// sending a vote, so a crash-recovered node cannot equivocate by voting
  /// twice in the same round — which would otherwise allow two certified
  /// values. Deliberately NOT cleared on crash.
  struct PersistedVote {
    bool has_soft = false;
    net::NodeId soft_value = 0;
    bool has_cert = false;
    net::NodeId cert_value = 0;
  };
  std::map<std::uint64_t, PersistedVote> persisted_votes_;
  sim::TimerId vote_timer_ = sim::kInvalidTimer;
  sim::TimerId rebroadcast_timer_ = sim::kInvalidTimer;
};

/// A proposal and the two votes as a node sends them, for harnesses that
/// script a peer. The payload types stay in algorand.cpp, as Redbelly's
/// do (see make_proposal in redbelly.hpp).
net::PayloadPtr make_proposal(std::uint64_t round, net::NodeId proposer,
                              std::vector<chain::Transaction> txs);
net::PayloadPtr make_soft_vote(std::uint64_t round, net::NodeId voter,
                               net::NodeId value);
net::PayloadPtr make_cert_vote(std::uint64_t round, net::NodeId voter,
                               net::NodeId value);

std::vector<std::unique_ptr<chain::BlockchainNode>> make_cluster(
    sim::Simulation& simulation, net::Network& network,
    chain::NodeConfig node_config_template, AlgorandConfig config = {});

/// No-op that anchors this chain's ChainRegistrar: a binary that calls it
/// (core::chain_registry() does) cannot have the registration object's
/// translation unit dropped by the static-archive linker.
void ensure_registered();

}  // namespace stabl::algorand

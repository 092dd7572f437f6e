#include "chains/aptos/aptos.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "chain/hash.hpp"
#include "chain/registry.hpp"

namespace stabl::aptos {
namespace {

struct ProposalPayload final : net::PayloadOf<ProposalPayload> {
  ProposalPayload(std::uint64_t r, net::NodeId l, std::int64_t parent,
                  std::vector<chain::Transaction> batch)
      : round(r), leader(l), parent_round(parent), txs(std::move(batch)) {}
  std::uint64_t round;
  net::NodeId leader;
  /// Round of the committed block the leader extends (-1 = genesis).
  /// Carries the HotStuff parent-QC linkage: voters must have replayed
  /// exactly this chain, so committed prefixes stay identical.
  std::int64_t parent_round;
  std::vector<chain::Transaction> txs;
};

/// Content identity of a proposal batch — what a vote's digest binds to.
std::uint64_t batch_digest(const std::vector<chain::Transaction>& txs) {
  std::uint64_t digest = 0x4150'544F'53ull;  // "APTOS"
  for (const chain::Transaction& tx : txs) {
    digest = chain::hash_combine(digest, chain::mix64(tx.id));
  }
  return digest;
}

struct VotePayload final : net::PayloadOf<VotePayload> {
  VotePayload(std::uint64_t r, net::NodeId l, std::uint64_t d)
      : round(r), leader(l), digest(d) {}
  std::uint64_t round;
  net::NodeId leader;
  /// Digest of the proposal content the voter holds; the vote tally is
  /// content-blind unless the misbehavior defense binds votes to it.
  std::uint64_t digest;
};

struct TimeoutPayload final : net::PayloadOf<TimeoutPayload> {
  explicit TimeoutPayload(std::uint64_t r) : round(r) {}
  std::uint64_t round;
};

/// Announcement that the sender committed `round`. Only sent when the
/// round was contested (some replica timed out of it): laggards that
/// timed out pull the committed block before a sibling round can form a
/// conflicting quorum. Quiet rounds never send one, so healthy runs are
/// unchanged.
struct CommitCertPayload final : net::PayloadOf<CommitCertPayload> {
  explicit CommitCertPayload(std::uint64_t r) : round(r) {}
  std::uint64_t round;
};

std::uint32_t batch_bytes(std::size_t tx_count) {
  return 128 + static_cast<std::uint32_t>(tx_count) * 128;
}

}  // namespace

AptosNode::AptosNode(sim::Simulation& simulation, net::Network& network,
                     chain::NodeConfig node_config, AptosConfig config)
    : BlockchainNode(simulation, network,
                     [&] {
                       node_config.connection.dead_after = config.dead_after;
                       node_config.connection.retry_period =
                           config.dial_retry_period;
                       node_config.restart_boot_delay =
                           config.restart_boot_delay;
                       return node_config;
                     }()),
      config_(config) {}

void AptosNode::start_protocol() {
  // Resume from the round after the last committed block we know of.
  const auto& blocks = ledger().blocks();
  const std::uint64_t next_round =
      blocks.empty() ? 0 : blocks.back().round + 1;
  enter_round(next_round);
}

void AptosNode::stop_protocol() {
  round_ = 0;
  voted_ = false;
  committing_ = false;
  have_proposal_ = false;
  proposal_parent_ = -1;
  lock_parent_ = -1;
  lock_round_ = 0;
  proposal_txs_.clear();
  proposal_digest_ = 0;
  clear_votes();
  timeouts_.clear();
  consecutive_fails_.clear();
  excluded_.clear();
  pending_spec_work_ = sim::Duration{0};
  round_timer_ = sim::kInvalidTimer;
  propose_timer_ = sim::kInvalidTimer;
}

std::int64_t AptosNode::tip_round() const {
  return ledger().blocks().empty()
             ? -1
             : static_cast<std::int64_t>(ledger().blocks().back().round);
}

net::NodeId AptosNode::leader_of(std::uint64_t round) const {
  // Round-robin over validators not excluded by leader reputation. The
  // exclusion set is derived from observed round outcomes, so replicas
  // converge on it; transient disagreement only costs an extra timeout.
  std::vector<net::NodeId> active;
  active.reserve(cluster_size());
  for (net::NodeId id = 0; id < cluster_size(); ++id) {
    if (!excluded_.contains(id)) active.push_back(id);
  }
  if (active.empty()) return static_cast<net::NodeId>(round % cluster_size());
  return active[round % active.size()];
}

void AptosNode::enter_round(std::uint64_t round) {
  if (auto* trace = simulation().trace()) {
    trace->instant(static_cast<std::int32_t>(node_id()), now(), "round",
                   "consensus", "\"round\":" + std::to_string(round));
  }
  round_ = round;
  voted_ = false;
  committing_ = false;
  have_proposal_ = false;
  proposal_txs_.clear();
  proposal_digest_ = 0;
  clear_votes();
  timeouts_.clear();
  proposal_parent_ = -1;
  reset_timer(round_timer_, config_.round_timeout,
              [this] { on_round_timeout(); });
  cancel_timer(propose_timer_);
  if (leader_of(round_) == node_id()) {
    propose_timer_ = set_timer(config_.block_interval, [this] { propose(); });
  }
}

void AptosNode::propose() {
  const std::int64_t parent = tip_round();
  // A leader locked on a sibling of this parent must not propose against
  // its own vote; the round burns a timeout instead.
  if (lock_parent_ >= 0 && parent == lock_parent_ && round_ > lock_round_ &&
      round_ <= lock_round_ + static_cast<std::uint64_t>(
                                  config_.sibling_lockout_rounds)) {
    return;
  }
  auto batch = mutable_mempool().collect_ready(
      config_.max_block_txs, [this](chain::AccountId account) {
        return accounts().next_nonce(account);
      });
  auto payload = std::make_shared<const ProposalPayload>(
      round_, node_id(), parent, std::move(batch));
  mark_proposed(payload->txs, round_);
  broadcast(payload, batch_bytes(payload->txs.size()));
  // The leader processes its own proposal too.
  proposal_leader_ = node_id();
  have_proposal_ = true;
  proposal_parent_ = parent;
  proposal_txs_ = payload->txs;
  proposal_digest_ = batch_digest(proposal_txs_);
  voted_ = true;
  lock_parent_ = parent;
  lock_round_ = round_;
  record_vote(node_id(), node_id(), proposal_digest_);
  broadcast(std::make_shared<const VotePayload>(round_, node_id(),
                                                proposal_digest_),
            96);
  try_commit();
}

void AptosNode::on_round_timeout() {
  if (auto* trace = simulation().trace()) {
    trace->instant(static_cast<std::int32_t>(node_id()), now(),
                   "round_timeout", "consensus",
                   "\"round\":" + std::to_string(round_));
  }
  // A stuck round retransmits our vote first (the real network layer
  // retries consensus messages): one lost vote packet must not split the
  // cluster between committing the round and timing it out.
  if (voted_) {
    broadcast(std::make_shared<const VotePayload>(round_, proposal_leader_,
                                                  proposal_digest_),
              96);
  }
  // Pacemaker: shout that the round is stuck; re-arm so the timeout keeps
  // being re-broadcast while we wait (this drives post-partition resync).
  broadcast(std::make_shared<const TimeoutPayload>(round_), 96);
  timeouts_.insert(node_id());
  round_timer_ = set_timer(config_.round_timeout, [this] {
    on_round_timeout();
  });
  if (timeouts_.size() >= cluster_size() - (cluster_size() - 1) / 3) {
    record_round_outcome(round_, /*success=*/false);
    enter_round(round_ + 1);
  }
}

void AptosNode::maybe_vote() {
  if (!have_proposal_ || voted_) return;
  if (proposal_parent_ != tip_round()) return;  // cannot extend this chain
  // Sibling lockout: having voted for a proposal extending parent p, do
  // not endorse another proposal extending the same p for a few rounds. A
  // round that committed anywhere had a quorum of voters, so a quorum is
  // locked and no sibling can be certified during the window — which is
  // the time the commit certificate needs to reach the laggards. The lock
  // expires (liveness: the voted round may genuinely have died), and is
  // irrelevant once the tip moves past p.
  if (lock_parent_ >= 0 && proposal_parent_ == lock_parent_ &&
      round_ > lock_round_ &&
      round_ <= lock_round_ + static_cast<std::uint64_t>(
                                  config_.sibling_lockout_rounds)) {
    return;
  }
  voted_ = true;
  lock_parent_ = proposal_parent_;
  lock_round_ = round_;
  record_vote(node_id(), proposal_leader_, proposal_digest_);
  broadcast(std::make_shared<const VotePayload>(round_, proposal_leader_,
                                                proposal_digest_),
            96);
}

void AptosNode::record_vote(net::NodeId voter, net::NodeId leader,
                            std::uint64_t digest) {
  const auto [it, inserted] = votes_.try_emplace(voter);
  VoteInfo& vote = it->second;
  if (!inserted) {
    --leader_votes_[vote.leader];
    --content_votes_[{vote.leader, vote.digest}];
  }
  vote = {leader, digest};
  ++leader_votes_[leader];
  ++content_votes_[{leader, digest}];
}

void AptosNode::clear_votes() {
  votes_.clear();
  leader_votes_.clear();
  content_votes_.clear();
}

void AptosNode::try_commit() {
  if (committing_ || !have_proposal_) return;
  // Defense on: content-bound counting — only votes matching the proposal
  // we hold certify it, so an equivocated round times out on both variants
  // instead of forking.
  std::size_t count = 0;
  if (misbehavior().enabled()) {
    const auto it = content_votes_.find({proposal_leader_, proposal_digest_});
    if (it != content_votes_.end()) count = it->second;
  } else {
    const auto it = leader_votes_.find(proposal_leader_);
    if (it != leader_votes_.end()) count = it->second;
  }
  const std::size_t quorum = cluster_size() - (cluster_size() - 1) / 3;
  if (count < quorum) return;
  if (proposal_parent_ != tip_round()) {
    // A quorum certified a proposal we cannot replay: the voters extend
    // blocks this replica is missing. Repair the ledger first; on_synced
    // retries the commit.
    if (proposal_parent_ > tip_round()) request_sync(proposal_leader_);
    return;
  }
  committing_ = true;
  // Ordering succeeded: the pacemaker must not time the round out while
  // Block-STM execution is still in flight (execution is pipelined after
  // consensus in DiemBFT).
  cancel_timer(round_timer_);
  round_timer_ = sim::kInvalidTimer;
  // Block-STM execution: the commit lands once the CPU finishes the batch,
  // including whatever speculative duplicate work piled up meanwhile.
  // Parallel execution scales with the vCPU count (4 vCPUs = the paper's
  // standard VM; 8 vCPUs for the §7 secure-client experiment).
  const auto spec = std::min(pending_spec_work_,
                             config_.max_spec_work_per_block);
  pending_spec_work_ = sim::Duration{0};
  // Hot-key contention: every hot-wallet transaction beyond the first in
  // this block is an unpredicted write-write conflict Block-STM discovers
  // at validation time and re-executes. Same-sender nonce chains are
  // statically known dependencies and add nothing — only the shared key
  // (chain::kHotKey) pays, so default workloads see a zero here.
  std::size_t hot_txs = 0;
  for (const chain::Transaction& tx : proposal_txs_) {
    if (tx.from == chain::kHotKey) ++hot_txs;
  }
  const std::size_t conflicts = hot_txs > 1 ? hot_txs - 1 : 0;
  stm_conflict_reexecs_ += conflicts;
  const auto serial = spec +
                      sim::Duration{config_.conflict_exec.count() *
                                    static_cast<std::int64_t>(conflicts)} +
                      sim::Duration{config_.per_tx_exec.count() *
                                    static_cast<std::int64_t>(
                                        std::max<std::size_t>(
                                            proposal_txs_.size(), 1))};
  const auto cost = sim::Duration{static_cast<std::int64_t>(
      static_cast<double>(serial.count()) * 4.0 / cpu().cores())};
  const std::uint64_t round = round_;
  auto txs = proposal_txs_;
  const net::NodeId leader = proposal_leader_;
  mutable_cpu().submit(cost, [this, round, txs = std::move(txs), leader] {
    if (round != round_ || !committing_) return;  // round moved on
    commit_block(txs, leader, round);
    record_round_outcome(round, /*success=*/true);
    // A contested commit (someone timed out of this round) must be
    // announced: the replicas that timed out will otherwise certify a
    // sibling of this block in a later round and fork the ledger.
    if (!timeouts_.empty()) {
      broadcast(std::make_shared<const CommitCertPayload>(round), 96);
    }
    enter_round(round + 1);
  });
}

void AptosNode::record_round_outcome(std::uint64_t round, bool success) {
  const net::NodeId leader = leader_of(round);
  if (success) {
    consecutive_fails_[leader] = 0;
    return;
  }
  if (++consecutive_fails_[leader] >= config_.leader_fail_threshold) {
    excluded_.insert(leader);
  }
}

void AptosNode::jump_to_round(std::uint64_t round, net::NodeId peer_hint) {
  // A peer is ahead of us: fetch the blocks we missed, then follow.
  request_sync(peer_hint);
  enter_round(round);
}

void AptosNode::on_app_message(const net::Envelope& envelope) {
  const net::Payload* payload = envelope.payload.get();
  if (const auto* batch = net::payload_cast<chain::TxBatchPayload>(payload)) {
    for (const chain::Transaction& tx : batch->txs) {
      if (!pool_transaction(tx)) {
        // Block-STM speculatively dispatches the duplicate and aborts with
        // SEQUENCE_NUMBER_TOO_OLD, burning CPU that the next block's
        // execution has to share.
        ++speculative_aborts_;
        pending_spec_work_ += config_.duplicate_exec;
      }
    }
    return;
  }
  if (const auto* proposal = net::payload_cast<ProposalPayload>(payload)) {
    if (proposal->round < round_) return;
    if (proposal->round > round_) {
      jump_to_round(proposal->round, envelope.from);
    }
    if (have_proposal_) {
      // A second, different proposal for the same round from the leader we
      // already adopted is equivocation evidence against that leader.
      if (proposal->leader == proposal_leader_ &&
          batch_digest(proposal->txs) != proposal_digest_) {
        report_misbehavior(proposal->leader, core::Offense::kEquivocation);
      }
      return;  // adopt the first proposal for the round
    }
    proposal_leader_ = proposal->leader;
    have_proposal_ = true;
    proposal_parent_ = proposal->parent_round;
    proposal_txs_ = proposal->txs;
    proposal_digest_ = batch_digest(proposal_txs_);
    if (proposal->parent_round > tip_round()) {
      // The leader extends blocks we never committed (we timed out of a
      // round the cluster decided, or rejoined late): repair before voting.
      request_sync(envelope.from);
    }
    maybe_vote();
    try_commit();
    return;
  }
  if (const auto* vote = net::payload_cast<VotePayload>(payload)) {
    if (vote->round < round_) return;
    if (vote->round > round_) {
      jump_to_round(vote->round, envelope.from);
      return;
    }
    // A vote binding the same round and leader to different content than
    // our proposal means that leader fed the cluster two variants.
    if (have_proposal_ && vote->leader == proposal_leader_ &&
        vote->digest != proposal_digest_) {
      report_misbehavior(vote->leader, core::Offense::kEquivocation);
    }
    record_vote(envelope.from, vote->leader, vote->digest);
    try_commit();
    return;
  }
  if (const auto* cert = net::payload_cast<CommitCertPayload>(payload)) {
    // The sender committed this round; if our tip is behind it we missed
    // that block and must repair before voting on anything else.
    if (static_cast<std::int64_t>(cert->round) > tip_round()) {
      request_sync(envelope.from);
    }
    return;
  }
  if (const auto* timeout = net::payload_cast<TimeoutPayload>(payload)) {
    if (timeout->round < round_) return;
    if (timeout->round > round_) {
      jump_to_round(timeout->round, envelope.from);
      return;
    }
    timeouts_.insert(envelope.from);
    const std::size_t quorum = cluster_size() - (cluster_size() - 1) / 3;
    if (timeouts_.size() >= quorum) {
      record_round_outcome(round_, /*success=*/false);
      enter_round(round_ + 1);
    }
    return;
  }
}

void AptosNode::on_synced() {
  // Ledger repair moved the tip: the pending proposal may have become
  // votable (and a buffered quorum committable).
  maybe_vote();
  try_commit();
}

net::PayloadPtr AptosNode::equivocate_payload(const net::PayloadPtr& payload) {
  if (const auto* proposal =
          net::payload_cast<ProposalPayload>(payload.get())) {
    if (proposal->txs.size() < 2) return nullptr;  // nothing to conflict on
    // Conflicting variant: same round/leader/parent-QC linkage, different
    // committed sequence (batch reversed minus its last transaction).
    std::vector<chain::Transaction> txs(proposal->txs.begin(),
                                        proposal->txs.end() - 1);
    std::reverse(txs.begin(), txs.end());
    return std::make_shared<const ProposalPayload>(
        proposal->round, proposal->leader, proposal->parent_round,
        std::move(txs));
  }
  if (const auto* vote = net::payload_cast<VotePayload>(payload.get())) {
    // Double-vote: same round and leader, conflicting content claim.
    return std::make_shared<const VotePayload>(
        vote->round, vote->leader, vote->digest ^ 0x0BAD'BEEFull);
  }
  return nullptr;
}

bool AptosNode::withholdable(const net::Payload& payload) const {
  return net::payload_cast<ProposalPayload>(&payload) != nullptr ||
         net::payload_cast<VotePayload>(&payload) != nullptr;
}

void AptosNode::accept_transaction(const chain::Transaction& tx) {
  if (!pool_transaction(tx)) {
    ++speculative_aborts_;
    pending_spec_work_ += config_.duplicate_exec;
    return;
  }
  on_transaction(tx);
}

void AptosNode::on_transaction(const chain::Transaction& tx) {
  // Shared mempool: broadcast so the current leader can propose it.
  broadcast(std::make_shared<const chain::TxBatchPayload>(
                std::vector<chain::Transaction>{tx}),
            160);
}

void AptosNode::on_peer_up(net::NodeId peer) {
  // Offer our pooled transactions so a rejoining validator's mempool
  // converges, and nudge it with our round via a timeout re-broadcast.
  const auto pool = mutable_mempool().collect_ready(
      config_.max_block_txs * 100, [this](chain::AccountId account) {
        return accounts().next_nonce(account);
      });
  if (!pool.empty()) {
    send_to(peer, std::make_shared<const chain::TxBatchPayload>(pool),
            batch_bytes(pool.size()));
  }
  send_to(peer, std::make_shared<const TimeoutPayload>(round_), 96);
}

std::vector<std::unique_ptr<chain::BlockchainNode>> make_cluster(
    sim::Simulation& simulation, net::Network& network,
    chain::NodeConfig node_config_template, AptosConfig config) {
  std::vector<std::unique_ptr<chain::BlockchainNode>> nodes;
  nodes.reserve(node_config_template.n);
  for (net::NodeId id = 0; id < node_config_template.n; ++id) {
    chain::NodeConfig node_config = node_config_template;
    node_config.id = id;
    nodes.push_back(std::make_unique<AptosNode>(simulation, network,
                                                node_config, config));
  }
  return nodes;
}

namespace {

chain::ChainTraits make_traits() {
  chain::ChainTraits traits;
  traits.name = "aptos";
  traits.description =
      "DiemBFT/HotStuff rounds with Block-STM execution and leader "
      "reputation (paper Aptos)";
  traits.tier = 0;
  traits.fault_tolerance = chain::tolerance_third;
  traits.default_params = chain::misbehavior_default_params();
  traits.make_cluster = [](sim::Simulation& simulation,
                           net::Network& network,
                           const chain::NodeConfig& node_config,
                           const chain::ChainParams& params) {
    chain::NodeConfig node_template = node_config;
    chain::apply_misbehavior_params(node_template, params);
    return make_cluster(simulation, network, node_template);
  };
  return traits;
}

}  // namespace

void ensure_registered() {
  // Function-local static, not a namespace-scope registrar: the
  // registration must be safe to trigger from another TU's static
  // initializer (figure benches name benchmarks after registered
  // chains at namespace scope), where cross-TU init order is
  // unspecified.
  [[maybe_unused]] static const chain::ChainRegistrar kRegistrar{
      make_traits()};
}

}  // namespace stabl::aptos

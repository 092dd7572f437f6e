#include "chains/refbft/refbft.hpp"

#include <algorithm>
#include <utility>

#include "chain/hash.hpp"
#include "chain/registry.hpp"

namespace stabl::refbft {
namespace {

struct ProposalPayload final : net::PayloadOf<ProposalPayload> {
  ProposalPayload(std::uint64_t r, net::NodeId l, std::int64_t parent,
                  std::vector<chain::Transaction> batch)
      : round(r), leader(l), parent_round(parent), txs(std::move(batch)) {}
  std::uint64_t round;
  net::NodeId leader;
  std::int64_t parent_round;
  std::vector<chain::Transaction> txs;
};

/// Content identity of a proposal batch — what a vote's digest binds to.
std::uint64_t batch_digest(const std::vector<chain::Transaction>& txs) {
  std::uint64_t digest = 0x5245'4642'4654ull;  // "REFBFT"
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
  /// Digest of the proposal content the voter holds. Plain RefBFT commits
  /// on vote *count* alone; the digest rides along so the misbehavior
  /// defense can bind votes to content and spot equivocating leaders.
  std::uint64_t digest;
};

struct TimeoutPayload final : net::PayloadOf<TimeoutPayload> {
  explicit TimeoutPayload(std::uint64_t r) : round(r) {}
  std::uint64_t round;
};

std::uint32_t batch_bytes(std::size_t tx_count) {
  return 128 + static_cast<std::uint32_t>(tx_count) * 128;
}

}  // namespace

RefBftNode::RefBftNode(sim::Simulation& simulation, net::Network& network,
                       chain::NodeConfig node_config, RefBftConfig config)
    : BlockchainNode(simulation, network, std::move(node_config)),
      config_(config) {}

void RefBftNode::start_protocol() {
  const auto& blocks = ledger().blocks();
  enter_round(blocks.empty() ? 0 : blocks.back().round + 1);
}

void RefBftNode::stop_protocol() {
  round_ = 0;
  voted_ = false;
  have_proposal_ = false;
  proposal_parent_ = -1;
  proposal_txs_.clear();
  proposal_digest_ = 0;
  votes_.clear();
  timeouts_.clear();
  round_timer_ = sim::kInvalidTimer;
  propose_timer_ = sim::kInvalidTimer;
}

std::int64_t RefBftNode::tip_round() const {
  return ledger().blocks().empty()
             ? -1
             : static_cast<std::int64_t>(ledger().blocks().back().round);
}

void RefBftNode::enter_round(std::uint64_t round) {
  round_ = round;
  voted_ = false;
  have_proposal_ = false;
  proposal_parent_ = -1;
  proposal_txs_.clear();
  proposal_digest_ = 0;
  votes_.clear();
  timeouts_.clear();
  reset_timer(round_timer_, config_.round_timeout,
              [this] { on_round_timeout(); });
  cancel_timer(propose_timer_);
  if (round_ % cluster_size() == node_id()) {
    propose_timer_ = set_timer(config_.block_interval, [this] { propose(); });
  }
}

void RefBftNode::propose() {
  const std::int64_t parent = tip_round();
  auto batch = mutable_mempool().collect_ready(
      config_.max_block_txs, [this](chain::AccountId account) {
        return accounts().next_nonce(account);
      });
  auto payload = std::make_shared<const ProposalPayload>(
      round_, node_id(), parent, std::move(batch));
  mark_proposed(payload->txs, round_);
  broadcast(payload, batch_bytes(payload->txs.size()));
  have_proposal_ = true;
  proposal_leader_ = node_id();
  proposal_parent_ = parent;
  proposal_txs_ = payload->txs;
  proposal_digest_ = batch_digest(proposal_txs_);
  voted_ = true;
  votes_[node_id()] = proposal_digest_;
  broadcast(std::make_shared<const VotePayload>(round_, node_id(),
                                                proposal_digest_),
            96);
  try_commit();
}

void RefBftNode::on_round_timeout() {
  // Retransmit our vote (lost packets must not split the round), shout
  // that the round is stuck, and re-arm so laggards keep hearing us.
  if (voted_) {
    broadcast(std::make_shared<const VotePayload>(round_, proposal_leader_,
                                                  proposal_digest_),
              96);
  }
  broadcast(std::make_shared<const TimeoutPayload>(round_), 96);
  timeouts_.insert(node_id());
  round_timer_ =
      set_timer(config_.round_timeout, [this] { on_round_timeout(); });
  if (timeouts_.size() >= quorum()) {
    ++timed_out_rounds_;
    enter_round(round_ + 1);
  }
}

void RefBftNode::maybe_vote() {
  if (!have_proposal_ || voted_) return;
  if (proposal_parent_ != tip_round()) return;  // cannot extend this chain
  voted_ = true;
  votes_[node_id()] = proposal_digest_;
  broadcast(std::make_shared<const VotePayload>(round_, proposal_leader_,
                                                proposal_digest_),
            96);
  try_commit();
}

void RefBftNode::try_commit() {
  if (!have_proposal_) return;
  std::size_t counted = votes_.size();
  if (misbehavior().enabled()) {
    // Defense on: votes are content-bound — only votes whose digest
    // matches the proposal we hold certify it. An equivocated round then
    // never reaches quorum on either variant and times out instead of
    // forking.
    counted = 0;
    for (const auto& [voter, digest] : votes_) {
      if (digest == proposal_digest_) ++counted;
    }
  }
  if (counted < quorum()) return;
  if (proposal_parent_ != tip_round()) {
    // A quorum certified a proposal extending blocks we are missing.
    if (proposal_parent_ > tip_round()) request_sync(proposal_leader_);
    return;
  }
  const std::uint64_t round = round_;
  commit_block(proposal_txs_, proposal_leader_, round);
  enter_round(round + 1);
}

void RefBftNode::jump_to_round(std::uint64_t round, net::NodeId peer_hint) {
  request_sync(peer_hint);
  enter_round(round);
}

void RefBftNode::on_app_message(const net::Envelope& envelope) {
  const net::Payload* payload = envelope.payload.get();
  if (const auto* batch = net::payload_cast<chain::TxBatchPayload>(payload)) {
    for (const chain::Transaction& tx : batch->txs) pool_transaction(tx);
    return;
  }
  if (const auto* proposal = net::payload_cast<ProposalPayload>(payload)) {
    if (proposal->round < round_) return;
    if (proposal->round > round_) jump_to_round(proposal->round, envelope.from);
    if (have_proposal_) {
      // First proposal for the round wins; a SECOND proposal for the same
      // round from the same leader with different content is equivocation
      // evidence against that leader.
      if (proposal->leader == proposal_leader_ &&
          batch_digest(proposal->txs) != proposal_digest_) {
        report_misbehavior(proposal->leader, core::Offense::kEquivocation);
      }
      return;
    }
    have_proposal_ = true;
    proposal_leader_ = proposal->leader;
    proposal_parent_ = proposal->parent_round;
    proposal_txs_ = proposal->txs;
    proposal_digest_ = batch_digest(proposal_txs_);
    if (proposal->parent_round > tip_round()) request_sync(envelope.from);
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
    // A vote binding the SAME round and leader to DIFFERENT content than
    // the proposal we hold means the leader fed the cluster two variants.
    if (have_proposal_ && vote->leader == proposal_leader_ &&
        vote->digest != proposal_digest_) {
      report_misbehavior(vote->leader, core::Offense::kEquivocation);
    }
    votes_.emplace(envelope.from, vote->digest);
    try_commit();
    return;
  }
  if (const auto* timeout = net::payload_cast<TimeoutPayload>(payload)) {
    if (timeout->round < round_) return;
    if (timeout->round > round_) {
      jump_to_round(timeout->round, envelope.from);
      return;
    }
    timeouts_.insert(envelope.from);
    if (timeouts_.size() >= quorum()) {
      ++timed_out_rounds_;
      enter_round(round_ + 1);
    }
    return;
  }
}

void RefBftNode::on_transaction(const chain::Transaction& tx) {
  // Shared mempool: gossip so the current leader can propose it.
  broadcast(std::make_shared<const chain::TxBatchPayload>(
                std::vector<chain::Transaction>{tx}),
            160);
}

void RefBftNode::on_peer_up(net::NodeId peer) {
  // Nudge a (re)connecting validator with our round so it catches up.
  send_to(peer, std::make_shared<const TimeoutPayload>(round_), 96);
}

void RefBftNode::on_synced() {
  maybe_vote();
  try_commit();
}

net::PayloadPtr RefBftNode::equivocate_payload(const net::PayloadPtr& payload) {
  if (const auto* proposal =
          net::payload_cast<ProposalPayload>(payload.get())) {
    if (proposal->txs.size() < 2) return nullptr;  // nothing to conflict on
    // Conflicting variant: same round/leader/parent, different committed
    // sequence (batch reversed minus its last transaction).
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

bool RefBftNode::withholdable(const net::Payload& payload) const {
  return net::payload_cast<ProposalPayload>(&payload) != nullptr ||
         net::payload_cast<VotePayload>(&payload) != nullptr;
}

std::vector<std::unique_ptr<chain::BlockchainNode>> make_cluster(
    sim::Simulation& simulation, net::Network& network,
    chain::NodeConfig node_config_template, RefBftConfig config) {
  std::vector<std::unique_ptr<chain::BlockchainNode>> nodes;
  nodes.reserve(node_config_template.n);
  for (net::NodeId id = 0; id < node_config_template.n; ++id) {
    chain::NodeConfig node_config = node_config_template;
    node_config.id = id;
    nodes.push_back(std::make_unique<RefBftNode>(simulation, network,
                                                 node_config, config));
  }
  return nodes;
}

namespace {

const chain::ChainRegistrar kRegistrar{[] {
  chain::ChainTraits traits;
  traits.name = "refbft";
  traits.description =
      "minimal round-robin BFT reference chain proving the plugin seam";
  // tier 1 (the default): extension chains sort after the paper's five,
  // so the historical ChainKind ids 0..4 never move.
  traits.fault_tolerance = chain::tolerance_third;
  const RefBftConfig defaults;
  traits.default_params = {
      {"max_block_txs", static_cast<double>(defaults.max_block_txs)}};
  traits.default_params.merge(chain::misbehavior_default_params());
  traits.make_cluster = [](sim::Simulation& simulation, net::Network& network,
                           const chain::NodeConfig& node_config,
                           const chain::ChainParams& params) {
    RefBftConfig config;
    config.max_block_txs =
        static_cast<std::size_t>(params.at("max_block_txs"));
    chain::NodeConfig node_template = node_config;
    chain::apply_misbehavior_params(node_template, params);
    return make_cluster(simulation, network, node_template, config);
  };
  return traits;
}()};

}  // namespace

void ensure_registered() {}

}  // namespace stabl::refbft

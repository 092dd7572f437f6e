#include "chains/algorand/algorand.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

#include "chain/registry.hpp"
#include "chain/vrf.hpp"

namespace stabl::algorand {
namespace {

struct ProposalPayload final : net::PayloadOf<ProposalPayload> {
  ProposalPayload(std::uint64_t r, net::NodeId p,
                  std::vector<chain::Transaction> batch)
      : round(r), proposer(p), txs(std::move(batch)) {}
  std::uint64_t round;
  net::NodeId proposer;
  std::vector<chain::Transaction> txs;
};

enum class VoteStep : std::uint8_t { kSoft, kCert };

struct VotePayload final : net::PayloadOf<VotePayload> {
  VotePayload(std::uint64_t r, VoteStep s, net::NodeId voter_id,
              net::NodeId v)
      : round(r), step(s), voter(voter_id), value(v) {}
  std::uint64_t round;
  VoteStep step;
  net::NodeId voter;  // originator (not the forwarding relay)
  net::NodeId value;  // proposer id, or kEmptyValue
};

std::uint32_t batch_bytes(std::size_t tx_count) {
  return 128 + static_cast<std::uint32_t>(tx_count) * 128;
}

}  // namespace

const CertAnchor::Decision& CertAnchor::decide(std::uint64_t round,
                                               Decision candidate) {
  const auto [it, inserted] = decisions_.emplace(round, std::move(candidate));
  return it->second;
}

const CertAnchor::Decision* CertAnchor::get(std::uint64_t round) const {
  const auto it = decisions_.find(round);
  return it == decisions_.end() ? nullptr : &it->second;
}

void AlgorandNode::VoteTally::record(net::NodeId voter, net::NodeId value) {
  const auto [it, inserted] = votes_.try_emplace(voter, value);
  if (!inserted) {
    if (it->second == value) return;
    --counts_[it->second];  // the replaced vote no longer counts
    it->second = value;
  }
  ++counts_[value];
}

void AlgorandNode::VoteTally::clear() {
  votes_.clear();
  counts_.clear();
}

const net::NodeId* AlgorandNode::VoteTally::vote_of(net::NodeId voter) const {
  const auto it = votes_.find(voter);
  return it == votes_.end() ? nullptr : &it->second;
}

AlgorandNode::AlgorandNode(sim::Simulation& simulation, net::Network& network,
                           chain::NodeConfig node_config,
                           AlgorandConfig config,
                           std::shared_ptr<CertAnchor> anchor,
                           bool is_relay)
    : BlockchainNode(simulation, network,
                     [&] {
                       node_config.connection.dead_after = config.dead_after;
                       node_config.connection.retry_period =
                           config.dial_retry_period;
                       node_config.connection.retry_jitter_frac = 0.02;
                       node_config.restart_boot_delay =
                           config.restart_boot_delay;
                       return node_config;
                     }()),
      config_(config),
      anchor_(std::move(anchor)),
      is_relay_(is_relay) {}

std::size_t AlgorandNode::vote_quorum() const {
  // Strictly more than the threshold fraction of total stake must vote:
  // with the 80% online-stake requirement and n = 10 this is 9 nodes, so
  // f = t = 1 degrades while f = t+1 = 2 halts. The floor(..)+1 form keeps
  // the same semantics at other network sizes (the scale-sweep bench).
  const double stake = static_cast<double>(cluster_size());
  return static_cast<std::size_t>(stake *
                                  config_.vote_threshold_fraction) +
         1;
}

void AlgorandNode::start_protocol() {
  round_ = ledger().height();
  filter_wait_ = config_.default_filter_wait;
  begin_round();
  rebroadcast_timer_ = set_timer(config_.rebroadcast_interval,
                                 [this] { rebroadcast(); });
}

void AlgorandNode::stop_protocol() { reset_round_state(); }

void AlgorandNode::reset_round_state() {
  soft_voted_ = false;
  cert_voted_ = false;
  grace_used_ = false;
  proposal_value_ = kEmptyValue;
  proposal_txs_.clear();
  soft_votes_.clear();
  cert_votes_.clear();
  own_soft_vote_.reset();
  own_cert_vote_.reset();
  own_proposal_.reset();
  seen_proposal_.reset();
  future_proposals_.clear();
  forwarded_.clear();
  vote_timer_ = sim::kInvalidTimer;
  rebroadcast_timer_ = sim::kInvalidTimer;
}

void AlgorandNode::begin_round() {
  if (auto* trace = simulation().trace()) {
    trace->instant(static_cast<std::int32_t>(node_id()), now(), "round",
                   "consensus", "\"round\":" + std::to_string(round_));
  }
  soft_voted_ = false;
  cert_voted_ = false;
  grace_used_ = false;
  proposal_value_ = kEmptyValue;
  proposal_txs_.clear();
  soft_votes_.clear();
  cert_votes_.clear();
  own_soft_vote_.reset();
  own_cert_vote_.reset();
  own_proposal_.reset();
  seen_proposal_.reset();
  propose_if_selected();
  // A proposal that arrived while we were finishing the previous round.
  const auto buffered = future_proposals_.find(round_);
  if (buffered != future_proposals_.end()) {
    const auto& proposal =
        static_cast<const ProposalPayload&>(*buffered->second);
    if (proposal_value_ == kEmptyValue) {
      proposal_value_ = proposal.proposer;
      proposal_txs_ = proposal.txs;
      seen_proposal_ = buffered->second;
    }
  }
  future_proposals_.erase(future_proposals_.begin(),
                          future_proposals_.upper_bound(round_));
  // Filter step: collect proposals for the adaptive wait, then vote.
  // reset_timer retires any vote timer left over from the previous round
  // (the cancel is an eager O(log n) removal, not lazy-cancel garbage).
  reset_timer(vote_timer_, filter_wait_, [this] { cast_soft_vote(); });
}

void AlgorandNode::propose_if_selected() {
  const net::NodeId proposer = chain::sortition_leader(
      network_seed(), round_, /*step=*/0, cluster_size());
  if (proposer != node_id()) return;
  auto batch = mutable_mempool().collect_ready(
      config_.max_batch, [this](chain::AccountId account) {
        return accounts().next_nonce(account);
      });
  auto payload = std::make_shared<const ProposalPayload>(round_, node_id(),
                                                         std::move(batch));
  mark_proposed(payload->txs, round_);
  proposal_value_ = node_id();
  proposal_txs_ = payload->txs;
  own_proposal_ = payload;
  broadcast(own_proposal_, batch_bytes(payload->txs.size()));
}

void AlgorandNode::cast_soft_vote() {
  if (soft_voted_) return;
  // Crash recovery: never vote twice in a round; re-adopt the persisted
  // vote instead (Algorand writes votes to disk before sending).
  const auto persisted = persisted_votes_.find(round_);
  if (persisted != persisted_votes_.end() && persisted->second.has_soft) {
    soft_voted_ = true;
    const net::NodeId value = persisted->second.soft_value;
    own_soft_vote_ =
        std::make_shared<const VotePayload>(round_, VoteStep::kSoft,
                                            node_id(), value);
    soft_votes_.record(node_id(), value);
    broadcast(own_soft_vote_, 96);
    tally_soft_votes();
    return;
  }
  if (proposal_value_ == kEmptyValue && !grace_used_) {
    // No proposal yet: grant the grace period once, then vote whatever
    // arrived in the meantime (or the empty value).
    grace_used_ = true;
    reset_timer(vote_timer_, config_.proposal_grace,
                [this] { cast_soft_vote(); });
    return;
  }
  soft_voted_ = true;
  auto& record = persisted_votes_[round_];
  record.has_soft = true;
  record.soft_value = proposal_value_;
  auto vote = std::make_shared<const VotePayload>(
      round_, VoteStep::kSoft, node_id(), proposal_value_);
  own_soft_vote_ = vote;
  soft_votes_.record(node_id(), proposal_value_);
  broadcast(own_soft_vote_, 96);
  tally_soft_votes();
}

void AlgorandNode::tally_soft_votes() {
  if (cert_voted_) return;
  // Crash recovery: re-adopt a persisted cert vote rather than equivocate.
  const auto persisted = persisted_votes_.find(round_);
  if (persisted != persisted_votes_.end() && persisted->second.has_cert) {
    cert_voted_ = true;
    const net::NodeId value = persisted->second.cert_value;
    own_cert_vote_ =
        std::make_shared<const VotePayload>(round_, VoteStep::kCert,
                                            node_id(), value);
    cert_votes_.record(node_id(), value);
    broadcast(own_cert_vote_, 96);
    tally_cert_votes();
    return;
  }
  for (const auto& [value, count] : soft_votes_.counts()) {
    if (count < vote_quorum()) continue;
    cert_voted_ = true;
    auto& record = persisted_votes_[round_];
    record.has_cert = true;
    record.cert_value = value;
    auto vote =
        std::make_shared<const VotePayload>(round_, VoteStep::kCert,
                                            node_id(), value);
    own_cert_vote_ = vote;
    cert_votes_.record(node_id(), value);
    broadcast(own_cert_vote_, 96);
    tally_cert_votes();
    return;
  }
}

void AlgorandNode::tally_cert_votes() {
  for (const auto& [value, count] : cert_votes_.counts()) {
    if (count < vote_quorum()) continue;
    if (value != kEmptyValue && proposal_value_ != value &&
        anchor_->get(round_) == nullptr) {
      // Certified a proposal whose content we have not received yet; wait
      // for the proposer's (re-)broadcast. Votes keep accumulating.
      return;
    }
    commit_value(value);
    return;
  }
}

void AlgorandNode::commit_value(net::NodeId value) {
  // Pin the round's canonical value (see CertAnchor): the first certified
  // value wins; any later certification of the other value adopts it.
  CertAnchor::Decision candidate;
  candidate.value = value;
  if (value != kEmptyValue) candidate.txs = proposal_txs_;
  const CertAnchor::Decision& decision =
      anchor_->decide(round_, std::move(candidate));
  if (decision.value == kEmptyValue) {
    commit_block({}, node_id(), round_, /*allow_empty=*/true);
    // A timed-out round resets the dynamic round time to its defaults.
    filter_wait_ = config_.default_filter_wait;
  } else {
    commit_block(decision.txs, decision.value, round_, /*allow_empty=*/true);
    // Clean round: the adaptive timing parameters creep down.
    filter_wait_ = std::max(config_.min_filter_wait,
                            filter_wait_ - config_.filter_wait_step);
  }
  ++round_;
  persisted_votes_.erase(persisted_votes_.begin(),
                         persisted_votes_.lower_bound(
                             round_ > 8 ? round_ - 8 : 0));
  begin_round();
}

void AlgorandNode::on_app_message(const net::Envelope& envelope) {
  const net::Payload* payload = envelope.payload.get();
  if (const auto* batch = net::payload_cast<chain::TxBatchPayload>(payload)) {
    // `fresh` is filled only once a transaction turns out stale: a batch
    // that is fresh throughout is relayed as the payload it arrived in.
    std::vector<chain::Transaction> fresh;
    bool all_fresh = true;
    for (std::size_t i = 0; i < batch->txs.size(); ++i) {
      const chain::Transaction& tx = batch->txs[i];
      if (pool_transaction(tx)) {
        if (!all_fresh) fresh.push_back(tx);
      } else if (all_fresh) {
        all_fresh = false;
        fresh.assign(batch->txs.begin(),
                     batch->txs.begin() + static_cast<std::ptrdiff_t>(i));
      }
    }
    if (!is_relay_) return;
    // Push gossip through the relay tier.
    net::PayloadPtr forward;
    if (all_fresh && !batch->txs.empty()) {
      forward = envelope.payload;
    } else if (!fresh.empty()) {
      forward = std::make_shared<const chain::TxBatchPayload>(std::move(fresh));
    } else {
      return;
    }
    for (const net::NodeId peer : connections().peers()) {
      if (peer != envelope.from) {
        connections().send(peer, forward, envelope.bytes);
      }
    }
    return;
  }
  if (const auto* proposal = net::payload_cast<ProposalPayload>(payload)) {
    relay_forward(envelope,
                  chain::hash_combine(chain::hash_combine(proposal->round,
                                                          proposal->proposer),
                                      0xA1150Full));
    if (proposal->round > round_ &&
        proposal->round <= round_ + 4) {
      future_proposals_[proposal->round] = envelope.payload;
      return;
    }
    if (proposal->round != round_) return;
    if (proposal_value_ == proposal->proposer && !proposal_txs_.empty() &&
        proposal->txs.size() != proposal_txs_.size()) {
      // Two different batches under the same (round, proposer): a
      // double-propose. The first batch stays adopted (and the CertAnchor
      // pins whichever content certifies first, so agreement holds); the
      // conflicting pair is the evidence peer scoring acts on.
      report_misbehavior(proposal->proposer, core::Offense::kEquivocation);
      return;
    }
    if (proposal_value_ == kEmptyValue ||
        proposal_value_ == proposal->proposer) {
      proposal_value_ = proposal->proposer;
      proposal_txs_ = proposal->txs;
      seen_proposal_ = envelope.payload;
      // If certification already happened and only the content was
      // missing, complete the commit now.
      tally_cert_votes();
    }
    return;
  }
  if (const auto* vote = net::payload_cast<VotePayload>(payload)) {
    relay_forward(envelope,
                  chain::hash_combine(
                      chain::hash_combine(vote->round, vote->voter),
                      chain::hash_combine(
                          static_cast<std::uint64_t>(vote->step),
                          vote->value)));
    if (vote->round > round_) {
      request_sync(envelope.from);
      return;
    }
    if (vote->round != round_) return;
    if (vote->step == VoteStep::kSoft) {
      // Double-vote evidence: switching soft votes *from the empty value*
      // to a proposal is legitimate BA* recovery (see rebroadcast());
      // switching away from a non-empty value is not.
      const net::NodeId* known = soft_votes_.vote_of(vote->voter);
      if (known != nullptr && *known != kEmptyValue &&
          *known != vote->value) {
        report_misbehavior(vote->voter, core::Offense::kEquivocation);
      }
      soft_votes_.record(vote->voter, vote->value);
      tally_soft_votes();
    } else {
      // Cert votes are cast at most once per round (persisted to disk
      // before sending); any conflicting pair is equivocation.
      const net::NodeId* known = cert_votes_.vote_of(vote->voter);
      if (known != nullptr && *known != vote->value) {
        report_misbehavior(vote->voter, core::Offense::kEquivocation);
      }
      cert_votes_.record(vote->voter, vote->value);
      tally_cert_votes();
    }
    return;
  }
}

void AlgorandNode::relay_forward(const net::Envelope& envelope,
                                 std::uint64_t key) {
  // Relay nodes re-propagate consensus traffic so participation nodes that
  // only peer with relays still see every proposal and vote exactly once.
  if (!is_relay_) return;
  if (!forwarded_.insert(key).second) return;
  if (forwarded_.size() > 100'000) forwarded_.clear();
  for (const net::NodeId peer : connections().peers()) {
    if (peer != envelope.from) {
      connections().send(peer, envelope.payload, envelope.bytes);
    }
  }
}

net::PayloadPtr AlgorandNode::equivocate_payload(
    const net::PayloadPtr& payload) {
  if (const auto* proposal =
          net::payload_cast<ProposalPayload>(payload.get())) {
    if (proposal->txs.size() < 2) return nullptr;
    // Double-propose: a conflicting batch under the same (round, proposer).
    std::vector<chain::Transaction> twin(proposal->txs.rbegin(),
                                         proposal->txs.rend());
    twin.pop_back();
    return std::make_shared<const ProposalPayload>(
        proposal->round, proposal->proposer, std::move(twin));
  }
  if (const auto* vote = net::payload_cast<VotePayload>(payload.get())) {
    if (vote->value == kEmptyValue) return nullptr;
    // Double-vote: endorse the proposal to one half of the cluster and the
    // empty value to the other, splitting the quorum count.
    return std::make_shared<const VotePayload>(vote->round, vote->step,
                                               vote->voter, kEmptyValue);
  }
  return nullptr;
}

bool AlgorandNode::withholdable(const net::Payload& payload) const {
  // Only proposals: votes are re-gossiped every rebroadcast tick anyway,
  // so withholding them replays payloads the protocol already replays.
  return net::payload_cast<ProposalPayload>(&payload) != nullptr;
}

void AlgorandNode::on_transaction(const chain::Transaction& tx) {
  // Push gossip: the entry node forwards to every peer; the network is
  // fully connected, so no multi-hop relay is needed.
  broadcast(std::make_shared<const chain::TxBatchPayload>(
                std::vector<chain::Transaction>{tx}),
            160);
}

void AlgorandNode::on_peer_up(net::NodeId peer) {
  // Pull gossip on (re)connection: offer our pooled transactions and the
  // current round state so a rejoining node converges.
  const auto pool = mutable_mempool().collect_ready(
      config_.max_batch * 6, [this](chain::AccountId account) {
        return accounts().next_nonce(account);
      });
  if (!pool.empty()) {
    send_to(peer, std::make_shared<const chain::TxBatchPayload>(pool),
            batch_bytes(pool.size()));
  }
  if (own_proposal_ != nullptr) send_to(peer, own_proposal_, 256);
  if (seen_proposal_ != nullptr) send_to(peer, seen_proposal_, 256);
  if (own_soft_vote_ != nullptr) send_to(peer, own_soft_vote_, 96);
  if (own_cert_vote_ != nullptr) send_to(peer, own_cert_vote_, 96);
}

void AlgorandNode::on_synced() {
  if (ledger().height() > round_) {
    round_ = ledger().height();
    filter_wait_ = config_.default_filter_wait;
    begin_round();
  }
}

void AlgorandNode::rebroadcast() {
  // BA* recovers stuck rounds through further voting steps: when a node
  // soft-voted the empty value but has since received the round's
  // proposal (e.g. after a partition healed), it re-votes for the
  // proposal so the round can still certify. Votes are last-write-wins
  // per voter, and cert votes are cast at most once per round, so two
  // conflicting certified values would need 2*quorum > n distinct nodes.
  const net::NodeId* own_soft = soft_votes_.vote_of(node_id());
  if (soft_voted_ && proposal_value_ != kEmptyValue && own_soft != nullptr &&
      *own_soft == kEmptyValue) {
    auto vote = std::make_shared<const VotePayload>(
        round_, VoteStep::kSoft, node_id(), proposal_value_);
    own_soft_vote_ = vote;
    soft_votes_.record(node_id(), proposal_value_);
    auto& record = persisted_votes_[round_];
    record.has_soft = true;
    record.soft_value = proposal_value_;
    tally_soft_votes();
  }
  if (own_proposal_ != nullptr) broadcast(own_proposal_, 256);
  if (seen_proposal_ != nullptr) broadcast(seen_proposal_, 256);
  if (own_soft_vote_ != nullptr) broadcast(own_soft_vote_, 96);
  if (own_cert_vote_ != nullptr) broadcast(own_cert_vote_, 96);
  rebroadcast_timer_ = set_timer(config_.rebroadcast_interval,
                                 [this] { rebroadcast(); });
}

net::PayloadPtr make_proposal(std::uint64_t round, net::NodeId proposer,
                              std::vector<chain::Transaction> txs) {
  return std::make_shared<const ProposalPayload>(round, proposer,
                                                 std::move(txs));
}

net::PayloadPtr make_soft_vote(std::uint64_t round, net::NodeId voter,
                               net::NodeId value) {
  return std::make_shared<const VotePayload>(round, VoteStep::kSoft, voter,
                                             value);
}

net::PayloadPtr make_cert_vote(std::uint64_t round, net::NodeId voter,
                               net::NodeId value) {
  return std::make_shared<const VotePayload>(round, VoteStep::kCert, voter,
                                             value);
}

std::vector<std::unique_ptr<chain::BlockchainNode>> make_cluster(
    sim::Simulation& simulation, net::Network& network,
    chain::NodeConfig node_config_template, AlgorandConfig config) {
  auto anchor = std::make_shared<CertAnchor>();
  const std::size_t n = node_config_template.n;
  const std::size_t relays = std::min(config.relay_count, n);
  std::vector<std::unique_ptr<chain::BlockchainNode>> nodes;
  nodes.reserve(n);
  for (net::NodeId id = 0; id < n; ++id) {
    chain::NodeConfig node_config = node_config_template;
    node_config.id = id;
    const bool is_relay = relays == 0 || id < relays;
    if (relays > 0) {
      node_config.peers.clear();
      if (id < relays) {
        // Relays connect to everyone.
        for (net::NodeId peer = 0; peer < n; ++peer) {
          if (peer != id) node_config.peers.push_back(peer);
        }
      } else {
        // Participation nodes connect only to the relay tier.
        for (net::NodeId peer = 0; peer < relays; ++peer) {
          node_config.peers.push_back(peer);
        }
      }
    }
    nodes.push_back(std::make_unique<AlgorandNode>(
        simulation, network, node_config, config, anchor, is_relay));
  }
  return nodes;
}

namespace {

chain::ChainTraits make_traits() {
  chain::ChainTraits traits;
  traits.name = "algorand";
  traits.description =
      "BA* sortition rounds with dynamic round time and an 80% online-stake "
      "certification quorum (paper Algorand)";
  traits.tier = 0;
  traits.fault_tolerance = chain::tolerance_fifth;
  const AlgorandConfig defaults;
  traits.default_params = {
      {"relays", static_cast<double>(defaults.relay_count)}};
  traits.default_params.merge(chain::misbehavior_default_params());
  traits.make_cluster = [](sim::Simulation& simulation,
                           net::Network& network,
                           const chain::NodeConfig& node_config,
                           const chain::ChainParams& params) {
    AlgorandConfig config;
    config.relay_count = static_cast<std::size_t>(params.at("relays"));
    chain::NodeConfig node_template = node_config;
    chain::apply_misbehavior_params(node_template, params);
    return make_cluster(simulation, network, node_template, config);
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

}  // namespace stabl::algorand

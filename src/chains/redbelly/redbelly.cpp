#include "chains/redbelly/redbelly.hpp"

#include <algorithm>
#include <cassert>
#include <unordered_set>
#include <utility>

#include "chain/registry.hpp"

namespace stabl::redbelly {
namespace {

struct ProposalPayload final : net::PayloadOf<ProposalPayload> {
  ProposalPayload(std::uint64_t r, net::NodeId p,
                  std::vector<chain::Transaction> batch)
      : round(r), proposer(p), txs(std::move(batch)) {}
  std::uint64_t round;
  net::NodeId proposer;
  std::vector<chain::Transaction> txs;
};

struct EchoPayload final : net::PayloadOf<EchoPayload> {
  EchoPayload(std::uint64_t r, std::vector<net::NodeId> s)
      : round(r), seen(std::move(s)) {}
  std::uint64_t round;
  std::vector<net::NodeId> seen;
};

struct CommitPayload final : net::PayloadOf<CommitPayload> {
  CommitPayload(std::uint64_t r, net::NodeId d,
                std::vector<chain::Transaction> batch)
      : round(r), decider(d), txs(std::move(batch)) {}
  std::uint64_t round;
  net::NodeId decider;
  std::vector<chain::Transaction> txs;
};

/// Lightweight "where are you" exchanged when a peer comes (back) up.
struct StatusPayload final : net::PayloadOf<StatusPayload> {
  explicit StatusPayload(std::uint64_t r) : round(r) {}
  std::uint64_t round;
};

std::uint32_t batch_bytes(std::size_t tx_count) {
  return 128 + static_cast<std::uint32_t>(tx_count) * 128;
}

// Held round messages are only ever stored after a successful type test.
const ProposalPayload& as_proposal(const net::PayloadPtr& payload) {
  return static_cast<const ProposalPayload&>(*payload);
}

const EchoPayload& as_echo(const net::PayloadPtr& payload) {
  return static_cast<const EchoPayload&>(*payload);
}

}  // namespace

const DecisionLog::Decision& DecisionLog::decide(std::uint64_t round,
                                                 Decision candidate) {
  const auto [it, inserted] =
      decisions_.emplace(round, std::move(candidate));
  return it->second;
}

const DecisionLog::Decision* DecisionLog::get(std::uint64_t round) const {
  const auto it = decisions_.find(round);
  return it == decisions_.end() ? nullptr : &it->second;
}

RedbellyNode::RedbellyNode(sim::Simulation& simulation, net::Network& network,
                           chain::NodeConfig node_config,
                           RedbellyConfig config,
                           std::shared_ptr<DecisionLog> decisions)
    : BlockchainNode(simulation, network,
                     [&] {
                       node_config.connection.dead_after =
                           config.max_idle_time;
                       node_config.connection.retry_period =
                           config.dial_retry_period;
                       node_config.connection.retry_jitter_frac = 0.02;
                       node_config.restart_boot_delay =
                           config.restart_boot_delay;
                       return node_config;
                     }()),
      config_(config),
      decisions_(std::move(decisions)),
      proposals_(cluster_size()),
      echoes_(cluster_size()),
      echo_counts_(cluster_size(), 0) {}

std::size_t RedbellyNode::t() const { return (cluster_size() - 1) / 3; }
std::size_t RedbellyNode::quorum() const { return cluster_size() - t(); }

void RedbellyNode::start_protocol() {
  round_ = ledger().height();
  schedule_round_start();
  reset_timer(rebroadcast_timer_, config_.rebroadcast_interval,
              [this] { rebroadcast(); });
}

void RedbellyNode::stop_protocol() {
  reset_round_state();
  round_ = 0;
}

void RedbellyNode::clear_round() {
  round_open_ = false;
  echoed_ = false;
  std::fill(proposals_.begin(), proposals_.end(), nullptr);
  std::fill(echoes_.begin(), echoes_.end(), nullptr);
  std::fill(echo_counts_.begin(), echo_counts_.end(), 0);
  echoers_ = 0;
  own_proposal_.reset();
  own_echo_.reset();
}

void RedbellyNode::reset_round_state() {
  clear_round();
  echo_timer_ = sim::kInvalidTimer;
  rebroadcast_timer_ = sim::kInvalidTimer;
}

void RedbellyNode::record_echo(net::NodeId echoer, net::PayloadPtr echo) {
  net::PayloadPtr& held = echoes_[echoer];
  if (held == echo) return;  // a re-sent echo changes no count
  if (held != nullptr) {
    for (const net::NodeId proposer : as_echo(held).seen) {
      --echo_counts_[proposer];
    }
  } else {
    ++echoers_;
  }
  for (const net::NodeId proposer : as_echo(echo).seen) {
    ++echo_counts_[proposer];
  }
  held = std::move(echo);
}

void RedbellyNode::schedule_round_start() {
  const auto jitter = sim::Duration{static_cast<std::int64_t>(
      rng().uniform() *
      static_cast<double>(config_.pacing_jitter.count()))};
  set_timer(config_.round_pacing + jitter, [this] { start_round(); });
}

void RedbellyNode::start_round() {
  if (round_open_) return;
  round_open_ = true;
  if (auto* trace = simulation().trace()) {
    trace->instant(static_cast<std::int32_t>(node_id()), now(), "round",
                   "consensus", "\"round\":" + std::to_string(round_));
  }
  echoed_ = false;
  auto batch = mutable_mempool().collect_ready(
      config_.max_batch,
      [this](chain::AccountId account) {
        return accounts().next_nonce(account);
      });
  auto proposal = std::make_shared<const ProposalPayload>(round_, node_id(),
                                                          std::move(batch));
  mark_proposed(proposal->txs, round_);
  proposals_[node_id()] = proposal;
  own_proposal_ = proposal;
  broadcast(own_proposal_, batch_bytes(proposal->txs.size()));
  reset_timer(echo_timer_, config_.proposal_window, [this] { send_echo(); });
}

void RedbellyNode::send_echo() {
  if (!round_open_ || echoed_) return;
  echoed_ = true;
  // Proposers in id order, each once: record_echo() counts every entry.
  std::vector<net::NodeId> seen;
  for (net::NodeId proposer = 0; proposer < proposals_.size(); ++proposer) {
    if (proposals_[proposer] != nullptr) seen.push_back(proposer);
  }
  const auto bytes = 64 + 4 * static_cast<std::uint32_t>(seen.size());
  own_echo_ = std::make_shared<const EchoPayload>(round_, std::move(seen));
  record_echo(node_id(), own_echo_);
  broadcast(own_echo_, bytes);
  maybe_decide();
}

void RedbellyNode::maybe_decide() {
  if (!round_open_ || !echoed_) return;
  if (echoers_ < quorum()) return;
  // Candidate superblock: proposals echoed by at least t+1 nodes and whose
  // content we hold. Union in proposer-id order, deduplicated.
  DecisionLog::Decision candidate;
  std::unordered_set<chain::TxId> included;
  for (net::NodeId proposer = 0; proposer < proposals_.size(); ++proposer) {
    if (echo_counts_[proposer] < t() + 1) continue;
    if (proposals_[proposer] == nullptr) continue;  // content not held
    candidate.proposers.push_back(proposer);
    for (const chain::Transaction& tx : as_proposal(proposals_[proposer]).txs) {
      if (included.insert(tx.id).second) candidate.txs.push_back(tx);
    }
  }
  const DecisionLog::Decision& decision =
      decisions_->decide(round_, std::move(candidate));
  auto commit = std::make_shared<const CommitPayload>(round_, node_id(),
                                                      decision.txs);
  broadcast(commit, batch_bytes(decision.txs.size()));
  commit_round(decision.txs, node_id());
}

void RedbellyNode::commit_round(const std::vector<chain::Transaction>& txs,
                                net::NodeId decider) {
  commit_block(txs, decider, round_, /*allow_empty=*/true);
  clear_round();
  cancel_timer(echo_timer_);
  ++round_;
  schedule_round_start();
}

void RedbellyNode::adopt_decision(
    std::uint64_t round, const std::vector<chain::Transaction>& txs,
    net::NodeId decider) {
  assert(round == round_);
  (void)round;
  if (!round_open_) {
    // We had not even proposed yet (e.g. fresh restart mid-pacing); commit
    // directly, the decision is canonical.
    round_open_ = true;
  }
  commit_round(txs, decider);
}

void RedbellyNode::on_app_message(const net::Envelope& envelope) {
  const net::Payload* payload = envelope.payload.get();
  if (const auto* proposal = net::payload_cast<ProposalPayload>(payload)) {
    if (proposal->round != round_) return;
    net::PayloadPtr& known = proposals_[proposal->proposer];
    if (known != nullptr &&
        as_proposal(known).txs.size() != proposal->txs.size()) {
      // Two different batches under the same (round, proposer): a
      // double-propose. Keep the first (the DecisionLog pins one canonical
      // superblock regardless, so agreement holds); the conflicting pair
      // is the evidence peer scoring acts on.
      report_misbehavior(proposal->proposer, core::Offense::kEquivocation);
      return;
    }
    known = envelope.payload;
    return;
  }
  if (const auto* echo = net::payload_cast<EchoPayload>(payload)) {
    if (echo->round != round_) return;
    record_echo(envelope.from, envelope.payload);
    maybe_decide();
    return;
  }
  if (const auto* commit = net::payload_cast<CommitPayload>(payload)) {
    if (commit->round == round_) {
      adopt_decision(commit->round, commit->txs, commit->decider);
    } else if (commit->round > round_) {
      // We are behind (restart or long disconnection): catch up.
      request_sync(envelope.from);
    }
    return;
  }
  if (const auto* status = net::payload_cast<StatusPayload>(payload)) {
    if (status->round > round_) request_sync(envelope.from);
    return;
  }
}

void RedbellyNode::on_peer_up(net::NodeId peer) {
  send_to(peer, std::make_shared<const StatusPayload>(round_), 64);
  // Re-offer our current round state so a stalled round can complete.
  if (own_proposal_ != nullptr) send_to(peer, own_proposal_, 256);
  if (own_echo_ != nullptr) send_to(peer, own_echo_, 128);
}

void RedbellyNode::on_synced() {
  if (ledger().height() > round_) {
    // The sync moved us past the round we were in; abandon its state.
    round_ = ledger().height();
    clear_round();
    cancel_timer(echo_timer_);
    schedule_round_start();
  }
}

net::PayloadPtr RedbellyNode::equivocate_payload(
    const net::PayloadPtr& payload) {
  const auto* proposal = net::payload_cast<ProposalPayload>(payload.get());
  if (proposal == nullptr || proposal->txs.size() < 2) return nullptr;
  // Double-propose: a conflicting batch under the same (round, proposer),
  // so the two halves of the cluster hold different content for the same
  // superblock component.
  std::vector<chain::Transaction> twin(proposal->txs.rbegin(),
                                       proposal->txs.rend());
  twin.pop_back();
  return std::make_shared<const ProposalPayload>(
      proposal->round, proposal->proposer, std::move(twin));
}

bool RedbellyNode::withholdable(const net::Payload& payload) const {
  // Only proposals: a withheld proposal drops the node's batch out of the
  // superblock (delay), a replayed one targets the duplicate-detection
  // path. Echo/commit withholding would look like ordinary packet loss.
  return net::payload_cast<ProposalPayload>(&payload) != nullptr;
}

void RedbellyNode::rebroadcast() {
  if (round_open_) {
    if (own_proposal_ != nullptr) broadcast(own_proposal_, 256);
    if (own_echo_ != nullptr) broadcast(own_echo_, 128);
  }
  reset_timer(rebroadcast_timer_, config_.rebroadcast_interval,
              [this] { rebroadcast(); });
}

net::PayloadPtr make_proposal(std::uint64_t round, net::NodeId proposer,
                              std::vector<chain::Transaction> txs) {
  return std::make_shared<const ProposalPayload>(round, proposer,
                                                 std::move(txs));
}

net::PayloadPtr make_echo(std::uint64_t round,
                          std::vector<net::NodeId> seen) {
  return std::make_shared<const EchoPayload>(round, std::move(seen));
}

std::vector<std::unique_ptr<chain::BlockchainNode>> make_cluster(
    sim::Simulation& simulation, net::Network& network,
    chain::NodeConfig node_config_template, RedbellyConfig config) {
  auto decisions = std::make_shared<DecisionLog>();
  std::vector<std::unique_ptr<chain::BlockchainNode>> nodes;
  nodes.reserve(node_config_template.n);
  for (net::NodeId id = 0; id < node_config_template.n; ++id) {
    chain::NodeConfig node_config = node_config_template;
    node_config.id = id;
    nodes.push_back(std::make_unique<RedbellyNode>(
        simulation, network, node_config, config, decisions));
  }
  return nodes;
}

namespace {

chain::ChainTraits make_traits() {
  chain::ChainTraits traits;
  traits.name = "redbelly";
  traits.description =
      "leaderless DBFT superblocks: union of every proposal echoed by t+1 "
      "nodes (paper Redbelly)";
  traits.tier = 0;
  traits.fault_tolerance = chain::tolerance_third;
  const RedbellyConfig defaults;
  traits.default_params = {
      {"max_idle_s", sim::to_seconds(defaults.max_idle_time)}};
  traits.default_params.merge(chain::misbehavior_default_params());
  traits.make_cluster = [](sim::Simulation& simulation,
                           net::Network& network,
                           const chain::NodeConfig& node_config,
                           const chain::ChainParams& params) {
    RedbellyConfig config;
    config.max_idle_time = sim::seconds(params.at("max_idle_s"));
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

}  // namespace stabl::redbelly

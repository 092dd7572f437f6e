#include "chains/avalanche/avalanche.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>

#include "chain/hash.hpp"
#include "chain/registry.hpp"

namespace stabl::avalanche {
namespace {

struct CandidatePayload final : net::PayloadOf<CandidatePayload> {
  CandidatePayload(std::uint64_t h, std::uint64_t i, net::NodeId p,
                   std::vector<chain::Transaction> batch)
      : height(h), id(i), proposer(p), txs(std::move(batch)) {}
  std::uint64_t height;
  std::uint64_t id;
  net::NodeId proposer;
  std::vector<chain::Transaction> txs;
};

struct QueryPayload final : net::PayloadOf<QueryPayload> {
  QueryPayload(std::uint64_t h, std::uint64_t p, net::NodeId o,
               std::uint64_t pref)
      : height(h), poll_id(p), origin(o), preferred(pref) {}
  std::uint64_t height;
  std::uint64_t poll_id;
  net::NodeId origin;
  /// The poller's preferred block id (a PullQuery): a peer that does not
  /// know the block fetches it from the poller.
  std::uint64_t preferred;
};

struct ChitPayload final : net::PayloadOf<ChitPayload> {
  ChitPayload(std::uint64_t h, std::uint64_t p, std::uint64_t pref)
      : height(h), poll_id(p), preferred(pref) {}
  std::uint64_t height;
  std::uint64_t poll_id;
  std::uint64_t preferred;  // 0 = no preference
};

struct DecidedPayload final : net::PayloadOf<DecidedPayload> {
  DecidedPayload(std::uint64_t h, std::uint64_t i) : height(h), id(i) {}
  std::uint64_t height;
  std::uint64_t id;
};

struct FetchRequestPayload final : net::PayloadOf<FetchRequestPayload> {
  FetchRequestPayload(std::uint64_t h, std::uint64_t i)
      : height(h), id(i) {}
  std::uint64_t height;
  std::uint64_t id;
};

std::uint32_t batch_bytes(std::size_t tx_count) {
  return 128 + static_cast<std::uint32_t>(tx_count) * 128;
}

}  // namespace

std::uint64_t AnchorLog::decide(std::uint64_t height, std::uint64_t block_id) {
  const auto [it, inserted] = ids_.emplace(height, block_id);
  return it->second;
}

const std::uint64_t* AnchorLog::get(std::uint64_t height) const {
  const auto it = ids_.find(height);
  return it == ids_.end() ? nullptr : &it->second;
}

AvalancheNode::AvalancheNode(sim::Simulation& simulation,
                             net::Network& network,
                             chain::NodeConfig node_config,
                             AvalancheConfig config,
                             std::shared_ptr<AnchorLog> anchors)
    : BlockchainNode(simulation, network,
                     [&] {
                       node_config.connection.dead_after = config.dead_after;
                       node_config.connection.retry_period =
                           config.dial_retry_period;
                       node_config.restart_boot_delay =
                           config.restart_boot_delay;
                       return node_config;
                     }()),
      config_(config),
      anchors_(std::move(anchors)),
      throttler_(
          *this, config.throttler,
          [this](const net::Envelope& e) { return message_cost(e); },
          [this](const net::Envelope& e) { handle_app(e); }) {}

sim::Duration AvalancheNode::message_cost(const net::Envelope& e) const {
  const net::Payload* payload = e.payload.get();
  if (net::payload_cast<QueryPayload>(payload) != nullptr) {
    return config_.cost_query;
  }
  if (net::payload_cast<ChitPayload>(payload) != nullptr) {
    return config_.cost_chit;
  }
  if (const auto* batch = net::payload_cast<chain::TxBatchPayload>(payload)) {
    return config_.cost_batch_overhead +
           sim::Duration{config_.cost_per_tx.count() *
                         static_cast<std::int64_t>(batch->txs.size())};
  }
  if (net::payload_cast<CandidatePayload>(payload) != nullptr) {
    return config_.cost_candidate;
  }
  return config_.cost_decided;
}

net::NodeId AvalancheNode::proposer_of(std::uint64_t height,
                                       int attempt) const {
  const std::uint64_t h = chain::hash_combine(
      chain::hash_combine(network_seed(), height),
      static_cast<std::uint64_t>(attempt));
  return static_cast<net::NodeId>(h % cluster_size());
}

void AvalancheNode::start_protocol() {
  height_ = ledger().height();
  begin_height();
  throttler_.start();
  set_timer(config_.poll_interval, [this] { poll_tick(); });
  set_timer(config_.gossip_interval, [this] { gossip_tick(); });
}

void AvalancheNode::stop_protocol() {
  throttler_.reset();
  candidates_.clear();
  polls_.clear();
  decided_ids_.clear();
  gossip_queue_.clear();
  gossip_sent_.clear();
  preference_ = 0;
  success_ = 0;
  decided_ = false;
  decided_id_ = 0;
  attempt_ = 0;
  height_ = 0;
}

void AvalancheNode::begin_height() {
  height_start_ = now();
  attempt_ = 0;
  candidates_.clear();
  polls_.clear();
  preference_ = 0;
  success_ = 0;
  decided_ = false;
  decided_id_ = 0;
  if (proposer_of(height_, 0) == node_id()) {
    const std::uint64_t h = height_;
    set_timer(config_.block_interval, [this, h] {
      if (height_ == h && !decided_ && candidates_.empty()) propose();
    });
  }
  arm_attempt_timer(config_.block_interval + config_.attempt_timeout);
}

void AvalancheNode::arm_attempt_timer(sim::Duration delay) {
  // The guard (not a cancel) retires the timer when the height moves on:
  // a decided height must fire the stale timer as a no-op so that the
  // pending-event profile stays identical whether heights decide fast or
  // slow — cancelling here would make event counts depend on luck.
  set_timer(delay, [this, h = height_] {
    if (height_ == h) on_attempt_timeout();
  });
}

void AvalancheNode::propose() {
  chain::Mempool::ReadyStats ready_stats;
  auto txs = mutable_mempool().collect_ready(
      config_.max_block_txs,
      [this](chain::AccountId account) {
        return accounts().next_nonce(account);
      },
      ready_stats);
  // Hot-wallet transactions this proposer holds but cannot order yet: a
  // lower nonce was issued through another client and its gossip has not
  // reached us. The paper's §7 Avalanche hazard, measured directly.
  hot_nonce_stalls_ += ready_stats.hot_gap_stalled_txs;
  const std::uint64_t id =
      chain::hash_combine(chain::hash_combine(network_seed(), height_),
                          chain::hash_combine(node_id(), 0x9E3779B9u));
  auto payload = std::make_shared<const CandidatePayload>(
      height_, id, node_id(), std::move(txs));
  mark_proposed(payload->txs, height_);
  Candidate candidate{id, node_id(), payload->txs};
  candidates_.emplace(id, std::move(candidate));
  if (preference_ == 0) {
    preference_ = id;
    success_ = 0;
  }
  broadcast(payload, batch_bytes(payload->txs.size()));
}

void AvalancheNode::on_attempt_timeout() {
  if (decided_) return;
  if (candidates_.empty()) {
    ++attempt_;
    if (proposer_of(height_, attempt_) == node_id()) propose();
  }
  arm_attempt_timer(config_.attempt_timeout);
}

void AvalancheNode::poll_tick() {
  // Expire overdue polls first (missing chits: dead or throttled peers).
  const sim::Time current = now();
  std::vector<std::uint64_t> overdue;
  for (const auto& [id, poll] : polls_) {
    if (poll.open && current >= poll.deadline) overdue.push_back(id);
  }
  for (const std::uint64_t id : overdue) evaluate_poll(id);
  if (!decided_ && preference_ != 0) issue_poll();
  // Trim closed polls bookkeeping.
  while (polls_.size() > 256) polls_.erase(polls_.begin());
  set_timer(config_.poll_interval, [this] { poll_tick(); });
}

void AvalancheNode::issue_poll() {
  const std::uint64_t poll_id = next_poll_id_++;
  if (auto* trace = simulation().trace()) {
    trace->instant(static_cast<std::int32_t>(node_id()), now(), "poll",
                   "consensus",
                   "\"poll\":" + std::to_string(poll_id) +
                       ",\"height\":" + std::to_string(height_));
  }
  Poll poll;
  poll.preferred = preference_;
  poll.deadline = now() + config_.query_timeout;
  auto query = std::make_shared<const QueryPayload>(height_, poll_id,
                                                    node_id(), preference_);
  const auto sample = rng().sample_without_replacement(
      cluster_size() - 1, static_cast<std::size_t>(config_.sample_k));
  for (const std::size_t raw : sample) {
    // Map the sample index onto peer ids (skip self).
    const net::NodeId peer =
        static_cast<net::NodeId>(raw < node_id() ? raw : raw + 1);
    // Sampling ignores liveness; the send silently fails when the
    // connection is down, exactly like a query that will never be answered.
    send_to(peer, query, 128);
    ++poll.sent;
  }
  polls_.emplace(poll_id, std::move(poll));
}

void AvalancheNode::evaluate_poll(std::uint64_t poll_id) {
  const auto it = polls_.find(poll_id);
  if (it == polls_.end() || !it->second.open) return;
  Poll& poll = it->second;
  poll.open = false;
  if (decided_) return;
  // Snowball step: α matching chits on some block is a signal; on our
  // preference it extends the streak, on another it flips us.
  std::uint64_t winner = 0;
  for (const auto& [block_id, count] : poll.counts) {
    if (block_id != 0 && count >= config_.alpha) winner = block_id;
  }
  if (winner == 0) {
    success_ = 0;
  } else if (winner == preference_) {
    ++success_;
  } else {
    preference_ = winner;
    success_ = 1;
  }
  if (success_ >= config_.beta) on_decision(preference_);
}

void AvalancheNode::on_decision(std::uint64_t id) {
  if (decided_) return;
  const std::uint64_t canonical = anchors_->decide(height_, id);
  decided_ = true;
  decided_id_ = canonical;
  const auto candidate_it = candidates_.find(canonical);
  if (candidate_it != candidates_.end()) {
    broadcast(std::make_shared<const DecidedPayload>(height_, canonical),
              96);
    commit_decided(candidate_it->second);
  } else {
    request_fetch();
  }
}

void AvalancheNode::commit_decided(const Candidate& candidate) {
  decided_ids_[height_] = candidate.id;
  if (decided_ids_.size() > 64) decided_ids_.erase(decided_ids_.begin());
  commit_block(candidate.txs, candidate.proposer, height_,
               /*allow_empty=*/true);
  ++height_;
  begin_height();
}

void AvalancheNode::on_synced() {
  if (ledger().height() > height_) {
    // Sync appended the height being decided (and maybe more): a late
    // decision for it would commit a second block on top of the synced
    // tip, shifting this replica's ledger by one. Decide the next height.
    height_ = ledger().height();
    begin_height();
  }
}

void AvalancheNode::request_fetch() {
  if (!decided_ || decided_id_ == 0) return;
  const auto peers = connections().connected_peers();
  if (!peers.empty()) {
    const auto index = static_cast<std::size_t>(rng().uniform_int(
        0, static_cast<std::int64_t>(peers.size()) - 1));
    send_to(peers[index],
            std::make_shared<const FetchRequestPayload>(height_, decided_id_),
            96);
  }
  set_timer(sim::sec(1), [this, h = height_] {
    if (height_ == h && decided_ && decided_id_ != 0) request_fetch();
  });
}

void AvalancheNode::on_app_message(const net::Envelope& envelope) {
  // Everything inbound goes through the InboundMsgThrottler.
  throttler_.enqueue(envelope);
}

void AvalancheNode::handle_app(const net::Envelope& envelope) {
  const net::Payload* payload = envelope.payload.get();
  if (const auto* batch = net::payload_cast<chain::TxBatchPayload>(payload)) {
    for (const chain::Transaction& tx : batch->txs) {
      if (pool_transaction(tx)) on_transaction(tx);
    }
    return;
  }
  if (const auto* query = net::payload_cast<QueryPayload>(payload)) {
    std::uint64_t pref = 0;
    if (query->height == height_) {
      pref = preference_;
      if (preference_ == 0 && query->preferred != 0) {
        // PullQuery repair: we are being polled about a block we never
        // received (e.g. we were down when it was issued) — fetch it.
        send_to(envelope.from,
                std::make_shared<const FetchRequestPayload>(
                    query->height, query->preferred),
                96);
      }
    } else if (query->height < height_) {
      const auto it = decided_ids_.find(query->height);
      if (it != decided_ids_.end()) pref = it->second;
    } else {
      // The poller is ahead of us: catch up.
      request_sync(envelope.from);
    }
    send_to(envelope.from,
            std::make_shared<const ChitPayload>(query->height, query->poll_id,
                                                pref),
            96);
    return;
  }
  if (const auto* chit = net::payload_cast<ChitPayload>(payload)) {
    const auto it = polls_.find(chit->poll_id);
    if (it == polls_.end() || !it->second.open) return;
    Poll& poll = it->second;
    ++poll.responses;
    if (chit->preferred != 0) ++poll.counts[chit->preferred];
    // A poll concludes when *all* queried peers answered; otherwise it
    // waits for its timeout — this is why samples containing crashed (or
    // throttled) nodes stretch every voting round (paper §4).
    if (poll.responses >= poll.sent) evaluate_poll(chit->poll_id);
    return;
  }
  if (const auto* candidate = net::payload_cast<CandidatePayload>(payload)) {
    if (candidate->height != height_) {
      if (candidate->height > height_) request_sync(envelope.from);
      return;
    }
    // Double-propose evidence: a second candidate for this height from a
    // proposer we already hold a *different* block from. Snowball still
    // converges on one id (and the anchor pins commits), so the damage is
    // liveness — but the conflicting pair is exactly what peer scoring
    // punishes.
    for (const auto& [known_id, known] : candidates_) {
      if (known.proposer == candidate->proposer &&
          known_id != candidate->id) {
        report_misbehavior(candidate->proposer,
                           core::Offense::kEquivocation);
        break;
      }
    }
    candidates_.emplace(candidate->id,
                        Candidate{candidate->id, candidate->proposer,
                                  candidate->txs});
    if (preference_ == 0) {
      preference_ = candidate->id;
      success_ = 0;
    }
    if (decided_ && decided_id_ == candidate->id) {
      commit_decided(candidates_.at(candidate->id));
    }
    return;
  }
  if (const auto* decided = net::payload_cast<DecidedPayload>(payload)) {
    if (decided->height != height_ || decided_) {
      if (decided->height > height_) request_sync(envelope.from);
      return;
    }
    decided_ = true;
    decided_id_ = decided->id;
    const auto it = candidates_.find(decided->id);
    if (it != candidates_.end()) {
      commit_decided(it->second);
    } else {
      request_fetch();
    }
    return;
  }
  if (const auto* fetch = net::payload_cast<FetchRequestPayload>(payload)) {
    if (fetch->height == height_) {
      const auto it = candidates_.find(fetch->id);
      if (it != candidates_.end()) {
        send_to(envelope.from,
                std::make_shared<const CandidatePayload>(
                    height_, it->second.id, it->second.proposer,
                    it->second.txs),
                batch_bytes(it->second.txs.size()));
      }
    } else if (fetch->height < ledger().height()) {
      // Already committed: serve from the ledger via state sync.
      send_to(envelope.from,
              std::make_shared<const chain::SyncResponsePayload>(
                  fetch->height,
                  std::vector<chain::Block>{
                      ledger().blocks()[fetch->height]}),
              512);
    }
    return;
  }
}

void AvalancheNode::on_transaction(const chain::Transaction& tx) {
  gossip_queue_.push_back(tx.id);
}

net::PayloadPtr AvalancheNode::equivocate_payload(
    const net::PayloadPtr& payload) {
  const auto* candidate = net::payload_cast<CandidatePayload>(payload.get());
  if (candidate == nullptr || candidate->txs.size() < 2) return nullptr;
  // Double-propose: a *competing* candidate (distinct block id) for the
  // same height. Half the cluster seeds its preference with each block, so
  // Snowball has to fight through a genuinely split initial vote.
  std::vector<chain::Transaction> twin(candidate->txs.rbegin(),
                                       candidate->txs.rend());
  twin.pop_back();
  return std::make_shared<const CandidatePayload>(
      candidate->height, chain::hash_combine(candidate->id, 0x7477'696Eull),
      candidate->proposer, std::move(twin));
}

bool AvalancheNode::withholdable(const net::Payload& payload) const {
  // Only candidates: withholding chits/queries would just look like the
  // packet loss the throttler already models.
  return net::payload_cast<CandidatePayload>(&payload) != nullptr;
}

void AvalancheNode::gossip_tick() {
  // Collect a batch in arbitrary (HashMap) order: random picks from the
  // not-yet-fully-gossiped queue — this is what breaks nonce ordering.
  std::vector<chain::Transaction> batch;
  batch.reserve(config_.gossip_batch);
  // Partial Fisher-Yates over the queue: each tick draws a random batch
  // without within-tick duplicates ("HashMap order", no nonce ordering).
  std::size_t unpicked = gossip_queue_.size();
  while (batch.size() < config_.gossip_batch && unpicked > 0) {
    const auto index = static_cast<std::size_t>(
        rng().uniform_int(0, static_cast<std::int64_t>(unpicked) - 1));
    std::swap(gossip_queue_[index], gossip_queue_[unpicked - 1]);
    --unpicked;
    const chain::TxId id = gossip_queue_[unpicked];
    // Commits remove their transactions from the pool, so a pooled
    // transaction is never a committed one.
    const chain::Transaction* tx = mempool().get(id);
    bool done = tx == nullptr;
    if (!done) {
      batch.push_back(*tx);
      done = ++gossip_sent_[id] >= config_.gossip_max_sends;
    }
    if (done) {
      gossip_queue_[unpicked] = gossip_queue_.back();
      gossip_queue_.pop_back();
      gossip_sent_.erase(id);
    }
  }
  if (!batch.empty()) {
    auto payload =
        std::make_shared<const chain::TxBatchPayload>(std::move(batch));
    const auto peers = connections().connected_peers();
    if (!peers.empty()) {
      const auto sample = rng().sample_without_replacement(
          peers.size(),
          std::min<std::size_t>(peers.size(),
                                static_cast<std::size_t>(
                                    config_.gossip_fanout)));
      for (const std::size_t index : sample) {
        send_to(peers[index], payload, batch_bytes(payload->txs.size()));
      }
    }
  }
  set_timer(config_.gossip_interval, [this] { gossip_tick(); });
}

std::vector<std::unique_ptr<chain::BlockchainNode>> make_cluster(
    sim::Simulation& simulation, net::Network& network,
    chain::NodeConfig node_config_template, AvalancheConfig config) {
  // Every Snowball poll samples sample_k distinct peers other than the
  // poller, so a smaller cluster cannot run a single poll.
  const auto min_n = static_cast<std::size_t>(config.sample_k) + 1;
  if (node_config_template.n < min_n) {
    throw std::invalid_argument(
        "avalanche needs n >= " + std::to_string(min_n) +
        " (each Snowball poll samples " + std::to_string(config.sample_k) +
        " distinct peers); got n = " +
        std::to_string(node_config_template.n));
  }
  auto anchors = std::make_shared<AnchorLog>();
  std::vector<std::unique_ptr<chain::BlockchainNode>> nodes;
  nodes.reserve(node_config_template.n);
  for (net::NodeId id = 0; id < node_config_template.n; ++id) {
    chain::NodeConfig node_config = node_config_template;
    node_config.id = id;
    nodes.push_back(std::make_unique<AvalancheNode>(
        simulation, network, node_config, config, anchors));
  }
  return nodes;
}

namespace {

chain::ChainTraits make_traits() {
  chain::ChainTraits traits;
  traits.name = "avalanche";
  traits.description =
      "Snowball sampling over an inbound CPU throttler, anchored one block "
      "per height (paper Avalanche C-Chain)";
  traits.tier = 0;
  traits.fault_tolerance = chain::tolerance_fifth;
  const AvalancheConfig defaults;
  traits.default_params = {
      {"throttling", defaults.throttler.enabled ? 1.0 : 0.0},
      {"cpu_target", defaults.throttler.cpu_target}};
  traits.default_params.merge(chain::misbehavior_default_params());
  traits.make_cluster = [](sim::Simulation& simulation,
                           net::Network& network,
                           const chain::NodeConfig& node_config,
                           const chain::ChainParams& params) {
    AvalancheConfig config;
    config.throttler.enabled = params.at("throttling") != 0.0;
    config.throttler.cpu_target = params.at("cpu_target");
    chain::NodeConfig node_template = node_config;
    chain::apply_misbehavior_params(node_template, params);
    return make_cluster(simulation, network, node_template, config);
  };
  // The paper's observed failure modes (DESIGN.md §10 table): the inbound
  // throttler starves the chain to death after restarts, partitions,
  // delays or bandwidth collapse. Every exemption requires the
  // "throttled_dropped" evidence to be present in the run.
  using core::FaultType;
  traits.loss_exemptions = {
      {FaultType::kTransient, "throttled_dropped",
       "the inbound throttler starves restarted nodes and the network "
       "never refills its frontier (paper §5)"},
      {FaultType::kPartition, "throttled_dropped",
       "post-partition catch-up traffic trips the inbound throttler "
       "(paper §6)"},
      {FaultType::kDelay, "throttled_dropped",
       "two-minute-late messages accumulate until the throttler drops "
       "them (paper §6)"},
      {FaultType::kThrottle, "throttled_dropped",
       "bandwidth collapse plus the CPU throttler is the death spiral the "
       "paper attributes Avalanche's outage to"},
      {FaultType::kChurn, "throttled_dropped",
       "every churn restart re-enters the throttler starvation"},
      {FaultType::kLoss, "throttled_dropped",
       "lost queries force repolls whose backlog trips the inbound "
       "throttler; the frontier never refills"},
      {FaultType::kGray, "throttled_dropped",
       "flapping links alternate between backlog build-up and repoll "
       "storms until the throttler starves consensus"},
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

}  // namespace stabl::avalanche

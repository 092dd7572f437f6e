#include "core/client.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "chain/hash.hpp"
#include "sim/lifecycle.hpp"

namespace stabl::core {

ClientMachine::ClientMachine(sim::Simulation& simulation,
                             net::Network& network, ClientConfig config)
    : Process(simulation, config.id), config_(std::move(config)),
      net_(network), rng_(simulation.rng().fork()) {
  assert(!config_.endpoints.empty());
  if (config_.traffic.active()) {
    account_nonces_.assign(config_.traffic.accounts.size(), 0);
    traffic_rng_.emplace(config_.traffic.rng_seed);
  }
  if (config_.resilience.enabled) {
    failover_.emplace(config_.endpoints, config_.resilience.breaker,
                      config_.resilience.score);
  } else {
    assert(config_.endpoints.size() <= 32);  // ack_mask is 32-bit
  }
  network.attach(config_.id, this);
}

void ClientMachine::on_start() {
  if (config_.arrivals != nullptr) {
    ArrivalProfile profile;
    profile.node = config_.endpoints.front();
    profile.workload = config_.workload;
    profile.workload.tps = config_.tps;
    profile.start_at = config_.start_at;
    profile.stop_at = config_.stop_at;
    if (config_.traffic.active()) {
      profile.region = static_cast<std::uint32_t>(config_.traffic.region);
      profile.population =
          static_cast<std::uint32_t>(config_.traffic.accounts.size());
    }
    config_.arrivals->enroll(profile, this);
    return;
  }
  set_timer(config_.start_at, [this] { submit_next(); });
}

void ClientMachine::submit_next() {
  if (now() >= config_.stop_at) return;
  WorkloadConfig workload = config_.workload;
  workload.tps = config_.tps;
  // The same batched step the aggregate scheduler uses: below the interval
  // floor the configured average survives by emitting several transactions
  // per tick (the retired single-timer pacing silently capped at 10k TPS).
  const ArrivalStep step = workload_step(
      workload, now(), config_.stop_at - config_.start_at);
  for (int burst = 0; burst < step.count; ++burst) generate_arrival();
  set_timer(step.interval, [this] { submit_next(); });
}

void ClientMachine::generate_arrival() {
  chain::Transaction tx;
  if (config_.traffic.active()) {
    // Population path: a hot-wallet coin flip, then a Zipf-weighted pick
    // among this client's accounts. Hot transactions draw their nonce from
    // the run-wide sequencer, so the hot account's issuance order spans
    // every client — the contention the execution models must absorb.
    const ClientTrafficPlan& plan = config_.traffic;
    sim::Rng& rng = *traffic_rng_;
    const double hot_fraction = plan.model->config().hot_fraction;
    if (hot_fraction > 0.0 && rng.chance(hot_fraction)) {
      tx.from = chain::kHotKey;
      tx.to = chain::kHotSink;
      tx.nonce = plan.model->next_hot_nonce();
    } else {
      const std::size_t pick =
          plan.accounts.size() > 1 ? zipf_pick(plan.zipf_cdf, rng.uniform())
                                   : 0;
      tx.from = plan.accounts[pick];
      tx.to = population_sink(tx.from);
      tx.nonce = account_nonces_[pick]++;
    }
  } else {
    tx.from = config_.account;
    tx.to = config_.recipient;
    tx.nonce = nonce_++;
  }
  tx.amount = 1;
  tx.submitted_at = now();
  tx.id = chain::hash_combine(
      chain::hash_combine(config_.tx_seed, tx.from), tx.nonce);
  ++submitted_;
  submitted_ids_.push_back(tx.id);
  if (auto* lifecycle = simulation().lifecycle()) {
    lifecycle->mark(tx.id, sim::TxStage::kSubmitted, now());
  }
  if (auto* trace = simulation().trace()) {
    trace->async_begin(static_cast<std::int32_t>(id()), now(), tx.id,
                       "txn", "txn",
                       "\"nonce\":" + std::to_string(tx.nonce));
  }
  if (config_.resilience.enabled) {
    Pending pending;
    pending.submitted_at = now();
    pending.tx = tx;
    pending_.emplace(tx.id, std::move(pending));
    submit_attempt(tx.id);
  } else {
    pending_.emplace(tx.id, Pending{now(), 0, {}, {}, 0, 0, 0});
    auto payload = std::make_shared<const chain::SubmitTxPayload>(tx);
    for (const net::NodeId endpoint : config_.endpoints) {
      net_.send(id(), endpoint, payload, 192);
    }
  }
}

void ClientMachine::submit_attempt(chain::TxId id) {
  const auto it = pending_.find(id);
  if (it == pending_.end()) return;
  Pending& pending = it->second;
  const net::NodeId previous = pending.endpoint;
  pending.endpoint = failover_->select(now());
  ++pending.attempts;
  if (pending.attempts > 1) {
    ++stats_.resubmissions;
    if (auto* lifecycle = simulation().lifecycle()) {
      lifecycle->hop(id, sim::TxHop::kResubmit);
      if (pending.endpoint != previous) {
        lifecycle->hop(id, sim::TxHop::kFailover);
      }
    }
    if (auto* trace = simulation().trace()) {
      trace->instant(static_cast<std::int32_t>(this->id()), now(),
                     "resubmit", "txn",
                     "\"endpoint\":" + std::to_string(pending.endpoint) +
                         ",\"attempt\":" + std::to_string(pending.attempts));
    }
  }
  net_.send(this->id(), pending.endpoint,
            std::make_shared<const chain::SubmitTxPayload>(pending.tx), 192);
  reset_timer(pending.timer, config_.resilience.retry.commit_timeout,
              [this, id] { on_commit_timeout(id); });
  arm_hedge(pending, id);
}

void ClientMachine::arm_hedge(Pending& pending, chain::TxId id) {
  if (!config_.resilience.hedge.enabled) return;
  if (config_.endpoints.size() < 2) return;  // nowhere to hedge to
  cancel_hedge(pending);  // a re-arm replaces the previous attempt's hedge
  pending.hedge_timer =
      set_timer(hedge_delay(), [this, id] { on_hedge_timeout(id); });
  ++stats_.hedges_armed;
}

void ClientMachine::on_hedge_timeout(chain::TxId id) {
  const auto it = pending_.find(id);
  if (it == pending_.end()) return;
  Pending& pending = it->second;
  pending.hedge_timer = sim::kInvalidTimer;
  const std::optional<net::NodeId> target =
      failover_->hedge_target(pending.endpoint, now());
  if (!target.has_value()) return;
  pending.hedged = true;
  pending.hedge_endpoint = *target;
  if (auto* lifecycle = simulation().lifecycle()) {
    lifecycle->hop(id, sim::TxHop::kHedge);
  }
  if (auto* trace = simulation().trace()) {
    trace->instant(static_cast<std::int32_t>(this->id()), now(), "hedge",
                   "txn",
                   "\"endpoint\":" + std::to_string(*target) +
                       ",\"attempt\":" + std::to_string(pending.attempts));
  }
  // The hedged copy is not a retry: attempts and resubmissions stay put,
  // and the commit timer keeps running on the original attempt. The chain
  // mempool deduplicates the double execution.
  net_.send(this->id(), *target,
            std::make_shared<const chain::SubmitTxPayload>(pending.tx), 192);
}

void ClientMachine::cancel_hedge(Pending& pending) {
  if (pending.hedge_timer == sim::kInvalidTimer) return;
  cancel_timer(pending.hedge_timer);
  pending.hedge_timer = sim::kInvalidTimer;
}

sim::Duration ClientMachine::hedge_delay() const {
  const HedgePolicy& hedge = config_.resilience.hedge;
  if (hedge_latencies_.empty()) return hedge.max_delay;
  std::vector<double> sorted = hedge_latencies_;
  std::sort(sorted.begin(), sorted.end());
  const auto rank = static_cast<std::size_t>(
      hedge.percentile * static_cast<double>(sorted.size() - 1));
  return std::clamp(sim::seconds(sorted[rank]), hedge.min_delay,
                    hedge.max_delay);
}

void ClientMachine::record_commit_latency(double seconds) {
  constexpr std::size_t kWindow = 64;
  if (hedge_latencies_.size() < kWindow) {
    hedge_latencies_.push_back(seconds);
    return;
  }
  hedge_latencies_[hedge_latency_next_] = seconds;
  hedge_latency_next_ = (hedge_latency_next_ + 1) % kWindow;
}

void ClientMachine::on_commit_timeout(chain::TxId id) {
  const auto it = pending_.find(id);
  if (it == pending_.end()) return;
  Pending& pending = it->second;
  pending.timer = sim::kInvalidTimer;
  cancel_hedge(pending);  // the next attempt re-arms its own hedge
  ++stats_.timeouts;
  if (auto* trace = simulation().trace()) {
    trace->instant(static_cast<std::int32_t>(this->id()), now(),
                   "commit_timeout", "txn",
                   "\"endpoint\":" + std::to_string(pending.endpoint));
  }
  if (failover_->on_failure(pending.endpoint, now())) {
    ++stats_.circuit_opens;
    if (auto* trace = simulation().trace()) {
      trace->instant(static_cast<std::int32_t>(this->id()), now(),
                     "breaker_open", "resilience",
                     "\"endpoint\":" + std::to_string(pending.endpoint));
    }
  }
  if (pending.attempts >= config_.resilience.retry.max_attempts) {
    ++stats_.exhausted;
    pending_.erase(it);
    return;
  }
  const auto backoff =
      config_.resilience.retry.backoff(pending.attempts, rng_);
  reset_timer(pending.timer, backoff, [this, id] { submit_attempt(id); });
}

void ClientMachine::on_endpoint_reset(net::NodeId endpoint) {
  ++stats_.resets;
  if (auto* trace = simulation().trace()) {
    trace->instant(static_cast<std::int32_t>(id()), now(), "rst", "net",
                   "\"endpoint\":" + std::to_string(endpoint));
  }
  if (failover_->on_failure(endpoint, now())) {
    ++stats_.circuit_opens;
    if (auto* trace = simulation().trace()) {
      trace->instant(static_cast<std::int32_t>(id()), now(), "breaker_open",
                     "resilience",
                     "\"endpoint\":" + std::to_string(endpoint));
    }
  }
  // Everything awaiting a commit from the dead endpoint will never be
  // answered; resubmit with backoff instead of sitting out the timeout.
  std::vector<chain::TxId> abandoned;
  for (auto& [id, pending] : pending_) {
    if (pending.endpoint != endpoint || pending.timer == sim::kInvalidTimer) {
      continue;
    }
    cancel_timer(pending.timer);
    pending.timer = sim::kInvalidTimer;
    cancel_hedge(pending);
    if (pending.attempts >= config_.resilience.retry.max_attempts) {
      abandoned.push_back(id);
      continue;
    }
    const auto backoff =
        config_.resilience.retry.backoff(pending.attempts, rng_);
    const chain::TxId tx_id = id;
    pending.timer =
        set_timer(backoff, [this, tx_id] { submit_attempt(tx_id); });
  }
  for (const chain::TxId id : abandoned) {
    ++stats_.exhausted;
    pending_.erase(id);
  }
}

void ClientMachine::handle_resilient(const net::Envelope& envelope) {
  if (const auto* control = net::payload_cast<net::ControlPayload>(
          envelope.payload.get())) {
    if (control->kind == net::ControlPayload::Kind::kRst) {
      on_endpoint_reset(envelope.from);
    }
    return;
  }
  const auto* notify =
      net::payload_cast<chain::CommitNotifyPayload>(envelope.payload.get());
  if (notify == nullptr) return;
  const auto it = pending_.find(notify->id);
  if (it == pending_.end()) {
    // A resubmitted copy committed (or notified) a second time; the chain
    // deduplicates execution, the client just counts the evidence.
    if (accepted_hashes_.contains(notify->id)) ++stats_.duplicate_commits;
    return;
  }
  Pending& pending = it->second;
  if (pending.timer != sim::kInvalidTimer) cancel_timer(pending.timer);
  if (pending.hedge_timer != sim::kInvalidTimer) {
    cancel_hedge(pending);
    ++stats_.hedges_cancelled;  // the commit beat the hedge timer
  }
  if (pending.hedged && envelope.from == pending.hedge_endpoint) {
    ++stats_.hedges_won;
  }
  failover_->on_success(envelope.from);
  const double latency_s = sim::to_seconds(now() - pending.submitted_at);
  failover_->note_latency(envelope.from, latency_s);
  if (config_.resilience.hedge.enabled) record_commit_latency(latency_s);
  if (pending.attempts > 1) ++stats_.recovered;
  accept(notify->id, pending, notify->result_hash);
  pending_.erase(it);
}

void ClientMachine::deliver(const net::Envelope& envelope) {
  if (config_.resilience.enabled) {
    handle_resilient(envelope);
    return;
  }
  const auto* notify =
      net::payload_cast<chain::CommitNotifyPayload>(envelope.payload.get());
  if (notify == nullptr) return;  // control frames etc.
  const auto it = pending_.find(notify->id);
  if (it == pending_.end()) return;  // duplicate notification
  // Which endpoint answered?
  std::uint32_t bit = 0;
  bool found = false;
  for (std::size_t i = 0; i < config_.endpoints.size(); ++i) {
    if (config_.endpoints[i] == envelope.from) {
      bit = 1u << i;
      found = true;
      break;
    }
  }
  if (!found) return;
  Pending& pending = it->second;
  pending.ack_mask |= bit;
  pending.hash_masks[notify->result_hash] |= bit;

  if (config_.required_matching > 0) {
    // credence.js-style: accept as soon as `required_matching` endpoints
    // agree on the result.
    for (const auto& [hash, mask] : pending.hash_masks) {
      if (static_cast<std::size_t>(std::popcount(mask)) >=
          config_.required_matching) {
        accept(notify->id, pending, hash);
        pending_.erase(it);
        return;
      }
    }
    return;
  }
  // Paper §7 secure client: report success once every endpoint confirmed.
  const std::uint32_t all =
      (config_.endpoints.size() == 32)
          ? ~0u
          : ((1u << config_.endpoints.size()) - 1);
  if (pending.ack_mask != all) return;
  // Majority result (the comparison step of the secure client).
  std::uint64_t best_hash = 0;
  int best_count = -1;
  for (const auto& [hash, mask] : pending.hash_masks) {
    const int count = std::popcount(mask);
    if (count > best_count) {
      best_count = count;
      best_hash = hash;
    }
  }
  accept(notify->id, pending, best_hash);
  pending_.erase(it);
}

void ClientMachine::accept(chain::TxId id, Pending& pending,
                           std::uint64_t hash) {
  if (pending.hash_masks.size() > 1) ++conflicting_responses_;
  accepted_hashes_.emplace(id, hash);
  latencies_.push_back(sim::to_seconds(now() - pending.submitted_at));
  last_commit_at_ = now();
  ++committed_;
  if (auto* lifecycle = simulation().lifecycle()) {
    lifecycle->mark(id, sim::TxStage::kConfirmed, now());
  }
  if (auto* trace = simulation().trace()) {
    trace->async_end(static_cast<std::int32_t>(this->id()), now(), id,
                     "txn", "txn");
  }
}

ResilienceStats ClientMachine::resilience_stats() const {
  ResilienceStats stats = stats_;
  if (failover_.has_value()) stats.failovers = failover_->failovers();
  return stats;
}

}  // namespace stabl::core

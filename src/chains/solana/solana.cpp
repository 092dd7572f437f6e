#include "chains/solana/solana.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

#include "chain/hash.hpp"
#include "chain/registry.hpp"
#include "sim/lifecycle.hpp"

namespace stabl::solana {
namespace {

struct ForwardPayload final : net::PayloadOf<ForwardPayload> {
  explicit ForwardPayload(std::vector<chain::Transaction> batch)
      : txs(std::move(batch)) {}
  std::vector<chain::Transaction> txs;
};

struct BankBlockPayload final : net::PayloadOf<BankBlockPayload> {
  BankBlockPayload(std::uint64_t s, net::NodeId l, std::int64_t parent,
                   std::vector<chain::Transaction> batch)
      : slot(s), leader(l), parent_slot(parent), txs(std::move(batch)) {}
  std::uint64_t slot;
  net::NodeId leader;
  /// Ledger tip the leader built on (-1 = genesis): banks replay on their
  /// parents, so a validator that is missing the parent must repair its
  /// ledger before it can vote for or finalize this bank.
  std::int64_t parent_slot;
  std::vector<chain::Transaction> txs;
};

struct VotePayload final : net::PayloadOf<VotePayload> {
  VotePayload(std::uint64_t s, net::NodeId v, std::uint64_t digest)
      : slot(s), voter(v), bank_digest(digest) {}
  std::uint64_t slot;
  net::NodeId voter;
  /// Digest of the bank the vote endorses (real tower votes carry the
  /// bank hash). Content-blind counting ignores it; the misbehavior
  /// defense uses it to refuse quorum across an equivocation split.
  std::uint64_t bank_digest;
};

std::uint32_t batch_bytes(std::size_t tx_count) {
  return 128 + static_cast<std::uint32_t>(tx_count) * 128;
}

/// Content digest of a bank's batch (stands in for the shred merkle root);
/// used only to compare two banks claiming the same slot.
std::uint64_t batch_digest(const std::vector<chain::Transaction>& txs) {
  std::uint64_t digest = 0x534F'4C41'4E41ull;
  for (const chain::Transaction& tx : txs) {
    digest = chain::hash_combine(digest, chain::mix64(tx.id));
  }
  return digest;
}

}  // namespace

SolanaNode::SolanaNode(sim::Simulation& simulation, net::Network& network,
                       chain::NodeConfig node_config, SolanaConfig config)
    : BlockchainNode(simulation, network,
                     [&] {
                       node_config.restart_boot_delay =
                           config.restart_boot_delay;
                       return node_config;
                     }()),
      config_(config),
      schedule_(config.warmup_epochs, config.normal_epoch_slots) {}

std::map<std::string, double> SolanaNode::metrics() const {
  const auto pending = std::count_if(
      pending_forward_.begin(), pending_forward_.end(),
      [this](const auto& entry) {
        return !ledger().is_committed(entry.first);
      });
  return {{"panicked", panicked_ ? 1.0 : 0.0},
          {"last_rooted_slot", static_cast<double>(rooted_slot_)},
          {"pending_forward", static_cast<double>(pending)}};
}

net::NodeId SolanaNode::leader_of_slot(std::uint64_t slot) const {
  // The real schedule is computed per-epoch from a PRF of state two epochs
  // prior; a seeded hash of (epoch, leader group) preserves the properties
  // that matter — deterministic, stake-uniform, crash-oblivious, and
  // assigning NUM_CONSECUTIVE_LEADER_SLOTS slots per pick.
  const EpochInfo epoch = schedule_.epoch_of_slot(slot);
  const std::uint64_t h = chain::hash_combine(
      chain::hash_combine(network_seed(), epoch.epoch),
      slot / config_.leader_group_slots);
  return static_cast<net::NodeId>(h % cluster_size());
}

std::uint64_t SolanaNode::slot_at(sim::Time t) const {
  return static_cast<std::uint64_t>(t / config_.slot_duration);
}

std::size_t SolanaNode::vote_quorum() const {
  return static_cast<std::size_t>(std::ceil(
      config_.supermajority * static_cast<double>(cluster_size())));
}

void SolanaNode::start_protocol() {
  panicked_ = false;
  has_root_ = false;
  rooted_slot_ = 0;
  current_slot_ = slot_at(now());
  schedule_slot_tick();
}

void SolanaNode::schedule_slot_tick() {
  // Align to the global slot grid (PoH keeps real validators in lockstep).
  // One timer per node per slot; the timer rides the owning process, so a
  // crash retires it eagerly and a restart re-aligns from the grid.
  const sim::Time next_boundary =
      sim::Time{(static_cast<std::int64_t>(current_slot_) + 1) *
                config_.slot_duration.count()};
  set_timer(next_boundary - now(), [this] { on_slot_tick(); });
}

void SolanaNode::stop_protocol() {
  pending_forward_.clear();
  forward_due_.clear();
  leader_buffer_.clear();
  slots_.clear();
  current_slot_ = 0;
  rooted_slot_ = 0;
  has_root_ = false;
  last_voted_slot_ = -1;
  next_repair_ = sim::Time{0};
}

std::int64_t SolanaNode::tip_slot() const {
  return ledger().blocks().empty()
             ? -1
             : static_cast<std::int64_t>(ledger().blocks().back().round);
}

void SolanaNode::on_slot_tick() {
  current_slot_ = slot_at(now());
  check_epoch_accounts_hash(current_slot_);
  if (panicked_) return;
  if (leader_of_slot(current_slot_) == node_id()) {
    // First slot of our group after a skipped group: wait the grace ticks
    // for the (missing) previous fork before building.
    const bool group_head =
        current_slot_ % config_.leader_group_slots == 0 ||
        leader_of_slot(current_slot_ - 1) != node_id();
    const bool predecessor_skipped =
        current_slot_ > 0 &&
        !ledger().blocks().empty() &&
        ledger().blocks().back().round + 1 < current_slot_;
    if (group_head && predecessor_skipped) {
      const std::uint64_t slot = current_slot_;
      set_timer(config_.skip_grace, [this, slot] {
        if (current_slot_ == slot) produce_block(slot);
      });
    } else {
      produce_block(current_slot_);
    }
  }
  forward_pending(current_slot_);
  // Trim consensus bookkeeping that can no longer finalize.
  while (!slots_.empty() &&
         slots_.begin()->first + 64 < current_slot_) {
    slots_.erase(slots_.begin());
  }
  // Tower votes live in gossip and are retransmitted continuously, so one
  // dropped vote packet cannot wedge finality. Re-broadcast votes for
  // banks that should have finalized by now; on a healthy cluster quorum
  // lands within the slot and this never fires.
  for (const auto& [slot, state] : slots_) {
    if (state.voted && !state.finalized && state.have_block &&
        slot + 2 <= current_slot_) {
      broadcast(std::make_shared<const VotePayload>(slot, node_id(),
                                                    batch_digest(state.txs)),
                96);
    }
  }
  schedule_slot_tick();
}

void SolanaNode::produce_block(std::uint64_t slot) {
  if (auto* trace = simulation().trace()) {
    trace->instant(static_cast<std::int32_t>(node_id()), now(), "slot",
                   "consensus", "\"slot\":" + std::to_string(slot));
  }
  std::vector<chain::Transaction> batch;
  batch.reserve(std::min(config_.max_slot_txs, leader_buffer_.size()));
  // The buffer is ordered by (sender, nonce): each sender's transactions
  // are packed in issuance order, so the bank applies them as a prefix.
  for (auto it = leader_buffer_.begin();
       it != leader_buffer_.end() && batch.size() < config_.max_slot_txs;) {
    const chain::Transaction& tx = it->second;
    // Stale; a committed transaction's sender nonce has passed it too.
    if (accounts().next_nonce(tx.from) > tx.nonce) {
      it = leader_buffer_.erase(it);
      continue;
    }
    batch.push_back(tx);
    ++it;
  }
  const std::int64_t parent = tip_slot();
  mark_proposed(batch, slot);
  auto payload = std::make_shared<const BankBlockPayload>(slot, node_id(),
                                                          parent, batch);
  broadcast(payload, batch_bytes(batch.size()));
  SlotState& state = slots_[slot];
  state.have_block = true;
  state.leader = node_id();
  state.parent_slot = parent;
  state.txs = std::move(batch);
  maybe_vote(slot, state);  // the leader endorses its own bank
  try_finalize(slot);
}

void SolanaNode::forward_pending(std::uint64_t slot) {
  // Take what is due for (re-)forwarding under the RPC retry pacing, drop
  // what has committed since (its sender's nonce has passed it), and
  // forward the rest in id order.
  std::vector<chain::TxId> due;
  while (!forward_due_.empty() && forward_due_.begin()->first <= now()) {
    due.push_back(forward_due_.begin()->second);
    forward_due_.erase(forward_due_.begin());
  }
  std::sort(due.begin(), due.end());
  std::vector<chain::Transaction> batch;
  for (const chain::TxId id : due) {
    const auto it = pending_forward_.find(id);
    if (accounts().next_nonce(it->second.from) > it->second.nonce) {
      pending_forward_.erase(it);
      continue;
    }
    batch.push_back(it->second);
    forward_due_.emplace(now() + config_.forward_retry, id);
  }
  if (batch.empty()) return;
  auto payload = std::make_shared<const ForwardPayload>(std::move(batch));
  std::set<net::NodeId> targets;
  for (int i = 0; i < config_.forward_horizon; ++i) {
    targets.insert(leader_of_slot(
        slot + static_cast<std::uint64_t>(i) * config_.leader_group_slots));
  }
  for (const net::NodeId target : targets) {
    if (target == node_id()) {
      for (const auto& tx : payload->txs) {
        leader_buffer_.emplace(std::make_pair(tx.from, tx.nonce), tx);
      }
    } else {
      send_to(target, payload, batch_bytes(payload->txs.size()));
    }
  }
}

void SolanaNode::maybe_vote(std::uint64_t slot, SlotState& state) {
  if (!state.have_block || state.voted || state.finalized) return;
  if (state.parent_slot != tip_slot()) return;  // cannot replay this bank
  // Lockout (lowest tower rung): the anchor is our *first* vote among the
  // live siblings of the current tip. While that bank is still a live
  // candidate — unfinalized, its parent still our tip — refuse to endorse
  // a sibling inside the lockout window: that is the race in which two
  // replicas could finalize competing siblings. Beyond the window the
  // chain is stalling, and every replica must be free to vote each fresh
  // bank or disjoint vote lattices would starve quorum forever. Once the
  // anchor finalizes or dies the lockout is moot.
  const auto anchor = last_voted_slot_ >= 0
                          ? slots_.find(static_cast<std::uint64_t>(
                                last_voted_slot_))
                          : slots_.end();
  const bool anchor_live = anchor != slots_.end() &&
                           anchor->second.have_block &&
                           !anchor->second.finalized &&
                           anchor->second.parent_slot == tip_slot();
  if (anchor_live && slot != static_cast<std::uint64_t>(last_voted_slot_) &&
      slot <= static_cast<std::uint64_t>(last_voted_slot_) +
                  config_.vote_lockout_slots) {
    return;
  }
  state.voted = true;
  // Voting a later sibling of a live anchor does not re-arm the lockout;
  // the anchor only moves when the old one is gone (finalized, dead, or
  // trimmed), which in normal operation is every slot.
  if (!anchor_live) last_voted_slot_ = static_cast<std::int64_t>(slot);
  state.votes.insert(node_id());
  const std::uint64_t digest = batch_digest(state.txs);
  state.vote_digests[node_id()] = digest;
  broadcast(std::make_shared<const VotePayload>(slot, node_id(), digest),
            96);
}

bool SolanaNode::finalize_one(std::uint64_t slot, SlotState& state) {
  if (state.finalized || !state.have_block) return false;
  // Content-blind counting by default (the property an equivocating leader
  // exploits). With the defense on, only votes whose bank digest matches
  // the locally replayed bank support it — an equivocation split then
  // starves BOTH variants of quorum instead of finalizing each half.
  std::size_t supporting = state.votes.size();
  if (misbehavior().enabled()) {
    const std::uint64_t digest = batch_digest(state.txs);
    supporting = 0;
    for (const net::NodeId voter : state.votes) {
      const auto known = state.vote_digests.find(voter);
      if (known == state.vote_digests.end() || known->second == digest) {
        ++supporting;
      }
    }
  }
  if (supporting < vote_quorum()) return false;
  if (state.parent_slot != tip_slot()) {
    // Quorum on a bank we cannot replay. If its chain is ahead of ours we
    // are missing committed blocks — repair the ledger from the leader;
    // if it is behind, the cluster finalized past our tip's sibling and
    // this bank can never land here.
    if (state.parent_slot > tip_slot()) request_repair(state.leader);
    return false;
  }
  state.finalized = true;
  commit_block(state.txs, state.leader, slot);
  // Rooting lags finality by the freeze-to-root confirmation depth.
  if (slot >= config_.root_lag_slots) {
    const std::uint64_t root = slot - config_.root_lag_slots;
    if (!has_root_ || root > rooted_slot_) {
      rooted_slot_ = root;
      has_root_ = true;
    }
  }
  return true;
}

void SolanaNode::sweep_finalize() {
  // The tip advanced: buffered successors may have become replayable (and
  // votable). Walk in slot order until a sweep makes no progress.
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (auto& [slot, state] : slots_) {
      maybe_vote(slot, state);
      if (finalize_one(slot, state)) {
        progressed = true;
        break;  // the tip moved; restart the walk from the oldest slot
      }
    }
  }
}

void SolanaNode::try_finalize(std::uint64_t slot) {
  const auto it = slots_.find(slot);
  if (it == slots_.end()) return;
  if (finalize_one(slot, it->second)) sweep_finalize();
}

void SolanaNode::request_repair(net::NodeId peer) {
  if (now() < next_repair_) return;
  next_repair_ = now() + config_.slot_duration;
  request_sync(peer);
}

void SolanaNode::on_synced() {
  // Ledger repair moved the tip: buffered banks may now be replayable.
  sweep_finalize();
}

void SolanaNode::check_epoch_accounts_hash(std::uint64_t slot) {
  const EpochInfo epoch = schedule_.epoch_of_slot(slot);
  if (epoch.slots < config_.eah_min_epoch_slots) return;
  if (slot != epoch.eah_stop_slot()) return;
  // wait_get_epoch_accounts_hash: the EAH must have been calculated from a
  // bank rooted after the window opened; if no such bank exists the
  // integration cannot proceed and the validator aborts (agave #1491).
  const bool eah_available = has_root_ && rooted_slot_ >= epoch.eah_start_slot();
  if (!eah_available) panic();
}

void SolanaNode::panic() {
  panicked_ = true;
  // The process aborts; the harness does not restart panicked validators.
  kill();
}

void SolanaNode::on_app_message(const net::Envelope& envelope) {
  const net::Payload* payload = envelope.payload.get();
  if (const auto* forward = net::payload_cast<ForwardPayload>(payload)) {
    for (const chain::Transaction& tx : forward->txs) {
      // Stale, including committed: as in produce_block.
      if (accounts().next_nonce(tx.from) > tx.nonce) continue;
      leader_buffer_.emplace(std::make_pair(tx.from, tx.nonce), tx);
    }
    return;
  }
  if (const auto* block = net::payload_cast<BankBlockPayload>(payload)) {
    SlotState& state = slots_[block->slot];
    if (!state.have_block) {
      state.have_block = true;
      state.leader = block->leader;
      state.parent_slot = block->parent_slot;
      state.txs = block->txs;
    } else if (block->leader == state.leader &&
               (block->parent_slot != state.parent_slot ||
                batch_digest(block->txs) != batch_digest(state.txs))) {
      // Two conflicting banks for one slot from the same leader — the
      // duplicate-shred evidence real clusters gossip proofs about. The
      // first bank wins locally (validators vote per slot, content-blind,
      // which is why an equivocating leader can split finality without the
      // defense); report the leader so the scorer can throttle/ban it.
      report_misbehavior(state.leader, core::Offense::kEquivocation);
    } else if (block->leader == state.leader &&
               block->slot + config_.leader_group_slots < current_slot_) {
      // An identical bank replayed well past its slot: withhold-replay.
      // Banks are never retransmitted in normal operation (votes are), so
      // a late duplicate is evidence, not gossip noise.
      report_misbehavior(state.leader, core::Offense::kStaleReplay);
    }
    if (block->parent_slot > tip_slot()) {
      // The leader built on blocks we never replayed: repair before voting.
      request_repair(envelope.from);
    }
    maybe_vote(block->slot, state);
    try_finalize(block->slot);
    return;
  }
  if (const auto* vote = net::payload_cast<VotePayload>(payload)) {
    SlotState& state = slots_[vote->slot];
    state.votes.insert(vote->voter);
    state.vote_digests[vote->voter] = vote->bank_digest;
    if (state.have_block && vote->bank_digest != batch_digest(state.txs)) {
      // A peer endorsed a different bank for this slot than the one its
      // leader sent us: duplicate-bank evidence against the leader.
      report_misbehavior(state.leader, core::Offense::kEquivocation);
    }
    try_finalize(vote->slot);
    return;
  }
}

net::PayloadPtr SolanaNode::equivocate_payload(const net::PayloadPtr& payload) {
  const auto* block = net::payload_cast<BankBlockPayload>(payload.get());
  if (block == nullptr || block->txs.size() < 2) return nullptr;
  // Conflicting bank for the same slot: same leader and parent, different
  // batch (reversed, minus the last transaction, so the digests differ).
  std::vector<chain::Transaction> twin(block->txs.rbegin(),
                                       block->txs.rend());
  twin.pop_back();
  return std::make_shared<const BankBlockPayload>(
      block->slot, block->leader, block->parent_slot, std::move(twin));
}

bool SolanaNode::withholdable(const net::Payload& payload) const {
  // Only banks: votes are retransmitted every slot tick anyway, so
  // withholding them would replay payloads the protocol already replays.
  return net::payload_cast<BankBlockPayload>(&payload) != nullptr;
}

void SolanaNode::accept_transaction(const chain::Transaction& tx) {
  // No mempool: remember the transaction and push it to the scheduled
  // leaders until it lands. The forward buffer is Solana's admission
  // queue, so entering it is the lifecycle kQueued stage.
  const bool inserted = pending_forward_.emplace(tx.id, tx).second;
  if (inserted) {
    forward_due_.emplace(now(), tx.id);
    if (auto* lifecycle = simulation().lifecycle()) {
      lifecycle->mark(tx.id, sim::TxStage::kQueued, now());
    }
  }
  forward_pending(current_slot_);
}

std::vector<std::unique_ptr<chain::BlockchainNode>> make_cluster(
    sim::Simulation& simulation, net::Network& network,
    chain::NodeConfig node_config_template, SolanaConfig config) {
  std::vector<std::unique_ptr<chain::BlockchainNode>> nodes;
  nodes.reserve(node_config_template.n);
  for (net::NodeId id = 0; id < node_config_template.n; ++id) {
    chain::NodeConfig node_config = node_config_template;
    node_config.id = id;
    nodes.push_back(std::make_unique<SolanaNode>(simulation, network,
                                                 node_config, config));
  }
  return nodes;
}

namespace {

chain::ChainTraits make_traits() {
  chain::ChainTraits traits;
  traits.name = "solana";
  traits.description =
      "PoH leader schedule, TowerBFT votes and the epoch-accounts-hash "
      "panic (paper Solana)";
  traits.tier = 0;
  traits.fault_tolerance = chain::tolerance_third;
  const SolanaConfig defaults;
  traits.default_params = {
      {"warmup_epochs", defaults.warmup_epochs ? 1.0 : 0.0}};
  traits.default_params.merge(chain::misbehavior_default_params());
  traits.make_cluster = [](sim::Simulation& simulation,
                           net::Network& network,
                           const chain::NodeConfig& node_config,
                           const chain::ChainParams& params) {
    SolanaConfig config;
    config.warmup_epochs = params.at("warmup_epochs") != 0.0;
    chain::NodeConfig node_template = node_config;
    chain::apply_misbehavior_params(node_template, params);
    return make_cluster(simulation, network, node_template, config);
  };
  // The paper's observed failure modes (DESIGN.md §10 table): validators
  // panic when transient outages, partitions or delays stall the epoch
  // accounts hash. Every exemption requires the "panicked" evidence to be
  // present in the run.
  using core::FaultType;
  traits.loss_exemptions = {
      {FaultType::kTransient, "panicked",
       "restarting validators panic on the snapshot/EAH race (paper §5)"},
      {FaultType::kPartition, "panicked",
       "partitioned validators panic once the epoch accounts hash stalls "
       "(paper §6)"},
      {FaultType::kDelay, "panicked",
       "delayed gossip stalls the epoch accounts hash and panics every "
       "validator (paper §6)"},
      {FaultType::kChurn, "panicked",
       "crash-recovery churn repeatedly triggers the restart panic"},
      {FaultType::kGray, "panicked",
       "flapping loss suppresses rooting across the epoch-accounts-hash "
       "window; the EAH check panics every validator (paper §5 mechanism)"},
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

}  // namespace stabl::solana

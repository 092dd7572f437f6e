#include "chain/node.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "chain/hash.hpp"
#include "sim/lifecycle.hpp"

namespace stabl::chain {
namespace {

std::vector<net::NodeId> blockchain_peers(net::NodeId self, std::size_t n) {
  std::vector<net::NodeId> peers;
  peers.reserve(n - 1);
  for (net::NodeId id = 0; id < n; ++id) {
    if (id != self) peers.push_back(id);
  }
  return peers;
}

constexpr std::size_t kSyncChunkBlocks = 256;

}  // namespace

BlockchainNode::BlockchainNode(sim::Simulation& simulation,
                               net::Network& network, NodeConfig config)
    : Process(simulation, config.id),
      config_(config),
      net_(network),
      connections_(
          *this, network, config.id,
          config.peers.empty() ? blockchain_peers(config.id, config.n)
                               : config.peers,
          config.connection,
          net::ConnectionManager::Callbacks{
              [this](net::NodeId peer) { on_peer_up(peer); },
              [this](net::NodeId peer) { on_peer_down(peer); }}),
      mempool_(),
      ledger_(config.store),
      cpu_(*this, config.vcpus),
      rng_(simulation.rng().fork()),
      misbehavior_(config.misbehavior) {
  network.attach(config.id, this);
}

void BlockchainNode::on_start() {
  if (restarts() == 0) {
    boot();
    return;
  }
  // A restarted process takes a while to come back (binary start, ledger
  // open, listening sockets); then it *actively* dials its peers.
  set_timer(config_.restart_boot_delay, [this] { boot(); });
}

void BlockchainNode::boot() {
  booted_ = true;
  if (auto* trace = simulation().trace()) {
    trace->instant(static_cast<std::int32_t>(node_id()), now(), "boot",
                   "node", "\"restarts\":" + std::to_string(restarts()));
  }
  rebuild_accounts();
  connections_.start();
  start_protocol();
}

void BlockchainNode::on_crash() {
  if (auto* trace = simulation().trace()) {
    trace->instant(static_cast<std::int32_t>(node_id()), now(), "crash",
                   "node");
  }
  booted_ = false;
  connections_.stop();
  mempool_.clear();
  watchers_.clear();
  cpu_.reset();
  accounts_.clear();
  withheld_replay_.reset();  // stale-replay buffer is volatile
  misbehavior_.reset();      // peer reputation is volatile too
  misbehavior_active_ = false;
  stop_protocol();
}

void BlockchainNode::rebuild_accounts() {
  accounts_.clear();
  for (const Block& block : ledger_.blocks()) {
    for (const Transaction& tx : block.txs()) {
      const bool ok = accounts_.apply(tx);
      assert(ok && "ledger replay must succeed");
      (void)ok;
    }
  }
}

void BlockchainNode::deliver(const net::Envelope& envelope) {
  if (!booted_) return;  // still booting: not listening yet
  if (connections_.handle(envelope)) return;
  // Peer-misbehavior defense: messages from throttled/banned blockchain
  // peers are dropped after the connection layer (keepalives survive so the
  // ban is an application-level quarantine, not a TCP reset storm).
  if (misbehavior_active_ && is_blockchain_peer(envelope.from) &&
      misbehavior_.should_drop(envelope.from, now())) {
    ++misbehavior_dropped_;
    return;
  }
  const net::Payload* payload = envelope.payload.get();
  if (net::payload_cast<SubmitTxPayload>(payload) != nullptr) {
    handle_submit(envelope);
    return;
  }
  if (net::payload_cast<SyncRequestPayload>(payload) != nullptr) {
    handle_sync_request(envelope);
    return;
  }
  if (net::payload_cast<SyncResponsePayload>(payload) != nullptr) {
    handle_sync_response(envelope);
    return;
  }
  on_app_message(envelope);
}

std::uint64_t BlockchainNode::result_hash(TxId id, const Block& block) {
  // Replica-independent digest: committed position and content identity.
  // The proposer field is deliberately excluded — chains like Redbelly
  // stamp it with the (replica-dependent) decider, while height, round and
  // content are what consensus agrees on.
  return hash_combine(hash_combine(mix64(id), block.height()),
                      hash_combine(block.round, block.txs().size()));
}

void BlockchainNode::handle_submit(const net::Envelope& envelope) {
  const auto& payload =
      static_cast<const SubmitTxPayload&>(*envelope.payload);
  const Transaction& tx = payload.tx;
  if (auto* lifecycle = simulation().lifecycle()) {
    lifecycle->mark(tx.id, sim::TxStage::kEntryReceived, now());
  }
  if (rpc_byzantine_) {
    // Lie: confirm instantly with a fabricated result and drop the
    // transaction. A client trusting only this node is deceived.
    net_.send(node_id(), envelope.from,
              std::make_shared<const CommitNotifyPayload>(
                  tx.id, now(), mix64(tx.id ^ 0xBADC0DEull)),
              96);
    return;
  }
  if (const Block* block = ledger_.find(tx.id)) {
    // Already on chain: answer right away (the secure client's duplicate
    // submissions frequently land after the first copy committed).
    net_.send(node_id(), envelope.from,
              std::make_shared<const CommitNotifyPayload>(
                  tx.id, block->committed_at, result_hash(tx.id, *block)),
              96);
    return;
  }
  watchers_[tx.id].push_back(envelope.from);
  accept_transaction(tx);
}

void BlockchainNode::accept_transaction(const Transaction& tx) {
  if (pool_transaction(tx)) on_transaction(tx);
}

bool BlockchainNode::pool_transaction(const Transaction& tx) {
  // Stale, including every committed transaction: it was applied, so its
  // sender's nonce has passed it (see commit_block).
  if (accounts_.next_nonce(tx.from) > tx.nonce) return false;
  if (!mempool_.add(tx)) return false;
  if (auto* lifecycle = simulation().lifecycle()) {
    lifecycle->mark(tx.id, sim::TxStage::kQueued, now());
  }
  return true;
}

void BlockchainNode::mark_proposed(const std::vector<Transaction>& txs,
                                   std::uint64_t round) {
  if (txs.empty()) return;
  if (auto* lifecycle = simulation().lifecycle()) {
    for (const Transaction& tx : txs) {
      lifecycle->mark(tx.id, sim::TxStage::kProposed, now());
    }
  }
  if (auto* trace = simulation().trace()) {
    trace->instant(static_cast<std::int32_t>(node_id()), now(), "propose",
                   "lifecycle",
                   "\"round\":" + std::to_string(round) +
                       ",\"txs\":" + std::to_string(txs.size()));
  }
}

const Block* BlockchainNode::commit_block(std::vector<Transaction> txs,
                                          net::NodeId proposer,
                                          std::uint64_t round,
                                          bool allow_empty) {
  std::vector<Transaction> applied;
  applied.reserve(txs.size());
  // A transaction already in the ledger (a cross-proposal duplicate) was
  // applied when it committed, or by rebuild_accounts() before this boot
  // accepted any message, so its sender's nonce has passed it and apply()
  // rejects it like a nonce gap; no ledger probe is needed.
  for (const Transaction& tx : txs) {
    if (!accounts_.apply(tx)) continue;  // committed, nonce gap or no funds
    applied.push_back(tx);
  }
  if (applied.empty() && !allow_empty) return nullptr;
  const Block& stored =
      ledger_.append(std::move(applied), round, proposer, now());
  mempool_.remove(stored.txs());
  if (auto* lifecycle = simulation().lifecycle()) {
    for (const Transaction& tx : stored.txs()) {
      lifecycle->mark(tx.id, sim::TxStage::kCommitted, now());
    }
  }
  if (auto* trace = simulation().trace()) {
    trace->instant(static_cast<std::int32_t>(node_id()), now(), "commit",
                   "consensus",
                   "\"height\":" + std::to_string(stored.height()) +
                       ",\"round\":" + std::to_string(stored.round) +
                       ",\"txs\":" + std::to_string(stored.txs().size()));
  }
  notify_watchers(stored);
  return &stored;
}

void BlockchainNode::notify_watchers(const Block& block) {
  for (const Transaction& tx : block.txs()) {
    const auto it = watchers_.find(tx.id);
    if (it == watchers_.end()) continue;
    for (const net::NodeId client : it->second) {
      net_.send(node_id(), client,
                std::make_shared<const CommitNotifyPayload>(
                    tx.id, block.committed_at, result_hash(tx.id, block)),
                96);
    }
    watchers_.erase(it);
  }
}

void BlockchainNode::request_sync(net::NodeId peer) {
  if (auto* trace = simulation().trace()) {
    trace->instant(static_cast<std::int32_t>(node_id()), now(),
                   "sync_request", "sync",
                   "\"peer\":" + std::to_string(peer) + ",\"height\":" +
                       std::to_string(ledger_.height()));
  }
  send_to(peer,
          std::make_shared<const SyncRequestPayload>(ledger_.height()), 64);
}

void BlockchainNode::handle_sync_request(const net::Envelope& envelope) {
  const auto& request =
      static_cast<const SyncRequestPayload&>(*envelope.payload);
  if (request.from_height >= ledger_.height()) return;  // nothing to send
  const auto& blocks = ledger_.blocks();
  const std::size_t first = request.from_height;
  const std::size_t last =
      std::min(blocks.size(), first + kSyncChunkBlocks);
  std::vector<Block> chunk(blocks.begin() + static_cast<std::ptrdiff_t>(first),
                           blocks.begin() + static_cast<std::ptrdiff_t>(last));
  std::uint32_t bytes = 0;
  for (const Block& b : chunk) {
    bytes += 128 + static_cast<std::uint32_t>(b.txs().size()) * 128;
  }
  send_to(envelope.from,
          std::make_shared<const SyncResponsePayload>(request.from_height,
                                                      std::move(chunk)),
          bytes);
}

void BlockchainNode::handle_sync_response(const net::Envelope& envelope) {
  const auto& response =
      static_cast<const SyncResponsePayload&>(*envelope.payload);
  if (response.from_height != ledger_.height()) return;  // stale chunk
  for (const Block& block : response.blocks) {
    std::vector<Transaction> applied;
    applied.reserve(block.txs().size());
    for (const Transaction& tx : block.txs()) {
      // Already committed here: rejected by its passed nonce, as in
      // commit_block.
      if (!accounts_.apply(tx)) continue;
      applied.push_back(tx);
    }
    // Keep the block even when all transactions were filtered (e.g. an
    // empty Redbelly round): heights must stay aligned with the peer.
    // When nothing was filtered and the server shares this store, the
    // append lands on the server's own node. Re-stamp nothing:
    // committed_at is the original decision time on the serving replica;
    // our ledger requires monotone times, so clamp.
    const Block& stored = ledger_.append(
        std::move(applied), block.round, block.proposer,
        std::max(block.committed_at, ledger_.last_commit_time()));
    mempool_.remove(stored.txs());
    if (auto* lifecycle = simulation().lifecycle()) {
      // A replayed commit keeps its original first-reach kCommitted time
      // (mark is first-reach); the hop records that this replica only
      // learned it through recovery catch-up.
      for (const Transaction& tx : stored.txs()) {
        lifecycle->mark(tx.id, sim::TxStage::kCommitted, now());
        lifecycle->hop(tx.id, sim::TxHop::kRecoveryReplay);
      }
    }
    // A node serving clients must report commits no matter how it learned
    // them — also when it caught up through state sync.
    notify_watchers(stored);
  }
  if (auto* trace = simulation().trace()) {
    trace->instant(static_cast<std::int32_t>(node_id()), now(),
                   "sync_applied", "sync",
                   "\"blocks\":" + std::to_string(response.blocks.size()) +
                       ",\"height\":" + std::to_string(ledger_.height()));
  }
  on_synced();
  // Keep pulling until caught up with this peer.
  if (!response.blocks.empty() &&
      response.blocks.size() == kSyncChunkBlocks) {
    request_sync(envelope.from);
  }
}

bool BlockchainNode::send_to(net::NodeId peer, net::PayloadPtr payload,
                             std::uint32_t bytes) {
  return connections_.send(peer, std::move(payload), bytes);
}

void BlockchainNode::broadcast(const net::PayloadPtr& payload,
                               std::uint32_t bytes) {
  if (equivocating_) {
    if (net::PayloadPtr twin = equivocate_payload(payload)) {
      // Split-brain broadcast: even-positioned peers receive the original
      // payload, odd-positioned peers the conflicting twin. Deterministic —
      // no RNG draw — so compromised runs replay exactly.
      ++equivocations_sent_;
      if (auto* trace = simulation().trace()) {
        trace->instant(static_cast<std::int32_t>(node_id()), now(),
                       "equivocate", "adversary");
      }
      bool odd = false;
      for (const net::NodeId peer : connections_.peers()) {
        connections_.send(peer, odd ? twin : payload, bytes);
        odd = !odd;
      }
      return;
    }
  }
  if (withholding_ && withholdable(*payload)) {
    ++withheld_count_;
    if (withheld_replay_ == nullptr) {
      // First suppressed payload: keep it as the stale replay source.
      withheld_replay_ = payload;
      return;
    }
    for (const net::NodeId peer : connections_.peers()) {
      connections_.send(peer, withheld_replay_, bytes);
    }
    return;
  }
  for (const net::NodeId peer : connections_.peers()) {
    connections_.send(peer, payload, bytes);
  }
}

void BlockchainNode::report_misbehavior(net::NodeId peer,
                                        core::Offense offense) {
  if (!misbehavior_.enabled()) return;
  const bool was_banned = misbehavior_.banned(peer);
  misbehavior_.report(peer, offense, now());
  misbehavior_active_ = true;
  if (auto* trace = simulation().trace()) {
    trace->instant(static_cast<std::int32_t>(node_id()), now(),
                   misbehavior_.banned(peer) && !was_banned
                       ? "peer_banned"
                       : "misbehavior_report",
                   "adversary",
                   "\"peer\":" + std::to_string(peer) + ",\"offense\":\"" +
                       core::to_string(offense) + "\"");
  }
}

std::map<std::string, double> BlockchainNode::adversarial_metrics() const {
  return {{"equivocations_sent", static_cast<double>(equivocations_sent_)},
          {"withheld", static_cast<double>(withheld_count_)},
          {"misbehavior_reports", static_cast<double>(misbehavior_.reports())},
          {"misbehavior_banned",
           static_cast<double>(misbehavior_.banned_count())},
          {"misbehavior_dropped", static_cast<double>(misbehavior_dropped_)}};
}

}  // namespace stabl::chain

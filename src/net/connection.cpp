#include "net/connection.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace stabl::net {
namespace {

PayloadPtr control_frame(ControlPayload::Kind kind) {
  // Control frames are immutable and identical; share one instance per kind.
  static const auto syn =
      std::make_shared<const ControlPayload>(ControlPayload::Kind::kSyn);
  static const auto synack =
      std::make_shared<const ControlPayload>(ControlPayload::Kind::kSynAck);
  static const auto ping =
      std::make_shared<const ControlPayload>(ControlPayload::Kind::kPing);
  static const auto pong =
      std::make_shared<const ControlPayload>(ControlPayload::Kind::kPong);
  static const auto rst =
      std::make_shared<const ControlPayload>(ControlPayload::Kind::kRst);
  switch (kind) {
    case ControlPayload::Kind::kSyn: return syn;
    case ControlPayload::Kind::kSynAck: return synack;
    case ControlPayload::Kind::kPing: return ping;
    case ControlPayload::Kind::kPong: return pong;
    case ControlPayload::Kind::kRst: return rst;
  }
  return rst;  // unreachable
}

}  // namespace

ConnectionManager::ConnectionManager(sim::Process& host, Network& network,
                                     NodeId self, std::vector<NodeId> peers,
                                     ConnectionPolicy policy,
                                     Callbacks callbacks)
    : host_(host),
      net_(network),
      self_(self),
      peer_ids_(std::move(peers)),
      policy_(policy),
      callbacks_(std::move(callbacks)),
      rng_(network.simulation().rng().fork()) {
  for (const NodeId peer : peer_ids_) {
    if (peer >= peers_.size()) {
      peers_.resize(std::size_t{peer} + 1, Peer{State::kNotPeer});
    }
    peers_[peer] = Peer{};
  }
}

void ConnectionManager::start() {
  for (const NodeId peer : peer_ids_) {
    peers_[peer] = Peer{};
    dial(peer);
  }
  host_.set_timer(policy_.tick, [this] { tick(); });
}

void ConnectionManager::stop() {
  for (const NodeId peer : peer_ids_) peers_[peer] = Peer{};
}

bool ConnectionManager::connected(NodeId peer) const {
  return peer < peers_.size() && peers_[peer].state == State::kConnected;
}

std::size_t ConnectionManager::connected_count() const {
  return static_cast<std::size_t>(
      std::count_if(peers_.begin(), peers_.end(), [](const Peer& peer) {
        return peer.state == State::kConnected;
      }));
}

std::vector<NodeId> ConnectionManager::connected_peers() const {
  std::vector<NodeId> out;
  out.reserve(peer_ids_.size());
  for (const NodeId peer : peer_ids_) {
    if (connected(peer)) out.push_back(peer);
  }
  return out;
}

bool ConnectionManager::send(NodeId peer, PayloadPtr payload,
                             std::uint32_t bytes) {
  Peer& state = peer_state(peer);
  if (state.state != State::kConnected) return false;
  state.last_sent = host_.now();
  net_.send(self_, peer, std::move(payload), bytes);
  return true;
}

bool ConnectionManager::handle(const Envelope& envelope) {
  Peer* peer = find_peer(envelope.from);
  if (peer == nullptr) {
    // Inbound traffic from a machine outside our peer set (e.g. a client
    // dialing a node). Accept the connection protocol without tracking it.
    const auto* control = payload_cast<ControlPayload>(envelope.payload.get());
    if (control == nullptr) return false;
    switch (control->kind) {
      case ControlPayload::Kind::kSyn:
        net_.send(self_, envelope.from,
                  control_frame(ControlPayload::Kind::kSynAck), 64);
        return true;
      case ControlPayload::Kind::kPing:
        net_.send(self_, envelope.from,
                  control_frame(ControlPayload::Kind::kPong), 64);
        return true;
      default:
        return true;
    }
  }
  Peer& state = *peer;
  const auto* control = payload_cast<ControlPayload>(envelope.payload.get());
  if (control == nullptr) {
    // Application data only flows over established connections on the
    // sender side, so treat it as proof of liveness and accept implicitly.
    state.last_heard = host_.now();
    if (state.state != State::kConnected) mark_up(envelope.from);
    return false;
  }
  switch (control->kind) {
    case ControlPayload::Kind::kRst:
      // The peer's process is dead. Back off; redials are periodic.
      if (state.state == State::kConnected) {
        if (auto* trace = net_.simulation().trace()) {
          trace->instant(static_cast<std::int32_t>(self_), host_.now(),
                         "conn_down", "net",
                         "\"peer\":" + std::to_string(envelope.from) +
                             ",\"cause\":\"rst\"");
        }
        if (callbacks_.on_peer_down) callbacks_.on_peer_down(envelope.from);
      }
      state.state = State::kBackoff;
      schedule_retry(envelope.from);
      return true;
    case ControlPayload::Kind::kSyn:
      state.last_heard = host_.now();
      send_control(envelope.from, ControlPayload::Kind::kSynAck);
      mark_up(envelope.from);
      return true;
    case ControlPayload::Kind::kSynAck:
    case ControlPayload::Kind::kPong:
      state.last_heard = host_.now();
      mark_up(envelope.from);
      return true;
    case ControlPayload::Kind::kPing:
      state.last_heard = host_.now();
      mark_up(envelope.from);
      send_control(envelope.from, ControlPayload::Kind::kPong);
      return true;
  }
  return true;
}

void ConnectionManager::tick() {
  if (!host_.alive()) return;
  const sim::Time now = host_.now();
  for (const NodeId id : peer_ids_) {
    Peer& peer = peers_[id];
    switch (peer.state) {
      case State::kConnected:
        if (now - peer.last_heard > policy_.dead_after) {
          // Silence: the link is broken (partition). Try once right away,
          // then fall back to periodic redialing.
          if (auto* trace = net_.simulation().trace()) {
            trace->instant(static_cast<std::int32_t>(self_), now,
                           "conn_down", "net",
                           "\"peer\":" + std::to_string(id) +
                               ",\"cause\":\"silence\"");
          }
          if (callbacks_.on_peer_down) callbacks_.on_peer_down(id);
          dial(id);
        } else if (now - peer.last_sent >= policy_.keepalive_interval) {
          peer.last_sent = now;
          net_.send(self_, id, control_frame(ControlPayload::Kind::kPing),
                    64);
        }
        break;
      case State::kDialing:
        if (now >= peer.dial_deadline) {
          peer.state = State::kBackoff;
          schedule_retry(id);
        }
        break;
      case State::kBackoff:
        if (now >= peer.next_attempt) dial(id);
        break;
      case State::kDown:
        dial(id);
        break;
      case State::kNotPeer:  // never: peer_ids_ are all tracked
        break;
    }
  }
  host_.set_timer(policy_.tick, [this] { tick(); });
}

void ConnectionManager::dial(NodeId peer) {
  Peer& state = peer_state(peer);
  state.state = State::kDialing;
  state.dial_deadline = host_.now() + policy_.dial_timeout;
  if (auto* trace = net_.simulation().trace()) {
    trace->instant(static_cast<std::int32_t>(self_), host_.now(), "dial",
                   "net", "\"peer\":" + std::to_string(peer));
  }
  send_control(peer, ControlPayload::Kind::kSyn);
}

void ConnectionManager::mark_up(NodeId peer) {
  Peer& state = peer_state(peer);
  if (state.state == State::kConnected) return;
  state.state = State::kConnected;
  state.last_heard = host_.now();
  state.last_sent = host_.now();
  if (auto* trace = net_.simulation().trace()) {
    trace->instant(static_cast<std::int32_t>(self_), host_.now(), "conn_up",
                   "net", "\"peer\":" + std::to_string(peer));
  }
  if (callbacks_.on_peer_up) callbacks_.on_peer_up(peer);
}

void ConnectionManager::schedule_retry(NodeId peer) {
  Peer& state = peer_state(peer);
  const double jitter =
      1.0 + policy_.retry_jitter_frac * (rng_.uniform() - 0.5) * 2.0;
  const auto delay = sim::Duration{static_cast<std::int64_t>(
      static_cast<double>(policy_.retry_period.count()) * jitter)};
  state.next_attempt = host_.now() + delay;
}

void ConnectionManager::send_control(NodeId peer, ControlPayload::Kind kind) {
  peer_state(peer).last_sent = host_.now();
  net_.send(self_, peer, control_frame(kind), 64);
}

ConnectionManager::Peer* ConnectionManager::find_peer(NodeId id) {
  return id < peers_.size() && peers_[id].state != State::kNotPeer
             ? &peers_[id]
             : nullptr;
}

ConnectionManager::Peer& ConnectionManager::peer_state(NodeId peer) {
  Peer* state = find_peer(peer);
  assert(state != nullptr && "envelope from an unknown peer");
  return *state;
}

}  // namespace stabl::net

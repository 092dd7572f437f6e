// TCP-like connection management between simulated processes.
//
// This layer is what gives STABL the paper's distinction between *active*
// and *passive* recovery (§3, "Dependability attributes"):
//
//  * a killed-and-restarted process immediately re-dials its peers, so
//    recovery from transient node failures is fast and independent of
//    timeouts ("the restarted nodes immediately report their status");
//  * a partition drops packets silently, so the break is only detected
//    after `dead_after` of silence and reconnection only happens when a
//    periodic redial lands after the partition healed ("the nodes cannot
//    detect that the network connectivity was restored without constant
//    polling").
//
// Each blockchain configures its own ConnectionPolicy: the paper traces the
// different partition-recovery times of Algorand (~99 s), Redbelly (~81 s,
// MaxIdleTime) and Aptos (~seconds, 5 s connectivity probing) to exactly
// these knobs.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/network.hpp"
#include "sim/process.hpp"

namespace stabl::net {

struct ConnectionPolicy {
  /// Period of the internal maintenance tick.
  sim::Duration tick = sim::ms(500);
  /// Send a keepalive ping when nothing was sent to a peer for this long.
  sim::Duration keepalive_interval = sim::sec(2);
  /// Declare a connection broken after this much inbound silence.
  sim::Duration dead_after = sim::sec(10);
  /// A dial (SYN) with no answer for this long counts as failed.
  sim::Duration dial_timeout = sim::sec(5);
  /// After a failed dial, wait this long before the next attempt.
  sim::Duration retry_period = sim::sec(30);
  /// Deterministic per-attempt jitter, as a fraction of retry_period.
  double retry_jitter_frac = 0.05;
};

class ConnectionManager {
 public:
  struct Callbacks {
    std::function<void(NodeId)> on_peer_up;    // may be empty
    std::function<void(NodeId)> on_peer_down;  // may be empty
  };

  ConnectionManager(sim::Process& host, Network& network, NodeId self,
                    std::vector<NodeId> peers, ConnectionPolicy policy,
                    Callbacks callbacks);

  /// Begin operation: dial every peer and start the maintenance tick.
  /// Call from the owning process's on_start().
  void start();

  /// Drop all connection state. Call from the owning process's on_crash().
  /// (The process's timers, including our tick, are already cancelled.)
  void stop();

  [[nodiscard]] bool connected(NodeId peer) const;
  [[nodiscard]] std::size_t connected_count() const;
  [[nodiscard]] const std::vector<NodeId>& peers() const { return peer_ids_; }
  [[nodiscard]] std::vector<NodeId> connected_peers() const;

  /// Send a payload over the connection to `peer`. Returns false (and sends
  /// nothing) when the connection is down — matching a failed TCP write.
  bool send(NodeId peer, PayloadPtr payload, std::uint32_t bytes = 256);

  /// Feed an incoming envelope through the connection layer. Returns true
  /// when the envelope was a control frame and fully consumed; false when
  /// the caller should process it as application data.
  bool handle(const Envelope& envelope);

 private:
  // kNotPeer marks the peers_ entries of ids outside peer_ids_.
  enum class State : std::uint8_t {
    kNotPeer,
    kDown,
    kDialing,
    kBackoff,
    kConnected
  };

  struct Peer {
    State state = State::kDown;
    sim::Time last_heard{0};
    sim::Time last_sent{0};
    sim::Time dial_deadline{0};
    sim::Time next_attempt{0};
  };

  void tick();
  void dial(NodeId peer);
  void mark_up(NodeId peer);
  void schedule_retry(NodeId peer);
  void send_control(NodeId peer, ControlPayload::Kind kind);
  /// The state of a tracked peer, or nullptr for any other id.
  Peer* find_peer(NodeId id);
  Peer& peer_state(NodeId peer);

  sim::Process& host_;
  Network& net_;
  NodeId self_;
  std::vector<NodeId> peer_ids_;
  ConnectionPolicy policy_;
  Callbacks callbacks_;
  sim::Rng rng_;
  // Indexed by NodeId (ids are dense, see message.hpp), up to the largest
  // tracked peer.
  std::vector<Peer> peers_;
};

}  // namespace stabl::net

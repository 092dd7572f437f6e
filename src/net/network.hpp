// The simulated network fabric.
//
// Point-to-point delivery with a latency model, plus a netfilter-equivalent
// rule table: STABL's observers install rules that drop any IP packet
// between two groups of machines, exactly as the paper does with tc/netem
// (100% loss on matched traffic). Fault engine v2 adds the other tc-netem
// perturbations: probabilistic packet loss, per-link bandwidth throttling
// (a serialization queue per rule) and gray-failure latency inflation on
// everything a node serves. Rules stack: overlapping delay rules add up,
// overlapping loss rules compound. Packets to a dead process draw an RST
// control frame in response, mirroring the OS behaviour after a process is
// killed — this is what makes crash recovery *active* and partition
// recovery *passive* in the connection layer.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "net/latency.hpp"
#include "net/message.hpp"
#include "sim/simulation.hpp"

namespace stabl::net {

/// Handle to an installed rule, for later removal.
using RuleId = std::uint64_t;

struct NetworkStats {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped_partition = 0;
  std::uint64_t dropped_loss = 0;  // packets lost to a loss rule
  std::uint64_t dropped_dead = 0;  // packets that hit a dead endpoint
  std::uint64_t throttled = 0;     // packets delayed by a bandwidth rule
  std::uint64_t rst_sent = 0;
};

class Network {
 public:
  Network(sim::Simulation& simulation, LatencyConfig latency);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Register the receiving endpoint for a machine. Must be called once per
  /// NodeId before anything is sent to it. The add_* rules below and attach
  /// throw std::invalid_argument on an argument outside the stated range
  /// (a null endpoint, a non-positive delay or rate, a bad probability).
  void attach(NodeId id, Endpoint* endpoint);

  /// Send a payload from one machine to another. The packet is dropped when
  /// a partition rule matches at send or delivery time, or a loss rule
  /// samples a drop at delivery time. Delivery to a dead endpoint produces
  /// an RST control frame back to the sender.
  void send(NodeId from, NodeId to, PayloadPtr payload,
            std::uint32_t bytes = 256);

  /// Install a rule dropping all traffic between members of `group_a` and
  /// members of `group_b`, both directions.
  RuleId add_partition(std::vector<NodeId> group_a,
                       std::vector<NodeId> group_b);

  /// Install a rule adding `extra` one-way delay to all traffic between
  /// the two groups (tc-netem delay injection): packets still arrive, just
  /// late — the condition under which "Avalanche stops working when some
  /// messages arrive 2 minutes late" (paper §5).
  RuleId add_delay(std::vector<NodeId> group_a, std::vector<NodeId> group_b,
                   sim::Duration extra);

  /// Install a rule dropping each packet between the two groups
  /// independently with `probability` (tc-netem random loss). Sampled once
  /// per packet at delivery time from the network's forked RNG, so a run
  /// is deterministic under a fixed seed. Overlapping loss rules compound:
  /// a packet survives only if it survives every matching rule.
  RuleId add_loss(std::vector<NodeId> group_a, std::vector<NodeId> group_b,
                  double probability);

  /// Install a rule throttling traffic between the two groups to
  /// `bytes_per_second`: each matched packet serializes over the link for
  /// bytes/rate seconds and queues behind earlier matched packets (tc tbf).
  RuleId add_bandwidth(std::vector<NodeId> group_a,
                       std::vector<NodeId> group_b, double bytes_per_second);

  /// Install a gray-failure rule: every packet sent or received by one of
  /// `nodes` is delayed by `extra`. The node stays alive and keeps
  /// answering — it just serves everything slowly.
  RuleId add_gray(std::vector<NodeId> nodes, sim::Duration extra);

  /// Install an eclipse rule: every packet between `victim` and a node
  /// outside `attackers` is relayed through the attacker overlay, which
  /// adds `extra` latency and silently filters each relayed packet with
  /// `filter_probability`. Direct victim<->attacker traffic is untouched
  /// (the attackers talk to their victim for free).
  RuleId add_eclipse(NodeId victim, std::vector<NodeId> attackers,
                     sim::Duration extra, double filter_probability);

  /// Total extra delay that delay and gray rules impose on a->b traffic
  /// right now (excludes bandwidth queueing, which depends on the packet).
  [[nodiscard]] sim::Duration extra_delay(NodeId a, NodeId b) const;

  /// Compound drop probability loss rules impose on a->b traffic.
  [[nodiscard]] double loss_probability(NodeId a, NodeId b) const;

  /// Remove one rule (observers lifting the netfilter configuration).
  void remove_rule(RuleId id);

  /// Remove all rules.
  void clear_rules();

  /// Number of installed rules (fault-engine bookkeeping in tests).
  [[nodiscard]] std::size_t rule_count() const { return rules_.size(); }

  /// True when no active rule blocks a->b.
  [[nodiscard]] bool permitted(NodeId a, NodeId b) const;

  [[nodiscard]] const NetworkStats& stats() const { return stats_; }
  [[nodiscard]] sim::Simulation& simulation() { return sim_; }

 private:
  struct Rule {
    enum class Kind : std::uint8_t {
      kPartition,  // drop every matched packet
      kDelay,      // add extra_delay to every matched packet
      kLoss,       // drop matched packets with loss_probability
      kBandwidth,  // serialize matched packets at bytes_per_second
      kGray,       // extra_delay on everything touching group_a
      kEclipse,    // victim (group_a) traffic relayed via attackers
                   // (group_b): extra_delay + loss_probability filtering
    };

    // Group membership bits of one NodeId.
    static constexpr std::uint8_t kInA = 1;
    static constexpr std::uint8_t kInB = 2;  // unused for kGray

    Kind kind = Kind::kPartition;
    // Membership table indexed by NodeId (ids are dense, see message.hpp):
    // kInA | kInB bits per id, sized to the largest member; ids past its
    // end belong to neither group.
    std::vector<std::uint8_t> groups;
    sim::Duration extra_delay{0};   // kDelay, kGray, kEclipse
    double loss_probability = 0.0;  // kLoss, kEclipse
    double bytes_per_second = 0.0;  // kBandwidth
    sim::Time busy_until{0};        // kBandwidth serialization queue

    void add_members(const std::vector<NodeId>& ids, std::uint8_t group);

    [[nodiscard]] std::uint8_t groups_of(NodeId id) const {
      return id < groups.size() ? groups[id] : 0;
    }

    [[nodiscard]] bool matches(NodeId a, NodeId b) const {
      const std::uint8_t ga = groups_of(a);
      const std::uint8_t gb = groups_of(b);
      if (kind == Kind::kGray) return ((ga | gb) & kInA) != 0;
      if (kind == Kind::kEclipse) {
        // Matched: one endpoint is the victim and the other is NOT one of
        // the attackers — that packet has to take the attacker detour.
        return ((ga | gb) & kInA) != 0 && ((ga | gb) & kInB) == 0;
      }
      return ((ga & kInA) != 0 && (gb & kInB) != 0) ||
             ((ga & kInB) != 0 && (gb & kInA) != 0);
    }
  };

  RuleId install(Rule rule);
  void deliver(const Envelope& envelope);
  void send_rst(NodeId dead, NodeId to);
  [[nodiscard]] sim::Duration throttle_delay(NodeId from, NodeId to,
                                             std::uint32_t bytes);

  sim::Simulation& sim_;
  LatencyModel latency_;
  sim::Rng rng_;
  // Indexed by NodeId (ids are dense, see message.hpp); null = no machine.
  std::vector<Endpoint*> endpoints_;
  std::unordered_map<RuleId, Rule> rules_;
  RuleId next_rule_ = 1;
  NetworkStats stats_;
};

}  // namespace stabl::net

#include "net/network.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace stabl::net {
namespace {

// Rule and endpoint arguments are checked in every build type: a rule with
// a zero delay or an out-of-range probability would otherwise install
// silently and distort a run.
void require(bool ok, const char* what) {
  if (!ok) throw std::invalid_argument(std::string("Network::") + what);
}

}  // namespace

Network::Network(sim::Simulation& simulation, LatencyConfig latency)
    : sim_(simulation), latency_(latency), rng_(simulation.rng().fork()) {}

void Network::attach(NodeId id, Endpoint* endpoint) {
  require(endpoint != nullptr, "attach: null endpoint");
  if (id >= endpoints_.size()) endpoints_.resize(std::size_t{id} + 1);
  endpoints_[id] = endpoint;
}

void Network::send(NodeId from, NodeId to, PayloadPtr payload,
                   std::uint32_t bytes) {
  ++stats_.sent;
  if (!permitted(from, to)) {
    ++stats_.dropped_partition;
    return;
  }
  const sim::Duration delay = latency_.sample(rng_, bytes) +
                              extra_delay(from, to) +
                              throttle_delay(from, to, bytes);
  Envelope envelope{from, to, bytes, std::move(payload)};
  sim_.schedule_after(delay, [this, envelope = std::move(envelope)]() {
    deliver(envelope);
  });
}

void Network::deliver(const Envelope& envelope) {
  // Rules are re-checked at delivery so that a partition installed while a
  // packet is in flight still drops it (netfilter matches on ingress too).
  if (!permitted(envelope.from, envelope.to)) {
    ++stats_.dropped_partition;
    return;
  }
  // Random loss samples once per packet, at the delivery end of the link,
  // so rules installed mid-flight apply and the RNG stream stays one draw
  // per lossy packet (determinism under a fixed seed).
  const double loss = loss_probability(envelope.from, envelope.to);
  if (loss > 0.0 && rng_.chance(loss)) {
    ++stats_.dropped_loss;
    return;
  }
  Endpoint* endpoint =
      envelope.to < endpoints_.size() ? endpoints_[envelope.to] : nullptr;
  if (endpoint == nullptr) {
    // No such host: the packet disappears (no RST without a machine).
    ++stats_.dropped_dead;
    return;
  }
  if (!endpoint->endpoint_alive()) {
    ++stats_.dropped_dead;
    // A dead *process* (not machine) means the OS answers with a TCP RST,
    // unless the original frame was itself an RST.
    const auto* control = payload_cast<ControlPayload>(envelope.payload.get());
    if (control == nullptr || control->kind != ControlPayload::Kind::kRst) {
      send_rst(envelope.to, envelope.from);
    }
    return;
  }
  ++stats_.delivered;
  endpoint->deliver(envelope);
}

void Network::send_rst(NodeId dead, NodeId to) {
  ++stats_.rst_sent;
  send(dead, to,
       std::make_shared<const ControlPayload>(ControlPayload::Kind::kRst),
       /*bytes=*/64);
}

void Network::Rule::add_members(const std::vector<NodeId>& ids,
                                std::uint8_t group) {
  for (const NodeId id : ids) {
    if (id >= groups.size()) groups.resize(std::size_t{id} + 1, 0);
    groups[id] |= group;
  }
}

RuleId Network::install(Rule rule) {
  const RuleId id = next_rule_++;
  rules_.emplace(id, std::move(rule));
  return id;
}

RuleId Network::add_partition(std::vector<NodeId> group_a,
                              std::vector<NodeId> group_b) {
  Rule rule;
  rule.kind = Rule::Kind::kPartition;
  rule.add_members(group_a, Rule::kInA);
  rule.add_members(group_b, Rule::kInB);
  return install(std::move(rule));
}

RuleId Network::add_delay(std::vector<NodeId> group_a,
                          std::vector<NodeId> group_b, sim::Duration extra) {
  require(extra > sim::Duration::zero(), "add_delay: extra must be > 0");
  Rule rule;
  rule.kind = Rule::Kind::kDelay;
  rule.add_members(group_a, Rule::kInA);
  rule.add_members(group_b, Rule::kInB);
  rule.extra_delay = extra;
  return install(std::move(rule));
}

RuleId Network::add_loss(std::vector<NodeId> group_a,
                         std::vector<NodeId> group_b, double probability) {
  require(probability > 0.0 && probability <= 1.0,
          "add_loss: probability must be in (0, 1]");
  Rule rule;
  rule.kind = Rule::Kind::kLoss;
  rule.add_members(group_a, Rule::kInA);
  rule.add_members(group_b, Rule::kInB);
  rule.loss_probability = probability;
  return install(std::move(rule));
}

RuleId Network::add_bandwidth(std::vector<NodeId> group_a,
                              std::vector<NodeId> group_b,
                              double bytes_per_second) {
  require(bytes_per_second > 0.0,
          "add_bandwidth: bytes_per_second must be > 0");
  Rule rule;
  rule.kind = Rule::Kind::kBandwidth;
  rule.add_members(group_a, Rule::kInA);
  rule.add_members(group_b, Rule::kInB);
  rule.bytes_per_second = bytes_per_second;
  return install(std::move(rule));
}

RuleId Network::add_gray(std::vector<NodeId> nodes, sim::Duration extra) {
  require(extra > sim::Duration::zero(), "add_gray: extra must be > 0");
  Rule rule;
  rule.kind = Rule::Kind::kGray;
  rule.add_members(nodes, Rule::kInA);
  rule.extra_delay = extra;
  return install(std::move(rule));
}

RuleId Network::add_eclipse(NodeId victim, std::vector<NodeId> attackers,
                            sim::Duration extra, double filter_probability) {
  require(extra > sim::Duration::zero(), "add_eclipse: extra must be > 0");
  require(filter_probability >= 0.0 && filter_probability < 1.0,
          "add_eclipse: filter_probability must be in [0, 1)");
  Rule rule;
  rule.kind = Rule::Kind::kEclipse;
  rule.add_members({victim}, Rule::kInA);
  rule.add_members(attackers, Rule::kInB);
  rule.extra_delay = extra;
  rule.loss_probability = filter_probability;
  return install(std::move(rule));
}

sim::Duration Network::extra_delay(NodeId a, NodeId b) const {
  sim::Duration total{0};
  for (const auto& [id, rule] : rules_) {
    if ((rule.kind == Rule::Kind::kDelay || rule.kind == Rule::Kind::kGray ||
         rule.kind == Rule::Kind::kEclipse) &&
        rule.matches(a, b)) {
      total += rule.extra_delay;
    }
  }
  return total;
}

double Network::loss_probability(NodeId a, NodeId b) const {
  double survive = 1.0;
  for (const auto& [id, rule] : rules_) {
    if ((rule.kind == Rule::Kind::kLoss ||
         rule.kind == Rule::Kind::kEclipse) &&
        rule.loss_probability > 0.0 && rule.matches(a, b)) {
      survive *= 1.0 - rule.loss_probability;
    }
  }
  return 1.0 - survive;
}

sim::Duration Network::throttle_delay(NodeId from, NodeId to,
                                      std::uint32_t bytes) {
  sim::Duration total{0};
  for (auto& [id, rule] : rules_) {
    if (rule.kind != Rule::Kind::kBandwidth || !rule.matches(from, to)) {
      continue;
    }
    const auto serialization = sim::seconds(
        static_cast<double>(bytes) / rule.bytes_per_second);
    const sim::Time depart = std::max(sim_.now(), rule.busy_until);
    rule.busy_until = depart + serialization;
    total += (depart - sim_.now()) + serialization;
    ++stats_.throttled;
  }
  return total;
}

void Network::remove_rule(RuleId id) { rules_.erase(id); }

void Network::clear_rules() { rules_.clear(); }

bool Network::permitted(NodeId a, NodeId b) const {
  for (const auto& [id, rule] : rules_) {
    if (rule.kind == Rule::Kind::kPartition && rule.matches(a, b)) {
      return false;
    }
  }
  return true;
}

}  // namespace stabl::net

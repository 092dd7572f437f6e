// Fault plans (paper §3, Table 1 and Fig. 2) and fault engine v2.
//
// The primary machine decides when to trigger a failure and signals the
// observers deployed on the blockchain machines; observers kill/restart the
// blockchain process or install/remove netfilter rules. Engine v2 extends
// the single scripted outage to a FaultSchedule — an arbitrary list of
// plans whose windows may overlap and compose (packet loss during a
// partition, churn plus delay, ...), the chaos-engineering shape realistic
// resilience assessment needs.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "net/message.hpp"
#include "sim/time.hpp"

namespace stabl::core {

enum class FaultType {
  kNone,       // baseline
  kCrash,      // f = t nodes halted, never restarted (§4 Resilience)
  kTransient,  // f = t+1 nodes halted at 133 s, restarted at 266 s (§5)
  kPartition,  // f = t+1 nodes isolated between 133 s and 266 s (§6)
  kSecureClient,  // no failure: clients submit to t+1 nodes (§7)
  kDelay,      // transient communication delays to f = t+1 nodes — the
               // condition the paper observed crashing all Solana nodes
               // and starving Avalanche ("messages arrive 2 minutes late")
  kChurn,      // crash-recovery churn: f = t nodes repeatedly killed and
               // restarted during the fault window (Table 1's transient
               // failure model, iterated)
  kLoss,       // probabilistic packet loss between the targets and the
               // rest (tc-netem loss): every packet survives the rule
               // independently with probability 1 - loss_probability
  kThrottle,   // per-link bandwidth throttling between the targets and the
               // rest: packets queue behind a serialization delay
  kGray,       // gray failure: the targets stay alive but serve all their
               // traffic with inflated latency (slow disk / saturated NIC)
  // --- adversarial family: the targets are *compromised*, not failed ---
  kEquivocate,  // targets double-propose/double-vote: every consensus
                // broadcast is split-brained, one half of the peers gets
                // the original payload and the other half a conflicting
                // variant for the same round/slot
  kWithhold,    // targets suppress their own proposals/votes and replay
                // the first suppressed payload instead of fresh ones
  kEclipse,     // a victim node's view is intercepted: all of its traffic
                // to and from non-attackers is routed through the attacker
                // targets, which delay (reorder) and filter it
};

inline constexpr FaultType kAllFaultTypes[] = {
    FaultType::kNone,  FaultType::kCrash,        FaultType::kTransient,
    FaultType::kPartition, FaultType::kSecureClient, FaultType::kDelay,
    FaultType::kChurn, FaultType::kLoss,         FaultType::kThrottle,
    FaultType::kGray,  FaultType::kEquivocate,   FaultType::kWithhold,
    FaultType::kEclipse};

/// True for the adversarial (Byzantine) family: the targets misbehave
/// instead of failing. Oracles exclude such nodes from the correct-replica
/// set when auditing safety.
[[nodiscard]] bool is_adversarial(FaultType type);

std::string to_string(FaultType type);

/// One-line human description of a fault type (stabl_cli --list-faults).
std::string fault_description(FaultType type);

/// Inverse of to_string, case-insensitive. Throws std::invalid_argument
/// listing every valid name when `name` matches none of them.
FaultType fault_from_name(std::string_view name);

struct FaultPlan {
  FaultType type = FaultType::kNone;
  std::vector<net::NodeId> targets;  // blockchain nodes affected
  sim::Time inject_at = sim::sec(133);
  sim::Time recover_at = sim::sec(266);
  /// kDelay only: one-way latency added between targets and the rest.
  sim::Duration delay_amount = sim::sec(120);
  /// kChurn only: how long the targets stay down / up per cycle.
  sim::Duration churn_down = sim::sec(10);
  sim::Duration churn_up = sim::sec(15);
  /// kLoss only: per-packet drop probability in (0, 1].
  double loss_probability = 0.2;
  /// kThrottle only: link bandwidth in bytes per second.
  double throttle_bytes_per_s = 64.0 * 1024.0;
  /// kGray only: service latency added to all traffic touching a target.
  sim::Duration gray_latency = sim::sec(2);
  /// kEclipse only: the victim whose traffic the attacker targets
  /// intercept. Must not itself be a target.
  net::NodeId eclipse_victim = 9;
  /// kEclipse only: relay latency the attackers add to every intercepted
  /// packet (the detour through the attacker overlay).
  sim::Duration eclipse_delay = sim::ms(500);
  /// kEclipse only: probability in [0, 1) that the attackers filter
  /// (silently drop) an intercepted packet.
  double eclipse_filter = 0.2;

  friend bool operator==(const FaultPlan&, const FaultPlan&) = default;
};

/// Whether the plan's recover_at action means anything (kCrash never
/// recovers; kNone/kSecureClient inject nothing).
[[nodiscard]] bool uses_recovery_window(FaultType type);

/// Validate a plan against a cluster of `n` blockchain nodes. Returns an
/// empty string when the plan is well-formed, else a human-readable error
/// ("loss plan needs at least one target node", "plan targets node 1
/// twice", ...). Observers::arm rejects invalid plans with exactly this
/// message. Duplicate target ids are rejected: a duplicated entry would
/// silently double-arm kill/restart actions for the same node.
[[nodiscard]] std::string validate(const FaultPlan& plan, std::size_t n);

/// Canonical form of a plan: dead fields — fields the plan's type never
/// reads — are reset to neutral values so that two behaviourally identical
/// plans compare and serialize identically. Concretely: recover_at is
/// zeroed on kCrash/kNone/kSecureClient (their recovery window means
/// nothing; see the satellite note in DESIGN.md §10), per-type knobs
/// (delay_amount, churn_*, loss_probability, throttle_bytes_per_s,
/// gray_latency) are reset to defaults on every type that does not use
/// them, kNone/kSecureClient additionally drop targets and inject_at, and
/// targets are sorted. The chaos generator and the schedule JSON
/// serializer only ever produce canonical plans.
[[nodiscard]] FaultPlan canonical(FaultPlan plan);

/// An arbitrary list of fault plans armed together. Windows may overlap:
/// each plan installs and lifts its own rules/process actions
/// independently of the others.
struct FaultSchedule {
  std::vector<FaultPlan> plans;

  FaultSchedule& add(FaultPlan plan) {
    plans.push_back(std::move(plan));
    return *this;
  }
  [[nodiscard]] bool empty() const { return plans.empty(); }

  friend bool operator==(const FaultSchedule&,
                         const FaultSchedule&) = default;
};

/// canonical() applied to every plan of a schedule.
[[nodiscard]] FaultSchedule canonical(FaultSchedule schedule);

/// Nodes under adversarial control anywhere in the schedule: the targets
/// of every equivocate/withhold plan (eclipse attackers stay honest at the
/// protocol layer — they only tamper with the victim's links). Sorted,
/// deduplicated. Safety oracles exclude these replicas from the
/// correct-replica set.
[[nodiscard]] std::vector<net::NodeId> adversarial_nodes(
    const FaultSchedule& schedule);

}  // namespace stabl::core

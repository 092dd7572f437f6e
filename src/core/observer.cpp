#include "core/observer.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "core/trace.hpp"

namespace stabl::core {
namespace {

std::string plan_args(const FaultPlan& plan) {
  std::string args = "\"type\":\"" + to_string(plan.type) + "\",\"targets\":[";
  for (std::size_t i = 0; i < plan.targets.size(); ++i) {
    if (i > 0) args += ',';
    args += std::to_string(plan.targets[i]);
  }
  args += ']';
  return args;
}

}  // namespace

Observers::Observers(sim::Simulation& simulation, net::Network& network,
                     std::vector<chain::BlockchainNode*> nodes,
                     std::vector<net::NodeId> client_ids)
    : sim_(simulation),
      net_(network),
      nodes_(std::move(nodes)),
      client_ids_(std::move(client_ids)) {}

std::vector<net::NodeId> Observers::others(
    const std::vector<net::NodeId>& targets) const {
  std::vector<net::NodeId> rest;
  rest.reserve(nodes_.size());
  for (const auto* node : nodes_) {
    const bool targeted =
        std::find(targets.begin(), targets.end(), node->node_id()) !=
        targets.end();
    if (!targeted) rest.push_back(node->node_id());
  }
  rest.insert(rest.end(), client_ids_.begin(), client_ids_.end());
  return rest;
}

void Observers::churn_kill(const FaultPlan& plan, sim::Time at) {
  if (auto* trace = sim_.trace()) {
    trace->instant(kFaultsTrack, sim_.now(), "churn_down", "fault",
                   plan_args(plan));
  }
  for (const net::NodeId id : plan.targets) nodes_.at(id)->kill();
  const sim::Time up_at = std::min(at + plan.churn_down, plan.recover_at);
  sim_.schedule_at(up_at, [this, plan, up_at] {
    if (auto* trace = sim_.trace()) {
      trace->instant(kFaultsTrack, sim_.now(), "churn_up", "fault",
                     plan_args(plan));
    }
    for (const net::NodeId id : plan.targets) nodes_.at(id)->start();
    const sim::Time next_kill = up_at + plan.churn_up;
    // Only start another cycle when it fully fits the fault window; with
    // the first down period clipped above, the targets are guaranteed
    // back up at recover_at.
    if (next_kill + plan.churn_down <= plan.recover_at) {
      sim_.schedule_at(next_kill, [this, plan, next_kill] {
        churn_kill(plan, next_kill);
      });
    }
  });
}

void Observers::arm(const FaultSchedule& schedule) {
  for (std::size_t i = 0; i < schedule.plans.size(); ++i) {
    try {
      arm(schedule.plans[i]);
    } catch (const std::invalid_argument& error) {
      // Multi-plan schedules say WHICH plan was malformed.
      throw std::invalid_argument("plan " + std::to_string(i) + " of " +
                                  std::to_string(schedule.plans.size()) +
                                  ": " + error.what());
    }
  }
}

void Observers::arm(const FaultPlan& plan) {
  const std::string error = validate(plan, nodes_.size());
  if (!error.empty()) throw std::invalid_argument(error);
  // Faults-track bookkeeping: each armed plan gets a numbered async span
  // from inject to recover (an instant for crashes, which never recover).
  const std::uint64_t span = ++armed_;
  if (auto* trace = sim_.trace()) {
    trace->instant(kFaultsTrack, sim_.now(), "arm", "fault",
                   plan_args(plan) + ",\"plan\":" + std::to_string(span));
  }
  const auto trace_inject = [this, span](const FaultPlan& p) {
    if (auto* trace = sim_.trace()) {
      if (uses_recovery_window(p.type)) {
        trace->async_begin(kFaultsTrack, sim_.now(), span, to_string(p.type),
                           "fault", plan_args(p));
      } else {
        trace->instant(kFaultsTrack, sim_.now(), "inject", "fault",
                       plan_args(p));
      }
    }
  };
  const auto trace_recover = [this, span](FaultType type) {
    if (auto* trace = sim_.trace()) {
      trace->async_end(kFaultsTrack, sim_.now(), span, to_string(type),
                       "fault");
    }
  };
  switch (plan.type) {
    case FaultType::kNone:
    case FaultType::kSecureClient:
      return;
    case FaultType::kCrash:
      sim_.schedule_at(plan.inject_at,
                       [this, plan, trace_inject] {
        trace_inject(plan);
        for (const net::NodeId id : plan.targets) nodes_.at(id)->kill();
      });
      return;
    case FaultType::kTransient:
      sim_.schedule_at(plan.inject_at, [this, plan, trace_inject] {
        trace_inject(plan);
        for (const net::NodeId id : plan.targets) nodes_.at(id)->kill();
      });
      sim_.schedule_at(plan.recover_at, [this, plan, trace_recover] {
        for (const net::NodeId id : plan.targets) nodes_.at(id)->start();
        trace_recover(plan.type);
      });
      return;
    case FaultType::kChurn:
      sim_.schedule_at(plan.inject_at, [this, plan, trace_inject] {
        trace_inject(plan);
        churn_kill(plan, plan.inject_at);
      });
      sim_.schedule_at(plan.recover_at, [this, plan, trace_recover] {
        trace_recover(plan.type);
      });
      return;
    case FaultType::kEquivocate:
      sim_.schedule_at(plan.inject_at, [this, plan, trace_inject] {
        trace_inject(plan);
        for (const net::NodeId id : plan.targets) {
          nodes_.at(id)->set_equivocating(true);
        }
      });
      sim_.schedule_at(plan.recover_at, [this, plan, trace_recover] {
        for (const net::NodeId id : plan.targets) {
          nodes_.at(id)->set_equivocating(false);
        }
        trace_recover(plan.type);
      });
      return;
    case FaultType::kWithhold:
      sim_.schedule_at(plan.inject_at, [this, plan, trace_inject] {
        trace_inject(plan);
        for (const net::NodeId id : plan.targets) {
          nodes_.at(id)->set_withholding(true);
        }
      });
      sim_.schedule_at(plan.recover_at, [this, plan, trace_recover] {
        for (const net::NodeId id : plan.targets) {
          nodes_.at(id)->set_withholding(false);
        }
        trace_recover(plan.type);
      });
      return;
    case FaultType::kEclipse: {
      auto rule = std::make_shared<net::RuleId>(0);
      sim_.schedule_at(plan.inject_at, [this, plan, rule, trace_inject] {
        trace_inject(plan);
        *rule = net_.add_eclipse(plan.eclipse_victim, plan.targets,
                                 plan.eclipse_delay, plan.eclipse_filter);
      });
      sim_.schedule_at(plan.recover_at,
                       [this, rule, type = plan.type, trace_recover] {
        if (*rule != 0) net_.remove_rule(*rule);
        trace_recover(type);
      });
      return;
    }
    case FaultType::kPartition:
    case FaultType::kDelay:
    case FaultType::kLoss:
    case FaultType::kThrottle:
    case FaultType::kGray: {
      // Each plan owns its rule handle, shared between the install and
      // lift events, so overlapping plans never clobber each other.
      auto rule = std::make_shared<net::RuleId>(0);
      sim_.schedule_at(plan.inject_at, [this, plan, rule, trace_inject] {
        trace_inject(plan);
        const std::vector<net::NodeId> rest = others(plan.targets);
        switch (plan.type) {
          case FaultType::kPartition:
            *rule = net_.add_partition(plan.targets, rest);
            break;
          case FaultType::kDelay:
            *rule = net_.add_delay(plan.targets, rest, plan.delay_amount);
            break;
          case FaultType::kLoss:
            *rule = net_.add_loss(plan.targets, rest,
                                  plan.loss_probability);
            break;
          case FaultType::kThrottle:
            *rule = net_.add_bandwidth(plan.targets, rest,
                                       plan.throttle_bytes_per_s);
            break;
          case FaultType::kGray:
            *rule = net_.add_gray(plan.targets, plan.gray_latency);
            break;
          default:
            break;
        }
      });
      sim_.schedule_at(plan.recover_at,
                       [this, rule, type = plan.type, trace_recover] {
        if (*rule != 0) net_.remove_rule(*rule);
        trace_recover(type);
      });
      return;
    }
  }
}

}  // namespace stabl::core

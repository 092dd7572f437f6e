#include "core/chaos.hpp"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "core/json.hpp"
#include "core/metrics.hpp"
#include "core/parallel.hpp"
#include "core/report.hpp"
#include "core/serialize.hpp"
#include "core/trace.hpp"

namespace stabl::core {
namespace {

std::string plan_json(const FaultPlan& plan) {
  std::ostringstream out;
  out << "{\"type\":\"" << to_string(plan.type) << "\",\"targets\":[";
  for (std::size_t i = 0; i < plan.targets.size(); ++i) {
    if (i > 0) out << ',';
    out << plan.targets[i];
  }
  out << "],\"inject_at_s\":" << Table::num(sim::to_seconds(plan.inject_at), 3);
  if (uses_recovery_window(plan.type)) {
    out << ",\"recover_at_s\":"
        << Table::num(sim::to_seconds(plan.recover_at), 3);
  }
  switch (plan.type) {
    case FaultType::kDelay:
      out << ",\"delay_s\":"
          << Table::num(sim::to_seconds(plan.delay_amount), 3);
      break;
    case FaultType::kChurn:
      out << ",\"churn_down_s\":"
          << Table::num(sim::to_seconds(plan.churn_down), 3)
          << ",\"churn_up_s\":"
          << Table::num(sim::to_seconds(plan.churn_up), 3);
      break;
    case FaultType::kLoss:
      out << ",\"loss_probability\":" << Table::num(plan.loss_probability, 2);
      break;
    case FaultType::kThrottle:
      out << ",\"throttle_bytes_per_s\":"
          << Table::num(plan.throttle_bytes_per_s, 0);
      break;
    case FaultType::kGray:
      out << ",\"gray_ms\":"
          << Table::num(sim::to_seconds(plan.gray_latency) * 1000.0, 0);
      break;
    case FaultType::kEclipse:
      out << ",\"eclipse_victim\":" << plan.eclipse_victim
          << ",\"eclipse_ms\":"
          << Table::num(sim::to_seconds(plan.eclipse_delay) * 1000.0, 0)
          << ",\"eclipse_filter\":" << Table::num(plan.eclipse_filter, 2);
      break;
    default:
      break;
  }
  out << '}';
  return out.str();
}

FaultPlan parse_plan(JsonCursor& cursor) {
  FaultPlan plan;
  cursor.expect('{');
  bool first = true;
  while (!cursor.consume('}')) {
    if (!first) cursor.expect(',');
    first = false;
    const std::string key = cursor.parse_string();
    cursor.expect(':');
    if (key == "type") {
      plan.type = fault_from_name(cursor.parse_string());
    } else if (key == "targets") {
      cursor.expect('[');
      if (!cursor.consume(']')) {
        do {
          plan.targets.push_back(
              static_cast<net::NodeId>(cursor.parse_number()));
        } while (cursor.consume(','));
        cursor.expect(']');
      }
    } else if (key == "inject_at_s") {
      plan.inject_at = sim::seconds(cursor.parse_number());
    } else if (key == "recover_at_s") {
      plan.recover_at = sim::seconds(cursor.parse_number());
    } else if (key == "delay_s") {
      plan.delay_amount = sim::seconds(cursor.parse_number());
    } else if (key == "churn_down_s") {
      plan.churn_down = sim::seconds(cursor.parse_number());
    } else if (key == "churn_up_s") {
      plan.churn_up = sim::seconds(cursor.parse_number());
    } else if (key == "loss_probability") {
      plan.loss_probability = cursor.parse_number();
    } else if (key == "throttle_bytes_per_s") {
      plan.throttle_bytes_per_s = cursor.parse_number();
    } else if (key == "gray_ms") {
      plan.gray_latency = sim::seconds(cursor.parse_number() / 1000.0);
    } else if (key == "eclipse_victim") {
      plan.eclipse_victim = static_cast<net::NodeId>(cursor.parse_number());
    } else if (key == "eclipse_ms") {
      plan.eclipse_delay = sim::seconds(cursor.parse_number() / 1000.0);
    } else if (key == "eclipse_filter") {
      plan.eclipse_filter = cursor.parse_number();
    } else {
      cursor.fail("unknown plan field \"" + key + "\"");
    }
  }
  return canonical(plan);
}

}  // namespace

ChaosGenConfig default_gen_for(sim::Duration duration) {
  ChaosGenConfig config;
  const int d = static_cast<int>(sim::to_seconds(duration));
  config.earliest_inject_s = std::max(1, d / 8);
  config.latest_recover_s =
      std::max(config.earliest_inject_s + config.min_window_s, d / 3);
  config.max_window_s = std::max(10, d / 6);
  return config;
}

ChaosGenConfig adversarial_gen_for(sim::Duration duration) {
  ChaosGenConfig config = default_gen_for(duration);
  config.types.push_back(FaultType::kEquivocate);
  config.types.push_back(FaultType::kWithhold);
  config.types.push_back(FaultType::kEclipse);
  return config;
}

FaultSchedule generate_schedule(sim::Rng& rng, const ChaosGenConfig& config) {
  assert(!config.types.empty());
  const std::size_t pool_start =
      config.allow_entry_targets ? 0 : config.entry_nodes;
  assert(pool_start < config.n && "no nodes eligible for faults");
  const std::size_t pool = config.n - pool_start;

  const auto plan_count = static_cast<std::size_t>(rng.uniform_int(
      static_cast<std::int64_t>(config.min_plans),
      static_cast<std::int64_t>(config.max_plans)));
  FaultSchedule schedule;
  for (std::size_t p = 0; p < plan_count; ++p) {
    FaultPlan plan;
    plan.type = config.types[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(config.types.size()) - 1))];

    const std::size_t most = std::min(
        std::max<std::size_t>(config.max_targets, 1), pool);
    const auto count = static_cast<std::size_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(most)));
    for (const std::size_t index :
         rng.sample_without_replacement(pool, count)) {
      plan.targets.push_back(static_cast<net::NodeId>(pool_start + index));
    }

    const int latest_inject = config.latest_recover_s - config.min_window_s;
    const auto inject = static_cast<int>(
        rng.uniform_int(config.earliest_inject_s,
                        std::max(config.earliest_inject_s, latest_inject)));
    const int widest =
        std::min(config.max_window_s, config.latest_recover_s - inject);
    const auto window = static_cast<int>(rng.uniform_int(
        config.min_window_s, std::max(config.min_window_s, widest)));
    plan.inject_at = sim::sec(inject);
    plan.recover_at = sim::sec(inject + window);

    switch (plan.type) {
      case FaultType::kDelay:
        plan.delay_amount =
            sim::sec(rng.uniform_int(config.min_delay_s, config.max_delay_s));
        break;
      case FaultType::kChurn:
        plan.churn_down = sim::sec(rng.uniform_int(
            config.min_churn_period_s, config.max_churn_period_s));
        plan.churn_up = sim::sec(rng.uniform_int(
            config.min_churn_period_s, config.max_churn_period_s));
        break;
      case FaultType::kLoss: {
        const auto percent = rng.uniform_int(
            static_cast<std::int64_t>(std::lround(config.min_loss * 100.0)),
            static_cast<std::int64_t>(std::lround(config.max_loss * 100.0)));
        plan.loss_probability = static_cast<double>(percent) / 100.0;
        break;
      }
      case FaultType::kThrottle:
        plan.throttle_bytes_per_s = static_cast<double>(rng.uniform_int(
            static_cast<std::int64_t>(config.min_throttle_bytes_per_s),
            static_cast<std::int64_t>(config.max_throttle_bytes_per_s)));
        break;
      case FaultType::kGray:
        plan.gray_latency = sim::ms(
            rng.uniform_int(config.min_gray_ms, config.max_gray_ms));
        break;
      case FaultType::kEclipse: {
        // The victim is drawn from the nodes the plan does not control
        // (validate() rejects a victim that is also an attacker).
        std::vector<net::NodeId> eligible;
        for (std::size_t id = 0; id < config.n; ++id) {
          const auto node = static_cast<net::NodeId>(id);
          if (std::find(plan.targets.begin(), plan.targets.end(), node) ==
              plan.targets.end()) {
            eligible.push_back(node);
          }
        }
        plan.eclipse_victim = eligible[static_cast<std::size_t>(
            rng.uniform_int(0,
                            static_cast<std::int64_t>(eligible.size()) - 1))];
        plan.eclipse_delay = sim::ms(
            rng.uniform_int(config.min_eclipse_ms, config.max_eclipse_ms));
        const auto filter_percent = rng.uniform_int(
            static_cast<std::int64_t>(
                std::lround(config.min_eclipse_filter * 100.0)),
            static_cast<std::int64_t>(
                std::lround(config.max_eclipse_filter * 100.0)));
        plan.eclipse_filter = static_cast<double>(filter_percent) / 100.0;
        break;
      }
      default:
        break;
    }
    plan = canonical(std::move(plan));
    assert(validate(plan, config.n).empty() &&
           "generator produced an invalid plan");
    schedule.add(std::move(plan));
  }
  return schedule;
}

std::string schedule_to_json(const FaultSchedule& schedule) {
  const FaultSchedule canon = canonical(schedule);
  std::ostringstream out;
  out << "{\"plans\":[";
  for (std::size_t i = 0; i < canon.plans.size(); ++i) {
    if (i > 0) out << ',';
    out << plan_json(canon.plans[i]);
  }
  out << "]}";
  return out.str();
}

FaultSchedule schedule_from_json(const std::string& json) {
  JsonCursor cursor(json);
  cursor.expect('{');
  if (cursor.parse_string() != "plans") cursor.fail("expected \"plans\"");
  cursor.expect(':');
  cursor.expect('[');
  FaultSchedule schedule;
  if (!cursor.consume(']')) {
    do {
      schedule.add(parse_plan(cursor));
    } while (cursor.consume(','));
    cursor.expect(']');
  }
  cursor.expect('}');
  cursor.finish();
  return schedule;
}

std::optional<ShrinkResult> shrink_schedule(const FaultSchedule& schedule,
                                            const ScheduleEvaluator& evaluate,
                                            const ShrinkOptions& options) {
  std::size_t runs = 0;
  const auto run = [&](const FaultSchedule& candidate) {
    ++runs;
    return evaluate(candidate);
  };
  const OracleReport initial = run(schedule);
  const OracleFinding* violation = initial.violation();
  if (violation == nullptr) return std::nullopt;
  const std::string oracle = violation->oracle;

  FaultSchedule best = canonical(schedule);
  OracleReport best_report = initial;
  // A candidate survives only when it violates the SAME oracle — a shrink
  // step that trades an agreement fork for an unrelated liveness failure
  // would "minimize" into a different bug.
  const auto still_violates = [&](const FaultSchedule& candidate,
                                  OracleReport& out) {
    if (runs >= options.max_runs) return false;
    OracleReport report = run(candidate);
    const bool hit = std::any_of(
        report.findings.begin(), report.findings.end(),
        [&](const OracleFinding& finding) {
          return finding.verdict == OracleVerdict::kViolation &&
                 finding.oracle == oracle;
        });
    if (hit) out = std::move(report);
    return hit;
  };

  // Pass 1: drop whole plans, restarting until no single removal keeps the
  // violation alive (greedy ddmin with subset size 1).
  bool changed = true;
  while (changed && best.plans.size() > 1) {
    changed = false;
    for (std::size_t i = 0; i < best.plans.size();) {
      FaultSchedule candidate = best;
      candidate.plans.erase(candidate.plans.begin() +
                            static_cast<std::ptrdiff_t>(i));
      OracleReport report;
      if (still_violates(candidate, report)) {
        best = std::move(candidate);
        best_report = std::move(report);
        changed = true;
      } else {
        ++i;
      }
    }
  }

  // Pass 2: narrow each surviving plan's target list one node at a time.
  for (std::size_t i = 0; i < best.plans.size(); ++i) {
    for (std::size_t t = 0;
         best.plans[i].targets.size() > 1 && t < best.plans[i].targets.size();) {
      FaultSchedule candidate = best;
      candidate.plans[i].targets.erase(
          candidate.plans[i].targets.begin() + static_cast<std::ptrdiff_t>(t));
      OracleReport report;
      if (still_violates(candidate, report)) {
        best = std::move(candidate);
        best_report = std::move(report);
      } else {
        ++t;
      }
    }
  }

  // Pass 3: halve each plan's fault window while the violation persists.
  for (std::size_t i = 0; i < best.plans.size(); ++i) {
    while (uses_recovery_window(best.plans[i].type)) {
      const double inject = sim::to_seconds(best.plans[i].inject_at);
      const double recover = sim::to_seconds(best.plans[i].recover_at);
      const double halved = std::floor((recover - inject) / 2.0);
      if (halved < static_cast<double>(options.min_window_s)) break;
      FaultSchedule candidate = best;
      candidate.plans[i].recover_at = sim::seconds(inject + halved);
      OracleReport report;
      if (!still_violates(candidate, report)) break;
      best = std::move(candidate);
      best_report = std::move(report);
    }
  }

  ShrinkResult result;
  result.schedule = canonical(best);
  result.oracle = oracle;
  result.report = std::move(best_report);
  result.runs = runs;
  result.initial_plans = schedule.plans.size();
  return result;
}

std::size_t ChaosCampaignResult::violations() const {
  return static_cast<std::size_t>(
      std::count_if(trials.begin(), trials.end(), [](const ChaosTrial& t) {
        return t.report.violated();
      }));
}

std::size_t ChaosCampaignResult::expected_losses() const {
  return static_cast<std::size_t>(
      std::count_if(trials.begin(), trials.end(), [](const ChaosTrial& t) {
        return t.report.verdict == OracleVerdict::kExpectedLoss;
      }));
}

std::string ChaosCampaignResult::summary_table() const {
  Table table({"chain", "trial", "seed", "plans", "types", "verdict",
               "detail"});
  for (const ChaosTrial& trial : trials) {
    std::string types;
    for (std::size_t i = 0; i < trial.schedule.plans.size(); ++i) {
      if (i > 0) types += '+';
      types += to_string(trial.schedule.plans[i].type);
    }
    std::string detail = "-";
    for (const OracleFinding& finding : trial.report.findings) {
      if (finding.verdict != OracleVerdict::kPass) {
        detail = finding.oracle;
        break;
      }
    }
    if (trial.shrunk.has_value()) {
      detail += " (shrunk " + std::to_string(trial.shrunk->initial_plans) +
                "->" + std::to_string(trial.shrunk->schedule.plans.size()) +
                " plans)";
    }
    table.add_row({to_string(trial.chain), std::to_string(trial.trial),
                   std::to_string(trial.experiment_seed),
                   std::to_string(trial.schedule.plans.size()), types,
                   to_string(trial.report.verdict), detail});
  }
  return table.to_string();
}

std::string ChaosCampaignResult::to_json() const {
  std::ostringstream out;
  out << '[';
  for (std::size_t i = 0; i < trials.size(); ++i) {
    const ChaosTrial& trial = trials[i];
    if (i > 0) out << ',';
    out << "{\"chain\":\"" << to_string(trial.chain) << "\",\"trial\":"
        << trial.trial << ",\"experiment_seed\":" << trial.experiment_seed
        << ",\"schedule\":" << schedule_to_json(trial.schedule)
        << ",\"submitted\":" << trial.submitted << ",\"committed\":"
        << trial.committed << ",\"live_at_end\":"
        << (trial.live_at_end ? "true" : "false")
        << ",\"oracle\":" << stabl::core::to_json(trial.report);
    if (trial.shrunk.has_value()) {
      out << ",\"shrunk\":{\"oracle\":\""
          << json_escape(trial.shrunk->oracle) << "\",\"runs\":"
          << trial.shrunk->runs << ",\"initial_plans\":"
          << trial.shrunk->initial_plans << ",\"schedule\":"
          << schedule_to_json(trial.shrunk->schedule) << '}';
    }
    out << '}';
  }
  out << ']';
  return out.str();
}

std::string ChaosCampaignResult::timing_table() const {
  Table table({"chain", "trial", "verdict", "wall_ms"});
  double total = 0.0;
  for (const ChaosTrial& trial : trials) {
    total += trial.wall_ms;
    table.add_row({to_string(trial.chain), std::to_string(trial.trial),
                   to_string(trial.report.verdict),
                   Table::num(trial.wall_ms, 0)});
  }
  table.add_row({"total", "-", "-", Table::num(total, 0)});
  return table.to_string();
}

ExperimentConfig chaos_trial_config(const ChaosCampaignConfig& config,
                                    ChainKind chain,
                                    std::uint64_t experiment_seed,
                                    const FaultSchedule& schedule) {
  ExperimentConfig cell = config.base;
  cell.chain = chain;
  cell.fault = FaultType::kNone;
  cell.fault_schedule = schedule;
  cell.seed = experiment_seed;
  cell.capture_replicas = true;
  // Trials run concurrently; a sink/registry/recorder inherited from the
  // template would race. The traced repro re-run attaches its own local
  // sink.
  cell.trace = nullptr;
  cell.metrics = nullptr;
  cell.lifecycle = nullptr;
  return cell;
}

ChaosCampaignResult run_chaos_campaign(const ChaosCampaignConfig& config) {
  ChaosGenConfig gen;
  if (config.gen.has_value()) {
    gen = *config.gen;
  } else {
    gen = default_gen_for(config.base.duration);
    gen.n = config.base.n;
    gen.entry_nodes = std::min(config.base.clients, config.base.n);
  }

  const sim::Rng root(config.seed);
  const std::size_t total = config.chains.size() * config.trials_per_chain;
  std::vector<ChaosTrial> slots(total);
  Heartbeat heartbeat("chaos", total, config.heartbeat);
  ThreadPool pool(config.jobs);
  pool.parallel_for(total, [&](std::size_t index) {
    const WallTimer trial_timer;
    const ChainKind chain = config.chains[index / config.trials_per_chain];
    const std::size_t k = index % config.trials_per_chain;
    // The stream id encodes the chain's identity (not its list position),
    // so reordering config.chains never changes a trial's schedule.
    const std::uint64_t stream =
        static_cast<std::uint64_t>(chain) * 1'000'003ull +
        static_cast<std::uint64_t>(k);
    sim::Rng rng = root.derive(stream);

    ChaosTrial trial;
    trial.chain = chain;
    trial.trial = k;
    trial.experiment_seed = rng.next_u64();
    trial.schedule = generate_schedule(rng, gen);

    const ExperimentConfig cell = chaos_trial_config(
        config, chain, trial.experiment_seed, trial.schedule);
    const ExperimentResult result = run_experiment(cell);
    trial.report =
        check_invariants(make_oracle_context(cell), result, config.oracle);
    trial.submitted = result.submitted;
    trial.committed = result.committed;
    trial.live_at_end = result.live_at_end;

    if (config.shrink && trial.report.violated()) {
      const auto evaluate = [&](const FaultSchedule& candidate) {
        const ExperimentConfig candidate_cell = chaos_trial_config(
            config, chain, trial.experiment_seed, candidate);
        return check_invariants(make_oracle_context(candidate_cell),
                                run_experiment(candidate_cell),
                                config.oracle);
      };
      trial.shrunk =
          shrink_schedule(trial.schedule, evaluate, config.shrink_options);
    }
    if (config.trace_repros && trial.report.violated()) {
      // Re-run the minimal violating schedule with tracing on, so the
      // repro ships with its timeline. A sink per worker: sinks are not
      // shareable across concurrent runs.
      const FaultSchedule& minimal = trial.shrunk.has_value()
                                         ? trial.shrunk->schedule
                                         : trial.schedule;
      ExperimentConfig traced_cell = chaos_trial_config(
          config, chain, trial.experiment_seed, minimal);
      sim::TraceSink sink;
      traced_cell.trace = &sink;
      run_experiment(traced_cell);
      trial.repro_trace = trace_to_json(sink);
    }
    trial.wall_ms = trial_timer.elapsed_ms();
    slots[index] = std::move(trial);
    heartbeat.tick();
  });

  ChaosCampaignResult result;
  result.trials = std::move(slots);
  return result;
}

}  // namespace stabl::core

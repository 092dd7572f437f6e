#include "core/scenario.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <set>
#include <sstream>
#include <stdexcept>

#include "core/json.hpp"

namespace stabl::core {
namespace {

/// Bounds of ScenarioSpec::n: the smallest cluster that tolerates one
/// Byzantine node (3t + 1 with t = 1), and the largest the scale benches
/// measure.
constexpr std::int64_t kMinNodes = 4;
constexpr std::int64_t kMaxNodes = 1000;

/// Shortest round-trip formatting (std::to_chars): "0.2" stays "0.2",
/// integral values carry no trailing ".0". This is what keeps dumped
/// specs byte-stable through a parse/serialize cycle.
std::string fmt_double(double value) {
  char buffer[64];
  const auto [end, ec] =
      std::to_chars(buffer, buffer + sizeof(buffer), value);
  if (ec != std::errc{}) return "0";
  return std::string(buffer, end);
}

void append_string(std::string& out, const std::string& value) {
  out += '"';
  out += value;  // harness strings never contain quotes or escapes
  out += '"';
}

bool parse_bool(JsonCursor& cursor) {
  if (cursor.consume('t')) {
    cursor.expect('r');
    cursor.expect('u');
    cursor.expect('e');
    return true;
  }
  cursor.expect('f');
  cursor.expect('a');
  cursor.expect('l');
  cursor.expect('s');
  cursor.expect('e');
  return false;
}

std::int64_t parse_integer(JsonCursor& cursor, const std::string& key) {
  const double value = cursor.parse_number();
  if (value != std::floor(value) || std::abs(value) > 9e15) {
    throw std::invalid_argument("scenario: \"" + key +
                                "\" must be an integer");
  }
  return static_cast<std::int64_t>(value);
}

}  // namespace

std::string validate_scenario(const ScenarioSpec& spec) {
  std::ostringstream error;
  if (spec.chain.empty()) {
    error << "\"chain\" must not be empty";
  } else if (spec.fault.empty()) {
    error << "\"fault\" must not be empty";
  } else if (spec.duration_s < 30) {
    error << "\"duration_s\" must be >= 30 (got " << spec.duration_s << ")";
  } else if (spec.n < kMinNodes || spec.n > kMaxNodes) {
    error << "\"n\" must be >= " << kMinNodes << " and <= " << kMaxNodes
          << " (got " << spec.n << ")";
  } else if (spec.num_seeds < 1) {
    error << "\"num_seeds\" must be >= 1 (got " << spec.num_seeds << ")";
  } else if (spec.jobs < 1) {
    error << "\"jobs\" must be >= 1 (got " << spec.jobs << ")";
  } else if (spec.chaos_trials < 0) {
    error << "\"chaos_trials\" must be >= 0 (got " << spec.chaos_trials
          << ")";
  } else if (spec.fanout < 1) {
    error << "\"fanout\" must be >= 1 (got " << spec.fanout << ")";
  } else if (spec.matching < 0) {
    error << "\"matching\" must be >= 0 (got " << spec.matching << ")";
  } else if (!(spec.vcpus > 0.0)) {
    error << "\"vcpus\" must be > 0 (got " << fmt_double(spec.vcpus) << ")";
  } else if (!(spec.loss_probability > 0.0) || spec.loss_probability > 1.0) {
    error << "\"loss_probability\" must be in (0, 1] (got "
          << fmt_double(spec.loss_probability) << ")";
  } else if (!(spec.throttle_bytes_per_s > 0.0)) {
    error << "\"throttle_bytes_per_s\" must be > 0 (got "
          << fmt_double(spec.throttle_bytes_per_s) << ")";
  } else if (!(spec.gray_delay_s > 0.0)) {
    error << "\"gray_delay_s\" must be > 0 (got "
          << fmt_double(spec.gray_delay_s) << ")";
  } else if (spec.eclipse_victim < 0) {
    error << "\"eclipse_victim\" must be >= 0 (got " << spec.eclipse_victim
          << ")";
  } else if (!(spec.eclipse_delay_s > 0.0)) {
    error << "\"eclipse_delay_s\" must be > 0 (got "
          << fmt_double(spec.eclipse_delay_s) << ")";
  } else if (spec.eclipse_filter < 0.0 || spec.eclipse_filter >= 1.0) {
    error << "\"eclipse_filter\" must be in [0, 1) (got "
          << fmt_double(spec.eclipse_filter) << ")";
  } else if (!(spec.commit_timeout_s > 0.0)) {
    error << "\"commit_timeout_s\" must be > 0 (got "
          << fmt_double(spec.commit_timeout_s) << ")";
  } else if (spec.hedge && !spec.resilient) {
    error << "\"hedge\" needs \"resilient\": true";
  } else if (spec.endpoint_scoring && !spec.resilient) {
    error << "\"endpoint_scoring\" needs \"resilient\": true";
  } else if (!(spec.hedge_percentile > 0.0) || spec.hedge_percentile > 1.0) {
    error << "\"hedge_percentile\" must be in (0, 1] (got "
          << fmt_double(spec.hedge_percentile) << ")";
  } else if (!(spec.hedge_min_delay_s > 0.0)) {
    error << "\"hedge_min_delay_s\" must be > 0 (got "
          << fmt_double(spec.hedge_min_delay_s) << ")";
  } else if (spec.hedge_max_delay_s < spec.hedge_min_delay_s) {
    error << "\"hedge_max_delay_s\" must be >= \"hedge_min_delay_s\" (got "
          << fmt_double(spec.hedge_max_delay_s) << " < "
          << fmt_double(spec.hedge_min_delay_s) << ")";
  } else if (std::find(workload_shape_names().begin(),
                       workload_shape_names().end(),
                       spec.workload) == workload_shape_names().end()) {
    error << "\"workload\" must be constant, bursty, ramp, diurnal or "
             "flash (got \""
          << spec.workload << "\")";
  } else if (spec.shrink && spec.chaos_trials == 0) {
    error << "\"shrink\" needs \"chaos_trials\" > 0";
  } else if (spec.chaos_adversarial && spec.chaos_trials == 0) {
    error << "\"chaos_adversarial\" needs \"chaos_trials\" > 0";
  }
  if (error.str().empty() && spec.has_traffic) {
    return validate_traffic(spec.traffic);
  }
  return error.str();
}

std::string scenario_to_json(const ScenarioSpec& spec) {
  std::string out = "{\n";
  const auto field = [&out](const char* key, bool last = false) {
    out += "  \"";
    out += key;
    out += "\": ";
    if (!last) out.reserve(out.size() + 16);
  };
  const auto close = [&out](bool last = false) {
    if (!last) out += ',';
    out += '\n';
  };

  field("name");
  append_string(out, spec.name);
  close();
  field("chain");
  append_string(out, spec.chain);
  close();
  field("chain_params");
  out += '{';
  bool first = true;
  for (const auto& [key, value] : spec.chain_params) {
    if (!first) out += ", ";
    first = false;
    append_string(out, key);
    out += ": ";
    out += fmt_double(value);
  }
  out += '}';
  close();
  if (spec.n != ScenarioSpec{}.n) {
    // Emitted only off the default, like "traffic" below, so dumps of
    // specs that predate the field keep their exact bytes.
    field("n");
    out += std::to_string(spec.n);
    close();
  }
  field("fault");
  append_string(out, spec.fault);
  close();
  field("fault_targets");
  out += '[';
  for (std::size_t i = 0; i < spec.fault_targets.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(spec.fault_targets[i]);
  }
  out += ']';
  close();
  field("extra_faults");
  out += '[';
  for (std::size_t i = 0; i < spec.extra_faults.size(); ++i) {
    if (i > 0) out += ", ";
    append_string(out, spec.extra_faults[i]);
  }
  out += ']';
  close();
  field("loss_probability");
  out += fmt_double(spec.loss_probability);
  close();
  field("throttle_bytes_per_s");
  out += fmt_double(spec.throttle_bytes_per_s);
  close();
  field("gray_delay_s");
  out += fmt_double(spec.gray_delay_s);
  close();
  field("eclipse_victim");
  out += std::to_string(spec.eclipse_victim);
  close();
  field("eclipse_delay_s");
  out += fmt_double(spec.eclipse_delay_s);
  close();
  field("eclipse_filter");
  out += fmt_double(spec.eclipse_filter);
  close();
  field("duration_s");
  out += std::to_string(spec.duration_s);
  close();
  field("seed");
  out += std::to_string(spec.seed);
  close();
  field("num_seeds");
  out += std::to_string(spec.num_seeds);
  close();
  field("jobs");
  out += std::to_string(spec.jobs);
  close();
  field("workload");
  append_string(out, spec.workload);
  close();
  if (spec.has_traffic) {
    // Emitted only when present, so dumps of traffic-free specs keep the
    // exact bytes they had before the traffic layer existed.
    field("traffic");
    out += "{\n";
    const auto traffic_field = [&out](const char* key) {
      out += "    \"";
      out += key;
      out += "\": ";
    };
    const auto traffic_close = [&out](bool last = false) {
      if (!last) out += ',';
      out += '\n';
    };
    traffic_field("preset");
    append_string(out, spec.traffic.preset);
    traffic_close();
    traffic_field("shape");
    append_string(out, spec.traffic.shape);
    traffic_close();
    traffic_field("accounts_per_client");
    out += std::to_string(spec.traffic.accounts_per_client);
    traffic_close();
    traffic_field("zipf_exponent");
    out += fmt_double(spec.traffic.zipf_exponent);
    traffic_close();
    traffic_field("hot_fraction");
    out += fmt_double(spec.traffic.hot_fraction);
    traffic_close();
    traffic_field("regions");
    out += std::to_string(spec.traffic.regions);
    traffic_close();
    traffic_field("region_spread_ms");
    out += fmt_double(spec.traffic.region_spread_ms);
    traffic_close();
    traffic_field("diurnal_amplitude");
    out += fmt_double(spec.traffic.diurnal_amplitude);
    traffic_close();
    traffic_field("diurnal_period_s");
    out += fmt_double(spec.traffic.diurnal_period_s);
    traffic_close();
    traffic_field("flash_at_s");
    out += fmt_double(spec.traffic.flash_at_s);
    traffic_close();
    traffic_field("flash_duration_s");
    out += fmt_double(spec.traffic.flash_duration_s);
    traffic_close();
    traffic_field("flash_factor");
    out += fmt_double(spec.traffic.flash_factor);
    traffic_close();
    traffic_field("fault_phase");
    append_string(out, spec.traffic.fault_phase);
    traffic_close(/*last=*/true);
    out += "  }";
    close();
  }
  field("fanout");
  out += std::to_string(spec.fanout);
  close();
  field("matching");
  out += std::to_string(spec.matching);
  close();
  field("vcpus");
  out += fmt_double(spec.vcpus);
  close();
  field("resilient");
  out += spec.resilient ? "true" : "false";
  close();
  field("commit_timeout_s");
  out += fmt_double(spec.commit_timeout_s);
  close();
  field("hedge");
  out += spec.hedge ? "true" : "false";
  close();
  field("hedge_percentile");
  out += fmt_double(spec.hedge_percentile);
  close();
  field("hedge_min_delay_s");
  out += fmt_double(spec.hedge_min_delay_s);
  close();
  field("hedge_max_delay_s");
  out += fmt_double(spec.hedge_max_delay_s);
  close();
  field("endpoint_scoring");
  out += spec.endpoint_scoring ? "true" : "false";
  close();
  field("chaos_trials");
  out += std::to_string(spec.chaos_trials);
  close();
  field("shrink");
  out += spec.shrink ? "true" : "false";
  close();
  field("chaos_adversarial");
  out += spec.chaos_adversarial ? "true" : "false";
  close();
  field("trace");
  append_string(out, spec.trace);
  close();
  field("metrics", /*last=*/true);
  append_string(out, spec.metrics);
  close(/*last=*/true);
  out += "}";
  return out;
}

ScenarioSpec scenario_from_json(const std::string& json) {
  ScenarioSpec spec;
  JsonCursor cursor(json);
  std::set<std::string> seen;
  cursor.expect('{');
  bool first = true;
  while (!cursor.consume('}')) {
    if (!first) cursor.expect(',');
    first = false;
    const std::string key = cursor.parse_string();
    cursor.expect(':');
    if (!seen.insert(key).second) {
      throw std::invalid_argument("scenario: duplicate key \"" + key + "\"");
    }
    if (key == "name") {
      spec.name = cursor.parse_string();
    } else if (key == "chain") {
      spec.chain = cursor.parse_string();
    } else if (key == "chain_params") {
      cursor.expect('{');
      bool first_param = true;
      while (!cursor.consume('}')) {
        if (!first_param) cursor.expect(',');
        first_param = false;
        const std::string param = cursor.parse_string();
        cursor.expect(':');
        if (!spec.chain_params.emplace(param, cursor.parse_number())
                 .second) {
          throw std::invalid_argument(
              "scenario: duplicate chain parameter \"" + param + "\"");
        }
      }
    } else if (key == "n") {
      spec.n = parse_integer(cursor, key);
    } else if (key == "fault") {
      spec.fault = cursor.parse_string();
    } else if (key == "fault_targets") {
      cursor.expect('[');
      if (!cursor.consume(']')) {
        do {
          const std::int64_t id = parse_integer(cursor, key);
          if (id < 0) {
            throw std::invalid_argument(
                "scenario: \"fault_targets\" ids must be >= 0");
          }
          spec.fault_targets.push_back(static_cast<net::NodeId>(id));
        } while (cursor.consume(','));
        cursor.expect(']');
      }
    } else if (key == "extra_faults") {
      cursor.expect('[');
      if (!cursor.consume(']')) {
        do {
          spec.extra_faults.push_back(cursor.parse_string());
        } while (cursor.consume(','));
        cursor.expect(']');
      }
    } else if (key == "loss_probability") {
      spec.loss_probability = cursor.parse_number();
    } else if (key == "throttle_bytes_per_s") {
      spec.throttle_bytes_per_s = cursor.parse_number();
    } else if (key == "gray_delay_s") {
      spec.gray_delay_s = cursor.parse_number();
    } else if (key == "eclipse_victim") {
      spec.eclipse_victim = parse_integer(cursor, key);
    } else if (key == "eclipse_delay_s") {
      spec.eclipse_delay_s = cursor.parse_number();
    } else if (key == "eclipse_filter") {
      spec.eclipse_filter = cursor.parse_number();
    } else if (key == "duration_s") {
      spec.duration_s = parse_integer(cursor, key);
    } else if (key == "seed") {
      const std::int64_t seed = parse_integer(cursor, key);
      if (seed < 0) {
        throw std::invalid_argument("scenario: \"seed\" must be >= 0");
      }
      spec.seed = static_cast<std::uint64_t>(seed);
    } else if (key == "num_seeds") {
      spec.num_seeds = parse_integer(cursor, key);
    } else if (key == "jobs") {
      spec.jobs = parse_integer(cursor, key);
    } else if (key == "workload") {
      spec.workload = cursor.parse_string();
    } else if (key == "traffic") {
      spec.has_traffic = true;
      cursor.expect('{');
      std::set<std::string> traffic_seen;
      bool first_traffic = true;
      while (!cursor.consume('}')) {
        if (!first_traffic) cursor.expect(',');
        first_traffic = false;
        const std::string traffic_key = cursor.parse_string();
        cursor.expect(':');
        if (!traffic_seen.insert(traffic_key).second) {
          throw std::invalid_argument(
              "scenario: duplicate key \"traffic." + traffic_key + "\"");
        }
        if (traffic_key == "preset") {
          spec.traffic.preset = cursor.parse_string();
        } else if (traffic_key == "shape") {
          spec.traffic.shape = cursor.parse_string();
        } else if (traffic_key == "accounts_per_client") {
          spec.traffic.accounts_per_client =
              parse_integer(cursor, traffic_key);
        } else if (traffic_key == "zipf_exponent") {
          spec.traffic.zipf_exponent = cursor.parse_number();
        } else if (traffic_key == "hot_fraction") {
          spec.traffic.hot_fraction = cursor.parse_number();
        } else if (traffic_key == "regions") {
          spec.traffic.regions = parse_integer(cursor, traffic_key);
        } else if (traffic_key == "region_spread_ms") {
          spec.traffic.region_spread_ms = cursor.parse_number();
        } else if (traffic_key == "diurnal_amplitude") {
          spec.traffic.diurnal_amplitude = cursor.parse_number();
        } else if (traffic_key == "diurnal_period_s") {
          spec.traffic.diurnal_period_s = cursor.parse_number();
        } else if (traffic_key == "flash_at_s") {
          spec.traffic.flash_at_s = cursor.parse_number();
        } else if (traffic_key == "flash_duration_s") {
          spec.traffic.flash_duration_s = cursor.parse_number();
        } else if (traffic_key == "flash_factor") {
          spec.traffic.flash_factor = cursor.parse_number();
        } else if (traffic_key == "fault_phase") {
          spec.traffic.fault_phase = cursor.parse_string();
        } else {
          throw std::invalid_argument(
              "scenario: unknown key \"traffic." + traffic_key +
              "\" (scenarios are strict; see core/traffic.hpp for the "
              "schema)");
        }
      }
    } else if (key == "fanout") {
      spec.fanout = parse_integer(cursor, key);
    } else if (key == "matching") {
      spec.matching = parse_integer(cursor, key);
    } else if (key == "vcpus") {
      spec.vcpus = cursor.parse_number();
    } else if (key == "resilient") {
      spec.resilient = parse_bool(cursor);
    } else if (key == "commit_timeout_s") {
      spec.commit_timeout_s = cursor.parse_number();
    } else if (key == "hedge") {
      spec.hedge = parse_bool(cursor);
    } else if (key == "hedge_percentile") {
      spec.hedge_percentile = cursor.parse_number();
    } else if (key == "hedge_min_delay_s") {
      spec.hedge_min_delay_s = cursor.parse_number();
    } else if (key == "hedge_max_delay_s") {
      spec.hedge_max_delay_s = cursor.parse_number();
    } else if (key == "endpoint_scoring") {
      spec.endpoint_scoring = parse_bool(cursor);
    } else if (key == "chaos_trials") {
      spec.chaos_trials = parse_integer(cursor, key);
    } else if (key == "shrink") {
      spec.shrink = parse_bool(cursor);
    } else if (key == "chaos_adversarial") {
      spec.chaos_adversarial = parse_bool(cursor);
    } else if (key == "trace") {
      spec.trace = cursor.parse_string();
    } else if (key == "metrics") {
      spec.metrics = cursor.parse_string();
    } else {
      throw std::invalid_argument(
          "scenario: unknown key \"" + key +
          "\" (scenarios are strict; see core/scenario.hpp for the "
          "schema)");
    }
  }
  cursor.finish();
  const std::string error = validate_scenario(spec);
  if (!error.empty()) throw std::invalid_argument("scenario: " + error);
  return spec;
}

ResolvedScenario resolve_scenario(const ScenarioSpec& spec) {
  const std::string error = validate_scenario(spec);
  if (!error.empty()) throw std::invalid_argument("scenario: " + error);

  ResolvedScenario resolved;
  ExperimentConfig& config = resolved.config;
  config.chain = parse_chain_name(spec.chain);
  config.n = static_cast<std::size_t>(spec.n);
  config.chain_params = spec.chain_params;
  // Reject unknown parameter keys now, with the resolving chain named,
  // rather than deep inside the first run.
  (void)chain::merge_params(chain_traits(config.chain), spec.chain_params);
  config.fault = fault_from_name(spec.fault);
  config.seed = spec.seed;
  apply_run_window(config, spec.duration_s);
  config.client_fanout = static_cast<int>(spec.fanout);
  config.client_matching = static_cast<std::size_t>(spec.matching);
  config.vcpus = spec.vcpus;
  config.workload.shape = parse_workload_shape(spec.workload);
  if (spec.has_traffic) {
    // The preset fills default knobs first, so the resolved run and the
    // re-dumped spec agree on what actually executed.
    TrafficSpec traffic = spec.traffic;
    apply_traffic_preset(traffic);
    config.traffic = resolve_traffic(traffic);
    if (!traffic.shape.empty()) {
      config.workload.shape = parse_workload_shape(traffic.shape);
    }
    config.workload.diurnal_amplitude = traffic.diurnal_amplitude;
    config.workload.diurnal_period = sim::seconds(traffic.diurnal_period_s);
    config.workload.flash_at = sim::seconds(traffic.flash_at_s);
    config.workload.flash_duration =
        sim::seconds(traffic.flash_duration_s);
    config.workload.flash_factor = traffic.flash_factor;
    if (traffic.fault_phase == "burst") {
      // Land the fault DURING the busy window instead of the historical
      // thirds: centred in the middle half of the flash crowd, or across
      // the diurnal peak (the cosine peaks at half a period).
      if (config.workload.shape == WorkloadShape::kFlash) {
        const sim::Duration width = config.workload.flash_duration;
        config.inject_at = config.workload.flash_at + width / 4;
        config.recover_at = config.workload.flash_at + (3 * width) / 4;
      } else if (config.workload.shape == WorkloadShape::kDiurnal) {
        const sim::Duration period =
            config.workload.diurnal_period.count() > 0
                ? config.workload.diurnal_period
                : config.duration;
        config.inject_at = (3 * period) / 8;
        config.recover_at = (5 * period) / 8;
      }
    }
  }
  // One plan per fault type on the window fixed above, each carrying the
  // spec's knob values: the primary with its explicit targets, then every
  // composed fault with the runner's default targets.
  FaultPlan plan = paper_plan(config);
  plan.targets = spec.fault_targets;
  plan.loss_probability = spec.loss_probability;
  plan.throttle_bytes_per_s = spec.throttle_bytes_per_s;
  plan.gray_latency = sim::seconds(spec.gray_delay_s);
  plan.eclipse_victim = static_cast<net::NodeId>(spec.eclipse_victim);
  plan.eclipse_delay = sim::seconds(spec.eclipse_delay_s);
  plan.eclipse_filter = spec.eclipse_filter;
  config.fault_schedule.add(plan);
  plan.targets.clear();
  for (const std::string& name : spec.extra_faults) {
    plan.type = fault_from_name(name);
    config.fault_schedule.add(plan);
  }
  // Reject what the fault engine would reject at arm time now, before a
  // fault-free twin has simulated the whole run.
  for (const FaultPlan& armed : resolved_schedule(config).plans) {
    const std::string plan_error = validate(armed, config.n);
    if (!plan_error.empty()) {
      throw std::invalid_argument("scenario: invalid fault plan: " +
                                  plan_error);
    }
  }
  config.resilience.enabled = spec.resilient;
  config.resilience.retry.commit_timeout =
      sim::seconds(spec.commit_timeout_s);
  config.resilience.hedge.enabled = spec.hedge;
  config.resilience.hedge.percentile = spec.hedge_percentile;
  config.resilience.hedge.min_delay = sim::seconds(spec.hedge_min_delay_s);
  config.resilience.hedge.max_delay = sim::seconds(spec.hedge_max_delay_s);
  config.resilience.score.enabled = spec.endpoint_scoring;
  // The §7 secure-client geometry: t_B+1 = 4 endpoints, 8-vCPU VMs.
  if (config.fault == FaultType::kSecureClient &&
      config.client_fanout == 1) {
    config.client_fanout = 4;
    config.vcpus = 8.0;
  }
  // Client i submits to entry nodes i, i+1, ... (mod min(clients, n)): a
  // larger fanout repeats an endpoint, so a wait-for-all client never
  // completes, and no answer set can reach a matching degree above the
  // fanout. Either way the run would silently commit nothing.
  const std::size_t entry_nodes = std::min(config.clients, config.n);
  const auto fanout = static_cast<std::size_t>(config.client_fanout);
  if (fanout > entry_nodes) {
    throw std::invalid_argument(
        "scenario: resolved \"fanout\" " + std::to_string(fanout) +
        " exceeds the " + std::to_string(entry_nodes) +
        " entry nodes (min(clients, n))");
  }
  if (config.client_matching > fanout) {
    throw std::invalid_argument(
        "scenario: \"matching\" " + std::to_string(config.client_matching) +
        " exceeds the resolved \"fanout\" " + std::to_string(fanout));
  }

  resolved.num_seeds = static_cast<std::size_t>(spec.num_seeds);
  resolved.jobs = static_cast<unsigned>(spec.jobs);
  resolved.chaos_trials = static_cast<std::size_t>(spec.chaos_trials);
  resolved.shrink = spec.shrink;
  resolved.chaos_adversarial = spec.chaos_adversarial;
  resolved.trace_path = spec.trace;
  resolved.metrics_path = spec.metrics;
  return resolved;
}

}  // namespace stabl::core

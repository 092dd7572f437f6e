// stabl_perfbench — one round of one benchmark workload.
//
//   stabl_perfbench --workload paper_matrix|scale|burst [--seed N]
//                   [--trace] [--smoke]
//   stabl_perfbench --list-metrics
//
// A round runs every experiment of the workload once through the public
// entry points (core::run_campaign for paper_matrix, core::run_experiment
// for the others), checks the outputs, times a separate construction pass
// for the set-up time, and prints one JSON object on stdout. --trace adds a
// second pass that re-runs every experiment through WiredCell with each
// node and client behind a timing endpoint, checks that it reproduced the
// untraced counts exactly, and reports the per-layer metrics. The seed
// reaches the simulator only through the generated experiment configs.
// perfbench/run.py repeats rounds for the requested time and reports
// medians; see perfbench/README.md for the workloads and the metrics.
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/experiment.hpp"
#include "core/oracle.hpp"
#include "core/parallel.hpp"
#include "core/scenario.hpp"
#include "wired_cell.hpp"

namespace stabl::perfbench {
namespace {

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

/// Campaign lanes: the paper matrix fans out like regression_gate does, but
/// never wider than four so the figure is comparable across hosts.
unsigned matrix_jobs() { return std::min(4u, core::default_jobs()); }

struct Workload {
  std::string name;
  /// Every experiment run of the workload, twins included, in the order
  /// the passes visit them.
  std::vector<core::ExperimentConfig> runs;
  /// paper_matrix only: the untraced pass runs this campaign, whose runs
  /// are `runs` (baseline then faulted twin, chain-major, fault-minor).
  std::optional<core::CampaignConfig> campaign;
  /// Whether a liveness-class oracle violation fails a run.
  bool check_liveness = false;
};

void set_window(core::ExperimentConfig& config, long duration_s) {
  config.duration = sim::sec(duration_s);
  config.inject_at = sim::sec(duration_s / 3);
  config.recover_at = sim::sec(2 * duration_s / 3);
}

/// The paper's Fig. 7 matrix (5 chains x crash/transient/partition/
/// secure-client, n = 10, 5 clients x 40 TPS), in a 40 sim-s window with
/// the faults at its thirds: at 400 sim-s one campaign would outlast a
/// whole benchmark run. regression_gate's paper-shape gate needs the 400
/// sim-s geometry, and its coarse short-run gate is not met on every seed
/// at 40 sim-s, so the runs are checked by the invariant oracles instead.
Workload paper_matrix(std::uint64_t seed, bool smoke) {
  Workload workload{"paper_matrix", {}, core::CampaignConfig{}, false};
  core::CampaignConfig& campaign = *workload.campaign;
  campaign.base.seed = seed;
  campaign.base.capture_replicas = true;
  set_window(campaign.base, smoke ? 30 : 40);
  campaign.jobs = matrix_jobs();
  if (smoke) {
    campaign.chains = {core::ChainKind::kRedbelly};
    campaign.faults = {core::FaultType::kCrash,
                       core::FaultType::kSecureClient};
  }
  // run_campaign's per-cell config, then run_sensitivity's twin order.
  for (const core::ChainKind chain : campaign.chains) {
    for (const core::FaultType fault : campaign.faults) {
      core::ExperimentConfig cell = campaign.base;
      cell.chain = chain;
      cell.fault = fault;
      if (fault == core::FaultType::kSecureClient) {
        cell.client_fanout = 4;
        cell.vcpus = 8.0;
      }
      workload.runs.push_back(core::baseline_of(cell));
      workload.runs.push_back(cell);
    }
  }
  return workload;
}

/// One fault-free cell per paper chain at large n, 4 clients x 40 TPS. Each
/// cell runs a little past its chain's first commits. Algorand commits
/// nothing in its first 3 sim-s, and its relay flood (n^2 messages per
/// transaction) keeps it at n = 40.
Workload scale(std::uint64_t seed, bool smoke) {
  struct Cell {
    core::ChainKind chain;
    std::size_t n;
    sim::Duration duration;
  };
  const std::vector<Cell> cells =
      smoke ? std::vector<Cell>{{core::ChainKind::kRedbelly, 32, sim::sec(2)},
                                {core::ChainKind::kAptos, 32, sim::sec(2)}}
            : std::vector<Cell>{
                  {core::ChainKind::kRedbelly, 150, sim::sec(3)},
                  {core::ChainKind::kAptos, 150, sim::sec(3)},
                  {core::ChainKind::kSolana, 150, sim::sec(3)},
                  {core::ChainKind::kAvalanche, 150, sim::sec(5)},
                  {core::ChainKind::kAlgorand, 40, sim::sec(5)}};
  Workload workload{"scale", {}, std::nullopt, false};
  for (const Cell& cell : cells) {
    core::ExperimentConfig config;
    config.chain = cell.chain;
    config.n = cell.n;
    config.clients = 4;
    config.tps_per_client = 40.0;
    config.seed = seed;
    config.duration = cell.duration;
    config.capture_replicas = true;
    workload.runs.push_back(config);
  }
  return workload;
}

/// The exchange_burst traffic preset on every paper chain, fault-free:
/// n = 10, 5 clients averaging 40 TPS, a 6x flash crowd (533 TPS) over the
/// second quarter of the run, so a backlog builds and then drains. Solana's
/// cost grows faster than linearly with the backlog: 160 sim-s is about the
/// shortest run in which its cell is clearly the slowest.
Workload burst(std::uint64_t seed, bool smoke) {
  const long duration_s = smoke ? 40 : 160;
  Workload workload{"burst", {}, std::nullopt, true};
  const std::vector<core::ChainKind> chains =
      smoke ? std::vector<core::ChainKind>{core::ChainKind::kRedbelly}
            : std::vector<core::ChainKind>(std::begin(core::kAllChains),
                                           std::end(core::kAllChains));
  for (const core::ChainKind chain : chains) {
    core::ScenarioSpec spec;
    spec.chain = core::to_string(chain);
    spec.seed = seed;
    spec.duration_s = duration_s;
    spec.has_traffic = true;
    spec.traffic.preset = "exchange_burst";
    spec.traffic.flash_at_s = static_cast<double>(duration_s) / 4.0;
    spec.traffic.flash_duration_s = static_cast<double>(duration_s) / 4.0;
    core::ExperimentConfig config = core::resolve_scenario(spec).config;
    config.capture_replicas = true;
    workload.runs.push_back(config);
  }
  return workload;
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool smoke) {
  if (name == "paper_matrix") return paper_matrix(seed, smoke);
  if (name == "scale") return scale(seed, smoke);
  if (name == "burst") return burst(seed, smoke);
  throw std::invalid_argument("unknown workload \"" + name + "\"");
}

// ---------------------------------------------------------------------------
// The declared per-layer metric set.
// ---------------------------------------------------------------------------

/// Payload kinds each paper chain's nodes receive besides the shared ones.
const std::vector<std::pair<std::string, std::vector<std::string>>>&
chain_kinds() {
  static const std::vector<std::pair<std::string, std::vector<std::string>>>
      kinds{
          {"algorand", {"ProposalPayload", "VotePayload"}},
          {"aptos",
           {"ProposalPayload", "VotePayload", "TimeoutPayload",
            "CommitCertPayload"}},
          {"avalanche",
           {"CandidatePayload", "QueryPayload", "ChitPayload",
            "DecidedPayload", "FetchRequestPayload"}},
          {"redbelly",
           {"ProposalPayload", "EchoPayload", "CommitPayload",
            "StatusPayload"}},
          {"solana", {"ForwardPayload", "BankBlockPayload", "VotePayload"}},
      };
  return kinds;
}

/// Kinds every chain's nodes share: the connection layer's control frames,
/// client submissions, transaction gossip and state sync.
const std::vector<std::string>& shared_kinds() {
  static const std::vector<std::string> kinds{
      "ControlPayload", "SubmitTxPayload", "TxBatchPayload",
      "SyncRequestPayload", "SyncResponsePayload"};
  return kinds;
}

std::vector<std::string> declared_layer_metrics() {
  std::vector<std::string> names{
      "sim.events",         "sim.events_per_committed_tx",
      "sim.pending_events_peak", "sim.events_per_s",
      "sim.residual_s",     "net.msgs_sent",
      "net.msgs_delivered", "net.msgs_dropped",
      "net.rst_sent",       "net.msgs_per_committed_tx",
      "net.bytes_per_committed_tx", "chain.mempool_depth_peak"};
  for (const auto& [chain, own] : chain_kinds()) {
    std::vector<std::string> kinds = own;
    kinds.insert(kinds.end(), shared_kinds().begin(), shared_kinds().end());
    for (const std::string& kind : kinds) {
      names.push_back("chains." + chain + "." + kind + ".msgs");
      names.push_back("chains." + chain + "." + kind + ".handler_s");
    }
    names.push_back("chains." + chain + ".bytes");
    names.push_back("chains." + chain + ".cell_wall_s");
  }
  for (const char* name :
       {"core.client.CommitNotifyPayload.msgs",
        "core.client.CommitNotifyPayload.handler_s",
        "core.client.in_flight_peak", "core.campaign.parallel_efficiency",
        "core.campaign.cell_wall_max_s", "setup.make_cluster_s",
        "setup.start_s"}) {
    names.emplace_back(name);
  }
  return names;
}

// ---------------------------------------------------------------------------
// Passes.
// ---------------------------------------------------------------------------

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double rss_high_water_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct UntracedPass {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;
  /// Aligned with Workload::runs.
  std::vector<core::ExperimentResult> results;
  /// Serial workloads only: wall and CPU seconds of each run, aligned with
  /// Workload::runs.
  std::vector<double> run_wall_s;
  std::vector<double> run_cpu_s;
  /// Untraced wall seconds per chain name.
  std::map<std::string, double> chain_wall_s;
  std::optional<core::CampaignResult> campaign;
};

UntracedPass run_untraced(const Workload& workload) {
  UntracedPass pass;
  const double cpu_start = cpu_seconds();
  const Clock::time_point start = Clock::now();
  if (workload.campaign) {
    pass.campaign = core::run_campaign(*workload.campaign);
  } else {
    for (const core::ExperimentConfig& config : workload.runs) {
      const double run_cpu_start = cpu_seconds();
      const Clock::time_point run_start = Clock::now();
      pass.results.push_back(core::run_experiment(config));
      const double run_wall_s = seconds_since(run_start);
      pass.run_cpu_s.push_back(cpu_seconds() - run_cpu_start);
      pass.run_wall_s.push_back(run_wall_s);
      pass.chain_wall_s[core::to_string(config.chain)] += run_wall_s;
    }
  }
  pass.wall_s = seconds_since(start);
  pass.cpu_s = cpu_seconds() - cpu_start;
  pass.peak_rss_mb = rss_high_water_mb();
  if (pass.campaign) {
    for (const core::ChainKind chain : workload.campaign->chains) {
      for (const core::FaultType fault : workload.campaign->faults) {
        const core::SensitivityRun* run = pass.campaign->get(chain, fault);
        if (run == nullptr) {
          throw std::logic_error("campaign result misses a cell");
        }
        pass.results.push_back(run->baseline);
        pass.results.push_back(run->altered);
        for (const double ms : pass.campaign->cell_wall_ms.at({chain, fault})) {
          pass.chain_wall_s[core::to_string(chain)] += ms / 1000.0;
        }
      }
    }
  }
  return pass;
}

/// Failed runs by index into Workload::runs; emplace() keeps the first
/// reason found for a run.
using Failures = std::map<std::size_t, std::string>;

std::string run_label(const core::ExperimentConfig& config) {
  return core::to_string(config.chain) + "/" + core::to_string(config.fault) +
         " n=" + std::to_string(config.n);
}

/// Correctness of the untraced outputs: every run commits, and the
/// invariant oracles find no safety or harness violation (nor a liveness
/// one where the workload checks liveness).
Failures check_outputs(const Workload& workload, const UntracedPass& pass) {
  Failures failures;
  for (std::size_t i = 0; i < workload.runs.size(); ++i) {
    const core::ExperimentConfig& config = workload.runs[i];
    const core::ExperimentResult& result = pass.results[i];
    if (result.committed == 0) {
      failures.emplace(i, run_label(config) + ": committed nothing");
      continue;
    }
    const core::OracleReport report =
        core::check_invariants(core::make_oracle_context(config), result);
    for (const core::OracleFinding& finding : report.findings) {
      if (finding.verdict != core::OracleVerdict::kViolation) continue;
      if (finding.cls == core::OracleClass::kLiveness &&
          !workload.check_liveness) {
        continue;
      }
      failures.emplace(
          i, run_label(config) + ": " + finding.oracle + ": " + finding.detail);
    }
  }
  return failures;
}

std::uint64_t fnv1a(const std::string& text,
                    std::uint64_t hash = 0xcbf29ce484222325ull) {
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

/// Digest of the deterministic outputs: the campaign CSV, or per-run counts
/// and latencies.
std::uint64_t output_digest(const Workload& workload,
                            const UntracedPass& pass) {
  if (pass.campaign) return fnv1a(pass.campaign->to_csv());
  std::uint64_t hash = fnv1a(workload.name);
  for (std::size_t i = 0; i < workload.runs.size(); ++i) {
    const core::ExperimentResult& r = pass.results[i];
    char buf[512];
    std::snprintf(buf, sizeof(buf), "%s|%s|blocks %llu|%.17g %.17g %.17g|",
                  run_label(workload.runs[i]).c_str(),
                  describe(counts_of(r)).c_str(),
                  static_cast<unsigned long long>(r.blocks),
                  r.mean_latency_s, r.p50_latency_s, r.p99_latency_s);
    hash = fnv1a(buf, hash);
  }
  return hash;
}

struct SetupPass {
  double setup_s = 0.0;
  double make_cluster_s = 0.0;
  double start_s = 0.0;
};

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

/// Builds and starts every run's cluster, without running it, at least
/// kSetupMinReps times and until kSetupFloor of wall time is spent on it
/// (an n = 10 cell builds in tens of microseconds, too short for one
/// reading). Each phase sums the per-run medians.
constexpr int kSetupMinReps = 5;
constexpr int kSetupMaxReps = 200;
constexpr double kSetupFloor = 0.005;

SetupPass run_setup(const Workload& workload) {
  SetupPass pass;
  for (const core::ExperimentConfig& config : workload.runs) {
    std::vector<double> total, make_cluster, start;
    double spent = 0.0;
    while (static_cast<int>(total.size()) < kSetupMinReps ||
           (spent < kSetupFloor &&
            static_cast<int>(total.size()) < kSetupMaxReps)) {
      SetupTimes times;
      { const WiredCell cell(config, &times); }
      total.push_back(times.total_s);
      make_cluster.push_back(times.make_cluster_s);
      start.push_back(times.start_s);
      spent += times.total_s;
    }
    pass.setup_s += median(total);
    pass.make_cluster_s += median(make_cluster);
    pass.start_s += median(start);
  }
  return pass;
}

struct TracedPass {
  double wall_s = 0.0;
  std::map<std::string, double> layers;
  Failures failures;
};

/// Sampling step of the traced run: fine enough to catch a backlog peak,
/// coarse enough that sampling costs nothing next to the events.
constexpr sim::Duration kSampleSlice = sim::ms(100);

TracedPass run_traced(const Workload& workload, const UntracedPass& untraced,
                      const SetupPass& setup) {
  TracedPass pass;
  std::vector<CellProfile> profiles(workload.runs.size());
  const Clock::time_point start = Clock::now();
  core::ThreadPool pool(workload.campaign ? workload.campaign->jobs : 1);
  pool.parallel_for(workload.runs.size(), [&](std::size_t i) {
    WiredCell cell(workload.runs[i], nullptr);
    profiles[i] = cell.run_profiled(kSampleSlice);
  });
  pass.wall_s = seconds_since(start);

  std::map<std::string, double>& m = pass.layers;
  for (const std::string& name : declared_layer_metrics()) m[name] = 0.0;
  std::size_t run = 0;
  const auto add = [&](const std::string& name, double value) {
    const auto it = m.find(name);
    if (it == m.end()) {
      pass.failures.emplace(run, "undeclared layer metric " + name);
      return;
    }
    it->second += value;
  };
  const auto raise = [&](const std::string& name, double value) {
    m.at(name) = std::max(m.at(name), value);
  };

  double committed = 0.0;
  double delivered_bytes = 0.0;
  for (; run < workload.runs.size(); ++run) {
    const core::ExperimentConfig& config = workload.runs[run];
    const CellProfile& p = profiles[run];
    const RunCounts expected = counts_of(untraced.results[run]);
    if (!same_counts(p.counts, expected)) {
      pass.failures.emplace(run, run_label(config) + ": traced run diverged: " +
                                     describe(p.counts) + " vs untraced " +
                                     describe(expected));
    }
    const std::string chain = core::to_string(config.chain);
    double handler_s = 0.0;
    for (const auto& [type, stats] : p.node_kinds) {
      const std::string prefix = "chains." + chain + "." + kind_name(type);
      add(prefix + ".msgs", static_cast<double>(stats.msgs));
      add(prefix + ".handler_s", stats.handler_s);
      add("chains." + chain + ".bytes", static_cast<double>(stats.bytes));
      handler_s += stats.handler_s;
      delivered_bytes += static_cast<double>(stats.bytes);
    }
    for (const auto& [type, stats] : p.client_kinds) {
      const std::string prefix = "core.client." + kind_name(type);
      add(prefix + ".msgs", static_cast<double>(stats.msgs));
      add(prefix + ".handler_s", stats.handler_s);
      handler_s += stats.handler_s;
      delivered_bytes += static_cast<double>(stats.bytes);
    }
    add("sim.residual_s", std::max(0.0, p.run_s - handler_s));
    add("sim.events", static_cast<double>(p.counts.events));
    add("net.msgs_sent", static_cast<double>(p.counts.net.sent));
    add("net.msgs_delivered", static_cast<double>(p.counts.net.delivered));
    add("net.msgs_dropped",
        static_cast<double>(p.counts.net.dropped_partition +
                            p.counts.net.dropped_loss +
                            p.counts.net.dropped_dead));
    add("net.rst_sent", static_cast<double>(p.counts.net.rst_sent));
    raise("sim.pending_events_peak",
          static_cast<double>(p.pending_events_peak));
    raise("chain.mempool_depth_peak",
          static_cast<double>(p.mempool_depth_peak));
    raise("core.client.in_flight_peak", static_cast<double>(p.in_flight_peak));
    committed += static_cast<double>(p.counts.committed);
  }
  if (committed > 0.0) {
    m["sim.events_per_committed_tx"] = m["sim.events"] / committed;
    m["net.msgs_per_committed_tx"] = m["net.msgs_sent"] / committed;
    m["net.bytes_per_committed_tx"] = delivered_bytes / committed;
  }
  m["sim.events_per_s"] = m["sim.events"] / untraced.wall_s;
  for (const auto& [chain, wall_s] : untraced.chain_wall_s) {
    add("chains." + chain + ".cell_wall_s", wall_s);
  }
  if (untraced.campaign) {
    double cell_wall_sum_ms = 0.0;
    double cell_wall_max_ms = 0.0;
    for (const auto& [key, walls] : untraced.campaign->cell_wall_ms) {
      for (const double ms : walls) {
        cell_wall_sum_ms += ms;
        cell_wall_max_ms = std::max(cell_wall_max_ms, ms);
      }
    }
    m["core.campaign.parallel_efficiency"] =
        cell_wall_sum_ms / (static_cast<double>(workload.campaign->jobs) *
                            untraced.campaign->total_wall_ms);
    m["core.campaign.cell_wall_max_s"] = cell_wall_max_ms / 1000.0;
  }
  m["setup.make_cluster_s"] = setup.make_cluster_s;
  m["setup.start_s"] = setup.start_s;
  return pass;
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string json_array(const std::vector<double>& values) {
  std::string out = "[";
  for (const double value : values) {
    out += (out.size() == 1 ? "" : ", ") + json_number(value);
  }
  return out + "]";
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload paper_matrix|scale|burst [--seed N] "
               "[--trace] [--smoke]\n"
               "       %s --list-metrics\n",
               argv0, argv0);
  return 2;
}

int run(int argc, char** argv) {
  std::string workload_name;
  std::uint64_t seed = 42;
  bool trace = false;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--list-metrics") {
      for (const std::string& name : declared_layer_metrics()) {
        std::printf("%s\n", name.c_str());
      }
      return 0;
    } else if (arg == "--workload" && has_value) {
      workload_name = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--trace") {
      trace = true;
    } else if (arg == "--smoke") {
      smoke = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (workload_name.empty()) return usage(argv[0]);

  const Workload workload = make_workload(workload_name, seed, smoke);
  const SetupPass setup = run_setup(workload);
  const UntracedPass untraced = run_untraced(workload);
  Failures failures = check_outputs(workload, untraced);
  std::uint64_t committed = 0;
  for (const core::ExperimentResult& result : untraced.results) {
    committed += result.committed;
  }

  std::optional<TracedPass> traced;
  if (trace) {
    traced = run_traced(workload, untraced, setup);
    failures.insert(traced->failures.begin(), traced->failures.end());
  }

  std::string out = "{\"workload\": " + json_string(workload.name);
  out += ", \"seed\": " + std::to_string(seed);
  out += ", \"attempted\": " + std::to_string(workload.runs.size());
  out += ", \"failed\": " + std::to_string(failures.size());
  out += ", \"failures\": [";
  for (const auto& [index, reason] : failures) {
    out += (out.back() == '[' ? "" : ", ") + json_string(reason);
  }
  char digest[17];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(
                    output_digest(workload, untraced)));
  out += "], \"digest\": \"" + std::string(digest) + "\"";
  out += ", \"committed\": " + std::to_string(committed);
  out += ", \"wall_s\": " + json_number(untraced.wall_s);
  out += ", \"cpu_s\": " + json_number(untraced.cpu_s);
  out += ", \"run_wall_s\": " + json_array(untraced.run_wall_s);
  out += ", \"run_cpu_s\": " + json_array(untraced.run_cpu_s);
  out += ", \"peak_rss_mb\": " + json_number(untraced.peak_rss_mb);
  out += ", \"setup_s\": " + json_number(setup.setup_s);
  if (traced) {
    out += ", \"traced_wall_s\": " + json_number(traced->wall_s);
    out += ", \"layers\": {";
    bool first = true;
    for (const std::string& name : declared_layer_metrics()) {
      out += (first ? "" : ", ") + json_string(name) + ": " +
             json_number(traced->layers.at(name));
      first = false;
    }
    out += "}";
  }
  out += "}\n";
  std::fputs(out.c_str(), stdout);
  return 0;
}

}  // namespace
}  // namespace stabl::perfbench

int main(int argc, char** argv) {
  try {
    return stabl::perfbench::run(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "stabl_perfbench: %s\n", error.what());
    return 1;
  }
}

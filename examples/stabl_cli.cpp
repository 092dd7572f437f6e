// stabl_cli — run a single STABL experiment pair from the command line and
// emit human-readable or machine-readable results. The driver a downstream
// user would wire into a CI pipeline.
//
// Usage:
//   stabl_cli [--chain NAME] [--fault NAME] [--duration S] [--seed N]
//             [--seeds N] [--jobs N]
//             [--fanout K] [--matching K] [--workload SHAPE]
//             [--traffic-preset NAME]
//             [--vcpus N] [--format text|csv|json]
//             [--fault-targets IDS]
//             [--extra-fault NAME]... [--loss-prob P] [--gray-delay S]
//             [--throttle-bps BYTES] [--resilient] [--commit-timeout S]
//             [--chain-param KEY=VALUE]...
//             [--no-throttling] [--no-warmup-epochs] [--max-idle S]
//             [--chaos N] [--shrink]
//             [--hedge] [--hedge-percentile P] [--hedge-min S]
//             [--hedge-max S] [--endpoint-scoring]
//             [--trace FILE] [--metrics FILE]
//   stabl_cli --scenario FILE [--format FMT] [--dump-scenario]
//   stabl_cli --suite DIR [--format text|csv]
//   stabl_cli [flags...] --dump-scenario
//   stabl_cli --mitigation-study [--chain NAME] [--fault NAME] [--chaos N]
//             [--seeds N] [--jobs N] [--format FMT]
//   stabl_cli --attribution [--chain NAME] [--fault NAME] [--jobs N]
//             [--heartbeat] [--trace FILE] [--format FMT]
//   stabl_cli --list-faults | --list-chains | --list-workloads
//
// Every flag combination is internally a core::ScenarioSpec — a
// declarative JSON description of the run. --dump-scenario prints that
// spec instead of running it; --scenario FILE loads a spec (e.g. one of
// examples/scenarios/*.json) and runs it, reproducing the byte-identical
// report of the equivalent flag invocation. --chain-param overrides a
// registered per-chain tunable by name (see `--help` or the chain's
// ChainTraits::default_params); --no-throttling, --no-warmup-epochs and
// --max-idle S are aliases for throttling=0, warmup_epochs=0 and
// max_idle_s=S, and like any --chain-param they exit 2 on a chain that
// does not declare the key. --dump-scenario resolves the spec first, so
// it exits 2 on anything the run itself would reject.
//
// --suite DIR runs every DIR/*.json spec in file-name order, each exactly
// as --scenario would, and prints one row per run (one per seed for a
// seed sweep): csv is "spec,seed," followed by the single-run csv columns,
// so a checked-in expected.csv next to the specs gates the whole suite
// with one cmp. Every spec is resolved before the first runs; an invalid
// or chaos spec exits 2 naming its file.
//
// --seeds N sweeps N consecutive seeds starting at --seed and reports the
// per-seed scores plus mean/min/max/stddev aggregates; --jobs N fans the
// (seed) grid across N threads (output is identical for any jobs value).
//
// --chaos N runs N randomized multi-plan fault schedules against --chain
// and audits each run with the invariant oracles; --shrink delta-debugs
// every violating schedule to a minimal JSON repro. Deterministic in
// (--chain, --seed) for any --jobs value.
//
// --mitigation-study runs every (chain, fault, seed) cell TWICE — once
// as-configured and once with the mitigation stack (nversion_<chain>
// meta-chain + hedged submissions + endpoint scoring) — over the same
// seeds and fault schedules, and reports the paired sensitivity deltas.
// --chain/--fault narrow the grid; --chaos N adds N adversarial chaos
// schedule pairs per chain. Byte-identical output for any --jobs value.
//
// --attribution runs every (chain, fault) cell as a paired twin with a
// transaction-lifecycle recorder attached to both runs and reports WHERE
// the latency degradation comes from: per-stage (submit, admission,
// queueing, consensus, notify) latency deltas that sum to the cell's
// measured commit-latency delta, the loss breakdown by deepest stage
// reached, and the dominant stage. --chain/--fault narrow the grid;
// --trace FILE additionally re-runs the first cell's faulted twin with a
// TraceSink and writes its timeline (the report itself is byte-identical
// with or without it). --heartbeat prints wall-clock progress to stderr.
//
// --trace FILE records the faulted run's sim-time timeline as Chrome /
// Perfetto trace_event JSON (open at ui.perfetto.dev). In chaos mode the
// file name is a base: each violating trial's minimized repro timeline is
// written to FILE.chaos_<chain>_trialK_seedS_planH.trace.json — the
// experiment seed and a hash of the minimized schedule keep sidecars from
// different campaigns distinct. --metrics FILE samples the runtime
// metrics registry each sim-second into CSV (when FILE ends in .csv) or
// JSON. Tracing is observe-only: reports are byte-identical with it on or
// off.
//
// Examples:
//   stabl_cli --chain solana --fault transient
//   stabl_cli --scenario examples/scenarios/fig3a_redbelly.json
//   stabl_cli --chain redbelly --fault partition --max-idle 30 --format json
//   stabl_cli --chain avalanche --chain-param cpu_target=0.8 --fault churn
//   stabl_cli --chain aptos --chaos 10 --shrink --duration 120 --jobs 4
//   # Fault engine v2: packet loss composed on top of the partition, with
//   # resilient (timeout + failover + backoff) clients:
//   stabl_cli --chain redbelly --fault partition --extra-fault loss
//             --loss-prob 0.3 --resilient          (one line in the shell)
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "cli_common.hpp"
#include "core/attribution.hpp"
#include "core/campaign.hpp"
#include "core/chaos.hpp"
#include "core/experiment.hpp"
#include "core/metrics.hpp"
#include "core/report.hpp"
#include "core/scenario.hpp"
#include "core/serialize.hpp"
#include "core/trace.hpp"
#include "core/traffic.hpp"
#include "sim/trace.hpp"

namespace {

using namespace stabl;

void print_usage(std::FILE* out, const char* argv0) {
  std::fprintf(
      out,
      "usage: %s [options]\n"
      "       %s --scenario FILE [--format FMT] [--dump-scenario]\n"
      "       %s --suite DIR [--format text|csv]\n"
      "       %s --mitigation-study [--chain NAME] [--fault NAME]\n"
      "                             [--chaos N] [--seeds N] [--jobs N]\n"
      "       %s --attribution [--chain NAME] [--fault NAME] [--jobs N]\n"
      "                        [--heartbeat] [--trace FILE]\n"
      "       %s --list-faults | --list-chains | --list-workloads\n"
      "\n"
      "Run one STABL experiment pair (baseline vs faulted) and report the\n"
      "sensitivity score; sweep seeds; or run a randomized chaos campaign.\n"
      "\n"
      "scenarios:\n"
      "  --scenario FILE     load a declarative scenario (JSON; see\n"
      "                      examples/scenarios/) instead of experiment\n"
      "                      flags; reproduces the byte-identical report\n"
      "                      of the equivalent flag invocation\n"
      "  --dump-scenario     print the scenario JSON this invocation\n"
      "                      resolves to and exit (check it in, replay it\n"
      "                      with --scenario)\n"
      "  --suite DIR         run every DIR/*.json scenario in file-name\n"
      "                      order and print one row per run (per seed\n"
      "                      for a sweep); csv output is what a checked-in\n"
      "                      DIR/expected.csv holds\n"
      "\n"
      "experiment selection:\n"
      "  --chain NAME        registered chain, case-insensitive\n"
      "                      (%s; default redbelly)\n"
      "  --fault NAME        none|crash|transient|partition|secure-client|\n"
      "                      delay|churn|loss|throttle|gray|equivocate|\n"
      "                      withhold|eclipse (default none; see\n"
      "                      --list-faults for one-line descriptions)\n"
      "  --duration S        simulated seconds, >= 30 (default 400)\n"
      "  --seed N            root RNG seed (default 42)\n"
      "  --fault-targets IDS comma-separated node ids to fault, e.g. 0,1\n"
      "  --extra-fault NAME  compose another fault plan on the primary\n"
      "                      window (repeatable)\n"
      "\n"
      "sweeps and parallelism:\n"
      "  --seeds N           sweep N consecutive seeds starting at --seed\n"
      "                      and report per-seed scores plus aggregates\n"
      "  --jobs N            worker threads for the seed grid or chaos\n"
      "                      trials; output is identical for any value\n"
      "\n"
      "chaos mode:\n"
      "  --chaos N           run N randomized multi-plan fault schedules\n"
      "                      against --chain, audited by the invariant\n"
      "                      oracles; exit 1 when any oracle fires\n"
      "  --shrink            delta-debug every violating schedule to a\n"
      "                      minimal replayable JSON repro\n"
      "  --chaos-adversarial sample the adversarial plan space too\n"
      "                      (equivocate, withhold, eclipse schedules)\n"
      "\n"
      "mitigation study:\n"
      "  --mitigation-study  run every (chain, fault, seed) cell paired —\n"
      "                      unmitigated vs the mitigation stack (nversion\n"
      "                      meta-chain + hedging + endpoint scoring) over\n"
      "                      the same seeds and schedules — and report the\n"
      "                      sensitivity deltas; --chain/--fault narrow the\n"
      "                      grid, --chaos N adds N adversarial schedule\n"
      "                      pairs per chain\n"
      "\n"
      "sensitivity attribution:\n"
      "  --attribution       run every (chain, fault) cell paired with a\n"
      "                      transaction-lifecycle recorder on both twins\n"
      "                      and report per-stage latency deltas (submit,\n"
      "                      admission, queueing, consensus, notify), loss\n"
      "                      by deepest stage reached, and the dominant\n"
      "                      stage; --chain/--fault narrow the grid\n"
      "  --heartbeat         wall-clock campaign progress (done/total runs,\n"
      "                      runs/s, ETA) on stderr; never part of the\n"
      "                      deterministic report output\n"
      "\n"
      "observability:\n"
      "  --trace FILE        write the faulted run's sim-time timeline as\n"
      "                      Perfetto trace_event JSON (ui.perfetto.dev);\n"
      "                      in chaos mode, write each violating trial's\n"
      "                      minimized repro timeline to\n"
      "                      FILE.chaos_<chain>_trialK_seedS_planH.trace\n"
      "                      .json (seed + plan hash keep repros distinct)\n"
      "  --metrics FILE      sample runtime metrics (mempool depth,\n"
      "                      in-flight msgs, breaker state, ...) each sim\n"
      "                      second; CSV when FILE ends in .csv, else JSON\n"
      "\n"
      "workload and client knobs:\n"
      "  --fanout K          endpoints each transaction is sent to\n"
      "  --matching K        client request-matching degree\n"
      "  --workload SHAPE    arrival shape (default constant; see\n"
      "                      --list-workloads for the full set)\n"
      "  --traffic-preset N  named production traffic model — population,\n"
      "                      contention, regions and shape in one knob\n"
      "                      (exchange_burst|nft_mint|dex_sustained; see\n"
      "                      --list-workloads); equivalent to a scenario\n"
      "                      file with {\"traffic\": {\"preset\": N}}\n"
      "  --vcpus N           per-node vCPUs (default 4)\n"
      "  --resilient         timeout + failover + backoff clients\n"
      "  --commit-timeout S  resilient-client commit timeout, seconds\n"
      "  --hedge             hedged submissions: arm a second endpoint\n"
      "                      after the observed latency percentile instead\n"
      "                      of waiting out the commit timeout (needs\n"
      "                      --resilient)\n"
      "  --hedge-percentile P  hedge-delay latency percentile, (0, 1]\n"
      "                      (default 0.95)\n"
      "  --hedge-min S       hedge-delay clamp floor, seconds (default .25)\n"
      "  --hedge-max S       hedge-delay clamp ceiling, seconds (default 8)\n"
      "  --endpoint-scoring  EWMA latency/failure scoring steers failover\n"
      "                      and hedge endpoint choice (needs --resilient)\n"
      "\n"
      "fault knobs:\n"
      "  --loss-prob P       packet-loss probability for loss plans\n"
      "  --gray-delay S      gray-failure added latency, seconds\n"
      "  --throttle-bps B    throttle bandwidth, bytes per second\n"
      "  --eclipse-victim N  node whose view eclipse attackers intercept\n"
      "  --eclipse-delay S   eclipse interception delay, seconds\n"
      "  --eclipse-filter P  eclipse per-packet drop probability, [0, 1)\n"
      "\n"
      "chain tuning:\n"
      "  --chain-param K=V   override a registered chain parameter by\n"
      "                      name (repeatable; unknown keys are errors)\n"
      "  --no-throttling     alias for --chain-param throttling=0\n"
      "                      (Avalanche message throttling off)\n"
      "  --no-warmup-epochs  alias for --chain-param warmup_epochs=0\n"
      "                      (Solana runs full-length epochs only)\n"
      "  --max-idle S        alias for --chain-param max_idle_s=S\n"
      "                      (Redbelly MaxIdleTime, seconds)\n"
      "\n"
      "output:\n"
      "  --format FMT        text|csv|json (default text)\n"
      "  --list-faults       list every fault type with a one-line\n"
      "                      description and exit 0\n"
      "  --list-chains       list every registered chain with its tier,\n"
      "                      description and (for meta-chains) the base\n"
      "                      chain it wraps, and exit 0\n"
      "  --list-workloads    list every arrival shape and traffic preset\n"
      "                      with a one-line description and exit 0\n"
      "  --help              print this help and exit 0\n",
      argv0, argv0, argv0, argv0, argv0, argv0,
      core::chain_registry().names_csv().c_str());
}

// --list-faults: every FaultType in enum order with its one-line
// description. Registry-free, so listing works even for a misconfigured
// build.
void print_fault_list() {
  for (const core::FaultType type : core::kAllFaultTypes) {
    std::printf("%-14s %s\n", core::to_string(type).c_str(),
                core::fault_description(type).c_str());
  }
}

// --list-chains: every registered chain in registry (tier, name) order.
// Linked extension plugins (refbft, the nversion_* meta-chains) show up
// here automatically; meta-chains carry a "[wraps <base>]" marker.
void print_chain_list() {
  const chain::Registry& registry = core::chain_registry();
  for (const chain::ChainId id : registry.ids()) {
    const chain::ChainTraits& traits = core::chain_traits(core::chain_kind(id));
    const std::string wraps =
        traits.meta_of.empty() ? "" : "  [wraps " + traits.meta_of + "]";
    std::printf("%-18s tier %d  %s%s\n", traits.name.c_str(), traits.tier,
                traits.description.c_str(), wraps.c_str());
  }
}

// --list-workloads: every arrival shape, then every named traffic preset,
// each with a one-line description. Same registry the scenario parser and
// --workload/--traffic-preset validation cite in their error listings.
void print_workload_list() {
  std::printf("arrival shapes (--workload, traffic.shape):\n");
  for (const std::string& name : core::workload_shape_names()) {
    std::printf("  %-14s %s\n", name.c_str(),
                core::workload_shape_description(name).c_str());
  }
  std::printf("traffic presets (--traffic-preset, traffic.preset):\n");
  for (const std::string& name : core::traffic_preset_names()) {
    std::printf("  %-14s %s\n", name.c_str(),
                core::traffic_preset_description(name).c_str());
  }
}

[[noreturn]] void fail_usage(const char* argv0, const std::string& message) {
  cli::fail(argv0, message, cli::help_hint(argv0));
}

// A scenario file, parsed; exits 2 naming the file when it cannot be read
// or is not a valid spec.
core::ScenarioSpec load_spec(const char* argv0, const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    std::fprintf(stderr, "%s: cannot read %s\n", argv0, path.c_str());
    std::exit(2);
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  try {
    return core::scenario_from_json(buffer.str());
  } catch (const std::invalid_argument& error) {
    fail_usage(argv0, path + ": " + error.what());
  }
}

core::ResolvedScenario resolve(const char* argv0, const std::string& source,
                               const core::ScenarioSpec& spec) {
  try {
    return core::resolve_scenario(spec);
  } catch (const std::invalid_argument& error) {
    fail_usage(argv0, source + error.what());
  }
}

// What run_cell ran: every seed's pair in result.seed_runs, in seed order.
struct CellRun {
  core::CampaignResult result;
  bool campaign = false;
  std::size_t trace_events = 0;
  std::size_t metrics_samples = 0;
};

// The one way --scenario and --suite run a resolved, non-chaos scenario: a
// one-cell campaign when it sweeps seeds or asks for workers (its output
// is identical for any jobs value), else one sensitivity pair with the
// spec's trace sink and metrics registry attached and their files written.
// `source` prefixes error messages ("" or "FILE: "); a config the run
// rejects exits 2.
CellRun run_cell(const char* argv0, const std::string& source,
                 const core::ResolvedScenario& resolved, bool heartbeat) {
  const core::ExperimentConfig& config = resolved.config;
  const std::string& trace_path = resolved.trace_path;
  const std::string& metrics_path = resolved.metrics_path;
  CellRun cell;
  cell.campaign = resolved.num_seeds > 1 || resolved.jobs > 1;
  if (cell.campaign && (!trace_path.empty() || !metrics_path.empty())) {
    fail_usage(argv0,
               source +
                   "--trace/--metrics apply to single runs; rerun the seed "
                   "of interest without --seeds/--jobs");
  }
  try {
    if (cell.campaign) {
      core::CampaignConfig campaign;
      campaign.chains = {config.chain};
      campaign.faults = {config.fault};
      campaign.base = config;
      campaign.num_seeds = resolved.num_seeds;
      campaign.jobs = resolved.jobs;
      campaign.heartbeat = heartbeat;
      cell.result = core::run_campaign(campaign);
      return cell;
    }
    sim::TraceSink trace_sink;
    core::MetricsRegistry metrics;
    core::ExperimentConfig observed = config;
    if (!trace_path.empty()) observed.trace = &trace_sink;
    if (!metrics_path.empty()) observed.metrics = &metrics;
    const core::SensitivityRun run = core::run_sensitivity(observed);
    if (!trace_path.empty()) {
      cli::write_file_or_die(argv0, trace_path,
                             core::trace_to_json(trace_sink));
    }
    if (!metrics_path.empty()) {
      cli::write_file_or_die(argv0, metrics_path,
                             cli::ends_with(metrics_path, ".csv")
                                 ? metrics.to_csv()
                                 : metrics.to_json());
    }
    cell.trace_events = trace_sink.size();
    cell.metrics_samples = metrics.sample_times().size();
    const core::CampaignResult::CellKey key{config.chain, config.fault};
    cell.result.seeds = {config.seed};
    cell.result.seed_runs[key] = {run};
    cell.result.runs.emplace(key, run);
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "%s: %scannot run: %s\n", argv0, source.c_str(),
                 error.what());
    std::exit(2);
  }
  return cell;
}

// --suite DIR: every DIR/*.json spec, in file-name order, through run_cell.
int run_suite(const char* argv0, const std::string& dir,
              const std::string& format, bool heartbeat) {
  std::vector<std::filesystem::path> files;
  std::error_code error;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir, error)) {
    if (entry.is_regular_file() && entry.path().extension() == ".json") {
      files.push_back(entry.path());
    }
  }
  if (error) fail_usage(argv0, "--suite: cannot read " + dir);
  if (files.empty()) fail_usage(argv0, "--suite: no *.json specs in " + dir);
  std::sort(files.begin(), files.end());
  // Resolve every spec before the first run, so a bad file fails in
  // seconds, not after the specs before it have simulated.
  std::vector<core::ResolvedScenario> cells;
  for (const std::filesystem::path& file : files) {
    const std::string path = file.string();
    cells.push_back(resolve(argv0, path + ": ", load_spec(argv0, path)));
    if (cells.back().chaos_trials > 0) {
      fail_usage(argv0, path +
                            ": chaos campaigns do not run in a suite; use "
                            "--scenario");
    }
  }

  if (format == "csv") {
    std::printf("spec,seed,%s\n", core::summary_csv_header().c_str());
  }
  core::Table table({"spec", "seed", "chain", "fault", "score", "live",
                     "recovery(s)", "mean latency", "committed"});
  for (std::size_t i = 0; i < files.size(); ++i) {
    const std::string name = files[i].filename().string();
    const core::ExperimentConfig& config = cells[i].config;
    const CellRun cell =
        run_cell(argv0, files[i].string() + ": ", cells[i], heartbeat);
    const std::vector<core::SensitivityRun>& runs =
        cell.result.seed_runs.at({config.chain, config.fault});
    for (std::size_t k = 0; k < runs.size(); ++k) {
      const core::SensitivityRun& run = runs[k];
      const std::string seed = std::to_string(cell.result.seeds[k]);
      if (format == "csv") {
        std::printf("%s,%s,%s\n", name.c_str(), seed.c_str(),
                    core::summary_csv_row(config.chain, config.fault, run)
                        .c_str());
        continue;
      }
      table.add_row({name, seed, core::to_string(config.chain),
                     core::to_string(config.fault),
                     core::format_score(run.score),
                     run.altered.live_at_end ? "yes" : "NO",
                     run.altered.recovery_seconds >= 0.0
                         ? core::Table::num(run.altered.recovery_seconds, 1)
                         : "-",
                     core::Table::num(run.altered.mean_latency_s, 3) + "s",
                     std::to_string(run.altered.committed) + "/" +
                         std::to_string(run.altered.submitted)});
    }
    std::fflush(stdout);
  }
  if (format != "csv") std::printf("%s", table.to_string().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  core::ScenarioSpec spec;
  std::string format = "text";
  std::string scenario_path;
  std::string suite_dir;
  bool dump_scenario = false;
  bool mitigation_study = false;
  bool attribution = false;
  bool heartbeat = false;
  // --mitigation-study defaults to the full (5 chains x 2 faults) grid;
  // explicit --chain/--fault narrow it to the named cell row/column.
  bool chain_set = false;
  bool fault_set = false;
  // Whether any flag configured the experiment itself (everything except
  // --format / --dump-scenario / --help); such flags cannot be combined
  // with --scenario, which is the complete description of a run.
  bool experiment_flags = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) fail_usage(argv[0], arg + " needs a value");
      return argv[++i];
    };
    auto experiment_flag = [&experiment_flags] { experiment_flags = true; };
    if (arg == "--help" || arg == "-h") {
      print_usage(stdout, argv[0]);
      return 0;
    } else if (arg == "--list-faults") {
      print_fault_list();
      return 0;
    } else if (arg == "--list-chains") {
      print_chain_list();
      return 0;
    } else if (arg == "--list-workloads") {
      print_workload_list();
      return 0;
    } else if (arg == "--scenario") {
      scenario_path = value();
      if (scenario_path.empty()) {
        fail_usage(argv[0], "--scenario needs a file name");
      }
    } else if (arg == "--suite") {
      suite_dir = value();
      if (suite_dir.empty()) {
        fail_usage(argv[0], "--suite needs a directory");
      }
    } else if (arg == "--dump-scenario") {
      dump_scenario = true;
    } else if (arg == "--chain") {
      experiment_flag();
      chain_set = true;
      spec.chain = core::to_string(
          cli::parse_chain_or_exit(value(), argv[0], cli::help_hint(argv[0])));
    } else if (arg == "--fault") {
      experiment_flag();
      fault_set = true;
      spec.fault = core::to_string(
          cli::parse_fault_or_exit(value(), argv[0], cli::help_hint(argv[0])));
    } else if (arg == "--duration") {
      experiment_flag();
      spec.duration_s = cli::parse_integer_or_exit(value(), argv[0], arg, 30);
    } else if (arg == "--seed") {
      experiment_flag();
      spec.seed = static_cast<std::uint64_t>(
          cli::parse_integer_or_exit(value(), argv[0], arg, 0));
    } else if (arg == "--seeds") {
      experiment_flag();
      spec.num_seeds = cli::parse_integer_or_exit(value(), argv[0], arg, 1);
    } else if (arg == "--jobs") {
      experiment_flag();
      spec.jobs = cli::parse_integer_or_exit(
          value(), argv[0], arg, 1, std::numeric_limits<unsigned>::max());
    } else if (arg == "--fanout") {
      experiment_flag();
      spec.fanout = cli::parse_integer_or_exit(value(), argv[0], arg, 1);
    } else if (arg == "--matching") {
      experiment_flag();
      spec.matching = cli::parse_integer_or_exit(value(), argv[0], arg, 0);
    } else if (arg == "--vcpus") {
      experiment_flag();
      spec.vcpus = cli::parse_number_or_exit(value(), argv[0], arg);
    } else if (arg == "--workload") {
      experiment_flag();
      spec.workload = value();
      try {
        (void)core::parse_workload_shape(spec.workload);
      } catch (const std::invalid_argument& error) {
        fail_usage(argv[0], error.what());  // lists the valid shapes
      }
    } else if (arg == "--traffic-preset") {
      experiment_flag();
      spec.has_traffic = true;
      spec.traffic.preset = value();
      try {
        (void)core::traffic_preset(spec.traffic.preset);
      } catch (const std::invalid_argument& error) {
        fail_usage(argv[0], error.what());  // lists the valid presets
      }
    } else if (arg == "--format") {
      format = value();
      if (format != "text" && format != "csv" && format != "json") {
        fail_usage(argv[0], "unknown format '" + format + "'");
      }
    } else if (arg == "--fault-targets") {
      experiment_flag();
      spec.fault_targets = cli::parse_node_ids_or_exit(
          value(), argv[0], "--fault-targets", cli::help_hint(argv[0]));
    } else if (arg == "--extra-fault") {
      experiment_flag();
      spec.extra_faults.push_back(core::to_string(
          cli::parse_fault_or_exit(value(), argv[0], cli::help_hint(argv[0]))));
    } else if (arg == "--loss-prob") {
      experiment_flag();
      spec.loss_probability = cli::parse_number_or_exit(value(), argv[0], arg);
    } else if (arg == "--gray-delay") {
      experiment_flag();
      spec.gray_delay_s = cli::parse_number_or_exit(value(), argv[0], arg);
    } else if (arg == "--throttle-bps") {
      experiment_flag();
      spec.throttle_bytes_per_s =
          cli::parse_number_or_exit(value(), argv[0], arg);
    } else if (arg == "--eclipse-victim") {
      experiment_flag();
      spec.eclipse_victim =
          cli::parse_integer_or_exit(value(), argv[0], arg, 0);
    } else if (arg == "--eclipse-delay") {
      experiment_flag();
      spec.eclipse_delay_s = cli::parse_number_or_exit(value(), argv[0], arg);
    } else if (arg == "--eclipse-filter") {
      experiment_flag();
      spec.eclipse_filter = cli::parse_number_or_exit(value(), argv[0], arg);
    } else if (arg == "--resilient") {
      experiment_flag();
      spec.resilient = true;
    } else if (arg == "--commit-timeout") {
      experiment_flag();
      spec.commit_timeout_s = cli::parse_number_or_exit(value(), argv[0], arg);
    } else if (arg == "--hedge") {
      experiment_flag();
      spec.hedge = true;
    } else if (arg == "--hedge-percentile") {
      experiment_flag();
      spec.hedge_percentile = cli::parse_number_or_exit(value(), argv[0], arg);
    } else if (arg == "--hedge-min") {
      experiment_flag();
      spec.hedge_min_delay_s =
          cli::parse_number_or_exit(value(), argv[0], arg);
    } else if (arg == "--hedge-max") {
      experiment_flag();
      spec.hedge_max_delay_s =
          cli::parse_number_or_exit(value(), argv[0], arg);
    } else if (arg == "--endpoint-scoring") {
      experiment_flag();
      spec.endpoint_scoring = true;
    } else if (arg == "--mitigation-study") {
      experiment_flag();
      mitigation_study = true;
    } else if (arg == "--attribution") {
      experiment_flag();
      attribution = true;
    } else if (arg == "--heartbeat") {
      heartbeat = true;
    } else if (arg == "--chain-param") {
      experiment_flag();
      const std::string assignment = value();
      const std::size_t eq = assignment.find('=');
      if (eq == std::string::npos || eq == 0) {
        fail_usage(argv[0], "--chain-param expects KEY=VALUE");
      }
      const std::string key = assignment.substr(0, eq);
      spec.chain_params[key] = cli::parse_number_or_exit(
          assignment.substr(eq + 1), argv[0], arg + " " + key);
    } else if (arg == "--no-throttling") {
      experiment_flag();
      spec.chain_params["throttling"] = 0.0;
    } else if (arg == "--no-warmup-epochs") {
      experiment_flag();
      spec.chain_params["warmup_epochs"] = 0.0;
    } else if (arg == "--max-idle") {
      experiment_flag();
      spec.chain_params["max_idle_s"] =
          cli::parse_number_or_exit(value(), argv[0], arg);
    } else if (arg == "--chaos") {
      experiment_flag();
      spec.chaos_trials = cli::parse_integer_or_exit(value(), argv[0], arg, 1);
    } else if (arg == "--shrink") {
      experiment_flag();
      spec.shrink = true;
    } else if (arg == "--chaos-adversarial") {
      experiment_flag();
      spec.chaos_adversarial = true;
    } else if (arg == "--trace") {
      experiment_flag();
      spec.trace = value();
      if (spec.trace.empty()) {
        fail_usage(argv[0], "--trace needs a file name");
      }
    } else if (arg == "--metrics") {
      experiment_flag();
      spec.metrics = value();
      if (spec.metrics.empty()) {
        fail_usage(argv[0], "--metrics needs a file name");
      }
    } else {
      fail_usage(argv[0], "unknown flag '" + arg + "'");
    }
  }

  if (!suite_dir.empty()) {
    if (experiment_flags || !scenario_path.empty() || dump_scenario) {
      fail_usage(argv[0],
                 "--suite runs complete scenario files; combine it only "
                 "with --format text|csv");
    }
    if (format == "json") {
      fail_usage(argv[0], "--suite prints --format text or csv");
    }
    return run_suite(argv[0], suite_dir, format, heartbeat);
  }
  if (!scenario_path.empty()) {
    if (experiment_flags) {
      fail_usage(argv[0],
                 "--scenario is a complete run description; combine it "
                 "only with --format and --dump-scenario");
    }
    spec = load_spec(argv[0], scenario_path);
  }

  const core::ResolvedScenario resolved = resolve(argv[0], "", spec);
  if (dump_scenario) {
    std::printf("%s\n", core::scenario_to_json(spec).c_str());
    return 0;
  }
  const core::ExperimentConfig& config = resolved.config;
  const long duration_s = static_cast<long>(spec.duration_s);
  const std::string& trace_path = resolved.trace_path;
  const std::string& metrics_path = resolved.metrics_path;

  if (attribution) {
    if (mitigation_study) {
      fail_usage(argv[0],
                 "--attribution and --mitigation-study are separate "
                 "campaigns; pick one");
    }
    if (resolved.num_seeds > 1 || resolved.chaos_trials > 0) {
      fail_usage(argv[0],
                 "--attribution runs one seed per cell; it does not "
                 "combine with --seeds or --chaos");
    }
    if (!metrics_path.empty()) {
      fail_usage(argv[0],
                 "--metrics applies to single runs, not --attribution "
                 "campaigns");
    }
    // Paired attribution campaign: every (chain, fault) cell twice over
    // the same seed with a lifecycle recorder on both twins. --trace is
    // honored below by re-running the first cell's faulted twin with a
    // sink attached — the report itself never depends on it.
    core::AttributionConfig study;
    if (chain_set) study.chains = {config.chain};
    if (fault_set) study.faults = {config.fault};
    study.base = config;
    study.jobs = resolved.jobs;
    study.heartbeat = heartbeat;
    core::AttributionReport report;
    try {
      report = core::run_attribution(study);
    } catch (const std::invalid_argument& error) {
      std::fprintf(stderr, "%s: invalid fault plan: %s\n", argv[0],
                   error.what());
      return 2;
    }
    if (!trace_path.empty() && !report.cells.empty()) {
      core::ExperimentConfig traced =
          core::paper_cell(study.base, report.cells.front().fault);
      traced.chain = report.cells.front().chain;
      sim::TraceSink sink;
      traced.trace = &sink;
      core::run_experiment(traced);
      cli::write_file_or_die(argv[0], trace_path,
                             core::trace_to_json(sink));
    }
    if (format == "json") {
      std::printf("%s\n", report.to_json().c_str());
    } else if (format == "csv") {
      std::printf("%s", report.to_csv().c_str());
    } else {
      std::printf("sensitivity attribution: per-stage latency deltas, "
                  "faulted vs fault-free twin\n");
      std::printf("%s", report.to_table().c_str());
      // The radar view: each cell's headline delta and dominant stage.
      core::RadarSummary radar;
      const auto& names = sim::stage_segment_names();
      for (const core::AttributionCell& cell : report.cells) {
        core::RadarAttributionCell summary;
        summary.latency_delta_s = cell.measured_latency_delta_s;
        summary.dominant_stage = names[cell.dominant_segment()];
        summary.dominant_share = cell.dominant_share();
        radar.record_attribution(cell.chain, cell.fault, summary);
      }
      std::printf("\ndominant-stage radar:\n%s",
                  radar.attribution_table().c_str());
      if (!trace_path.empty() && !report.cells.empty()) {
        std::printf("trace: %s (first cell's faulted twin; open at "
                    "ui.perfetto.dev)\n",
                    trace_path.c_str());
      }
    }
    return 0;
  }

  if (mitigation_study) {
    if (!trace_path.empty() || !metrics_path.empty()) {
      fail_usage(argv[0],
                 "--trace/--metrics apply to single runs, not "
                 "--mitigation-study campaigns");
    }
    // Paired mitigation campaign: every cell twice over the same seed and
    // schedule — as-configured vs the full mitigation stack. --chaos N is
    // reinterpreted as N adversarial chaos schedule pairs per chain.
    core::MitigationConfig study;
    if (chain_set) study.chains = {config.chain};
    if (fault_set) study.faults = {config.fault};
    study.base = config;
    study.num_seeds = resolved.num_seeds;
    study.jobs = resolved.jobs;
    study.chaos_pairs = resolved.chaos_trials;
    study.heartbeat = heartbeat;
    core::MitigationResult result;
    try {
      result = core::run_mitigation_campaign(study);
    } catch (const std::invalid_argument& error) {
      std::fprintf(stderr, "%s: invalid fault plan: %s\n", argv[0],
                   error.what());
      return 2;
    }
    if (format == "json") {
      std::printf("%s\n", result.to_json().c_str());
    } else if (format == "csv") {
      std::printf("%s", result.delta_csv().c_str());
    } else {
      std::printf("mitigation study: nversion + hedging + endpoint scoring "
                  "vs unmitigated\n");
      std::printf("%s", result.delta_table().c_str());
      std::printf("%zu/%zu pairs improved, %zu regressed\n",
                  result.improvements(), result.pairs.size(),
                  result.regressions());
    }
    return 0;
  }

  if (resolved.chaos_trials > 0) {
    if (!metrics_path.empty()) {
      fail_usage(argv[0],
                 "--metrics applies to single runs, not --chaos campaigns");
    }
    // Chaos path: randomized schedules + oracle audit on one chain. Every
    // violating trial carries a Perfetto timeline of its minimized repro;
    // --trace names the base file the timelines are written to.
    core::ChaosCampaignConfig chaos;
    chaos.chains = {config.chain};
    chaos.trials_per_chain = resolved.chaos_trials;
    chaos.seed = config.seed;
    chaos.base = config;
    if (resolved.chaos_adversarial) {
      chaos.gen = core::adversarial_gen_for(chaos.base.duration);
    }
    chaos.shrink = resolved.shrink;
    chaos.trace_repros = !trace_path.empty();
    chaos.jobs = resolved.jobs;
    chaos.heartbeat = heartbeat;
    const core::ChaosCampaignResult result = core::run_chaos_campaign(chaos);
    for (const core::ChaosTrial& trial : result.trials) {
      if (trial.repro_trace.empty()) continue;
      // Seed + plan-hash suffix: several violations of the same chain (or
      // reruns with other seeds) never overwrite each other's sidecars.
      const core::FaultSchedule& repro = trial.shrunk.has_value()
                                             ? trial.shrunk->schedule
                                             : trial.schedule;
      const std::string sidecar =
          trace_path + "." +
          cli::chaos_repro_stem(core::to_string(trial.chain), trial.trial,
                                trial.experiment_seed,
                                core::schedule_to_json(repro)) +
          ".trace.json";
      cli::write_file_or_die(argv[0], sidecar, trial.repro_trace);
      std::fprintf(stderr, "trace: %s\n", sidecar.c_str());
    }
    if (format == "json") {
      std::printf("%s\n", result.to_json().c_str());
    } else {
      std::printf("%s", result.summary_table().c_str());
      std::printf("%zu/%zu violations, %zu expected losses\n",
                  result.violations(), result.trials.size(),
                  result.expected_losses());
      for (const core::ChaosTrial& trial : result.trials) {
        if (trial.report.verdict == core::OracleVerdict::kPass) continue;
        std::printf("%s trial %zu: %s\n",
                    core::to_string(trial.chain).c_str(), trial.trial,
                    trial.report.summary().c_str());
        if (trial.shrunk.has_value()) {
          std::printf("  repro: %s\n",
                      core::schedule_to_json(trial.shrunk->schedule).c_str());
        }
      }
      std::printf("\nwall-clock profile:\n%s",
                  result.timing_table().c_str());
    }
    return result.violations() > 0 ? 1 : 0;
  }

  const CellRun cell = run_cell(argv[0], "", resolved, heartbeat);
  const core::CampaignResult& result = cell.result;
  if (cell.campaign) {
    if (format == "json") {
      std::printf("%s\n", result.to_json().c_str());
      return 0;
    }
    if (format == "csv") {
      std::printf("%s", result.to_csv().c_str());
      return 0;
    }
    std::printf("%s under %s, %zu seeds starting at %llu\n",
                core::to_string(config.chain).c_str(),
                core::to_string(config.fault).c_str(), resolved.num_seeds,
                static_cast<unsigned long long>(config.seed));
    const auto& seed_runs =
        result.seed_runs.at({config.chain, config.fault});
    core::Table table({"seed", "score", "committed", "live", "recovery"});
    for (std::size_t i = 0; i < seed_runs.size(); ++i) {
      const core::SensitivityRun& run = seed_runs[i];
      table.add_row({std::to_string(result.seeds[i]),
                     core::format_score(run.score),
                     std::to_string(run.altered.committed),
                     run.altered.live_at_end ? "yes" : "NO",
                     core::Table::num(run.altered.recovery_seconds, 1)});
    }
    std::printf("%s", table.to_string().c_str());
    const core::SeedSweepStats* stats =
        result.sweep(config.chain, config.fault);
    std::printf(
        "sweep: mean %.2f  stddev %.2f  min %.2f  max %.2f  "
        "liveness losses %zu/%zu\n",
        stats->mean, stats->stddev, stats->min, stats->max,
        stats->liveness_losses, stats->seeds);
    std::printf("\nwall-clock profile:\n%s", result.timing_table().c_str());
    return 0;
  }

  const core::SensitivityRun& run = result.runs.begin()->second;
  if (format == "json") {
    std::printf("%s\n", core::to_json(config.chain, config.fault, run).c_str());
    return 0;
  }
  if (format == "csv") {
    std::printf("%s\n%s\n", core::summary_csv_header().c_str(),
                core::summary_csv_row(config.chain, config.fault, run).c_str());
    return 0;
  }

  std::printf("%s under %s\n", core::to_string(config.chain).c_str(),
              core::to_string(config.fault).c_str());
  core::Table table({"metric", "baseline", "altered"});
  table.add_row({"committed", std::to_string(run.baseline.committed),
                 std::to_string(run.altered.committed)});
  table.add_row({"mean latency",
                 core::Table::num(run.baseline.mean_latency_s, 3) + "s",
                 core::Table::num(run.altered.mean_latency_s, 3) + "s"});
  table.add_row({"p99 latency",
                 core::Table::num(run.baseline.p99_latency_s, 3) + "s",
                 core::Table::num(run.altered.p99_latency_s, 3) + "s"});
  table.add_row({"live at end", run.baseline.live_at_end ? "yes" : "NO",
                 run.altered.live_at_end ? "yes" : "NO"});
  std::printf("%s", table.to_string().c_str());
  std::printf("sensitivity score: %s\n",
              core::format_score(run.score).c_str());
  if (config.resilience.enabled) {
    const core::ResilienceStats& rs = run.altered.resilience;
    std::printf(
        "resilient client: %ju resubmissions, %ju failovers, %ju recovered, "
        "%ju lost, %ju duplicate commits\n",
        static_cast<std::uintmax_t>(rs.resubmissions),
        static_cast<std::uintmax_t>(rs.failovers),
        static_cast<std::uintmax_t>(rs.recovered),
        static_cast<std::uintmax_t>(run.altered.submitted -
                                    run.altered.committed),
        static_cast<std::uintmax_t>(rs.duplicate_commits));
    if (config.resilience.hedge.enabled) {
      std::printf("hedging: %ju armed, %ju won, %ju cancelled\n",
                  static_cast<std::uintmax_t>(rs.hedges_armed),
                  static_cast<std::uintmax_t>(rs.hedges_won),
                  static_cast<std::uintmax_t>(rs.hedges_cancelled));
    }
  }
  if (run.altered.recovery_seconds >= 0) {
    std::printf("recovery: %.1fs after the fault cleared\n",
                run.altered.recovery_seconds);
  }
  if (!trace_path.empty()) {
    std::printf("trace: %s (%zu events; open at ui.perfetto.dev)\n",
                trace_path.c_str(), cell.trace_events);
  }
  if (!metrics_path.empty()) {
    std::printf("metrics: %s (%zu samples)\n", metrics_path.c_str(),
                cell.metrics_samples);
  }
  std::printf("\naltered throughput:\n%s",
              core::render_timeseries(run.altered.throughput,
                                      static_cast<double>(duration_s / 40))
                  .c_str());
  return 0;
}

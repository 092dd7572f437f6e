// regression_gate — reproduces the paper and gates on it. It runs the
// fault-tolerance matrix (every paper chain x crash/transient/partition/
// secure-client) once, prints every paper figure from that one campaign
// (Figs. 1, 3a-d, 4-6 and 7, each from the cells' first-seed runs), and
// then applies the CI gate the paper pitches STABL for: fail the pipeline
// when a chain's sensitivity regresses past the gate, or when a chain that
// used to survive a condition stops doing so. Multi-seed sweeps gate on the
// WORST seed. The matrix fans out across worker threads; stdout is
// byte-identical for any jobs value, and progress goes to stderr.
//
// Usage: regression_gate [duration_seconds] [seed] [num_seeds] [jobs]
// Exit code 0 = gate passed, 1 = violations found, 2 = usage error.
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>

#include "cli_common.hpp"
#include "core/campaign.hpp"
#include "core/parallel.hpp"
#include "core/report.hpp"

namespace {

using namespace stabl;

void print_usage(std::FILE* out, const char* argv0) {
  std::fprintf(
      out,
      "usage: %s [duration_seconds] [seed] [num_seeds] [jobs] [--help]\n"
      "\n"
      "Reproduce the paper and gate on it: run the STABL fault-tolerance\n"
      "matrix once (every paper chain x crash/transient/partition/\n"
      "secure-client), print one line per cell and seed and every paper\n"
      "figure (Figs. 1, 3a-d, 4-6 and 7), then fail the pipeline when a\n"
      "chain's sensitivity regresses past the paper-shaped bounds, or when\n"
      "a chain that used to survive a condition stops doing so. Multi-seed\n"
      "sweeps gate on the WORST seed. Progress goes to stderr.\n"
      "Exit 0 = gate passed, 1 = violations, 2 = usage error.\n"
      "\n"
      "arguments:\n"
      "  duration_seconds  simulated seconds per run, >= 30 (default 400;\n"
      "                    shorter runs apply coarse sanity bounds only)\n"
      "  seed              first RNG seed of the sweep (default 42)\n"
      "  num_seeds         consecutive seeds per cell, >= 1 (default 1)\n"
      "  jobs              worker threads, >= 1 (default: hardware\n"
      "                    concurrency); stdout is identical for any\n"
      "                    value\n",
      argv0);
}

struct Figure {
  core::FaultType fault;
  const char* title;
};

constexpr Figure kPanels[] = {
    {core::FaultType::kCrash,
     "Fig. 3a — sensitivity to f=t crashes (Resilience, §4)"},
    {core::FaultType::kTransient,
     "Fig. 3b — sensitivity to f=t+1 transient node failures "
     "(Recoverability, §5)"},
    {core::FaultType::kPartition,
     "Fig. 3c — sensitivity to a transient partition of f=t+1 nodes (§6)"},
    {core::FaultType::kSecureClient,
     "Fig. 3d — sensitivity to redundant requests / secure client (§7)"},
};

constexpr Figure kThroughputFigures[] = {
    {core::FaultType::kCrash,
     "Fig. 4 — throughput over time, f=t simultaneous crashes (§4)"},
    {core::FaultType::kTransient,
     "Fig. 5 — throughput over time, f=t+1 transient node failures (§5)"},
    {core::FaultType::kPartition,
     "Fig. 6 — throughput over time, transient partition of f=t+1 nodes "
     "(§6)"},
};

// Fig. 1: the two eCDFs of Aptos latencies (baseline vs f = t crashes) and
// the between-areas sensitivity score.
void print_fig1(const core::CampaignResult& result) {
  const core::SensitivityRun& run =
      *result.get(core::ChainKind::kAptos, core::FaultType::kCrash);
  std::printf("\n=== Fig. 1: sensitivity of Aptos to f=t crashes ===\n");
  const core::Ecdf baseline(run.baseline.latencies);
  const core::Ecdf altered(run.altered.latencies);
  std::printf("%s\n", core::render_ecdf_pair(baseline, altered).c_str());
  std::printf("baseline: n=%zu mean=%.2fs p99=%.2fs (area S1=%.2f)\n",
              baseline.count(), baseline.mean(),
              run.baseline.p99_latency_s, run.score.baseline_area);
  std::printf("altered : n=%zu mean=%.2fs p99=%.2fs (area S2=%.2f)\n",
              altered.count(), altered.mean(), run.altered.p99_latency_s,
              run.score.altered_area);
  std::printf("sensitivity |S1-S2| = %s\n",
              core::format_score(run.score).c_str());
}

// Figs. 4-6: each chain's altered throughput over time, with the fault
// markers, its baseline average and a CSV series for plotting.
void print_throughput_figure(const core::CampaignConfig& config,
                             const core::CampaignResult& result,
                             const Figure& figure, long duration) {
  std::printf("\n=== %s ===\n", figure.title);
  std::printf("fault injected at %lds", duration / 3);
  if (figure.fault != core::FaultType::kCrash) {
    std::printf(", cleared at %lds", 2 * duration / 3);
  }
  std::printf(" (marked by the bucket boundaries below)\n");
  for (const core::ChainKind chain : config.chains) {
    const core::SensitivityRun& run = *result.get(chain, figure.fault);
    std::printf("\n--- %s (altered: %s) ---\n",
                core::to_string(chain).c_str(),
                core::to_string(figure.fault).c_str());
    std::printf("%s", core::render_timeseries(run.altered.throughput,
                                              static_cast<double>(
                                                  duration / 40),
                                              /*max_scale=*/0.0)
                          .c_str());
    std::printf("baseline average: %.1f tps; altered committed %llu/%llu"
                "%s\n",
                core::Ecdf(run.baseline.throughput).mean(),
                static_cast<unsigned long long>(run.altered.committed),
                static_cast<unsigned long long>(run.altered.submitted),
                run.altered.live_at_end ? "" : "  [LIVENESS LOST]");
    std::printf("csv,%s,altered_tps", core::to_string(chain).c_str());
    for (const double tps : run.altered.throughput) {
      std::printf(",%.0f", tps);
    }
    std::printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0) {
      print_usage(stdout, argv[0]);
      return 0;
    }
    if (argv[i][0] == '-' &&
        !std::isdigit(static_cast<unsigned char>(argv[i][1]))) {
      cli::fail_unknown_flag(argv[0], argv[i]);
    }
  }
  if (argc > 5) {
    cli::fail(argv[0],
              "expected at most [duration_seconds] [seed] [num_seeds] [jobs]",
              cli::help_hint(argv[0]));
  }
  const long duration_s =
      argc > 1 ? cli::parse_integer_or_exit(argv[1], argv[0],
                                            "duration_seconds", 30)
               : 400;
  const std::uint64_t seed =
      argc > 2 ? cli::parse_integer_or_exit(argv[2], argv[0], "seed", 0) : 42;
  const long num_seeds =
      argc > 3 ? cli::parse_integer_or_exit(argv[3], argv[0], "num_seeds", 1)
               : 1;
  const unsigned jobs =
      argc > 4 ? static_cast<unsigned>(cli::parse_integer_or_exit(
                     argv[4], argv[0], "jobs", 1,
                     std::numeric_limits<unsigned>::max()))
               : core::default_jobs();

  core::CampaignConfig config;
  config.base.seed = seed;
  core::apply_run_window(config.base, duration_s);
  config.num_seeds = static_cast<std::size_t>(num_seeds);
  config.jobs = jobs;
  config.heartbeat = true;

  std::printf("running the STABL matrix (%lds per run, seeds %llu..%llu)...\n",
              duration_s, static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(seed + num_seeds - 1));
  std::fflush(stdout);
  const core::CampaignResult result = core::run_campaign(config);

  for (const core::ChainKind chain : config.chains) {
    for (const core::FaultType fault : config.faults) {
      const auto& runs = result.seed_runs.at({chain, fault});
      for (std::size_t k = 0; k < runs.size(); ++k) {
        const core::SensitivityRun& run = runs[k];
        const std::string recovery =
            run.altered.recovery_seconds >= 0.0
                ? core::Table::num(run.altered.recovery_seconds, 1) + "s"
                : "-";
        std::printf(
            "  %-9s %-13s seed %-6llu -> %8s  committed %6llu/%6llu  mean "
            "%6.2fs -> %6.2fs  recovery %6s  live=%s\n",
            core::to_string(chain).c_str(), core::to_string(fault).c_str(),
            static_cast<unsigned long long>(result.seeds[k]),
            core::format_score(run.score).c_str(),
            static_cast<unsigned long long>(run.altered.committed),
            static_cast<unsigned long long>(run.altered.submitted),
            run.baseline.mean_latency_s, run.altered.mean_latency_s,
            recovery.c_str(), run.altered.live_at_end ? "yes" : "NO");
      }
    }
  }

  print_fig1(result);
  for (const Figure& panel : kPanels) {
    std::printf("%s", core::sensitivity_panel(config, result, panel.fault,
                                              panel.title)
                          .c_str());
  }
  for (const Figure& figure : kThroughputFigures) {
    print_throughput_figure(config, result, figure, duration_s);
  }
  std::printf("\n=== Fig. 7: sensitivity radar of the tested blockchains"
              " ===\n%s",
              result.radar_table().c_str());
  std::printf("inf = liveness lost; trailing '*' = the altered environment"
              " improved latency\n");

  // The gate encodes the paper's measured shape with headroom. The shape
  // expectations (which chains lose liveness, the timeout arithmetic) are
  // tied to the paper's 400 s / 133 s / 266 s geometry — e.g. Solana's EAH
  // panic requires the fault to land inside a warm-up epoch. For shorter
  // smoke runs the gate only checks coarse sanity.
  core::CampaignGate gate;
  if (duration_s >= 400) {
    gate.max_score = {
        {core::FaultType::kCrash, 40.0},
        {core::FaultType::kTransient, 400.0},
        {core::FaultType::kPartition, 600.0},
        {core::FaultType::kSecureClient, 15.0},
    };
    gate.expected_infinite = {
        {core::ChainKind::kAvalanche, core::FaultType::kTransient},
        {core::ChainKind::kAvalanche, core::FaultType::kPartition},
        {core::ChainKind::kSolana, core::FaultType::kTransient},
        {core::ChainKind::kSolana, core::FaultType::kPartition},
    };
  } else {
    std::printf("\n(short run: paper-shape expectations need >=400s;"
                " applying coarse sanity bounds only)\n");
    const double scale = static_cast<double>(duration_s) / 400.0;
    gate.max_score = {
        {core::FaultType::kCrash, 100.0 * scale},
        {core::FaultType::kSecureClient, 60.0 * scale},
    };
    gate.flag_unexpected_liveness_loss = false;
  }

  const auto violations = core::check_gate(result, gate);
  if (num_seeds > 1) {
    std::printf("\nseed sweep (mean+-stddev [min..max], inf = liveness "
                "losses):\n%s",
                result.sweep_table().c_str());
  }
  if (violations.empty()) {
    std::printf("\ngate PASSED: all %zu cells within bounds (worst of %ld "
                "seed%s per cell)\n",
                result.seed_runs.size(), num_seeds, num_seeds == 1 ? "" : "s");
    return 0;
  }
  std::printf("\ngate FAILED (%zu violations):\n", violations.size());
  for (const auto& violation : violations) {
    std::printf("  - %s\n", violation.c_str());
  }
  return 1;
}

// Partition study: walk one chain through the paper's three-phase
// partition experiment (§6) and watch detection, stall and recovery in the
// throughput series — including the timeout-driven difference between
// *passive* partition recovery and *active* crash-restart recovery.
//
// Usage: partition_study [chain] [duration_seconds]
//   chain: algorand | aptos | avalanche | redbelly | solana  (default
//          redbelly)
#include <cstdio>
#include <cstring>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "cli_common.hpp"
#include "core/experiment.hpp"
#include "core/report.hpp"

namespace {

void print_usage(std::FILE* out, const char* argv0) {
  std::fprintf(
      out,
      "usage: %s [chain] [duration_seconds] [--help]\n"
      "\n"
      "Walk one chain through the paper's three-phase partition\n"
      "experiment (Section 6) and compare passive partition recovery\n"
      "(reconnection timeouts) against active crash-restart recovery.\n"
      "\n"
      "arguments:\n"
      "  chain             registered chain, case-insensitive (%s;\n"
      "                    default redbelly)\n"
      "  duration_seconds  simulated seconds per run, >= 30 (default 400;\n"
      "                    the paper's timeout arithmetic needs 400)\n",
      argv0, stabl::core::chain_registry().names_csv().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace stabl;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0) {
      print_usage(stdout, argv[0]);
      return 0;
    }
    if (argv[i][0] == '-' && std::atol(argv[i]) == 0) {
      cli::fail_unknown_flag(argv[0], argv[i]);
    }
  }
  if (argc > 3) {
    cli::fail(argv[0], "expected at most [chain] [duration_seconds]",
              cli::help_hint(argv[0]));
  }
  const core::ChainKind chain =
      argc > 1
          ? cli::parse_chain_or_exit(argv[1], argv[0], cli::help_hint(argv[0]))
          : core::ChainKind::kRedbelly;
  const long duration = argc > 2 ? std::atol(argv[2]) : 400;
  if (duration < 30) {
    cli::fail(argv[0], "duration_seconds must be >= 30",
              cli::help_hint(argv[0]));
  }

  core::ExperimentConfig config;
  config.chain = chain;
  core::apply_run_window(config, duration);

  std::printf("=== %s: partition of f=t+1 nodes, %lds run ===\n",
              core::to_string(chain).c_str(), duration);

  config.fault = core::FaultType::kPartition;
  const core::ExperimentResult partition = core::run_experiment(config);
  std::printf("\nthroughput (partition %ld-%lds):\n%s\n", duration / 3,
              2 * duration / 3,
              core::render_timeseries(partition.throughput,
                                      static_cast<double>(duration / 40))
                  .c_str());

  config.fault = core::FaultType::kTransient;
  const core::ExperimentResult transient = core::run_experiment(config);

  core::Table table({"condition", "recovery(s)", "committed", "live"});
  table.add_row({"partition (passive recovery)",
                 partition.recovery_seconds >= 0
                     ? core::Table::num(partition.recovery_seconds, 1)
                     : "never",
                 std::to_string(partition.committed) + "/" +
                     std::to_string(partition.submitted),
                 partition.live_at_end ? "yes" : "NO"});
  table.add_row({"transient crash+restart (active)",
                 transient.recovery_seconds >= 0
                     ? core::Table::num(transient.recovery_seconds, 1)
                     : "never",
                 std::to_string(transient.committed) + "/" +
                     std::to_string(transient.submitted),
                 transient.live_at_end ? "yes" : "NO"});
  std::printf("%s", table.to_string().c_str());
  std::printf(
      "\nPassive recovery waits for reconnection timeouts (paper §6:"
      " Algorand 9s->99s, Redbelly 7s->81s); active recovery re-dials"
      " immediately after restart.\n");
  return 0;
}

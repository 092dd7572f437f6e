// Secure client demo (§7, Byzantine node tolerance): compare a client that
// trusts one blockchain node against the secure client that submits to
// t+1 = 4 nodes and only reports success when all of them confirm.
//
// Usage: secure_client_demo [duration_seconds]
#include <cstdio>
#include <cstdlib>

#include "core/experiment.hpp"
#include "core/report.hpp"

int main(int argc, char** argv) {
  using namespace stabl;
  const long duration = argc > 1 ? std::atol(argv[1]) : 400;

  std::printf("=== Secure client (fanout 4, 8 vCPU) vs single-node client"
              " ===\n\n");
  core::Table table({"chain", "1-node mean", "secure mean", "delta",
                     "sensitivity", "verdict"});
  for (const core::ChainKind chain : core::kAllChains) {
    core::ExperimentConfig base;
    base.chain = chain;
    base.duration = sim::sec(duration);
    const core::SensitivityRun run = core::run_sensitivity(
        core::paper_cell(base, core::FaultType::kSecureClient));
    const double delta =
        run.altered.mean_latency_s - run.baseline.mean_latency_s;
    const char* verdict = "unchanged";
    if (run.score.benefits) {
      verdict = "BENEFITS from redundancy";
    } else if (delta > 0.1) {
      verdict = "degraded (redundant execution)";
    }
    table.add_row({core::to_string(chain),
                   core::Table::num(run.baseline.mean_latency_s, 3) + "s",
                   core::Table::num(run.altered.mean_latency_s, 3) + "s",
                   core::Table::num(delta, 3) + "s",
                   core::format_score(run.score), verdict});
  }
  std::printf("%s", table.to_string().c_str());
  std::printf(
      "\nTrusting a single node tolerates zero Byzantine nodes; submitting"
      " to t+1 nodes restores tolerance at the latency cost/benefit shown"
      " above (paper §7: Aptos pays for Block-STM re-execution, Redbelly"
      " and Avalanche actually gain).\n");
  return 0;
}

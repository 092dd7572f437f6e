// Full STABL sensitivity campaign: for each of the five chains, run the
// four altered environments of the paper (f=t crashes, f=t+1 transient
// failures, f=t+1 partition, secure client) against a fault-free baseline
// and print the sensitivity scores plus the Fig. 7 radar table.
//
// Usage: sensitivity_report [duration_seconds] [seed]
//   duration_seconds: total experiment length (default 400, the paper's).
//     The fault is injected at 1/3 and cleared at 2/3 of the run.
#include <cstdio>
#include <cstdlib>

#include "core/experiment.hpp"
#include "core/radar.hpp"
#include "core/report.hpp"

int main(int argc, char** argv) {
  using namespace stabl;
  const long duration_s = argc > 1 ? std::atol(argv[1]) : 400;
  const unsigned long seed = argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 42;

  core::RadarSummary radar;
  const core::FaultType faults[] = {
      core::FaultType::kCrash, core::FaultType::kTransient,
      core::FaultType::kPartition, core::FaultType::kSecureClient};

  for (const core::ChainKind chain : core::kAllChains) {
    std::printf("=== %s (t=%zu) ===\n", core::to_string(chain).c_str(),
                core::fault_tolerance(chain, 10));
    for (const core::FaultType fault : faults) {
      core::ExperimentConfig base;
      base.chain = chain;
      base.seed = seed;
      core::apply_run_window(base, duration_s);
      const core::SensitivityRun run =
          core::run_sensitivity(core::paper_cell(base, fault));
      radar.record(chain, fault, run.score);
      std::printf(
          "  %-13s score=%8s  committed %6llu/%6llu  mean %6.2fs -> %6.2fs"
          "  recovery %5.1fs  live=%s\n",
          core::to_string(fault).c_str(),
          core::format_score(run.score).c_str(),
          static_cast<unsigned long long>(run.altered.committed),
          static_cast<unsigned long long>(run.altered.submitted),
          run.baseline.mean_latency_s, run.altered.mean_latency_s,
          run.altered.recovery_seconds,
          run.altered.live_at_end ? "yes" : "NO");
    }
  }

  std::printf("\n=== Fig. 7 radar: sensitivity of the tested blockchains ===\n");
  std::printf("%s", radar.to_table().c_str());
  std::printf("(*) = the altered environment improved latency (striped bar)\n");
  return 0;
}

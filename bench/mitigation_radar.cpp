// Mitigation radar: how much sensitivity each mitigation layer removes,
// per chain, under the crash fault the nversion design targets.
//
// For every paper chain the bench runs the matched pair grid of
// core/campaign.hpp's mitigation study by hand — one unmitigated
// sensitivity pair plus three mitigated variants over the same seed and
// fault schedule:
//
//   nversion  the nversion_<chain> meta-chain alone (node-level failover)
//   client    hedged submissions + EWMA endpoint scoring alone (resilient
//             client, base chain unchanged)
//   full      both layers together (the --mitigation-study default stack)
//
// and prints the paired scores and deltas as a table plus machine-readable
// CSV — the per-layer "radar" of where the mitigation budget goes.
//
// Environment:
//   STABL_BENCH_DURATION   simulated seconds per run (default 120)
//   STABL_MITIGATION_CSV   also write the CSV rows to this path
#include "bench_common.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/experiment.hpp"
#include "core/report.hpp"

namespace {

using namespace stabl;

std::string score_text(const core::SensitivityScore& score) {
  if (score.invalid_baseline) return "invalid";
  if (score.infinite) return "inf";
  return core::Table::num(score.value, 4);
}

std::string delta_text(const core::SensitivityScore& unmitigated,
                       const core::SensitivityScore& mitigated) {
  if (unmitigated.invalid_baseline || mitigated.invalid_baseline) return "-";
  if (unmitigated.infinite && mitigated.infinite) return "0";
  if (unmitigated.infinite) return "inf";
  if (mitigated.infinite) return "-inf";
  return core::Table::num(unmitigated.value - mitigated.value, 4);
}

}  // namespace

int main() {
  const long duration_s = bench::bench_duration_s(120);

  struct Variant {
    const char* name;
    core::MitigationLayers layers;
  };
  const std::vector<Variant> variants = {
      {"nversion", {true, false, false}},
      {"client", {false, true, true}},
      {"full", {true, true, true}},
  };

  core::Table table({"chain", "unmitigated", "nversion", "client", "full",
                     "best_delta"});
  std::string csv = "chain,variant,score,delta\n";
  for (const core::ChainKind chain : core::kAllChains) {
    core::ExperimentConfig base;
    base.chain = chain;
    base.fault = core::FaultType::kCrash;
    // Fault window at the duration's integer thirds, exactly the
    // stabl_cli/scenario resolution, so short bench runs still inject.
    core::apply_run_window(base, duration_s);
    const core::SensitivityRun unmitigated = core::run_sensitivity(base);
    csv += core::csv_join({core::to_string(chain), "unmitigated",
                           score_text(unmitigated.score), "0"}) +
           "\n";

    std::vector<std::string> row = {core::to_string(chain),
                                    score_text(unmitigated.score)};
    std::string best_delta = "0";
    double best = 0.0;
    for (const Variant& variant : variants) {
      const core::SensitivityRun mitigated = core::run_sensitivity(
          core::mitigated_config(base, variant.layers));
      row.push_back(score_text(mitigated.score));
      const std::string delta =
          delta_text(unmitigated.score, mitigated.score);
      csv += core::csv_join({core::to_string(chain), variant.name,
                             score_text(mitigated.score), delta}) +
             "\n";
      if (!unmitigated.score.infinite && !mitigated.score.infinite &&
          !unmitigated.score.invalid_baseline &&
          !mitigated.score.invalid_baseline) {
        const double d = unmitigated.score.value - mitigated.score.value;
        if (d > best) {
          best = d;
          best_delta = delta;
        }
      } else if (unmitigated.score.infinite && !mitigated.score.infinite) {
        best_delta = "inf";
      }
    }
    row.push_back(best_delta);
    table.add_row(row);
  }

  std::printf("mitigation radar: crash-fault sensitivity per mitigation "
              "layer (%lds runs)\n%s",
              duration_s, table.to_string().c_str());
  std::printf("\n%s", csv.c_str());
  if (const char* path = std::getenv("STABL_MITIGATION_CSV")) {
    std::ofstream file(path);
    file << csv;
    if (!file) {
      std::fprintf(stderr, "mitigation_radar: cannot write %s\n", path);
      return 2;
    }
    std::printf("\ncsv written to %s\n", path);
  }
  return 0;
}

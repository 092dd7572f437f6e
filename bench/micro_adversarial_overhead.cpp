// micro_adversarial_overhead — gates that the adversarial fault family is
// free when unused. Two properties, checked on a benign (no-fault) run:
//
//  1. Byte-identity: the report of a benign run is byte-identical whether
//     the misbehavior defense parameters are defaulted, explicitly off, or
//     even enabled (an armed scorer that never sees an offense must not
//     perturb a single RNG draw or metric). Any diff is a hard failure.
//  2. Wall-clock: enabling the defense on a benign run must cost < 2%
//     (minimum of repeated timed runs).
//
// A plain program (no google-benchmark timing loop): it exits 1 when either
// gate fails.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>

#include "core/experiment.hpp"
#include "core/serialize.hpp"

namespace {

using namespace stabl;

/// A benign Redbelly run: 60 s for the byte-identity reports, 300 s for
/// the timed runs, whose 2% comparison wants samples well above scheduler
/// noise. A negative `defense` leaves the parameter unset.
core::ExperimentConfig benign_config(double defense, long duration_s) {
  core::ExperimentConfig config;
  core::apply_run_window(config, duration_s);
  if (defense >= 0.0) config.chain_params["misbehavior_defense"] = defense;
  return config;
}

std::string benign_report(double defense) {
  const core::SensitivityRun run =
      core::run_sensitivity(benign_config(defense, 60));
  return core::to_json(core::ChainKind::kRedbelly, core::FaultType::kNone,
                       run);
}

double timed_run_seconds(double defense) {
  const auto start = std::chrono::steady_clock::now();
  core::run_experiment(benign_config(defense, 300));
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return elapsed.count();
}

}  // namespace

int main() {
  const std::string absent = benign_report(-1.0);
  const std::string off = benign_report(0.0);
  const std::string on = benign_report(1.0);
  bool ok = true;
  if (off != absent) {
    std::printf("FAIL: explicit misbehavior_defense=0 changed the benign "
                "report\n");
    ok = false;
  }
  if (on != absent) {
    std::printf("FAIL: misbehavior_defense=1 changed the benign report "
                "(an idle scorer must be unobservable)\n");
    ok = false;
  }
  if (absent.find("misbehavior") != std::string::npos) {
    std::printf("FAIL: benign report leaks adversarial metrics\n");
    ok = false;
  }
  if (ok) {
    std::printf("benign reports byte-identical across defense params "
                "(%zu bytes)\n", absent.size());
  }

  // Interleave the two variants and take the minimum of each: min-of-N is
  // the noise-robust estimator for CPU-bound work, and interleaving keeps
  // frequency/cache drift from biasing one side.
  const int reps = 7;
  double base_s = 1e300;
  double defended_s = 1e300;
  timed_run_seconds(-1.0);  // warm caches outside the measurement
  timed_run_seconds(1.0);
  for (int i = 0; i < reps; ++i) {
    base_s = std::min(base_s, timed_run_seconds(-1.0));
    defended_s = std::min(defended_s, timed_run_seconds(1.0));
  }
  const double delta = (defended_s - base_s) / base_s;
  std::printf("benign wall-clock: base %.3f s, defense on %.3f s, "
              "delta %+.2f%% (gate: < 2%%)\n",
              base_s, defended_s, delta * 100.0);
  if (delta >= 0.02) {
    std::printf("FAIL: defense overhead above the 2%% gate\n");
    ok = false;
  }
  if (!ok) return 1;
  std::printf("adversarial overhead gate passed\n");
  return 0;
}

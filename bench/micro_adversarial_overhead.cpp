// micro_adversarial_overhead — gates that the adversarial fault family is
// free when unused. Two properties, checked on a benign (no-fault) run:
//
//  1. Byte-identity: the report of a benign run is byte-identical whether
//     the misbehavior defense parameters are defaulted, explicitly off, or
//     even enabled (an armed scorer that never sees an offense must not
//     perturb a single RNG draw or metric). Any diff is a hard failure.
//  2. Wall-clock: enabling the defense on a benign run must cost < 2%
//     (median over interleaved pairs of runs with the defense unset and
//     on).
//
// A plain program (no google-benchmark timing loop): it exits 1 when either
// gate fails.
#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/serialize.hpp"

namespace {

using namespace stabl;

/// A benign Redbelly run: 60 s for the byte-identity reports, 300 s for
/// the timed runs. A negative `defense` leaves the parameter unset.
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

/// Wall seconds of one benign 300 s run.
double timed_run_seconds(double defense) {
  const auto start = std::chrono::steady_clock::now();
  core::run_experiment(benign_config(defense, 300));
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return elapsed.count();
}

/// Wall-clock budget of the timed pairs, per variant. One 300 s run takes
/// a fraction of a second; a 2% comparison wants dozens of pairs.
constexpr double kTimedSecondsPerVariant = 8.0;

/// Wall seconds of one pair of back-to-back runs, defense unset and on.
struct PairSeconds {
  double base_s = 0.0;
  double defended_s = 0.0;
};

/// Each variant goes first in every other pair, so neither always
/// inherits the caches the other left.
PairSeconds timed_pair(bool base_first) {
  PairSeconds pair;
  if (base_first) {
    pair.base_s = timed_run_seconds(-1.0);
    pair.defended_s = timed_run_seconds(1.0);
  } else {
    pair.defended_s = timed_run_seconds(1.0);
    pair.base_s = timed_run_seconds(-1.0);
  }
  return pair;
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

  // Time the variants in interleaved pairs and gate on the median of the
  // pairs' deltas. A shared host's speed drifts by several percent within
  // a second, both ways, so the fastest run (or sample) of each variant
  // compares two different loads and misreads a 2% bound; the two runs of
  // a pair share one, and the median drops the pairs a load spike split.
  timed_run_seconds(-1.0);  // warm caches outside the measurement
  timed_run_seconds(1.0);
  std::vector<double> deltas;
  double base_total_s = 0.0;
  while (base_total_s < kTimedSecondsPerVariant) {
    const PairSeconds pair = timed_pair(deltas.size() % 2 == 0);
    base_total_s += pair.base_s;
    deltas.push_back((pair.defended_s - pair.base_s) / pair.base_s);
  }
  const auto middle =
      deltas.begin() + static_cast<std::ptrdiff_t>(deltas.size() / 2);
  std::nth_element(deltas.begin(), middle, deltas.end());
  const double delta = *middle;
  std::printf("benign wall-clock, median of %zu interleaved run pairs: "
              "defense on %+.2f%% (gate: < 2%%)\n",
              deltas.size(), delta * 100.0);
  if (delta >= 0.02) {
    std::printf("FAIL: defense overhead above the 2%% gate\n");
    ok = false;
  }
  if (!ok) return 1;
  std::printf("adversarial overhead gate passed\n");
  return 0;
}

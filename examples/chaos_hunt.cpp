// chaos_hunt — the nightly chaos job: randomized multi-plan fault
// schedules against every chain, invariant-oracle audit of every run, and
// automatic shrinking of any violating schedule into a replayable JSON
// repro file.
//
// Usage:
//   chaos_hunt [--chains a,b,...] [--trials N] [--seed N] [--duration S]
//              [--jobs N] [--shrink] [--out DIR] [--adversarial] [--defend]
//
// --adversarial widens the sampled plan space with the Byzantine family
// (equivocate, withhold, eclipse). --defend turns every chain's
// misbehavior scorer on (misbehavior_defense=1), so an adversarial hunt
// only reports what the defenses fail to contain. The defense's contract
// is "at-worst a liveness cost" (DESIGN.md §13), so under --defend only
// a *safety* finding (honest-replica fork, duplicate-height commit) is a
// regression and fails the run; liveness violations still write repros
// but exit 0. Without --defend every violation gates, as before.
//
// Exit status: 0 when no gating oracle violated (expected losses are
// fine), 1 otherwise. Violating (minimized, when --shrink) schedules are
// written to DIR/chaos_<chain>_trial<k>_seed<s>_plan<h>.json for replay
// and for CI artifact upload — the experiment seed and a hash of the
// schedule keep repros from different campaigns (or reruns into the same
// DIR) from overwriting each other — each next to a Perfetto timeline of
// the minimized repro run at the same stem with .trace.json
// (ui.perfetto.dev).
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>

#include "cli_common.hpp"
#include "core/chaos.hpp"

namespace {

using namespace stabl;

void print_usage(std::FILE* out, const char* argv0) {
  std::fprintf(
      out,
      "usage: %s [options]\n"
      "\n"
      "Nightly chaos job: randomized multi-plan fault schedules against\n"
      "every chain, invariant-oracle audit of every run, and automatic\n"
      "shrinking of violating schedules into replayable JSON repros.\n"
      "Exit 0 when no gating oracle fired, 1 otherwise, 2 on usage errors.\n"
      "\n"
      "options:\n"
      "  --chains NAMES      comma-separated chains to hunt (default: all\n"
      "                      five paper chains)\n"
      "  --trials N          schedules per chain, >= 1 (default 5)\n"
      "  --seed N            root RNG seed; trial k of chain c draws from\n"
      "                      a stream derived from (c, k) (default 42)\n"
      "  --duration S        simulated seconds per run, >= 30 (default\n"
      "                      120)\n"
      "  --jobs N            worker threads, >= 1; results are identical\n"
      "                      for any value (default 1)\n"
      "  --shrink            delta-debug every violating schedule to a\n"
      "                      minimal repro before writing it\n"
      "  --out DIR           directory for repro JSON + trace sidecars\n"
      "                      (default: current directory)\n"
      "  --adversarial       widen the plan space with the Byzantine\n"
      "                      family (equivocate, withhold, eclipse)\n"
      "  --defend            turn every chain's misbehavior scorer on;\n"
      "                      only safety findings gate (liveness findings\n"
      "                      still write repros but exit 0)\n"
      "  --heartbeat         wall-clock progress (done/total runs, runs/s,\n"
      "                      ETA) on stderr\n"
      "  --help              print this help and exit 0\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  core::ChaosCampaignConfig config;
  config.trials_per_chain = 5;
  config.base.duration = sim::sec(120);
  std::string out_dir = ".";
  bool adversarial = false;
  bool defend = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        cli::fail(argv[0], arg + " needs a value", cli::help_hint(argv[0]));
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      print_usage(stdout, argv[0]);
      return 0;
    } else if (arg == "--chains") {
      config.chains = cli::parse_chain_list_or_exit(value(), argv[0],
                                                    cli::help_hint(argv[0]));
    } else if (arg == "--trials") {
      config.trials_per_chain = static_cast<std::size_t>(
          cli::parse_integer_or_exit(value(), argv[0], arg, 1));
    } else if (arg == "--seed") {
      config.seed = static_cast<std::uint64_t>(
          cli::parse_integer_or_exit(value(), argv[0], arg, 0));
    } else if (arg == "--duration") {
      config.base.duration =
          sim::sec(cli::parse_integer_or_exit(value(), argv[0], arg, 30));
    } else if (arg == "--jobs") {
      config.jobs = static_cast<unsigned>(cli::parse_integer_or_exit(
          value(), argv[0], arg, 1, std::numeric_limits<unsigned>::max()));
    } else if (arg == "--shrink") {
      config.shrink = true;
    } else if (arg == "--adversarial") {
      adversarial = true;
    } else if (arg == "--defend") {
      defend = true;
    } else if (arg == "--heartbeat") {
      config.heartbeat = true;
    } else if (arg == "--out") {
      out_dir = value();
    } else {
      cli::fail_unknown_flag(argv[0], arg);
    }
  }

  if (adversarial) {
    config.gen = core::adversarial_gen_for(config.base.duration);
  }
  if (defend) config.base.chain_params["misbehavior_defense"] = 1.0;

  std::printf("chaos hunt: %zu chains x %zu trials, seed %llu, %g s runs, "
              "%u jobs%s%s%s\n",
              config.chains.size(), config.trials_per_chain,
              static_cast<unsigned long long>(config.seed),
              sim::to_seconds(config.base.duration), config.jobs,
              config.shrink ? ", shrinking" : "",
              adversarial ? ", adversarial plan space" : "",
              defend ? ", defenses on" : "");

  const core::ChaosCampaignResult result = core::run_chaos_campaign(config);
  std::printf("%s", result.summary_table().c_str());

  std::size_t written = 0;
  for (const core::ChaosTrial& trial : result.trials) {
    if (trial.report.verdict == core::OracleVerdict::kPass) continue;
    std::printf("\n%s trial %zu (seed %llu):\n  %s\n",
                core::to_string(trial.chain).c_str(), trial.trial,
                static_cast<unsigned long long>(trial.experiment_seed),
                trial.report.summary().c_str());
    if (!trial.report.violated()) continue;
    // Persist the repro: the minimized schedule when shrinking succeeded,
    // the full sampled schedule otherwise.
    const core::FaultSchedule& repro = trial.shrunk.has_value()
                                           ? trial.shrunk->schedule
                                           : trial.schedule;
    const std::string repro_json = core::schedule_to_json(repro);
    const std::string stem =
        out_dir + "/" +
        cli::chaos_repro_stem(core::to_string(trial.chain), trial.trial,
                              trial.experiment_seed, repro_json);
    const std::string path = stem + ".json";
    std::ofstream file(path);
    if (!file) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 2;
    }
    file << repro_json << "\n";
    if (!trial.repro_trace.empty()) {
      const std::string trace_path = stem + ".trace.json";
      std::ofstream trace_file(trace_path);
      if (!trace_file) {
        std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
        return 2;
      }
      trace_file << trial.repro_trace << "\n";
      std::printf("  trace written to %s\n", trace_path.c_str());
    }
    std::printf("  repro written to %s", path.c_str());
    if (trial.shrunk.has_value()) {
      std::printf(" (shrunk %zu -> %zu plans in %zu runs)",
                  trial.shrunk->initial_plans,
                  trial.shrunk->schedule.plans.size(), trial.shrunk->runs);
    }
    std::printf("\n");
    ++written;
  }

  std::size_t safety = 0;
  for (const core::ChaosTrial& trial : result.trials) {
    if (trial.report.safety_violation() != nullptr) ++safety;
  }
  std::printf("\n%zu/%zu violations (%zu safety, %zu repro files), %zu "
              "expected losses\n",
              result.violations(), result.trials.size(), safety, written,
              result.expected_losses());
  std::printf("\nwall-clock profile:\n%s", result.timing_table().c_str());
  // With the defenses on, liveness-only violations are within the
  // containment contract; a safety finding is a genuine regression.
  if (defend) return safety > 0 ? 1 : 0;
  return result.violations() > 0 ? 1 : 0;
}

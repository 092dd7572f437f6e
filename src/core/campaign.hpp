// Campaign orchestration: run the paper's full experiment matrix (every
// chain x every dimension) and collect the radar, CSV and JSON outputs in
// one call — the entry point a CI pipeline would use ("STABL, pluggable in
// continuous integration pipelines", §1).
//
// Every cell of the (chain x fault x seed) grid is an independent,
// deterministic pair of runs, so `run_campaign` hands the grid to
// core::run_pairs (experiment.hpp): each distinct experiment runs once
// across `jobs` threads — cells of one chain and seed that need the same
// fault-free twin share it — and the pairs are gathered in grid order:
// parallel output is byte-identical to serial output for the same
// config. Seed sweeps aggregate per-cell runs into `SeedSweepStats`
// (mean / min / max / sample stddev of the score plus the liveness-loss
// count), and the CI gate judges the *worst* seed.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/radar.hpp"

namespace stabl::core {

struct CampaignConfig {
  /// Chains to evaluate (defaults to all five).
  std::vector<ChainKind> chains{kAllChains,
                                kAllChains + std::size(kAllChains)};
  /// Dimensions to evaluate (defaults to the paper's four).
  std::vector<FaultType> faults{FaultType::kCrash, FaultType::kTransient,
                                FaultType::kPartition,
                                FaultType::kSecureClient};
  /// Template applied to every run: each cell is paper_cell(base, fault)
  /// with its chain and seed set.
  ExperimentConfig base{};
  /// Explicit seeds to sweep per cell. When empty, `num_seeds` consecutive
  /// seeds starting at base.seed are used (the default 1 keeps the single
  /// point estimate of the paper).
  std::vector<std::uint64_t> seeds{};
  std::size_t num_seeds = 1;
  /// Worker lanes for the (chain x fault x seed) grid, including the
  /// calling thread; 1 = serial. Output is byte-identical for any value.
  unsigned jobs = 1;
  /// Wall-clock progress heartbeat on stderr (core::Heartbeat): completed
  /// runs (each distinct experiment once), runs/s and an ETA. Excluded
  /// from every deterministic serializer, like cell_wall_ms.
  bool heartbeat = false;

  /// The effective seed list (explicit `seeds`, or `num_seeds` consecutive
  /// seeds from base.seed).
  [[nodiscard]] std::vector<std::uint64_t> seed_list() const;
};

/// Per-cell aggregate over a seed sweep. The moment statistics cover the
/// seeds with a *finite* score; seeds whose altered run lost liveness
/// (infinite score) are counted separately.
struct SeedSweepStats {
  std::size_t seeds = 0;            ///< Seeds evaluated for the cell.
  std::size_t finite = 0;           ///< Seeds with a finite score.
  std::size_t liveness_losses = 0;  ///< Seeds with an infinite score.
  /// True when any seed's baseline measured nothing (invalid cell).
  bool any_invalid_baseline = false;
  /// Over the finite-score seeds (0 when none are finite).
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  double stddev = 0.0;  ///< Sample standard deviation (0 for < 2 seeds).
};

/// Aggregate one cell's per-seed runs (in seed-list order).
SeedSweepStats aggregate_seed_sweep(const std::vector<SensitivityRun>& runs);

struct CampaignResult {
  using CellKey = std::pair<ChainKind, FaultType>;

  RadarSummary radar;
  /// Representative run per cell: the FIRST seed of the sweep (the full
  /// per-seed list is in `seed_runs`). Single-seed campaigns behave
  /// exactly as before.
  std::map<CellKey, SensitivityRun> runs;
  /// Every seed's run per cell, in seed-list order.
  std::map<CellKey, std::vector<SensitivityRun>> seed_runs;
  /// Aggregate statistics per cell.
  std::map<CellKey, SeedSweepStats> sweeps;
  /// The seed list the campaign actually swept.
  std::vector<std::uint64_t> seeds;
  /// Wall-clock milliseconds per (cell, seed) run, in seed-list order, and
  /// for the whole campaign. A cell's time is its faulted run plus an
  /// equal share of its twin and of any other run it shares
  /// (PairResults::wall_ms), so the cells sum to the lanes' busy time.
  /// Harness profiling only: wall timings depend on the machine and the
  /// jobs value, so they are deliberately excluded from to_csv()/to_json()
  /// (which must stay byte-identical) and surface through timing_table()
  /// instead.
  std::map<CellKey, std::vector<double>> cell_wall_ms;
  double total_wall_ms = 0.0;
  /// Distinct experiments the campaign executed (run_pairs): 30 for the
  /// 20-cell paper matrix, whose cells share their fault-free twins.
  /// Harness information like cell_wall_ms; no serializer writes it.
  std::size_t experiments = 0;

  [[nodiscard]] const SensitivityRun* get(ChainKind chain,
                                          FaultType fault) const;
  [[nodiscard]] const SeedSweepStats* sweep(ChainKind chain,
                                            FaultType fault) const;
  /// Full campaign as CSV (header + one row per cell; the representative
  /// first-seed columns are followed by the seed-sweep aggregate columns).
  [[nodiscard]] std::string to_csv() const;
  /// Full campaign as a JSON array of per-cell documents, each carrying a
  /// "seed_sweep" aggregate object.
  [[nodiscard]] std::string to_json() const;
  /// Wall-clock phase profile: one row per cell (total and mean ms across
  /// its seeds, and each seed's ms) plus a campaign total row.
  [[nodiscard]] std::string timing_table() const;
};

/// Run every (chain, fault, seed) cell of the matrix across `config.jobs`
/// threads. Deterministic given the config: any jobs value produces
/// byte-identical to_csv()/to_json() output.
CampaignResult run_campaign(const CampaignConfig& config);

/// One Fig. 3 panel of a campaign run with `config`: a "=== title ===" line,
/// then one row per chain with the first-seed sensitivity of its `fault`
/// cell, f (targets of the cell's resolved primary plan, 0 when nothing is
/// faulted), t at base.n, the recovery time, commits and liveness.
std::string sensitivity_panel(const CampaignConfig& config,
                              const CampaignResult& result, FaultType fault,
                              const std::string& title);

/// CI gate: true when every cell satisfies the paper-shaped expectations
/// passed in `max_score` (per fault type; cells expected to be infinite
/// are listed in `expected_infinite`). Used by examples/regression_gate.
/// Seed sweeps gate on the WORST seed: a cell violates its bound when any
/// seed's finite score exceeds it, loses liveness when any seed does, and
/// an expected-infinite cell must lose liveness at every seed.
struct CampaignGate {
  std::map<FaultType, double> max_score;
  std::vector<std::pair<ChainKind, FaultType>> expected_infinite;
  /// When false, cells that lose liveness are not violations unless listed
  /// in expected_infinite (coarse gates for short smoke runs).
  bool flag_unexpected_liveness_loss = true;
};

/// Returns the list of human-readable violations (empty = gate passes).
std::vector<std::string> check_gate(const CampaignResult& result,
                                    const CampaignGate& gate);

// ---------------------------------------------------------------------------
// Mitigation-evaluation campaign: from measuring sensitivity to reducing it.
//
// Every cell of the (chain x fault x seed) grid — plus, optionally, pairs
// drawn from the adversarial chaos plan space — runs TWICE under the same
// seed and the same fault schedule: once as-configured (unmitigated) and
// once with the mitigation stack applied (the nversion_<chain> meta-chain,
// hedged submissions, endpoint scoring — each layer independently
// switchable). The paired delta `unmitigated − mitigated` quantifies how
// much sensitivity each mitigation removes; a fault fully masked by the
// stack (unmitigated infinite, mitigated finite) reports +inf. Both sides
// go through core::run_pairs, so each side's fault-free twin runs once per
// (chain, seed) however many faults score against it.
// ---------------------------------------------------------------------------

/// Which mitigation layers the mitigated twin of each pair enables.
struct MitigationLayers {
  /// Swap the chain for its `nversion_<chain>` meta-chain (N-version
  /// failover masking crash/hang faults at the node level).
  bool nversion = true;
  /// Resilient client with hedged submissions.
  bool hedging = true;
  /// Resilient client with EWMA endpoint scoring steering failover.
  bool scoring = true;
};

struct MitigationConfig {
  /// Chains to evaluate (defaults to all five paper chains; the mitigated
  /// twin derives its nversion_* counterpart through the registry).
  std::vector<ChainKind> chains{kAllChains,
                                kAllChains + std::size(kAllChains)};
  /// Fault dimensions to pair up. Defaults to the two the nversion design
  /// targets (process failures); any FaultType is accepted.
  std::vector<FaultType> faults{FaultType::kCrash, FaultType::kTransient};
  /// Template applied to both twins of every pair: each fault pair is
  /// paper_cell(base, fault); a chaos pair replaces the fault schedule.
  ExperimentConfig base{};
  std::vector<std::uint64_t> seeds{};
  std::size_t num_seeds = 1;
  /// Adversarial chaos pairs per chain: schedule k of chain c is drawn
  /// from Rng(base.seed).derive(c * 1'000'003 + k) with
  /// adversarial_gen_for(base.duration) — the chaos campaign's stream
  /// discipline — and both twins replay the identical schedule.
  std::size_t chaos_pairs = 0;
  unsigned jobs = 1;
  MitigationLayers layers{};
  /// Wall-clock progress heartbeat on stderr (see CampaignConfig).
  bool heartbeat = false;

  [[nodiscard]] std::vector<std::uint64_t> seed_list() const;
};

/// One matched baseline/mitigated cell pair: same chain family, same seed,
/// same fault schedule; only the mitigation stack differs.
struct MitigationPair {
  ChainKind chain = ChainKind::kRedbelly;
  FaultType fault = FaultType::kNone;  ///< kNone for chaos rows
  bool chaos = false;
  std::size_t chaos_trial = 0;
  std::uint64_t seed = 0;
  /// Name of the chain the mitigated twin actually ran
  /// ("nversion_redbelly", or the base name when layers.nversion is off).
  std::string mitigated_chain;
  /// The chaos schedule both twins replayed (empty for matrix rows).
  FaultSchedule schedule;
  SensitivityRun unmitigated;
  SensitivityRun mitigated;

  /// unmitigated − mitigated sensitivity. +inf when the mitigation masked
  /// a liveness loss, -inf when it *introduced* one, 0 when both twins
  /// lost liveness or either baseline was invalid.
  [[nodiscard]] double delta() const;
  /// Strict improvement: the mitigation stack reduced sensitivity.
  [[nodiscard]] bool improved() const;
};

struct MitigationResult {
  MitigationLayers layers;
  /// Matrix pairs first (chain-major, fault, seed order), then chaos pairs
  /// (chain-major, trial order) — deterministic for any jobs value.
  std::vector<MitigationPair> pairs;
  /// Distinct experiments executed (run_pairs). No serializer writes it.
  std::size_t experiments = 0;

  [[nodiscard]] std::size_t improvements() const;
  [[nodiscard]] std::size_t regressions() const;
  /// Human-readable paired sensitivity-delta table.
  [[nodiscard]] std::string delta_table() const;
  /// Machine-readable delta table. Byte-identical for any jobs value.
  [[nodiscard]] std::string delta_csv() const;
  /// Full campaign as JSON. Byte-identical for any jobs value.
  [[nodiscard]] std::string to_json() const;
};

/// The mitigated twin of a cell config: chain swapped for its nversion
/// meta-chain and/or the resilient-client hedging/scoring knobs enabled,
/// per `layers`. Everything else (seed, faults, workload, duration, chain
/// parameter overrides) is carried verbatim.
ExperimentConfig mitigated_config(const ExperimentConfig& cell,
                                  const MitigationLayers& layers);

/// Run the paired campaign across config.jobs threads. Deterministic:
/// delta_csv()/to_json() are byte-identical for any jobs value.
MitigationResult run_mitigation_campaign(const MitigationConfig& config);

}  // namespace stabl::core

// Sensitivity attribution: *where* does the lost time go?
//
// The paper's radar charts say how much each chain's client-observed
// behavior degrades under a fault; this layer explains the degradation by
// stage. Every (chain, fault) cell runs as a paired twin experiment —
// fault-free baseline vs altered, same seed, the exact pairing rule of
// run_sensitivity — with a sim::LifecycleRecorder attached to each run.
// The recorder's per-transaction stage times fold into five latency
// segments per run:
//
//   submit     = submitted      -> entry_received   (client -> entry node)
//   admission  = entry_received -> queued           (RPC -> mempool)
//   queueing   = queued         -> proposed         (mempool wait)
//   consensus  = proposed       -> committed        (rounds, votes, stalls)
//   notify     = committed      -> confirmed        (commit notification,
//                                                    incl. client retries)
//
// Stage times are clamped monotone by carry-forward (sim::stage_times), so
// the five segment latencies of a confirmed transaction telescope EXACTLY
// to its client-observed commit latency, and the per-stage mean deltas of
// a cell sum (within floating-point rounding) to the cell's measured mean
// commit-latency delta — the invariant tests/test_trace.cpp asserts.
//
// Unconfirmed transactions are attributed by the deepest stage they
// reached (loss breakdown), and the resilience hop counters (resubmit,
// hedge, failover, recovery replay) quantify how often the fault forced a
// detour. The cell's dominant stage is the segment with the largest
// absolute mean-latency delta.
//
// Cells go through core::run_pairs (experiment.hpp): each distinct run —
// a twin shared by several faults counts once — gets one recorder and one
// fold, copied to every cell that uses it. Determinism: the pairs are
// gathered in grid order, every serializer uses fixed precisions, and the
// recorder is independent of TraceSink — to_csv()/to_json() are
// byte-identical at every jobs setting and with tracing on or off.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/metrics.hpp"
#include "sim/lifecycle.hpp"

namespace stabl::core {

struct AttributionConfig {
  /// Chains to attribute (defaults to all five paper chains; nversion_*
  /// meta-chains work too — pass their registry ids).
  std::vector<ChainKind> chains{kAllChains,
                                kAllChains + std::size(kAllChains)};
  /// Fault dimensions (defaults to the paper's four).
  std::vector<FaultType> faults{FaultType::kCrash, FaultType::kTransient,
                                FaultType::kPartition,
                                FaultType::kSecureClient};
  /// Template applied to both twins of every cell: each cell is
  /// paper_cell(base, fault) with its chain set.
  ExperimentConfig base{};
  /// Worker lanes; 1 = serial. Output is byte-identical for any value.
  unsigned jobs = 1;
  /// Wall-clock progress heartbeat on stderr (core::Heartbeat). Never
  /// touches the deterministic serializers.
  bool heartbeat = false;
};

/// Number of latency segments (stage transitions).
inline constexpr std::size_t kNumStageSegments = sim::kNumTxStages - 1;

/// One run's per-stage fold of its lifecycle records.
struct StageBreakdown {
  std::uint64_t submitted = 0;  ///< records seen by the recorder
  std::uint64_t confirmed = 0;  ///< records that reached kConfirmed
  /// Mean latency of each segment over the confirmed transactions,
  /// seconds. Telescopes exactly: the entries sum to mean_latency_s.
  std::array<double, kNumStageSegments> mean_s{};
  /// Mean client-observed commit latency over the confirmed transactions.
  double mean_latency_s = 0.0;
  /// Log-scale segment-latency histograms (Histogram::log_bounds(0.001,
  /// 256.0, 4)) over the confirmed transactions, for p50/p90/p99 columns.
  std::array<Histogram, kNumStageSegments> segments{};
  /// Unconfirmed transactions bucketed by the deepest stage they reached
  /// (index = sim::TxStage). lost_at[kConfirmed] is always 0.
  std::array<std::uint64_t, sim::kNumTxStages> lost_at{};
  /// Resilience hop totals over all transactions (index = sim::TxHop).
  std::array<std::uint64_t, sim::kNumTxHops> hops{};
};

/// Fold a recorder's records into a StageBreakdown. Deterministic: record
/// order is the recorder's first-touch order.
StageBreakdown fold_lifecycle(const sim::LifecycleRecorder& recorder);

/// One attributed (chain, fault) cell: both twins' breakdowns plus the
/// headline measurements of the paired runs.
struct AttributionCell {
  ChainKind chain = ChainKind::kRedbelly;
  FaultType fault = FaultType::kNone;
  std::uint64_t seed = 0;
  SensitivityScore score{};       ///< paper score of the pair, for context
  bool altered_live_at_end = true;
  StageBreakdown baseline;
  StageBreakdown altered;
  /// Mean commit-latency delta as run_experiment measured it
  /// (altered.mean_latency_s − baseline.mean_latency_s of the results) —
  /// the quantity the per-stage deltas must sum to.
  double measured_latency_delta_s = 0.0;

  /// Per-segment mean-latency delta, altered − baseline, seconds.
  [[nodiscard]] std::array<double, kNumStageSegments> delta_s() const;
  /// Loss-fraction delta per deepest stage (altered − baseline share of
  /// submitted transactions never confirmed).
  [[nodiscard]] std::array<double, sim::kNumTxStages> loss_delta() const;
  /// Index into stage_segment_names() of the segment with the largest
  /// absolute mean-latency delta.
  [[nodiscard]] std::size_t dominant_segment() const;
  /// The dominant segment's share of the total absolute delta, in [0, 1].
  [[nodiscard]] double dominant_share() const;
};

struct AttributionReport {
  /// Chain-major, fault order — deterministic for any jobs value.
  std::vector<AttributionCell> cells;
  /// Distinct experiments executed (run_pairs): 6 for one chain's four
  /// paper faults. No serializer writes it.
  std::size_t experiments = 0;

  [[nodiscard]] const AttributionCell* get(ChainKind chain,
                                           FaultType fault) const;
  /// Human-readable per-cell table: one row per cell with the five
  /// segment deltas, the dominant stage and the loss delta.
  [[nodiscard]] std::string to_table() const;
  /// Machine-readable CSV: per-cell row with baseline/altered/delta mean
  /// per segment plus p50/p90/p99 of the altered run's segments, loss and
  /// hop columns. Byte-identical for any jobs value and trace on/off.
  [[nodiscard]] std::string to_csv() const;
  /// Full report as JSON (self-describing, fixed precision). Byte-stable
  /// under the same conditions as to_csv().
  [[nodiscard]] std::string to_json() const;
};

/// Run the paired attribution campaign over config.jobs threads.
AttributionReport run_attribution(const AttributionConfig& config);

}  // namespace stabl::core

// Fig. 7 aggregation: all sensitivity scores of all chains across the four
// dimensions (crash, transient, partition, Byzantine-node-tolerance
// mechanism), rendered as a text radar table. Seed-sweep campaigns also
// record per-cell aggregates, rendered as a second mean±stddev table.
#pragma once

#include <map>
#include <string>

#include "core/experiment.hpp"
#include "core/fault.hpp"
#include "core/sensitivity.hpp"

namespace stabl::core {

struct SeedSweepStats;  // core/campaign.hpp

/// Per-cell seed-sweep aggregate as the radar stores it (a trimmed copy of
/// SeedSweepStats, kept here so radar.hpp need not include campaign.hpp).
struct RadarSweepCell {
  std::size_t seeds = 0;
  std::size_t liveness_losses = 0;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  double stddev = 0.0;
};

/// One attributed cell as the radar stores it (a trimmed copy of an
/// AttributionCell's headline, kept here so radar.hpp need not include
/// attribution.hpp): the mean commit-latency delta of the pair and the
/// lifecycle stage segment it predominantly comes from.
struct RadarAttributionCell {
  double latency_delta_s = 0.0;
  std::string dominant_stage;  ///< sim::stage_segment_names() entry
  double dominant_share = 0.0;  ///< its fraction of the total |delta|
};

class RadarSummary {
 public:
  void record(ChainKind chain, FaultType dimension,
              const SensitivityScore& score);
  /// Record a cell's seed-sweep aggregate (shown by sweep_table()).
  void record_sweep(ChainKind chain, FaultType dimension,
                    const SeedSweepStats& stats);
  /// Record a cell's sensitivity attribution (shown by
  /// attribution_table()).
  void record_attribution(ChainKind chain, FaultType dimension,
                          RadarAttributionCell cell);

  [[nodiscard]] const SensitivityScore* get(ChainKind chain,
                                            FaultType dimension) const;
  [[nodiscard]] const RadarSweepCell* get_sweep(ChainKind chain,
                                                FaultType dimension) const;
  [[nodiscard]] const RadarAttributionCell* get_attribution(
      ChainKind chain, FaultType dimension) const;

  /// Table with one row per chain and one column per dimension; scores
  /// rendered like the paper's figures ("inf", trailing '*' = benefits).
  [[nodiscard]] std::string to_table() const;
  /// Seed-sweep companion table: "mean±sd [min..max]" per cell, with the
  /// liveness-loss fraction when any seed died. Cells without a recorded
  /// sweep render as "-".
  [[nodiscard]] std::string sweep_table() const;
  /// Attribution companion table: "+<delta>s <stage> <share>%" per cell —
  /// where the cell's latency degradation predominantly comes from
  /// (core/attribution.hpp). Cells without a recorded attribution render
  /// as "-".
  [[nodiscard]] std::string attribution_table() const;

 private:
  std::map<std::pair<ChainKind, FaultType>, SensitivityScore> scores_;
  std::map<std::pair<ChainKind, FaultType>, RadarSweepCell> sweeps_;
  std::map<std::pair<ChainKind, FaultType>, RadarAttributionCell>
      attributions_;
};

}  // namespace stabl::core

#include "core/radar.hpp"

#include "core/campaign.hpp"
#include "core/report.hpp"

namespace stabl::core {
namespace {

constexpr FaultType kDims[] = {FaultType::kCrash, FaultType::kTransient,
                               FaultType::kPartition,
                               FaultType::kSecureClient};

std::string sweep_cell_text(const RadarSweepCell& cell) {
  if (cell.seeds == cell.liveness_losses) {
    return "inf x" + std::to_string(cell.liveness_losses);
  }
  // ASCII "+-" keeps the fixed-width table aligned (no multi-byte glyphs).
  std::string text = Table::num(cell.mean, 2) + "+-" +
                     Table::num(cell.stddev, 2) + " [" +
                     Table::num(cell.min, 2) + ".." +
                     Table::num(cell.max, 2) + "]";
  if (cell.liveness_losses > 0) {
    text += " inf:" + std::to_string(cell.liveness_losses) + "/" +
            std::to_string(cell.seeds);
  }
  return text;
}

}  // namespace

void RadarSummary::record(ChainKind chain, FaultType dimension,
                          const SensitivityScore& score) {
  scores_[{chain, dimension}] = score;
}

void RadarSummary::record_sweep(ChainKind chain, FaultType dimension,
                                const SeedSweepStats& stats) {
  RadarSweepCell cell;
  cell.seeds = stats.seeds;
  cell.liveness_losses = stats.liveness_losses;
  cell.mean = stats.mean;
  cell.min = stats.min;
  cell.max = stats.max;
  cell.stddev = stats.stddev;
  sweeps_[{chain, dimension}] = cell;
}

void RadarSummary::record_attribution(ChainKind chain, FaultType dimension,
                                      RadarAttributionCell cell) {
  attributions_[{chain, dimension}] = std::move(cell);
}

const SensitivityScore* RadarSummary::get(ChainKind chain,
                                          FaultType dimension) const {
  const auto it = scores_.find({chain, dimension});
  return it == scores_.end() ? nullptr : &it->second;
}

const RadarSweepCell* RadarSummary::get_sweep(ChainKind chain,
                                              FaultType dimension) const {
  const auto it = sweeps_.find({chain, dimension});
  return it == sweeps_.end() ? nullptr : &it->second;
}

const RadarAttributionCell* RadarSummary::get_attribution(
    ChainKind chain, FaultType dimension) const {
  const auto it = attributions_.find({chain, dimension});
  return it == attributions_.end() ? nullptr : &it->second;
}

std::string RadarSummary::to_table() const {
  Table table({"chain", "crash", "transient", "partition", "byzantine"});
  for (const ChainKind chain : kAllChains) {
    std::vector<std::string> row{to_string(chain)};
    for (const FaultType dim : kDims) {
      const SensitivityScore* score = get(chain, dim);
      row.push_back(score == nullptr ? "-" : format_score(*score));
    }
    table.add_row(std::move(row));
  }
  return table.to_string();
}

std::string RadarSummary::attribution_table() const {
  Table table({"chain", "crash", "transient", "partition", "byzantine"});
  for (const ChainKind chain : kAllChains) {
    std::vector<std::string> row{to_string(chain)};
    for (const FaultType dim : kDims) {
      const RadarAttributionCell* cell = get_attribution(chain, dim);
      if (cell == nullptr) {
        row.push_back("-");
        continue;
      }
      const std::string sign = cell->latency_delta_s >= 0 ? "+" : "";
      row.push_back(sign + Table::num(cell->latency_delta_s, 2) + "s " +
                    cell->dominant_stage + " " +
                    Table::num(100.0 * cell->dominant_share, 0) + "%");
    }
    table.add_row(std::move(row));
  }
  return table.to_string();
}

std::string RadarSummary::sweep_table() const {
  Table table({"chain", "crash", "transient", "partition", "byzantine"});
  for (const ChainKind chain : kAllChains) {
    std::vector<std::string> row{to_string(chain)};
    for (const FaultType dim : kDims) {
      const RadarSweepCell* cell = get_sweep(chain, dim);
      row.push_back(cell == nullptr ? "-" : sweep_cell_text(*cell));
    }
    table.add_row(std::move(row));
  }
  return table.to_string();
}

}  // namespace stabl::core

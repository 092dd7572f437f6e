// The Fig. 7 radar grid: one row per paper chain and one column per
// dimension (crash, transient, partition, Byzantine-node-tolerance
// mechanism). Every radar table is this grid with its own cell text: the
// campaign's scores and seed sweeps (CampaignResult::radar_table,
// sweep_table) and attribution's dominant stages
// (AttributionReport::dominant_stage_table) each format their own stored
// results, so which chains and dimensions make a radar is decided here.
#pragma once

#include <functional>
#include <optional>
#include <string>

#include "core/experiment.hpp"
#include "core/fault.hpp"

namespace stabl::core {

/// Text of one (chain, dimension) cell; std::nullopt when the cell was not
/// run, which renders as "-".
using RadarCellText =
    std::function<std::optional<std::string>(ChainKind, FaultType)>;

/// The radar grid with `cell` as each cell's text.
[[nodiscard]] std::string radar_table(const RadarCellText& cell);

}  // namespace stabl::core

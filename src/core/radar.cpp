#include "core/radar.hpp"

#include "core/report.hpp"

namespace stabl::core {

std::string radar_table(const RadarCellText& cell) {
  constexpr FaultType kDims[] = {FaultType::kCrash, FaultType::kTransient,
                                 FaultType::kPartition,
                                 FaultType::kSecureClient};
  Table table({"chain", "crash", "transient", "partition", "byzantine"});
  for (const ChainKind chain : kAllChains) {
    std::vector<std::string> row{to_string(chain)};
    for (const FaultType dim : kDims) {
      row.push_back(cell(chain, dim).value_or("-"));
    }
    table.add_row(std::move(row));
  }
  return table.to_string();
}

}  // namespace stabl::core

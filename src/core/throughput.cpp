#include "core/throughput.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace stabl::core {

ThroughputSeries::ThroughputSeries(const chain::Ledger& ledger,
                                   sim::Duration duration) {
  const auto seconds =
      static_cast<std::size_t>(std::ceil(sim::to_seconds(duration)));
  bins_.assign(std::max<std::size_t>(seconds, 1), 0.0);
  for (const chain::Block& block : ledger.blocks()) {
    const auto bin =
        static_cast<std::size_t>(sim::to_seconds(block.committed_at));
    if (bin >= bins_.size()) continue;
    bins_[bin] += static_cast<double>(block.txs().size());
  }
}

double ThroughputSeries::average(double from_s, double to_s) const {
  // Bin convention: bin t covers [t, t+1). The window's lower bound is
  // floored and the upper bound is CEILED, so every bin the window touches
  // contributes — a fractional to_s used to be truncated, silently
  // dropping the final partial bin (a 10.5 s window averaged only the
  // first 10 bins).
  const auto lo = static_cast<std::size_t>(std::max(0.0, from_s));
  const auto hi = std::min(
      bins_.size(),
      static_cast<std::size_t>(std::ceil(std::max(0.0, to_s))));
  if (lo >= hi) return 0.0;
  const double sum = std::accumulate(bins_.begin() + lo, bins_.begin() + hi,
                                     0.0);
  return sum / static_cast<double>(hi - lo);
}

double ThroughputSeries::overall_average() const {
  return average(0.0, static_cast<double>(bins_.size()));
}

double ThroughputSeries::peak() const {
  if (bins_.empty()) return 0.0;
  return *std::max_element(bins_.begin(), bins_.end());
}

double recovery_seconds(const ThroughputSeries& series, double after_s,
                        double threshold_tps, double window_s) {
  return recovery_seconds(series.bins(), after_s, threshold_tps, window_s);
}

double recovery_seconds(const std::vector<double>& bins, double after_s,
                        double threshold_tps, double window_s) {
  // Recovery = the first commit-carrying second from which the next
  // `window_s` seconds average at least the threshold. Averaging (rather
  // than requiring every bin) matters because block times can exceed one
  // second (the paper makes the same point about sliding windows in §3);
  // requiring the first bin to be non-empty anchors the detection to an
  // actual commit rather than to a window that merely contains one.
  const auto window = static_cast<std::size_t>(std::max(1.0, window_s));
  // Scan from the first WHOLE bin at or after the fault clears: flooring a
  // fractional after_s used to admit the bin containing the fault-clear
  // instant, reporting recovery up to ~1 s early (even negative).
  const auto start =
      static_cast<std::size_t>(std::ceil(std::max(0.0, after_s)));
  for (std::size_t t = start; t + window <= bins.size(); ++t) {
    if (bins[t] <= 0.0) continue;
    const double avg =
        std::accumulate(bins.begin() + static_cast<std::ptrdiff_t>(t),
                        bins.begin() + static_cast<std::ptrdiff_t>(t + window),
                        0.0) /
        static_cast<double>(window);
    if (avg >= threshold_tps) return static_cast<double>(t) - after_s;
  }
  return -1.0;
}

}  // namespace stabl::core

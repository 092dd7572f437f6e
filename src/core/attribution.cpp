#include "core/attribution.hpp"

#include <cmath>
#include <sstream>
#include <utility>

#include "core/report.hpp"
#include "core/sensitivity.hpp"

namespace stabl::core {
namespace {

// Same fixed precision as the metrics serializers: byte-stable output.
constexpr int kSecondsPrecision = 6;

std::vector<double> segment_bounds() {
  return Histogram::log_bounds(0.001, 256.0, 4);
}

std::string seconds(double value) {
  return Table::num(value, kSecondsPrecision);
}

}  // namespace

StageBreakdown fold_lifecycle(const sim::LifecycleRecorder& recorder) {
  StageBreakdown out;
  const auto& names = sim::stage_segment_names();
  for (std::size_t i = 0; i < kNumStageSegments; ++i) {
    out.segments[i] = Histogram(names[i], segment_bounds());
  }
  std::array<double, kNumStageSegments> sums{};
  double latency_sum = 0.0;
  for (const sim::TxLifecycle& record : recorder.records()) {
    if (!record.reached(sim::TxStage::kSubmitted)) continue;
    ++out.submitted;
    for (std::size_t h = 0; h < sim::kNumTxHops; ++h) {
      out.hops[h] += record.hops[h];
    }
    if (!record.reached(sim::TxStage::kConfirmed)) {
      ++out.lost_at[static_cast<std::size_t>(record.deepest())];
      continue;
    }
    ++out.confirmed;
    const auto times = sim::stage_times(record);
    for (std::size_t i = 0; i < kNumStageSegments; ++i) {
      const double dt_s = sim::to_seconds(times[i + 1] - times[i]);
      sums[i] += dt_s;
      out.segments[i].observe(dt_s);
    }
    latency_sum +=
        sim::to_seconds(times[kNumStageSegments] - times[0]);
  }
  if (out.confirmed > 0) {
    const double n = static_cast<double>(out.confirmed);
    for (std::size_t i = 0; i < kNumStageSegments; ++i) {
      out.mean_s[i] = sums[i] / n;
    }
    out.mean_latency_s = latency_sum / n;
  }
  return out;
}

std::array<double, kNumStageSegments> AttributionCell::delta_s() const {
  std::array<double, kNumStageSegments> deltas{};
  for (std::size_t i = 0; i < kNumStageSegments; ++i) {
    deltas[i] = altered.mean_s[i] - baseline.mean_s[i];
  }
  return deltas;
}

std::array<double, sim::kNumTxStages> AttributionCell::loss_delta() const {
  std::array<double, sim::kNumTxStages> deltas{};
  for (std::size_t s = 0; s < sim::kNumTxStages; ++s) {
    const double altered_share =
        altered.submitted == 0
            ? 0.0
            : static_cast<double>(altered.lost_at[s]) /
                  static_cast<double>(altered.submitted);
    const double baseline_share =
        baseline.submitted == 0
            ? 0.0
            : static_cast<double>(baseline.lost_at[s]) /
                  static_cast<double>(baseline.submitted);
    deltas[s] = altered_share - baseline_share;
  }
  return deltas;
}

std::size_t AttributionCell::dominant_segment() const {
  const auto deltas = delta_s();
  std::size_t best = 0;
  for (std::size_t i = 1; i < kNumStageSegments; ++i) {
    if (std::abs(deltas[i]) > std::abs(deltas[best])) best = i;
  }
  return best;
}

double AttributionCell::dominant_share() const {
  const auto deltas = delta_s();
  double total = 0.0;
  for (const double d : deltas) total += std::abs(d);
  if (total <= 0.0) return 0.0;
  return std::abs(deltas[dominant_segment()]) / total;
}

const AttributionCell* AttributionReport::get(ChainKind chain,
                                              FaultType fault) const {
  for (const AttributionCell& cell : cells) {
    if (cell.chain == chain && cell.fault == fault) return &cell;
  }
  return nullptr;
}

std::string AttributionReport::to_table() const {
  const auto& names = sim::stage_segment_names();
  std::vector<std::string> header{"chain", "fault", "score", "dlat_s"};
  for (const char* name : names) header.push_back(std::string("d") + name);
  header.push_back("dominant");
  header.push_back("share");
  header.push_back("dloss");
  Table table(std::move(header));
  for (const AttributionCell& cell : cells) {
    const auto deltas = cell.delta_s();
    std::vector<std::string> row{to_string(cell.chain),
                                 to_string(cell.fault),
                                 format_score(cell.score),
                                 Table::num(cell.measured_latency_delta_s, 3)};
    for (const double d : deltas) row.push_back(Table::num(d, 3));
    row.push_back(names[cell.dominant_segment()]);
    row.push_back(Table::num(cell.dominant_share(), 2));
    const auto losses = cell.loss_delta();
    double loss_total = 0.0;
    for (const double l : losses) loss_total += l;
    row.push_back(Table::num(loss_total, 3));
    table.add_row(std::move(row));
  }
  return table.to_string();
}

std::string AttributionReport::to_csv() const {
  const auto& names = sim::stage_segment_names();
  std::vector<std::string> header{
      "chain",      "fault",          "seed",
      "score",      "live_at_end",    "baseline_mean_s",
      "altered_mean_s", "latency_delta_s", "measured_delta_s"};
  for (const char* name : names) {
    header.push_back(std::string(name) + "_baseline_s");
    header.push_back(std::string(name) + "_altered_s");
    header.push_back(std::string(name) + "_delta_s");
    header.push_back(std::string(name) + "_p50_s");
    header.push_back(std::string(name) + "_p90_s");
    header.push_back(std::string(name) + "_p99_s");
  }
  header.insert(header.end(),
                {"dominant_stage", "dominant_share", "baseline_submitted",
                 "baseline_confirmed", "altered_submitted",
                 "altered_confirmed"});
  for (std::size_t s = 0; s < sim::kNumTxStages; ++s) {
    header.push_back(std::string("lost_at_") +
                     to_string(static_cast<sim::TxStage>(s)));
  }
  for (std::size_t h = 0; h < sim::kNumTxHops; ++h) {
    header.push_back(std::string("hops_") +
                     to_string(static_cast<sim::TxHop>(h)));
  }
  std::ostringstream out;
  out << csv_join(header) << '\n';
  for (const AttributionCell& cell : cells) {
    const auto deltas = cell.delta_s();
    std::vector<std::string> row{
        to_string(cell.chain),
        to_string(cell.fault),
        std::to_string(cell.seed),
        format_score(cell.score),
        cell.altered_live_at_end ? "1" : "0",
        seconds(cell.baseline.mean_latency_s),
        seconds(cell.altered.mean_latency_s),
        seconds(cell.altered.mean_latency_s - cell.baseline.mean_latency_s),
        seconds(cell.measured_latency_delta_s)};
    for (std::size_t i = 0; i < kNumStageSegments; ++i) {
      row.push_back(seconds(cell.baseline.mean_s[i]));
      row.push_back(seconds(cell.altered.mean_s[i]));
      row.push_back(seconds(deltas[i]));
      row.push_back(seconds(cell.altered.segments[i].quantile(0.50)));
      row.push_back(seconds(cell.altered.segments[i].quantile(0.90)));
      row.push_back(seconds(cell.altered.segments[i].quantile(0.99)));
    }
    row.push_back(names[cell.dominant_segment()]);
    row.push_back(seconds(cell.dominant_share()));
    row.push_back(std::to_string(cell.baseline.submitted));
    row.push_back(std::to_string(cell.baseline.confirmed));
    row.push_back(std::to_string(cell.altered.submitted));
    row.push_back(std::to_string(cell.altered.confirmed));
    for (std::size_t s = 0; s < sim::kNumTxStages; ++s) {
      row.push_back(std::to_string(cell.altered.lost_at[s]));
    }
    for (std::size_t h = 0; h < sim::kNumTxHops; ++h) {
      row.push_back(std::to_string(cell.altered.hops[h]));
    }
    out << csv_join(row) << '\n';
  }
  return out.str();
}

std::string AttributionReport::to_json() const {
  const auto& names = sim::stage_segment_names();
  std::ostringstream out;
  out << "[";
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const AttributionCell& cell = cells[c];
    const auto deltas = cell.delta_s();
    if (c > 0) out << ",";
    out << "{\"chain\":\"" << to_string(cell.chain) << "\",\"fault\":\""
        << to_string(cell.fault) << "\",\"seed\":" << cell.seed
        << ",\"score\":\"" << format_score(cell.score)
        << "\",\"live_at_end\":" << (cell.altered_live_at_end ? "true" : "false")
        << ",\"measured_latency_delta_s\":"
        << seconds(cell.measured_latency_delta_s) << ",\"segments\":[";
    for (std::size_t i = 0; i < kNumStageSegments; ++i) {
      if (i > 0) out << ",";
      out << "{\"segment\":\"" << names[i] << "\",\"baseline_mean_s\":"
          << seconds(cell.baseline.mean_s[i]) << ",\"altered_mean_s\":"
          << seconds(cell.altered.mean_s[i]) << ",\"delta_s\":"
          << seconds(deltas[i]) << ",\"altered_p50_s\":"
          << seconds(cell.altered.segments[i].quantile(0.50))
          << ",\"altered_p90_s\":"
          << seconds(cell.altered.segments[i].quantile(0.90))
          << ",\"altered_p99_s\":"
          << seconds(cell.altered.segments[i].quantile(0.99)) << "}";
    }
    out << "],\"dominant_stage\":\"" << names[cell.dominant_segment()]
        << "\",\"dominant_share\":" << seconds(cell.dominant_share())
        << ",\"baseline\":{\"submitted\":" << cell.baseline.submitted
        << ",\"confirmed\":" << cell.baseline.confirmed
        << ",\"mean_latency_s\":" << seconds(cell.baseline.mean_latency_s)
        << "},\"altered\":{\"submitted\":" << cell.altered.submitted
        << ",\"confirmed\":" << cell.altered.confirmed
        << ",\"mean_latency_s\":" << seconds(cell.altered.mean_latency_s)
        << "},\"lost_at\":{";
    for (std::size_t s = 0; s < sim::kNumTxStages; ++s) {
      if (s > 0) out << ",";
      out << "\"" << to_string(static_cast<sim::TxStage>(s))
          << "\":" << cell.altered.lost_at[s];
    }
    out << "},\"hops\":{";
    for (std::size_t h = 0; h < sim::kNumTxHops; ++h) {
      if (h > 0) out << ",";
      out << "\"" << to_string(static_cast<sim::TxHop>(h)) << "\":["
          << cell.baseline.hops[h] << "," << cell.altered.hops[h] << "]";
    }
    out << "}}";
  }
  out << "]";
  return out.str();
}

AttributionReport run_attribution(const AttributionConfig& config) {
  // Cells run concurrently; observability shared through base would race.
  const ExperimentConfig base = without_observers(config.base);
  std::vector<ExperimentConfig> cells;
  cells.reserve(config.chains.size() * config.faults.size());
  for (const ChainKind chain : config.chains) {
    for (const FaultType fault : config.faults) {
      ExperimentConfig cell = paper_cell(base, fault);
      cell.chain = chain;
      cells.push_back(std::move(cell));
    }
  }

  // One recorder and one fold per distinct run; every cell that shares a
  // run gets a copy of its fold.
  const PairPlan plan = plan_pairs(cells);
  std::vector<StageBreakdown> folds(plan.runs.size());
  PairOptions options;
  options.jobs = config.jobs;
  options.heartbeat = config.heartbeat;
  options.label = "attribution";
  options.run_one = [&folds](const ExperimentConfig& run_config,
                             std::size_t run) {
    sim::LifecycleRecorder recorder;
    ExperimentConfig recorded = run_config;
    recorded.lifecycle = &recorder;
    ExperimentResult result = run_experiment(recorded);
    folds[run] = fold_lifecycle(recorder);
    return result;
  };
  const PairResults pairs = run_pairs(plan, options);

  AttributionReport report;
  report.experiments = pairs.experiments;
  report.cells.reserve(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const SensitivityRun& pair = pairs.pairs[i];
    AttributionCell cell;
    cell.chain = cells[i].chain;
    cell.fault = cells[i].fault;
    cell.seed = cells[i].seed;
    cell.score = pair.score;
    cell.altered_live_at_end = pair.altered.live_at_end;
    cell.baseline = folds[plan.baseline[i]];
    cell.altered = folds[plan.altered[i]];
    cell.measured_latency_delta_s =
        pair.altered.mean_latency_s - pair.baseline.mean_latency_s;
    report.cells.push_back(std::move(cell));
  }
  return report;
}

}  // namespace stabl::core

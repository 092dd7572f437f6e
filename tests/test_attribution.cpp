// Tests for sensitivity attribution (core/attribution.hpp): the
// lifecycle fold, the per-cell delta accessors, and the campaign's hard
// guarantees — byte-identical reports at every jobs setting, cells that
// share a run report what they would alone, and per-stage latency deltas
// that sum (within floating-point rounding) to the cell's measured mean
// commit-latency delta.
#include "core/attribution.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/experiment.hpp"
#include "sim/lifecycle.hpp"

namespace stabl::core {
namespace {

// ----------------------------------------------------------------- fold

TEST(FoldLifecycle, SeparatesConfirmedLostAndHopTotals) {
  sim::LifecycleRecorder recorder;
  // A confirmed transaction: 1s in each of the five segments.
  for (std::size_t s = 0; s < sim::kNumTxStages; ++s) {
    recorder.mark(1, static_cast<sim::TxStage>(s),
                  sim::seconds(1.0 + static_cast<double>(s)));
  }
  recorder.hop(1, sim::TxHop::kResubmit);
  // A lost transaction that died in the mempool.
  recorder.mark(2, sim::TxStage::kSubmitted, sim::seconds(2.0));
  recorder.mark(2, sim::TxStage::kEntryReceived, sim::seconds(2.1));
  recorder.mark(2, sim::TxStage::kQueued, sim::seconds(2.2));

  const StageBreakdown fold = fold_lifecycle(recorder);
  EXPECT_EQ(fold.submitted, 2u);
  EXPECT_EQ(fold.confirmed, 1u);
  for (std::size_t i = 0; i < kNumStageSegments; ++i) {
    EXPECT_NEAR(fold.mean_s[i], 1.0, 1e-9);
  }
  EXPECT_NEAR(fold.mean_latency_s, 5.0, 1e-9);
  EXPECT_EQ(fold.lost_at[static_cast<std::size_t>(sim::TxStage::kQueued)],
            1u);
  EXPECT_EQ(fold.hops[static_cast<std::size_t>(sim::TxHop::kResubmit)], 1u);
}

// ------------------------------------------------------------ accessors

TEST(AttributionCell, DominantSegmentAndLossDelta) {
  AttributionCell cell;
  cell.baseline.submitted = 100;
  cell.altered.submitted = 100;
  cell.baseline.mean_s = {0.1, 0.1, 0.1, 0.1, 0.1};
  cell.altered.mean_s = {0.1, 0.1, 0.3, 1.1, 0.1};
  const auto deltas = cell.delta_s();
  EXPECT_NEAR(deltas[2], 0.2, 1e-9);
  EXPECT_NEAR(deltas[3], 1.0, 1e-9);
  EXPECT_EQ(cell.dominant_segment(), 3u);  // consensus
  EXPECT_NEAR(cell.dominant_share(), 1.0 / 1.2, 1e-9);
  EXPECT_STREQ(sim::stage_segment_names()[cell.dominant_segment()],
               "consensus");

  cell.baseline.lost_at[1] = 5;   // 5% lost at entry in the baseline
  cell.altered.lost_at[1] = 25;   // 25% in the altered run
  EXPECT_NEAR(cell.loss_delta()[1], 0.20, 1e-9);
}

// ------------------------------------------------------------- campaign

AttributionConfig small_grid() {
  AttributionConfig config;
  config.chains = {ChainKind::kRedbelly, ChainKind::kAlgorand};
  config.faults = {FaultType::kCrash, FaultType::kPartition};
  config.base.seed = 11;
  config.base.duration = sim::sec(60);
  config.base.inject_at = sim::sec(20);
  config.base.recover_at = sim::sec(40);
  return config;
}

TEST(Attribution, ReportIsByteIdenticalAtEveryJobsSetting) {
  AttributionConfig serial = small_grid();
  serial.jobs = 1;
  AttributionConfig parallel = small_grid();
  parallel.jobs = 4;
  const AttributionReport a = run_attribution(serial);
  const AttributionReport b = run_attribution(parallel);
  EXPECT_EQ(a.to_csv(), b.to_csv());
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_EQ(a.to_table(), b.to_table());
  ASSERT_EQ(a.cells.size(), 4u);
  EXPECT_NE(a.get(ChainKind::kRedbelly, FaultType::kCrash), nullptr);
  EXPECT_EQ(a.get(ChainKind::kSolana, FaultType::kCrash), nullptr);
}

TEST(Attribution, SharedTwinCellsEqualTheSingleFaultReports) {
  AttributionConfig config;
  config.chains = {ChainKind::kRedbelly};
  config.faults = {FaultType::kCrash, FaultType::kTransient};
  apply_run_window(config.base, 60);
  config.jobs = 4;
  const AttributionReport shared = run_attribution(config);
  EXPECT_EQ(shared.experiments, 3u) << "one twin, two faulted runs";
  AttributionReport separate;
  for (const FaultType fault : config.faults) {
    AttributionConfig single = config;
    single.faults = {fault};
    const AttributionReport report = run_attribution(single);
    EXPECT_EQ(report.experiments, 2u);
    separate.cells.push_back(report.cells.front());
  }
  EXPECT_EQ(shared.to_csv(), separate.to_csv());
  EXPECT_EQ(shared.to_json(), separate.to_json());
}

TEST(Attribution, OneChainsFourPaperFaultsRunSixExperiments) {
  AttributionConfig config;
  config.chains = {ChainKind::kRedbelly};
  apply_run_window(config.base, 30);
  config.jobs = 4;
  const AttributionReport report = run_attribution(config);
  // Crash, transient and partition share the 4-vCPU twin; secure-client
  // has its own 8-vCPU twin.
  EXPECT_EQ(report.experiments, 6u);
  ASSERT_EQ(report.cells.size(), 4u);
}

TEST(Attribution, StageDeltasSumToMeasuredLatencyDeltaOnPaperCrashCells) {
  // The acceptance invariant: for every paper chain's crash cell, the five
  // per-stage mean-latency deltas telescope to the measured mean
  // commit-latency delta of the pair (within floating-point rounding of
  // the per-record double conversions).
  AttributionConfig config;
  config.faults = {FaultType::kCrash};
  config.base.duration = sim::sec(120);
  config.base.inject_at = sim::sec(40);
  config.base.recover_at = sim::sec(80);
  config.jobs = 4;
  const AttributionReport report = run_attribution(config);
  ASSERT_EQ(report.cells.size(), 5u);
  for (const AttributionCell& cell : report.cells) {
    ASSERT_TRUE(cell.altered_live_at_end) << to_string(cell.chain);
    EXPECT_GT(cell.baseline.confirmed, 0u);
    EXPECT_GT(cell.altered.confirmed, 0u);
    double sum = 0.0;
    for (const double d : cell.delta_s()) sum += d;
    EXPECT_NEAR(sum, cell.measured_latency_delta_s, 1e-6)
        << to_string(cell.chain);
    // The recorder's view of the mean latency matches the experiment's.
    EXPECT_NEAR(cell.altered.mean_latency_s - cell.baseline.mean_latency_s,
                cell.measured_latency_delta_s, 1e-6)
        << to_string(cell.chain);
  }
}

TEST(Attribution, SerializersUseFixedPrecisionAndStageNames) {
  AttributionConfig config = small_grid();
  config.chains = {ChainKind::kRedbelly};
  config.faults = {FaultType::kCrash};
  const AttributionReport report = run_attribution(config);
  const std::string csv = report.to_csv();
  EXPECT_NE(csv.find("queueing_delta_s"), std::string::npos);
  EXPECT_NE(csv.find("consensus_p99_s"), std::string::npos);
  EXPECT_NE(csv.find("hops_resubmit"), std::string::npos);
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"dominant_stage\""), std::string::npos);
  EXPECT_NE(json.find("\"measured_latency_delta_s\""), std::string::npos);
}

}  // namespace
}  // namespace stabl::core

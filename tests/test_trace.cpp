// Tests for sim-time tracing: sink recording, the Perfetto trace_event
// export and its strict validator, the harness-wide determinism contract —
// attaching a TraceSink and a MetricsRegistry to a faulted experiment must
// leave every deterministic report byte-identical, and the trace itself
// must be a deterministic function of the run — and the transaction
// lifecycle recorder (sim/lifecycle.hpp): span causality, the carry-forward
// clamp's telescoping invariant, resubmit-hop linkage to the clients'
// resilience stats, and the same byte-identity contract on a faulted
// nversion_* meta-chain run.
#include "core/trace.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/chaos.hpp"
#include "core/experiment.hpp"
#include "core/metrics.hpp"
#include "core/serialize.hpp"
#include "sim/lifecycle.hpp"
#include "sim/trace.hpp"

namespace stabl::core {
namespace {

// ---------------------------------------------------------------- sink

TEST(TraceSink, RecordsEventsInEmissionOrder) {
  sim::TraceSink sink;
  sink.set_track_name(0, "node 0");
  sink.begin(0, sim::seconds(1.0), "round", "consensus", "\"round\":7");
  sink.instant(0, sim::seconds(1.5), "commit", "chain");
  sink.end(0, sim::seconds(2.0), "round");
  sink.counter(sim::seconds(2.0), "depth", 3.5);
  sink.async_begin(1, sim::seconds(0.5), 42, "txn", "txn");
  sink.async_end(1, sim::seconds(2.5), 42, "txn", "txn");

  ASSERT_EQ(sink.size(), 6u);
  EXPECT_EQ(sink.events()[0].phase, sim::TraceSink::Phase::kBegin);
  EXPECT_EQ(sink.events()[0].args, "\"round\":7");
  EXPECT_EQ(sink.events()[1].phase, sim::TraceSink::Phase::kInstant);
  EXPECT_EQ(sink.events()[3].value, 3.5);
  EXPECT_EQ(sink.events()[4].id, 42u);
  EXPECT_EQ(sink.track_names().at(0), "node 0");

  sink.clear();
  EXPECT_TRUE(sink.empty());
}

TEST(TraceSink, NameClusterTracksLabelsNodesClientsAndFaults) {
  sim::TraceSink sink;
  name_cluster_tracks(sink, 3, 2);
  EXPECT_EQ(sink.track_names().at(0), "node 0");
  EXPECT_EQ(sink.track_names().at(2), "node 2");
  // Clients are numbered by client index; their tids continue after the
  // nodes (client i lives on tid n_nodes + i).
  EXPECT_EQ(sink.track_names().at(3), "client 0");
  EXPECT_EQ(sink.track_names().at(4), "client 1");
  EXPECT_EQ(sink.track_names().at(kFaultsTrack), "faults");
}

// -------------------------------------------------------------- export

TEST(TraceExport, JsonValidatesAndCountsMatchTheSink) {
  sim::TraceSink sink;
  name_cluster_tracks(sink, 2, 1);
  sink.begin(0, sim::seconds(1.0), "round", "consensus", "\"round\":1");
  sink.instant(1, sim::seconds(1.2), "commit", "chain", "\"height\":3");
  sink.end(0, sim::seconds(1.4), "round");
  sink.counter(sim::seconds(2.0), "depth", 1.25);
  sink.async_begin(2, sim::seconds(0.1), 9, "txn", "txn", "\"nonce\":0");
  sink.async_end(2, sim::seconds(2.1), 9, "txn", "txn");
  sink.instant(kFaultsTrack, sim::seconds(1.0), "inject", "fault");

  const std::string json = trace_to_json(sink);
  const TraceStats stats = validate_trace_json(json);
  EXPECT_EQ(stats.metadata, 4u);  // 2 nodes + 1 client + faults
  EXPECT_EQ(stats.events, 7u);
  EXPECT_EQ(stats.spans, 1u);
  EXPECT_EQ(stats.instants, 2u);
  EXPECT_EQ(stats.counters, 1u);
  EXPECT_EQ(stats.asyncs, 2u);
}

TEST(TraceExport, ValidatorRejectsGarbageAndUnbalancedSpans) {
  EXPECT_THROW(validate_trace_json(""), std::invalid_argument);
  EXPECT_THROW(validate_trace_json("{\"traceEvents\":}"),
               std::invalid_argument);

  sim::TraceSink unbalanced;
  unbalanced.begin(0, sim::seconds(1.0), "round", "consensus");
  EXPECT_THROW(validate_trace_json(trace_to_json(unbalanced)),
               std::invalid_argument);

  sim::TraceSink crossed;
  crossed.end(0, sim::seconds(1.0), "round");
  EXPECT_THROW(validate_trace_json(trace_to_json(crossed)),
               std::invalid_argument);
}

TEST(TraceExport, EmptySinkStillProducesAValidDocument) {
  sim::TraceSink sink;
  const TraceStats stats = validate_trace_json(trace_to_json(sink));
  EXPECT_EQ(stats.events, 0u);
}

// -------------------------------------------------- experiment contract

ExperimentConfig faulted_cell() {
  ExperimentConfig config;
  config.chain = ChainKind::kRedbelly;
  config.fault = FaultType::kTransient;
  config.seed = 11;
  config.duration = sim::sec(60);
  config.inject_at = sim::sec(20);
  config.recover_at = sim::sec(40);
  return config;
}

TEST(TraceDeterminism, TracedRunIsByteIdenticalToUntraced) {
  const SensitivityRun plain = run_sensitivity(faulted_cell());

  ExperimentConfig traced_config = faulted_cell();
  sim::TraceSink sink;
  MetricsRegistry metrics;
  traced_config.trace = &sink;
  traced_config.metrics = &metrics;
  const SensitivityRun traced = run_sensitivity(traced_config);

  // The hard constraint: observability must not perturb RNG draws or
  // event ordering, so every deterministic report matches byte for byte.
  EXPECT_EQ(to_json(faulted_cell().chain, faulted_cell().fault, traced),
            to_json(faulted_cell().chain, faulted_cell().fault, plain));
  EXPECT_EQ(
      summary_csv_row(faulted_cell().chain, faulted_cell().fault, traced),
      summary_csv_row(faulted_cell().chain, faulted_cell().fault, plain));

  // And the run actually produced a rich, schema-valid timeline.
  const TraceStats stats = validate_trace_json(trace_to_json(sink));
  EXPECT_GT(stats.events, 100u);
  EXPECT_GT(stats.counters, 0u);   // metrics sampled into the trace
  EXPECT_GT(stats.asyncs, 0u);     // txn lifecycle spans
  EXPECT_GE(stats.tracks, 2u);
  EXPECT_FALSE(metrics.sample_times().empty());
  EXPECT_FALSE(metrics.series().empty());
}

TEST(TraceDeterminism, TraceAndMetricsBytesAreReproducible) {
  auto capture = [](std::string& trace_json, std::string& metrics_json) {
    ExperimentConfig config = faulted_cell();
    sim::TraceSink sink;
    MetricsRegistry metrics;
    config.trace = &sink;
    config.metrics = &metrics;
    run_sensitivity(config);
    trace_json = trace_to_json(sink);
    metrics_json = metrics.to_json();
  };
  std::string trace_a, metrics_a, trace_b, metrics_b;
  capture(trace_a, metrics_a);
  capture(trace_b, metrics_b);
  EXPECT_EQ(trace_a, trace_b);
  EXPECT_EQ(metrics_a, metrics_b);
  // The metrics document round-trips byte-identically, like repro files.
  EXPECT_EQ(metrics_from_json(metrics_a).to_json(), metrics_a);
}

// --------------------------------------------------- lifecycle recorder

TEST(Lifecycle, RecorderMarksAreFirstReachAndHopsAccumulate) {
  sim::LifecycleRecorder recorder;
  recorder.mark(7, sim::TxStage::kSubmitted, sim::seconds(1.0));
  recorder.mark(7, sim::TxStage::kEntryReceived, sim::seconds(1.5));
  // A resubmission re-enters the node later; the original time wins.
  recorder.mark(7, sim::TxStage::kEntryReceived, sim::seconds(9.0));
  recorder.hop(7, sim::TxHop::kResubmit);
  recorder.hop(7, sim::TxHop::kResubmit);

  const sim::TxLifecycle* record = recorder.find(7);
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->at(sim::TxStage::kEntryReceived), sim::seconds(1.5));
  EXPECT_EQ(record->hops[static_cast<std::size_t>(sim::TxHop::kResubmit)],
            2u);
  EXPECT_EQ(record->deepest(), sim::TxStage::kEntryReceived);
  EXPECT_EQ(recorder.find(8), nullptr);
}

TEST(Lifecycle, StageTimesClampCarriesForwardAndTelescopes) {
  sim::TxLifecycle record;
  record.stage_at[0] = sim::seconds(1.0);  // submitted
  record.stage_at[1] = sim::seconds(2.0);  // entry received
  // queued/proposed never marked (e.g. fast-path commit notification);
  // committed recorded EARLIER than entry on another replica's clock
  // ordering is impossible, but a skipped stage must carry forward.
  record.stage_at[4] = sim::seconds(4.0);  // committed
  record.stage_at[5] = sim::seconds(5.0);  // confirmed

  const auto times = sim::stage_times(record);
  EXPECT_EQ(times[1], sim::seconds(2.0));
  EXPECT_EQ(times[2], sim::seconds(2.0));  // carried from entry
  EXPECT_EQ(times[3], sim::seconds(2.0));
  EXPECT_EQ(times[4], sim::seconds(4.0));
  EXPECT_EQ(times[5], sim::seconds(5.0));
  // Telescoping is exact in Time arithmetic.
  sim::Duration total{};
  for (std::size_t i = 0; i + 1 < sim::kNumTxStages; ++i) {
    total = total + (times[i + 1] - times[i]);
  }
  EXPECT_EQ(total, times[sim::kNumTxStages - 1] - times[0]);
}

TEST(Lifecycle, FaultedRunRecordsCausalSpansForEveryTransaction) {
  ExperimentConfig config = faulted_cell();
  sim::LifecycleRecorder recorder;
  config.lifecycle = &recorder;
  const ExperimentResult result = run_experiment(config);

  ASSERT_FALSE(recorder.empty());
  // Every submitted transaction has a record, and every confirmed one
  // reached kConfirmed — the recorder's view matches the client's.
  EXPECT_EQ(recorder.size(), result.submitted);
  std::uint64_t confirmed = 0;
  for (const sim::TxLifecycle& record : recorder.records()) {
    ASSERT_TRUE(record.reached(sim::TxStage::kSubmitted));
    // Raw marks are causal: no stage is reached before submission.
    for (std::size_t s = 1; s < sim::kNumTxStages; ++s) {
      if (record.stage_at[s] == sim::kStageUnset) continue;
      EXPECT_GE(record.stage_at[s], record.stage_at[0]);
    }
    // Entry -> queued -> proposed -> committed are monotone raw: each is
    // marked by a component that already saw the previous stage.
    for (std::size_t s = 2; s <= 4; ++s) {
      if (record.stage_at[s] == sim::kStageUnset ||
          record.stage_at[s - 1] == sim::kStageUnset) {
        continue;
      }
      EXPECT_GE(record.stage_at[s], record.stage_at[s - 1]);
    }
    if (!record.reached(sim::TxStage::kConfirmed)) continue;
    ++confirmed;
    // Clamped times are monotone and telescope exactly to the
    // client-observed commit latency.
    const auto times = sim::stage_times(record);
    sim::Duration total{};
    for (std::size_t i = 0; i + 1 < sim::kNumTxStages; ++i) {
      EXPECT_GE(times[i + 1], times[i]);
      total = total + (times[i + 1] - times[i]);
    }
    EXPECT_EQ(total, times[sim::kNumTxStages - 1] - times[0]);
  }
  EXPECT_EQ(confirmed, result.committed);
  EXPECT_GT(confirmed, 0u);
}

TEST(Lifecycle, ResubmitHopsMatchTheClientsResilienceStats) {
  // Crash the entry nodes so resilient clients must resubmit and fail
  // over; the recorder's hop counters must agree with the clients' own
  // bookkeeping.
  ExperimentConfig config = faulted_cell();
  config.fault = FaultType::kCrash;
  FaultPlan plan = paper_plan(config);
  plan.targets = {0};
  config.fault_schedule.add(plan);
  config.resilience.enabled = true;
  sim::LifecycleRecorder recorder;
  config.lifecycle = &recorder;
  const ExperimentResult result = run_experiment(config);

  std::uint64_t resubmits = 0;
  std::uint64_t failovers = 0;
  for (const sim::TxLifecycle& record : recorder.records()) {
    resubmits +=
        record.hops[static_cast<std::size_t>(sim::TxHop::kResubmit)];
    failovers +=
        record.hops[static_cast<std::size_t>(sim::TxHop::kFailover)];
  }
  EXPECT_EQ(resubmits, result.resilience.resubmissions);
  // Failover semantics differ by design: the recorder counts every
  // resubmission that targeted a different endpoint than the previous
  // attempt (a per-transaction detour), while ResilienceStats counts the
  // endpoint manager's switch EVENTS — one switch reroutes many pending
  // transactions. A switch event therefore implies at least one recorded
  // detour, never fewer.
  EXPECT_GE(failovers, result.resilience.failovers);
  EXPECT_GT(result.resilience.failovers, 0u);
  EXPECT_GT(resubmits, 0u);
}

TEST(Lifecycle, FaultedNversionRunIsByteIdenticalWithRecorderAttached) {
  // The meta-chain wraps real BlockchainNodes, so lifecycle marks flow
  // through unchanged — and recording must stay observe-only there too.
  ExperimentConfig config;
  config.chain = parse_chain_name("nversion_redbelly");
  config.fault = FaultType::kCrash;
  config.seed = 11;
  config.duration = sim::sec(60);
  config.inject_at = sim::sec(20);
  config.recover_at = sim::sec(40);

  const SensitivityRun plain = run_sensitivity(config);

  ExperimentConfig recorded_config = config;
  sim::LifecycleRecorder recorder;
  sim::TraceSink sink;
  recorded_config.lifecycle = &recorder;
  recorded_config.trace = &sink;
  const SensitivityRun recorded = run_sensitivity(recorded_config);

  EXPECT_EQ(to_json(config.chain, config.fault, recorded),
            to_json(config.chain, config.fault, plain));
  EXPECT_EQ(summary_csv_row(config.chain, config.fault, recorded),
            summary_csv_row(config.chain, config.fault, plain));
  EXPECT_FALSE(recorder.empty());
  // And the recorder itself is a deterministic function of the run.
  sim::LifecycleRecorder again;
  ExperimentConfig again_config = config;
  again_config.lifecycle = &again;
  run_sensitivity(again_config);
  ASSERT_EQ(again.size(), recorder.size());
  for (std::size_t i = 0; i < recorder.size(); ++i) {
    EXPECT_EQ(recorder.records()[i].tx, again.records()[i].tx);
    EXPECT_EQ(recorder.records()[i].stage_at, again.records()[i].stage_at);
    EXPECT_EQ(recorder.records()[i].hops, again.records()[i].hops);
  }
}

// ------------------------------------------------------- chaos repros

TEST(TraceChaos, ReproTracesAreDeterministicAndValidate) {
  const auto campaign = [] {
    ChaosCampaignConfig config;
    config.chains = {ChainKind::kRedbelly};
    config.trials_per_chain = 2;
    config.seed = 7;
    config.base.duration = sim::sec(60);
    config.trace_repros = true;
    return config;
  };
  const ChaosCampaignResult first = run_chaos_campaign(campaign());
  const ChaosCampaignResult second = run_chaos_campaign(campaign());
  EXPECT_EQ(first.to_json(), second.to_json());
  ASSERT_EQ(first.trials.size(), second.trials.size());
  for (std::size_t i = 0; i < first.trials.size(); ++i) {
    const ChaosTrial& trial = first.trials[i];
    EXPECT_EQ(trial.repro_trace, second.trials[i].repro_trace);
    if (trial.report.violated()) {
      ASSERT_FALSE(trial.repro_trace.empty());
      EXPECT_GT(validate_trace_json(trial.repro_trace).events, 0u);
    } else {
      EXPECT_TRUE(trial.repro_trace.empty());
    }
  }
}

}  // namespace
}  // namespace stabl::core

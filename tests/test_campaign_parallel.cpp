// Tests for the parallel campaign engine: the progress heartbeat, the
// work-stealing-free thread pool, byte-identical serial-vs-parallel
// campaign output, runs shared between pairs (each distinct experiment
// simulated once), seed-sweep aggregation, worst-seed gating, and
// EventQueue bookkeeping when a simulation is constructed per worker
// thread.
#include "core/campaign.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/metrics.hpp"
#include "core/parallel.hpp"
#include "core/serialize.hpp"
#include "core/trace.hpp"
#include "sim/event_queue.hpp"
#include "sim/lifecycle.hpp"
#include "sim/trace.hpp"

namespace stabl::core {
namespace {

// ------------------------------------------------------------ heartbeat

TEST(Heartbeat, PrintsTheFinalLineOnce) {
  ::testing::internal::CaptureStderr();
  {
    Heartbeat heartbeat("probe", 3, /*enabled=*/true);
    for (int i = 0; i < 3; ++i) heartbeat.tick();
  }
  const std::string err = ::testing::internal::GetCapturedStderr();
  std::size_t final_lines = 0;
  for (std::size_t at = err.find("3/3 runs"); at != std::string::npos;
       at = err.find("3/3 runs", at + 1)) {
    ++final_lines;
  }
  EXPECT_EQ(final_lines, 1u) << err;
}

// ------------------------------------------------------------ thread pool

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.jobs(), 4u);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(hits.size(),
                    [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ThreadPool, SingleJobIsSerialOnCallingThread) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.jobs(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  pool.parallel_for(5, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);  // no lock needed: serial by construction
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, ReusableAcrossBatches) {
  ThreadPool pool(3);
  for (int round = 0; round < 5; ++round) {
    std::atomic<int> sum{0};
    pool.parallel_for(100, [&](std::size_t i) {
      sum.fetch_add(static_cast<int>(i));
    });
    EXPECT_EQ(sum.load(), 4950);
  }
}

TEST(ThreadPool, EmptyBatchIsANoOp) {
  ThreadPool pool(4);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "no indexes to run"; });
}

TEST(ThreadPool, PropagatesTaskException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(64,
                                 [](std::size_t i) {
                                   if (i == 7) {
                                     throw std::runtime_error("cell failed");
                                   }
                                 }),
               std::runtime_error);
  // The pool survives the failed batch.
  std::atomic<int> ran{0};
  pool.parallel_for(8, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPool, ClampsZeroJobsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.jobs(), 1u);
  std::atomic<int> ran{0};
  pool.parallel_for(3, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 3);
}

// ------------------------------------------- EventQueue per worker thread
// Each worker constructs its own simulation state; the queue's cancel
// bookkeeping (eager removal from the indexed heap, slot recycling
// through the free list) must stay consistent with no sharing between
// threads.

TEST(EventQueuePerThread, CancelBookkeepingStaysConsistentPerThread) {
  ThreadPool pool(4);
  pool.parallel_for(8, [](std::size_t lane) {
    sim::EventQueue queue;
    std::vector<sim::TimerId> ids;
    const int n = 300 + static_cast<int>(lane);
    for (int i = 0; i < n; ++i) {
      ids.push_back(queue.schedule(sim::ms(i % 50), [] {}));
    }
    std::size_t live = ids.size();
    for (std::size_t i = 0; i < ids.size(); i += 3) {
      queue.cancel(ids[i]);
      --live;
    }
    ASSERT_EQ(queue.size(), live);
    EXPECT_FALSE(queue.empty());
    sim::Time at{};
    sim::Time last{-1};
    std::size_t popped = 0;
    while (!queue.empty()) {
      ASSERT_GE(queue.next_time(), last);
      last = queue.next_time();
      queue.pop(at)();
      ++popped;
      ASSERT_EQ(queue.size(), live - popped);
    }
    EXPECT_EQ(popped, live);
    EXPECT_EQ(queue.size(), 0u);
  });
}

// ------------------------------------------------- campaign determinism

CampaignConfig tiny_campaign() {
  CampaignConfig config;
  config.chains = {ChainKind::kRedbelly};
  config.faults = {FaultType::kNone, FaultType::kCrash};
  config.base.duration = sim::sec(30);
  config.base.inject_at = sim::sec(10);
  config.base.recover_at = sim::sec(20);
  config.num_seeds = 2;
  return config;
}

TEST(CampaignParallel, ParallelOutputByteIdenticalToSerial) {
  CampaignConfig serial = tiny_campaign();
  serial.jobs = 1;
  CampaignConfig parallel = tiny_campaign();
  parallel.jobs = 4;
  const CampaignResult a = run_campaign(serial);
  const CampaignResult b = run_campaign(parallel);
  EXPECT_EQ(a.to_csv(), b.to_csv());
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_EQ(a.radar_table(), b.radar_table());
  EXPECT_EQ(a.sweep_table(), b.sweep_table());
}

// ----------------------------------------------------------- shared runs

// A pair as it was computed before runs were shared: its fault-free twin
// and its altered run, each simulated on its own.
SensitivityRun unshared_pair(const ExperimentConfig& altered) {
  SensitivityRun run;
  run.baseline = run_experiment(baseline_of(altered));
  run.altered = run_experiment(altered);
  run.score = sensitivity(run.baseline.latencies, run.altered.latencies,
                          run.altered.live_at_end);
  return run;
}

TEST(SharedRuns, KeyIgnoresOnlyTheObserverPointers) {
  ExperimentConfig base;
  base.fault = FaultType::kLoss;
  base.fault_schedule.add(paper_plan(base));
  sim::TraceSink sink;
  MetricsRegistry metrics;
  sim::LifecycleRecorder recorder;
  ExperimentConfig observed = base;
  observed.trace = &sink;
  observed.metrics = &metrics;
  observed.lifecycle = &recorder;
  EXPECT_FALSE(base == observed);
  EXPECT_TRUE(same_experiment(base, observed));

  const auto differs = [&](void (*change)(ExperimentConfig&)) {
    ExperimentConfig other = base;
    change(other);
    return !same_experiment(base, other);
  };
  EXPECT_TRUE(differs([](ExperimentConfig& c) { c.vcpus = 8.0; }));
  EXPECT_TRUE(differs(
      [](ExperimentConfig& c) { c.chain_params["max_idle_s"] = 30.0; }));
  EXPECT_TRUE(differs([](ExperimentConfig& c) {
    c.fault_schedule.plans.front().loss_probability = 0.3;
  }));
  EXPECT_TRUE(
      differs([](ExperimentConfig& c) { c.resilience.hedge.enabled = true; }));
  EXPECT_TRUE(differs([](ExperimentConfig& c) { c.traffic.regions = 2; }));

  // Two loss cells that differ in one knob share their twin, not their
  // faulted run; the observed copy of the first shares both.
  ExperimentConfig knob = base;
  knob.fault_schedule.plans.front().loss_probability = 0.3;
  const PairPlan plan = plan_pairs({base, knob, observed});
  EXPECT_EQ(plan.runs.size(), 3u);
  EXPECT_EQ(plan.baseline, (std::vector<std::size_t>{0, 0, 0}));
  EXPECT_EQ(plan.altered, (std::vector<std::size_t>{1, 2, 1}));
}

TEST(SharedRuns, CampaignRunsEachDistinctExperimentOnce) {
  CampaignConfig config;
  config.chains = {ChainKind::kRedbelly};
  config.faults = {FaultType::kNone, FaultType::kCrash, FaultType::kTransient,
                   FaultType::kPartition, FaultType::kSecureClient};
  apply_run_window(config.base, 60);
  std::map<FaultType, std::string> expected;
  for (const FaultType fault : config.faults) {
    expected[fault] = to_json(ChainKind::kRedbelly, fault,
                              unshared_pair(paper_cell(config.base, fault)));
  }
  for (const unsigned jobs : {1u, 4u}) {
    config.jobs = jobs;
    const CampaignResult result = run_campaign(config);
    // The 4-vCPU twin (also the none cell's altered run), secure-client's
    // 8-vCPU twin and four faulted runs: 6 experiments, not 10.
    EXPECT_EQ(result.experiments, 6u) << "jobs " << jobs;
    for (const FaultType fault : config.faults) {
      const SensitivityRun* run = result.get(ChainKind::kRedbelly, fault);
      ASSERT_NE(run, nullptr);
      EXPECT_EQ(to_json(ChainKind::kRedbelly, fault, *run), expected[fault])
          << to_string(fault) << " at jobs " << jobs;
    }
  }
}

TEST(SharedRuns, MitigationPairsEqualTheirUnsharedRuns) {
  MitigationConfig config;
  config.chains = {ChainKind::kRedbelly};
  config.faults = {FaultType::kCrash, FaultType::kTransient};
  apply_run_window(config.base, 60);
  std::vector<std::pair<std::string, std::string>> expected;
  for (const FaultType fault : config.faults) {
    const ExperimentConfig cell = paper_cell(config.base, fault);
    expected.emplace_back(
        to_json(ChainKind::kRedbelly, fault, unshared_pair(cell)),
        to_json(ChainKind::kRedbelly, fault,
                unshared_pair(mitigated_config(cell))));
  }
  for (const unsigned jobs : {1u, 4u}) {
    config.jobs = jobs;
    const MitigationResult result = run_mitigation_campaign(config);
    // Each side's twin is shared by both faults: 2 twins + 4 faulted runs.
    EXPECT_EQ(result.experiments, 6u) << "jobs " << jobs;
    ASSERT_EQ(result.pairs.size(), 2u);
    for (std::size_t i = 0; i < result.pairs.size(); ++i) {
      const MitigationPair& pair = result.pairs[i];
      EXPECT_EQ(to_json(pair.chain, pair.fault, pair.unmitigated),
                expected[i].first)
          << to_string(pair.fault) << " at jobs " << jobs;
      EXPECT_EQ(to_json(pair.chain, pair.fault, pair.mitigated),
                expected[i].second)
          << to_string(pair.fault) << " at jobs " << jobs;
    }
  }
}

TEST(SharedRuns, FaultFreePairRunsOnceWithItsObserversAttached) {
  ExperimentConfig config;
  apply_run_window(config, 30);
  ASSERT_TRUE(same_experiment(config, baseline_of(config)));
  // Before sharing: an unobserved twin, then the observed run.
  sim::TraceSink reference_sink;
  MetricsRegistry reference_metrics;
  ExperimentConfig reference = config;
  reference.trace = &reference_sink;
  reference.metrics = &reference_metrics;
  const std::string expected =
      to_json(config.chain, config.fault, unshared_pair(reference));

  sim::TraceSink sink;
  MetricsRegistry metrics;
  ExperimentConfig observed = config;
  observed.trace = &sink;
  observed.metrics = &metrics;
  const PairPlan plan = plan_pairs({observed});
  ASSERT_EQ(plan.runs.size(), 1u);
  EXPECT_EQ(plan.runs.front().trace, &sink);
  const PairResults results = run_pairs(plan);
  EXPECT_EQ(results.experiments, 1u);
  EXPECT_EQ(to_json(config.chain, config.fault, results.pairs.front()),
            expected);
  // Megabytes of JSON: compare without printing them on failure.
  const std::string reference_trace = trace_to_json(reference_sink);
  EXPECT_TRUE(trace_to_json(sink) == reference_trace);
  EXPECT_TRUE(metrics.to_json() == reference_metrics.to_json());

  // run_sensitivity is the same path.
  sim::TraceSink single_sink;
  MetricsRegistry single_metrics;
  observed.trace = &single_sink;
  observed.metrics = &single_metrics;
  EXPECT_EQ(to_json(config.chain, config.fault, run_sensitivity(observed)),
            expected);
  EXPECT_TRUE(trace_to_json(single_sink) == reference_trace);
}

// ------------------------------------------------------------ seed sweep

TEST(CampaignSweep, AggregatesAcrossSeeds) {
  const CampaignResult result = run_campaign(tiny_campaign());
  EXPECT_EQ(result.seeds, (std::vector<std::uint64_t>{42, 43}));
  const SeedSweepStats* stats =
      result.sweep(ChainKind::kRedbelly, FaultType::kCrash);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->seeds, 2u);
  EXPECT_EQ(stats->finite, 2u) << "Redbelly survives f = t crashes";
  EXPECT_EQ(stats->liveness_losses, 0u);
  EXPECT_LE(stats->min, stats->mean);
  EXPECT_LE(stats->mean, stats->max);
  EXPECT_GE(stats->stddev, 0.0);
  const auto& runs =
      result.seed_runs.at({ChainKind::kRedbelly, FaultType::kCrash});
  ASSERT_EQ(runs.size(), 2u);
  // The representative run is the first seed's.
  const SensitivityRun* rep =
      result.get(ChainKind::kRedbelly, FaultType::kCrash);
  ASSERT_NE(rep, nullptr);
  EXPECT_EQ(rep->score.value, runs.front().score.value);
}

TEST(AggregateSeedSweep, StatsOverFiniteScoresOnly) {
  SensitivityRun finite1;
  finite1.score.value = 2.0;
  SensitivityRun finite2;
  finite2.score.value = 6.0;
  SensitivityRun dead;
  dead.score.infinite = true;
  dead.score.value = std::numeric_limits<double>::infinity();
  const SeedSweepStats stats =
      aggregate_seed_sweep({finite1, dead, finite2});
  EXPECT_EQ(stats.seeds, 3u);
  EXPECT_EQ(stats.finite, 2u);
  EXPECT_EQ(stats.liveness_losses, 1u);
  EXPECT_DOUBLE_EQ(stats.mean, 4.0);
  EXPECT_DOUBLE_EQ(stats.min, 2.0);
  EXPECT_DOUBLE_EQ(stats.max, 6.0);
  EXPECT_NEAR(stats.stddev, 2.828427, 1e-5);  // sample stddev of {2, 6}
}

// ---------------------------------------------------- worst-seed gating

CampaignResult hand_built_result(double min_score, double max_score,
                                 std::size_t losses) {
  CampaignResult result;
  const CampaignResult::CellKey key{ChainKind::kRedbelly,
                                    FaultType::kCrash};
  SensitivityRun rep;
  rep.score.value = min_score;
  rep.altered.live_at_end = true;
  result.seed_runs[key] = {rep};
  SeedSweepStats stats;
  stats.seeds = 3;
  stats.finite = 3 - losses;
  stats.liveness_losses = losses;
  stats.mean = (min_score + max_score) / 2.0;
  stats.min = min_score;
  stats.max = max_score;
  result.sweeps.emplace(key, stats);
  return result;
}

TEST(CampaignGateCheck, GatesOnWorstSeed) {
  CampaignGate gate;
  gate.max_score[FaultType::kCrash] = 4.0;
  // Representative (first-seed) score 1.0 passes, but the worst seed
  // scored 9.0: the gate must flag the cell.
  const auto violations =
      check_gate(hand_built_result(1.0, 9.0, 0), gate);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("exceeds gate"), std::string::npos);
  EXPECT_NE(violations[0].find("worst of 3 seeds"), std::string::npos);
  // All seeds within the bound: no violation.
  EXPECT_TRUE(check_gate(hand_built_result(1.0, 3.5, 0), gate).empty());
}

TEST(CampaignGateCheck, AnySeedLivenessLossIsFlagged) {
  CampaignGate gate;
  gate.max_score[FaultType::kCrash] = 1e9;
  const auto violations =
      check_gate(hand_built_result(1.0, 2.0, 1), gate);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("unexpected liveness loss"),
            std::string::npos);
  EXPECT_NE(violations[0].find("1/3 seeds"), std::string::npos);
}

TEST(CampaignGateCheck, ExpectedInfiniteRequiresEverySeedDead) {
  CampaignGate gate;
  gate.expected_infinite = {{ChainKind::kRedbelly, FaultType::kCrash}};
  // One seed survived: violation.
  const auto violations =
      check_gate(hand_built_result(1.0, 2.0, 2), gate);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("expected liveness loss"),
            std::string::npos);
  // Every seed dead: passes.
  EXPECT_TRUE(check_gate(hand_built_result(0.0, 0.0, 3), gate).empty());
}

}  // namespace
}  // namespace stabl::core

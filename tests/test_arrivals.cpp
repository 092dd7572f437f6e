// Aggregate arrival scheduling: cohort collapse, enrolment-order emission,
// high-TPS batching, equivalence with the per-client timer chain it
// replaced, and byte-stability of full faulted scenario reports.
#include "core/arrivals.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "chain_test_util.hpp"
#include "chains/redbelly/redbelly.hpp"
#include "core/client.hpp"
#include "core/metrics.hpp"
#include "core/scenario.hpp"
#include "core/sensitivity.hpp"
#include "core/serialize.hpp"
#include "core/traffic.hpp"
#include "core/workload.hpp"
#include "sim/simulation.hpp"

namespace stabl::core {
namespace {

struct RecordingSink final : ArrivalSink {
  RecordingSink(int id, std::vector<int>* log) : id(id), log(log) {}
  void generate_arrival() override {
    log->push_back(id);
    ++emitted;
  }
  [[nodiscard]] bool arrivals_active() const override { return active; }
  int id;
  std::vector<int>* log;
  std::uint64_t emitted = 0;
  bool active = true;
};

ArrivalProfile profile_with(double tps, net::NodeId node = 0) {
  ArrivalProfile profile;
  profile.node = node;
  profile.workload.tps = tps;
  profile.start_at = sim::Time{0};
  profile.stop_at = sim::sec(1);
  return profile;
}

TEST(Arrivals, SameProfileSharesOneCohort) {
  sim::Simulation simulation(1);
  ArrivalScheduler scheduler(simulation);
  std::vector<int> log;
  RecordingSink a(0, &log), b(1, &log), c(2, &log);
  scheduler.enroll(profile_with(100.0), &a);
  scheduler.enroll(profile_with(100.0), &b);
  EXPECT_EQ(scheduler.cohorts(), 1u);
  // A different entry node is a different arrival process.
  scheduler.enroll(profile_with(100.0, 3), &c);
  EXPECT_EQ(scheduler.cohorts(), 2u);
}

TEST(Arrivals, MembersEmitInEnrolmentOrderEachTick) {
  sim::Simulation simulation(1);
  ArrivalScheduler scheduler(simulation);
  std::vector<int> log;
  RecordingSink a(0, &log), b(1, &log), c(2, &log);
  for (RecordingSink* sink : {&a, &b, &c}) {
    scheduler.enroll(profile_with(100.0), sink);  // 10 ms tick gap
  }
  simulation.run_until(sim::ms(35));  // ticks at 0, 10, 20, 30 ms
  ASSERT_EQ(log.size(), 12u);
  for (std::size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(log[i], static_cast<int>(i % 3)) << "at " << i;
  }
  EXPECT_EQ(scheduler.generated(), 12u);
  EXPECT_FALSE(scheduler.interval_floor_bound());
}

TEST(Arrivals, InactiveSinkIsSkippedWithoutStallingTheCohort) {
  sim::Simulation simulation(1);
  ArrivalScheduler scheduler(simulation);
  std::vector<int> log;
  RecordingSink a(0, &log), b(1, &log), c(2, &log);
  for (RecordingSink* sink : {&a, &b, &c}) {
    scheduler.enroll(profile_with(100.0), sink);
  }
  b.active = false;  // a killed client machine
  simulation.run_until(sim::ms(25));  // ticks at 0, 10, 20 ms
  EXPECT_EQ(a.emitted, 3u);
  EXPECT_EQ(b.emitted, 0u);
  EXPECT_EQ(c.emitted, 3u);
  EXPECT_EQ(scheduler.generated(), 6u);
}

TEST(Arrivals, NothingEmitsAtOrAfterStopTime) {
  sim::Simulation simulation(1);
  ArrivalScheduler scheduler(simulation);
  std::vector<int> log;
  RecordingSink a(0, &log);
  ArrivalProfile profile = profile_with(100.0);
  profile.stop_at = sim::ms(25);
  scheduler.enroll(profile, &a);
  simulation.run();  // drains: the tick landing at 30 ms emits nothing
  EXPECT_EQ(a.emitted, 3u);  // 0, 10, 20 ms
}

// Satellite: above 10k TPS the old per-client timer silently clamped to
// the 100 us floor (capping the real rate at 10k); the aggregate process
// must batch arrivals per tick and honour the configured average.
TEST(Arrivals, HighTpsCohortHonoursConfiguredAverage) {
  sim::Simulation simulation(1);
  MetricsRegistry metrics;
  ArrivalScheduler scheduler(simulation, &metrics);
  std::vector<int> log;
  RecordingSink a(0, &log);
  scheduler.enroll(profile_with(25000.0), &a);  // raw gap 40 us < floor
  simulation.run();
  EXPECT_TRUE(scheduler.interval_floor_bound());
  // 5 arrivals per 200 us tick over the 1 s window = the configured 25k,
  // not the 10k the legacy clamp silently delivered.
  EXPECT_NEAR(static_cast<double>(a.emitted), 25000.0, 25000.0 * 0.01);
}

TEST(Arrivals, FloorBindingIsReportedOnceThroughMetrics) {
  sim::Simulation simulation(1);
  MetricsRegistry metrics;
  ArrivalScheduler scheduler(simulation, &metrics);
  std::vector<int> log;
  RecordingSink a(0, &log), b(1, &log);
  scheduler.enroll(profile_with(25000.0), &a);
  scheduler.enroll(profile_with(50000.0, 1), &b);  // second clamped cohort
  simulation.run();
  ASSERT_EQ(metrics.notes().size(), 1u);  // once, not per tick or cohort
  EXPECT_NE(metrics.notes()[0].find("arrival-interval floor"),
            std::string::npos);
}

// The aggregate process must be an exact drop-in for the per-client timer
// chain: same submission times, same tx ids, same commits — the whole
// cluster byte-for-byte. Run the same cell twice, once with each driver.
TEST(Arrivals, BatchedClientMatchesPerClientTimerChain) {
  auto build = [](testing::Harness& harness) {
    chain::NodeConfig node_config;
    node_config.n = 10;
    node_config.network_seed = 77;
    harness.nodes = redbelly::make_cluster(harness.simulation,
                                           harness.network, node_config);
  };
  auto client_config = [] {
    ClientConfig config;
    config.id = 10;
    config.account = 0;
    config.recipient = 999;
    config.endpoints = {0};
    config.tps = 200.0;
    config.stop_at = sim::sec(20);
    return config;
  };

  testing::Harness legacy;
  build(legacy);
  legacy.clients.push_back(std::make_unique<ClientMachine>(
      legacy.simulation, legacy.network, client_config()));
  legacy.start_all();
  legacy.simulation.run_until(sim::sec(25));

  testing::Harness batched;
  build(batched);
  ArrivalScheduler arrivals(batched.simulation);
  ClientConfig config = client_config();
  config.arrivals = &arrivals;
  batched.clients.push_back(std::make_unique<ClientMachine>(
      batched.simulation, batched.network, config));
  batched.start_all();
  batched.simulation.run_until(sim::sec(25));

  EXPECT_EQ(arrivals.cohorts(), 1u);
  EXPECT_EQ(legacy.clients[0]->submitted(), batched.clients[0]->submitted());
  EXPECT_EQ(legacy.clients[0]->submitted_ids(),
            batched.clients[0]->submitted_ids());
  EXPECT_EQ(legacy.clients[0]->committed(), batched.clients[0]->committed());
  EXPECT_EQ(legacy.simulation.events_processed(),
            batched.simulation.events_processed());
}

// ------------------------------------------- population-profile cohorts

// The traffic model's population identity is part of the cohort key:
// clients in different regions sit behind different link latencies and
// clients with different population sizes draw different account mixes,
// so neither may regroup with the others — while identical identities
// still collapse into one aggregate process.
TEST(Arrivals, PopulationIdentitySplitsCohorts) {
  sim::Simulation simulation(1);
  ArrivalScheduler scheduler(simulation);
  std::vector<int> log;
  RecordingSink a(0, &log), b(1, &log), c(2, &log), d(3, &log);
  ArrivalProfile base = profile_with(100.0);
  base.region = 0;
  base.population = 8;
  scheduler.enroll(base, &a);
  scheduler.enroll(base, &b);  // same identity: shared process
  EXPECT_EQ(scheduler.cohorts(), 1u);
  ArrivalProfile far_region = base;
  far_region.region = 1;
  scheduler.enroll(far_region, &c);  // different region: own process
  EXPECT_EQ(scheduler.cohorts(), 2u);
  ArrivalProfile deep_population = base;
  deep_population.population = 32;
  scheduler.enroll(deep_population, &d);  // different population: own
  EXPECT_EQ(scheduler.cohorts(), 3u);
}

// A killed member of a shared population cohort emits nothing while the
// survivors keep the aggregate process running — the same guarantee its
// cancelled per-client timer used to provide.
TEST(Arrivals, KilledMemberOfPopulationCohortEmitsNothing) {
  sim::Simulation simulation(1);
  ArrivalScheduler scheduler(simulation);
  std::vector<int> log;
  RecordingSink a(0, &log), b(1, &log), c(2, &log);
  ArrivalProfile profile = profile_with(100.0);
  profile.region = 2;
  profile.population = 16;
  for (RecordingSink* sink : {&a, &b, &c}) scheduler.enroll(profile, sink);
  EXPECT_EQ(scheduler.cohorts(), 1u);
  b.active = false;
  simulation.run_until(sim::ms(25));  // ticks at 0, 10, 20 ms
  EXPECT_EQ(a.emitted, 3u);
  EXPECT_EQ(b.emitted, 0u);
  EXPECT_EQ(c.emitted, 3u);
  EXPECT_EQ(scheduler.generated(), 6u);
}

// Satellite: a mixed-region, mixed-shape population — four clients, two
// entry nodes, two workload shapes, two regions, Zipf accounts and a
// shared hot wallet — must produce byte-identical submissions through the
// batched scheduler and through per-client timer chains. This pins the
// regrouping logic: every (node, shape, region) combination lands in its
// own cohort, and the global hot-nonce issue order survives the swap.
TEST(Arrivals, MixedRegionMixedShapePopulationMatchesPerClientTimers) {
  TrafficConfig traffic;
  traffic.accounts_per_client = 4;
  traffic.zipf_exponent = 1.0;
  traffic.hot_fraction = 0.25;
  traffic.regions = 2;

  auto run = [&traffic](bool batched) {
    TrafficModel model(traffic);
    testing::Harness harness;
    chain::NodeConfig node_config;
    node_config.n = 10;
    node_config.network_seed = 77;
    harness.nodes = redbelly::make_cluster(harness.simulation,
                                           harness.network, node_config);
    std::optional<ArrivalScheduler> arrivals;
    if (batched) arrivals.emplace(harness.simulation);
    for (std::size_t i = 0; i < 4; ++i) {
      ClientConfig config;
      config.id = static_cast<net::NodeId>(10 + i);
      config.account = static_cast<chain::AccountId>(i);
      config.recipient = static_cast<chain::AccountId>(999 + i);
      config.endpoints = {static_cast<net::NodeId>(i < 2 ? 0 : 1)};
      config.tps = 100.0;
      config.stop_at = sim::sec(10);
      if (i < 2) {
        config.workload.shape = WorkloadShape::kBursty;
        config.workload.burst_period = sim::sec(2);
      }
      if (batched) config.arrivals = &*arrivals;
      config.traffic = make_client_plan(traffic, model, i, config.tx_seed);
      harness.clients.push_back(std::make_unique<ClientMachine>(
          harness.simulation, harness.network, config));
    }
    harness.start_all();
    harness.simulation.run_until(sim::sec(12));
    if (batched) {
      // (node 0, bursty) x regions {0, 1} and (node 1, constant) x
      // regions {0, 1}: four distinct identities, four processes.
      EXPECT_EQ(arrivals->cohorts(), 4u);
    }
    std::vector<std::vector<chain::TxId>> ids;
    ids.reserve(harness.clients.size());
    for (const auto& client : harness.clients) {
      EXPECT_GT(client->submitted(), 500u);
      ids.push_back(client->submitted_ids());
    }
    return ids;
  };

  EXPECT_EQ(run(/*batched=*/false), run(/*batched=*/true));
}

// Golden-file gate for the whole stack: each faulted scenario must
// reproduce its checked-in report byte-for-byte. Any change that perturbs
// event order, RNG draw order or serialization shows up here as a one-byte
// diff. The cases cover the paper's flagship cell (redbelly under crash)
// and the chain paths that keep running tallies or retry queues:
//  * redbelly transient: stalled rounds re-send the same echo, and state
//    sync after the restart abandons a round;
//  * aptos equivocate with the misbehavior defense: quorums read the
//    (leader, digest) tally, and at this seed double votes move voters
//    between digests;
//  * solana crash mid exchange_burst: forwarded transactions wait for dead
//    leaders and are retried under a backlog;
//  * redbelly loss on explicit targets with a composed gray plan and
//    non-default knobs: the scenario's fault_targets, knob values and extra
//    plans must all reach the armed schedule.
struct GoldenCase {
  const char* name;
  const char* scenario;  // scenario JSON, as stabl_cli --scenario reads it
  const char* golden;    // file under tests/golden/
};

void PrintTo(const GoldenCase& golden_case, std::ostream* out) {
  *out << golden_case.name;
}

class GoldenReport : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenReport, MatchesGoldenBytes) {
  const ResolvedScenario resolved =
      resolve_scenario(scenario_from_json(GetParam().scenario));
  const SensitivityRun run = run_sensitivity(resolved.config);
  const std::string json =
      to_json(resolved.config.chain, resolved.config.fault, run);

  std::ifstream in(std::string(STABL_TEST_GOLDEN_DIR) + "/" +
                   GetParam().golden);
  ASSERT_TRUE(in.good()) << "missing golden report " << GetParam().golden;
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string golden = buffer.str();
  if (!golden.empty() && golden.back() == '\n') golden.pop_back();
  EXPECT_EQ(json, golden);
}

INSTANTIATE_TEST_SUITE_P(
    FaultedScenarios, GoldenReport,
    ::testing::Values(
        GoldenCase{"redbelly_crash",
                   R"({"chain": "redbelly", "fault": "crash",
                       "duration_s": 60})",
                   "redbelly_crash.report.json"},
        GoldenCase{"redbelly_transient",
                   R"({"chain": "redbelly", "fault": "transient",
                       "duration_s": 150})",
                   "redbelly_transient.report.json"},
        GoldenCase{"aptos_equivocate_defended",
                   R"({"chain": "aptos",
                       "chain_params": {"misbehavior_defense": 1},
                       "fault": "equivocate", "duration_s": 60,
                       "seed": 2})",
                   "aptos_equivocate_defended.report.json"},
        GoldenCase{"solana_crash_burst",
                   R"({"chain": "solana", "fault": "crash", "duration_s": 60,
                       "traffic": {"preset": "exchange_burst",
                                   "flash_at_s": 15,
                                   "flash_duration_s": 30}})",
                   "solana_crash_burst.report.json"},
        GoldenCase{"redbelly_loss_gray_knobs",
                   R"({"chain": "redbelly", "fault": "loss",
                       "fault_targets": [6, 7], "loss_probability": 0.3,
                       "extra_faults": ["gray"], "gray_delay_s": 1,
                       "duration_s": 60})",
                   "redbelly_loss_gray_knobs.report.json"}),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace stabl::core

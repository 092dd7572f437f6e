// Fault engine v2: plan validation at arm time, the new tc-netem style
// rules (loss, bandwidth, gray), overlapping rule behaviour, and whole
// FaultSchedules with concurrently active plans.
#include "core/fault.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "chain/node.hpp"
#include "core/experiment.hpp"
#include "core/observer.hpp"
#include "net/network.hpp"
#include "sim/simulation.hpp"

namespace stabl::core {
namespace {

// ------------------------------------------------------------ validation

class NullNode final : public chain::BlockchainNode {
 public:
  using BlockchainNode::BlockchainNode;

 protected:
  void start_protocol() override {}
  void on_app_message(const net::Envelope&) override {}
  void accept_transaction(const chain::Transaction&) override {}
};

class FaultValidationTest : public ::testing::Test {
 protected:
  FaultValidationTest()
      : simulation(3), network(simulation, net::LatencyConfig{}) {
    for (net::NodeId id = 0; id < 4; ++id) {
      chain::NodeConfig config;
      config.id = id;
      config.n = 4;
      config.network_seed = 1;
      nodes.push_back(
          std::make_unique<NullNode>(simulation, network, config));
      pointers.push_back(nodes.back().get());
    }
  }

  /// Arm the plan and return the invalid_argument message ("" when it
  /// armed fine).
  std::string arm_error(const FaultPlan& plan) {
    Observers observers(simulation, network, pointers);
    try {
      observers.arm(plan);
    } catch (const std::invalid_argument& error) {
      return error.what();
    }
    return "";
  }

  sim::Simulation simulation;
  net::Network network;
  std::vector<std::unique_ptr<NullNode>> nodes;
  std::vector<chain::BlockchainNode*> pointers;
};

TEST_F(FaultValidationTest, RejectsEmptyTargets) {
  FaultPlan plan;
  plan.type = FaultType::kCrash;
  plan.targets = {};
  const std::string error = arm_error(plan);
  EXPECT_NE(error.find("crash"), std::string::npos) << error;
  EXPECT_NE(error.find("at least one target"), std::string::npos) << error;
}

TEST_F(FaultValidationTest, RejectsOutOfRangeTargets) {
  FaultPlan plan;
  plan.type = FaultType::kPartition;
  plan.targets = {1, 9};  // only nodes 0..3 exist
  const std::string error = arm_error(plan);
  EXPECT_NE(error.find("targets node 9"), std::string::npos) << error;
  EXPECT_NE(error.find("0..3"), std::string::npos) << error;
}

TEST_F(FaultValidationTest, RejectsInvertedFaultWindow) {
  FaultPlan plan;
  plan.type = FaultType::kLoss;
  plan.targets = {2};
  plan.inject_at = sim::sec(100);
  plan.recover_at = sim::sec(100);  // must strictly precede recovery
  const std::string error = arm_error(plan);
  EXPECT_NE(error.find("does not precede"), std::string::npos) << error;
}

TEST_F(FaultValidationTest, RejectsBadKnobs) {
  FaultPlan plan;
  plan.targets = {1};
  plan.inject_at = sim::sec(1);
  plan.recover_at = sim::sec(2);

  plan.type = FaultType::kLoss;
  plan.loss_probability = 1.5;
  EXPECT_NE(arm_error(plan).find("loss_probability"), std::string::npos);

  plan.type = FaultType::kThrottle;
  plan.throttle_bytes_per_s = 0.0;
  EXPECT_NE(arm_error(plan).find("throttle_bytes_per_s"),
            std::string::npos);

  plan.type = FaultType::kDelay;
  plan.delay_amount = sim::Duration::zero();
  EXPECT_NE(arm_error(plan).find("delay_amount"), std::string::npos);

  plan.type = FaultType::kGray;
  plan.gray_latency = sim::Duration::zero();
  EXPECT_NE(arm_error(plan).find("gray_latency"), std::string::npos);

  plan.type = FaultType::kChurn;
  plan.churn_down = sim::Duration::zero();
  EXPECT_NE(arm_error(plan).find("churn_down"), std::string::npos);
}

TEST_F(FaultValidationTest, ChurnTargetsAreBackUpAtRecoverAt) {
  // A down period longer than the fault window ends at recover_at.
  FaultPlan plan;
  plan.type = FaultType::kChurn;
  plan.targets = {2, 3};
  plan.inject_at = sim::sec(3);
  plan.recover_at = sim::sec(9);
  plan.churn_down = sim::sec(15);
  for (chain::BlockchainNode* node : pointers) node->start();
  Observers observers(simulation, network, pointers);
  observers.arm(plan);
  simulation.run_until(sim::sec(4));
  EXPECT_FALSE(nodes[2]->alive());
  EXPECT_FALSE(nodes[3]->alive());
  simulation.run_until(plan.recover_at);
  EXPECT_TRUE(nodes[2]->alive());
  EXPECT_TRUE(nodes[3]->alive());
}

TEST_F(FaultValidationTest, AcceptsUntargetedNoOpPlans) {
  FaultPlan plan;
  plan.type = FaultType::kNone;
  EXPECT_EQ(arm_error(plan), "");
  plan.type = FaultType::kSecureClient;
  EXPECT_EQ(arm_error(plan), "");
}

TEST(FaultPlanValidate, CrashNeedsNoRecoveryWindow) {
  FaultPlan plan;
  plan.type = FaultType::kCrash;
  plan.targets = {0};
  plan.inject_at = sim::sec(5);
  plan.recover_at = sim::sec(0);  // ignored: a crash is permanent
  EXPECT_EQ(validate(plan, 4), "");
  EXPECT_FALSE(uses_recovery_window(FaultType::kCrash));
  EXPECT_TRUE(uses_recovery_window(FaultType::kLoss));
}

TEST_F(FaultValidationTest, RejectsDuplicateTargets) {
  // A duplicated id would silently double-arm kill/restart actions for
  // the same node.
  FaultPlan plan;
  plan.type = FaultType::kTransient;
  plan.targets = {2, 1, 2};
  const std::string error = arm_error(plan);
  EXPECT_NE(error.find("twice"), std::string::npos) << error;
  EXPECT_NE(error.find("2"), std::string::npos) << error;
  plan.targets = {2, 1};
  EXPECT_EQ(arm_error(plan), "");
}

TEST(FaultPlanCanonical, ResetsDeadFieldsAndSortsTargets) {
  FaultPlan plan;
  plan.type = FaultType::kCrash;
  plan.targets = {3, 1};
  plan.inject_at = sim::sec(10);
  plan.recover_at = sim::sec(99);    // meaningless: crash never recovers
  plan.loss_probability = 0.7;       // meaningless for a crash
  plan.gray_latency = sim::sec(9);
  const FaultPlan canon = canonical(plan);
  EXPECT_EQ(canon.recover_at, sim::Time{0});
  EXPECT_EQ(canon.targets, (std::vector<net::NodeId>{1, 3}));
  const FaultPlan defaults{};
  EXPECT_EQ(canon.loss_probability, defaults.loss_probability);
  EXPECT_EQ(canon.gray_latency, defaults.gray_latency);
  EXPECT_EQ(canon.inject_at, sim::sec(10));  // meaningful, kept

  // Two behaviourally identical plans normalize identically.
  FaultPlan other = plan;
  other.recover_at = sim::sec(123);
  other.loss_probability = 0.1;
  const FaultPlan other_canon = canonical(other);
  EXPECT_EQ(other_canon.recover_at, canon.recover_at);
  EXPECT_EQ(other_canon.loss_probability, canon.loss_probability);
}

TEST(FaultPlanCanonical, NoOpTypesDropEverything) {
  FaultPlan plan;
  plan.type = FaultType::kSecureClient;
  plan.targets = {1, 2};
  plan.inject_at = sim::sec(50);
  const FaultPlan canon = canonical(plan);
  EXPECT_TRUE(canon.targets.empty());
  EXPECT_EQ(canon.inject_at, sim::Time{0});
  EXPECT_EQ(canon.recover_at, sim::Time{0});
}

// ------------------------------------------------- rules on the network

struct Probe final : net::Endpoint {
  bool alive = true;
  std::vector<sim::Time> arrivals;

  explicit Probe(sim::Simulation& simulation) : sim_(simulation) {}

  void deliver(const net::Envelope&) override {
    arrivals.push_back(sim_.now());
  }
  [[nodiscard]] bool endpoint_alive() const override { return alive; }

 private:
  sim::Simulation& sim_;
};

struct Marker final : net::Payload {};

class RuleTest : public ::testing::Test {
 protected:
  RuleTest() : simulation(9), network(simulation, net::LatencyConfig{}) {
    for (net::NodeId id = 0; id < 4; ++id) {
      probes.push_back(std::make_unique<Probe>(simulation));
      network.attach(id, probes.back().get());
    }
  }

  void send(net::NodeId from, net::NodeId to,
            std::uint32_t bytes = 256) {
    network.send(from, to, std::make_shared<const Marker>(), bytes);
  }

  sim::Simulation simulation;
  net::Network network;
  std::vector<std::unique_ptr<Probe>> probes;
};

TEST_F(RuleTest, StackedDelayRulesAddUpAndUnwindIndependently) {
  const net::RuleId first = network.add_delay({0}, {1}, sim::sec(2));
  const net::RuleId second = network.add_delay({0}, {1}, sim::sec(3));
  EXPECT_EQ(network.extra_delay(0, 1), sim::sec(5));
  EXPECT_EQ(network.extra_delay(1, 0), sim::sec(5));  // both directions
  EXPECT_EQ(network.extra_delay(0, 2), sim::Duration::zero());

  network.remove_rule(first);
  EXPECT_EQ(network.extra_delay(0, 1), sim::sec(3));
  network.remove_rule(second);
  EXPECT_EQ(network.extra_delay(0, 1), sim::Duration::zero());
}

TEST_F(RuleTest, ClearRulesRestoresEverything) {
  network.add_partition({0}, {1});
  network.add_delay({0}, {2}, sim::sec(9));
  network.add_loss({0}, {3}, 0.9);
  EXPECT_EQ(network.rule_count(), 3u);
  EXPECT_FALSE(network.permitted(0, 1));

  // Blocked at send time while the partition is up...
  send(0, 1);
  simulation.run();
  EXPECT_TRUE(probes[1]->arrivals.empty());
  EXPECT_EQ(network.stats().dropped_partition, 1u);

  // ...and back to normal once every rule is lifted at once.
  network.clear_rules();
  EXPECT_EQ(network.rule_count(), 0u);
  EXPECT_TRUE(network.permitted(0, 1));
  EXPECT_EQ(network.extra_delay(0, 2), sim::Duration::zero());
  EXPECT_EQ(network.loss_probability(0, 3), 0.0);
  send(0, 1);
  simulation.run();
  EXPECT_EQ(probes[1]->arrivals.size(), 1u);
}

TEST_F(RuleTest, PartitionInstalledMidFlightDropsAtDelivery) {
  send(0, 1);
  network.add_partition({0}, {1});
  simulation.run();
  EXPECT_TRUE(probes[1]->arrivals.empty());
  EXPECT_EQ(network.stats().dropped_partition, 1u);
}

TEST_F(RuleTest, LossRuleDropsSomeButNotAllPackets) {
  network.add_loss({0}, {1}, 0.5);
  for (int i = 0; i < 200; ++i) send(0, 1);
  simulation.run();
  const std::size_t arrived = probes[1]->arrivals.size();
  EXPECT_GT(arrived, 50u);
  EXPECT_LT(arrived, 150u);
  EXPECT_EQ(network.stats().dropped_loss, 200u - arrived);
}

TEST_F(RuleTest, LossIsDeterministicUnderAFixedSeed) {
  auto run_once = [](std::uint64_t seed) {
    sim::Simulation simulation(seed);
    net::Network network(simulation, net::LatencyConfig{});
    Probe sink(simulation);
    Probe source(simulation);
    network.attach(0, &source);
    network.attach(1, &sink);
    network.add_loss({0}, {1}, 0.3);
    for (int i = 0; i < 300; ++i) {
      network.send(0, 1, std::make_shared<const Marker>());
    }
    simulation.run();
    return sink.arrivals;
  };
  const auto first = run_once(42);
  const auto second = run_once(42);
  EXPECT_EQ(first, second) << "same seed must lose the same packets";
  EXPECT_NE(first, run_once(43)) << "a new seed reshuffles the losses";
}

TEST_F(RuleTest, OverlappingLossRulesCompound) {
  network.add_loss({0}, {1}, 0.5);
  network.add_loss({0}, {1}, 0.5);
  EXPECT_DOUBLE_EQ(network.loss_probability(0, 1), 0.75);
  for (int i = 0; i < 400; ++i) send(0, 1);
  simulation.run();
  // ~25% survival.
  EXPECT_GT(probes[1]->arrivals.size(), 50u);
  EXPECT_LT(probes[1]->arrivals.size(), 150u);
}

TEST_F(RuleTest, BandwidthRuleSerializesPackets) {
  // 1 KiB/s: each 1 KiB packet serializes for a second and queues behind
  // its predecessor.
  network.add_bandwidth({0}, {1}, 1024.0);
  send(0, 1, 1024);
  send(0, 1, 1024);
  send(0, 1, 1024);
  send(0, 2, 1024);  // unmatched traffic is unaffected
  simulation.run();
  ASSERT_EQ(probes[1]->arrivals.size(), 3u);
  EXPECT_GE(probes[1]->arrivals[0], sim::sec(1));
  EXPECT_GE(probes[1]->arrivals[1], sim::sec(2));
  EXPECT_GE(probes[1]->arrivals[2], sim::sec(3));
  EXPECT_LT(probes[2]->arrivals.at(0), sim::sec(1));
  EXPECT_EQ(network.stats().throttled, 3u);
}

TEST_F(RuleTest, GrayRuleDelaysEverythingTouchingTheNode) {
  network.add_gray({2}, sim::sec(2));
  EXPECT_EQ(network.extra_delay(0, 2), sim::sec(2));
  EXPECT_EQ(network.extra_delay(2, 3), sim::sec(2));
  EXPECT_EQ(network.extra_delay(0, 1), sim::Duration::zero());
  EXPECT_TRUE(network.permitted(0, 2)) << "gray nodes still answer";
}

// ------------------------------------- overlapping plans and schedules

TEST_F(FaultValidationTest, OverlappingPlansKeepTheirOwnRuleHandles) {
  Observers observers(simulation, network, pointers);
  FaultSchedule schedule;

  FaultPlan wide;
  wide.type = FaultType::kDelay;
  wide.targets = {3};
  wide.delay_amount = sim::sec(1);
  wide.inject_at = sim::sec(1);
  wide.recover_at = sim::sec(5);
  schedule.add(wide);

  FaultPlan nested;  // entirely inside the wide plan's window
  nested.type = FaultType::kDelay;
  nested.targets = {3};
  nested.delay_amount = sim::sec(10);
  nested.inject_at = sim::sec(2);
  nested.recover_at = sim::sec(3);
  schedule.add(nested);

  observers.arm(schedule);

  simulation.run_until(sim::ms(1500));
  EXPECT_EQ(network.extra_delay(0, 3), sim::sec(1));
  simulation.run_until(sim::ms(2500));
  EXPECT_EQ(network.extra_delay(0, 3), sim::sec(11));  // both active
  simulation.run_until(sim::ms(3500));
  EXPECT_EQ(network.extra_delay(0, 3), sim::sec(1))
      << "the nested plan lifts only its own rule";
  simulation.run_until(sim::ms(5500));
  EXPECT_EQ(network.extra_delay(0, 3), sim::Duration::zero());
  EXPECT_EQ(network.rule_count(), 0u);
}

TEST_F(FaultValidationTest, MixedKindPlansComposeOnTheSameWindow) {
  Observers observers(simulation, network, pointers);
  FaultSchedule schedule;

  FaultPlan partition;
  partition.type = FaultType::kPartition;
  partition.targets = {2};
  partition.inject_at = sim::sec(1);
  partition.recover_at = sim::sec(4);
  schedule.add(partition);

  FaultPlan loss;
  loss.type = FaultType::kLoss;
  loss.targets = {3};
  loss.loss_probability = 0.4;
  loss.inject_at = sim::sec(2);
  loss.recover_at = sim::sec(6);
  schedule.add(loss);

  observers.arm(schedule);

  simulation.run_until(sim::ms(2500));  // both plans active
  EXPECT_FALSE(network.permitted(0, 2));
  EXPECT_DOUBLE_EQ(network.loss_probability(0, 3), 0.4);
  simulation.run_until(sim::ms(4500));  // partition lifted, loss persists
  EXPECT_TRUE(network.permitted(0, 2));
  EXPECT_DOUBLE_EQ(network.loss_probability(0, 3), 0.4);
  simulation.run_until(sim::ms(6500));
  EXPECT_EQ(network.rule_count(), 0u);
}

TEST(FaultScheduleExperiment, ComposedFaultsRunDeterministically) {
  // Acceptance scenario: a partition with packet loss layered on top,
  // both active at once mid-run, driven through the full experiment.
  ExperimentConfig config;
  config.chain = ChainKind::kRedbelly;
  config.fault = FaultType::kPartition;
  config.duration = sim::sec(120);
  config.inject_at = sim::sec(40);
  config.recover_at = sim::sec(80);
  config.seed = 21;

  FaultPlan loss;
  loss.type = FaultType::kLoss;
  loss.loss_probability = 0.3;  // targets default inside the runner
  loss.inject_at = sim::sec(30);
  loss.recover_at = sim::sec(90);
  config.fault_schedule.add(paper_plan(config)).add(loss);

  const ExperimentResult first = run_experiment(config);
  const ExperimentResult second = run_experiment(config);

  EXPECT_GT(first.submitted, 0u);
  EXPECT_GT(first.committed, 0u);
  EXPECT_EQ(first.submitted, second.submitted);
  EXPECT_EQ(first.committed, second.committed);
  EXPECT_EQ(first.latencies, second.latencies);
  EXPECT_EQ(first.events, second.events);
}

TEST(FaultScheduleExperiment, GrayPlusChurnOverlapOnTheSameTarget) {
  // A gray failure (all traffic slowed) and crash-recovery churn armed on
  // the SAME node with overlapping windows: the gray rule must survive the
  // node's kill/restart cycles and the run must stay deterministic.
  ExperimentConfig config;
  config.chain = ChainKind::kRedbelly;
  config.fault = FaultType::kGray;
  config.duration = sim::sec(120);
  config.inject_at = sim::sec(30);
  config.recover_at = sim::sec(90);
  config.seed = 33;
  config.capture_replicas = true;
  FaultPlan gray = paper_plan(config);
  gray.targets = {5};
  config.fault_schedule.add(gray);

  FaultPlan churn;
  churn.type = FaultType::kChurn;
  churn.targets = {5};
  churn.inject_at = sim::sec(40);
  churn.recover_at = sim::sec(80);
  churn.churn_down = sim::sec(5);
  churn.churn_up = sim::sec(7);
  config.fault_schedule.add(churn);

  const ExperimentResult first = run_experiment(config);
  const ExperimentResult second = run_experiment(config);
  EXPECT_GT(first.committed, 0u);
  EXPECT_TRUE(first.live_at_end);
  EXPECT_EQ(first.committed, second.committed);
  EXPECT_EQ(first.events, second.events);
  // The churn plan actually cycled the node through crash/restart.
  ASSERT_EQ(first.replicas.size(), config.n);
  EXPECT_GT(first.replicas[5].restarts, 0);
  // And both plans resolved onto the same target.
  const FaultSchedule schedule = resolved_schedule(config);
  ASSERT_EQ(schedule.plans.size(), 2u);
  EXPECT_EQ(schedule.plans[0].targets, schedule.plans[1].targets);
}

TEST(FaultTypeNames, NewFaultKinds) {
  EXPECT_EQ(to_string(FaultType::kLoss), "loss");
  EXPECT_EQ(to_string(FaultType::kThrottle), "throttle");
  EXPECT_EQ(to_string(FaultType::kGray), "gray");
}

}  // namespace
}  // namespace stabl::core

#include "net/network.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "sim/simulation.hpp"

namespace stabl::net {
namespace {

struct Probe final : Endpoint {
  bool alive = true;
  std::vector<Envelope> received;

  void deliver(const Envelope& envelope) override {
    received.push_back(envelope);
  }
  [[nodiscard]] bool endpoint_alive() const override { return alive; }
};

struct Marker final : Payload {
  explicit Marker(int v) : value(v) {}
  int value;
};

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : simulation(1), network(simulation, LatencyConfig{}) {
    for (NodeId id = 0; id < 4; ++id) network.attach(id, &probes[id]);
  }

  sim::Simulation simulation;
  Network network;
  Probe probes[4];
};

TEST_F(NetworkTest, DeliversWithPositiveLatency) {
  network.send(0, 1, std::make_shared<const Marker>(7));
  EXPECT_TRUE(probes[1].received.empty());
  simulation.run();
  ASSERT_EQ(probes[1].received.size(), 1u);
  EXPECT_GT(simulation.now(), sim::Time{0});
  const auto* marker =
      dynamic_cast<const Marker*>(probes[1].received[0].payload.get());
  ASSERT_NE(marker, nullptr);
  EXPECT_EQ(marker->value, 7);
  EXPECT_EQ(probes[1].received[0].from, 0u);
}

TEST_F(NetworkTest, PartitionDropsBothDirections) {
  network.add_partition({0, 1}, {2, 3});
  network.send(0, 2, std::make_shared<const Marker>(1));
  network.send(3, 1, std::make_shared<const Marker>(2));
  network.send(0, 1, std::make_shared<const Marker>(3));  // same side: ok
  network.send(2, 3, std::make_shared<const Marker>(4));  // same side: ok
  simulation.run();
  EXPECT_TRUE(probes[2].received.empty());
  EXPECT_EQ(probes[1].received.size(), 1u);
  EXPECT_EQ(probes[3].received.size(), 1u);
  EXPECT_EQ(network.stats().dropped_partition, 2u);
}

TEST_F(NetworkTest, RemoveRuleRestoresDelivery) {
  const RuleId rule = network.add_partition({0}, {1});
  network.send(0, 1, std::make_shared<const Marker>(1));
  simulation.run();
  EXPECT_TRUE(probes[1].received.empty());
  network.remove_rule(rule);
  network.send(0, 1, std::make_shared<const Marker>(2));
  simulation.run();
  EXPECT_EQ(probes[1].received.size(), 1u);
}

TEST_F(NetworkTest, RuleInstalledMidFlightDropsPacket) {
  network.send(0, 1, std::make_shared<const Marker>(1));
  network.add_partition({0}, {1});  // installed before delivery event
  simulation.run();
  EXPECT_TRUE(probes[1].received.empty());
}

TEST_F(NetworkTest, DeadEndpointDrawsRst) {
  probes[1].alive = false;
  network.send(0, 1, std::make_shared<const Marker>(1));
  simulation.run();
  EXPECT_TRUE(probes[1].received.empty());
  ASSERT_EQ(probes[0].received.size(), 1u);
  const auto* control = dynamic_cast<const ControlPayload*>(
      probes[0].received[0].payload.get());
  ASSERT_NE(control, nullptr);
  EXPECT_EQ(control->kind, ControlPayload::Kind::kRst);
  EXPECT_EQ(network.stats().dropped_dead, 1u);
  EXPECT_EQ(network.stats().rst_sent, 1u);
}

TEST_F(NetworkTest, RstToDeadEndpointDoesNotEcho) {
  // Two dead endpoints must not generate an infinite RST exchange.
  probes[0].alive = false;
  probes[1].alive = false;
  network.send(0, 1, std::make_shared<const Marker>(1));
  simulation.run();
  EXPECT_LE(network.stats().rst_sent, 1u);
}

TEST_F(NetworkTest, PartitionSuppressesRst) {
  // With a partition in place, packets are dropped by the filter before
  // reaching the dead host, so the sender gets no RST.
  probes[1].alive = false;
  network.add_partition({0}, {1});
  network.send(0, 1, std::make_shared<const Marker>(1));
  simulation.run();
  EXPECT_TRUE(probes[0].received.empty());
  EXPECT_EQ(network.stats().rst_sent, 0u);
}

TEST_F(NetworkTest, PermittedReflectsRules) {
  EXPECT_TRUE(network.permitted(0, 2));
  network.add_partition({0}, {2});
  EXPECT_FALSE(network.permitted(0, 2));
  EXPECT_FALSE(network.permitted(2, 0));
  EXPECT_TRUE(network.permitted(0, 1));
  network.clear_rules();
  EXPECT_TRUE(network.permitted(0, 2));
}

TEST_F(NetworkTest, StatsCountDeliveries) {
  for (int i = 0; i < 5; ++i) {
    network.send(0, 1, std::make_shared<const Marker>(i));
  }
  simulation.run();
  EXPECT_EQ(network.stats().sent, 5u);
  EXPECT_EQ(network.stats().delivered, 5u);
}

// Argument checks hold in every build type, not only with assertions on.
TEST_F(NetworkTest, RejectsInvalidRuleArguments) {
  const sim::Duration zero = sim::Duration::zero();
  EXPECT_THROW(network.attach(9, nullptr), std::invalid_argument);
  EXPECT_THROW(network.add_delay({0}, {1}, zero), std::invalid_argument);
  EXPECT_THROW(network.add_delay({0}, {1}, sim::ms(-1)),
               std::invalid_argument);
  EXPECT_THROW(network.add_loss({0}, {1}, 0.0), std::invalid_argument);
  EXPECT_THROW(network.add_loss({0}, {1}, 1.5), std::invalid_argument);
  EXPECT_THROW(network.add_loss({0}, {1}, std::nan("")),
               std::invalid_argument);
  EXPECT_THROW(network.add_bandwidth({0}, {1}, 0.0), std::invalid_argument);
  EXPECT_THROW(network.add_gray({0}, zero), std::invalid_argument);
  EXPECT_THROW(network.add_eclipse(0, {1}, zero, 0.5),
               std::invalid_argument);
  EXPECT_THROW(network.add_eclipse(0, {1}, sim::ms(5), 1.0),
               std::invalid_argument);
  EXPECT_THROW(network.add_eclipse(0, {1}, sim::ms(5), -0.1),
               std::invalid_argument);
  // Nothing was installed: traffic flows undelayed and undropped.
  EXPECT_EQ(network.extra_delay(0, 1), zero);
  network.send(0, 1, std::make_shared<const Marker>(1));
  simulation.run();
  EXPECT_EQ(probes[1].received.size(), 1u);
}

TEST_F(NetworkTest, AcceptsBoundaryRuleArguments) {
  EXPECT_NE(network.add_loss({0}, {1}, 1.0), 0u);
  EXPECT_NE(network.add_eclipse(2, {3}, sim::us(1), 0.0), 0u);
  EXPECT_NE(network.add_delay({0}, {2}, sim::us(1)), 0u);
}

TEST(Latency, RespectsFloorAndBytes) {
  sim::Rng rng(3);
  LatencyConfig config;
  config.median = sim::us(500);
  config.sigma = 0.0;
  config.floor = sim::us(100);
  config.ns_per_byte = 1000.0;  // 1us per byte, exaggerated
  LatencyModel model(config);
  const auto small = model.sample(rng, 0);
  const auto big = model.sample(rng, 10000);
  EXPECT_EQ(small, sim::us(500));
  EXPECT_EQ(big, sim::us(500 + 10000));
}

TEST(Latency, DeterministicWithZeroSigma) {
  sim::Rng rng(3);
  LatencyModel model(LatencyConfig{sim::us(300), 0.0, sim::us(50), 0.0});
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(model.sample(rng, 100), sim::us(300));
  }
}

TEST(Latency, SamplesSpreadWithSigma) {
  sim::Rng rng(3);
  LatencyModel model(LatencyConfig{sim::us(500), 0.5, sim::us(50), 0.0});
  sim::Duration lo = sim::sec(1);
  sim::Duration hi = sim::us(0);
  for (int i = 0; i < 1000; ++i) {
    const auto v = model.sample(rng, 100);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
    ASSERT_GE(v, sim::us(50));
  }
  EXPECT_LT(lo, sim::us(400));
  EXPECT_GT(hi, sim::us(700));
}

}  // namespace
}  // namespace stabl::net

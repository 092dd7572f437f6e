// Byzantine node tolerance beyond latency (§7 motivation + the paper's
// future work): a client that trusts a single node can be deceived by a
// Byzantine RPC endpoint; the credence.js-style verified client accepts a
// result only when t+1 replicas report the same hash.
#include <gtest/gtest.h>

#include <string>

#include "chain_test_util.hpp"
#include "core/sensitivity.hpp"
#include "chains/redbelly/redbelly.hpp"

namespace stabl::core {
namespace {

using testing::Harness;

void build_redbelly(Harness& harness) {
  chain::NodeConfig node_config;
  node_config.n = 10;
  node_config.network_seed = 77;
  harness.nodes = redbelly::make_cluster(harness.simulation, harness.network,
                                         node_config);
}

ClientMachine* add_client(Harness& harness, std::vector<net::NodeId> eps,
                          std::size_t matching, double tps = 20.0,
                          sim::Time stop = sim::sec(20)) {
  ClientConfig config;
  config.id = static_cast<net::NodeId>(10 + harness.clients.size());
  config.account = static_cast<chain::AccountId>(harness.clients.size());
  config.recipient = 999;
  config.endpoints = std::move(eps);
  config.tps = tps;
  config.stop_at = stop;
  config.required_matching = matching;
  config.tx_seed = chain::mix64(5);
  harness.clients.push_back(
      std::make_unique<ClientMachine>(harness.simulation, harness.network,
                                      config));
  return harness.clients.back().get();
}

/// Accepted transactions that are NOT actually on chain = deceptions.
std::uint64_t deceived(const Harness& harness, const ClientMachine& client) {
  std::uint64_t count = 0;
  for (const auto& [id, hash] : client.accepted_hashes()) {
    if (!harness.nodes[0]->ledger().is_committed(id)) ++count;
  }
  return count;
}

TEST(Credence, NaiveClientIsDeceivedByByzantineEndpoint) {
  Harness harness;
  build_redbelly(harness);
  harness.nodes[0]->set_rpc_byzantine(true);
  auto* client = add_client(harness, {0}, /*matching=*/0);
  harness.start_all();
  harness.simulation.run_until(sim::sec(25));
  // Every "commit" the naive client saw was fabricated.
  EXPECT_GT(client->committed(), 300u);
  EXPECT_EQ(deceived(harness, *client), client->committed());
}

TEST(Credence, VerifiedClientSurvivesOneByzantineEndpoint) {
  // 4 endpoints with 1 liar among them. Matching 3 accepts on 3 matching
  // honest answers (t_B+1 rule with the liar never matching); matching 0
  // is the paper's wait-for-all secure client, which takes the majority
  // result once all 4 answered.
  for (const std::size_t matching : {std::size_t{3}, std::size_t{0}}) {
    SCOPED_TRACE("matching " + std::to_string(matching));
    Harness harness;
    build_redbelly(harness);
    harness.nodes[0]->set_rpc_byzantine(true);
    auto* client = add_client(harness, {0, 1, 2, 3}, matching);
    harness.start_all();
    harness.simulation.run_until(sim::sec(25));
    EXPECT_GT(client->committed(), 300u);
    EXPECT_EQ(deceived(harness, *client), 0u)
        << "redundant acceptance filters the fabricated responses";
    // The client observed the conflicting responses (the lie is visible).
    EXPECT_GT(client->conflicting_responses(), 300u);
  }
}

TEST(Credence, VerifiedClientAgainstHonestEndpointsIsClean) {
  Harness harness;
  build_redbelly(harness);
  auto* client = add_client(harness, {0, 1, 2, 3}, /*matching=*/3);
  harness.start_all();
  harness.simulation.run_until(sim::sec(25));
  EXPECT_GT(client->committed(), 300u);
  EXPECT_EQ(client->conflicting_responses(), 0u);
  EXPECT_EQ(deceived(harness, *client), 0u);
}

TEST(Credence, MatchingQuorumIsFasterThanWaitForAll) {
  // Accept-on-3-matching responds at the 3rd fastest replica instead of
  // the slowest of 4 — redundancy without the full latency penalty.
  Harness harness;
  build_redbelly(harness);
  auto* wait_all = add_client(harness, {0, 1, 2, 3}, /*matching=*/0);
  auto* matching = add_client(harness, {0, 1, 2, 3}, /*matching=*/3);
  harness.start_all();
  harness.simulation.run_until(sim::sec(25));
  ASSERT_GT(wait_all->committed(), 300u);
  ASSERT_GT(matching->committed(), 300u);
  const Ecdf slow(wait_all->latencies());
  const Ecdf fast(matching->latencies());
  EXPECT_LE(fast.mean(), slow.mean() + 1e-9);
}

TEST(Credence, ByzantineRpcFlagDoesNotAffectConsensus) {
  // The lying node only cheats its RPC clients; it still participates in
  // consensus correctly (the paper's threat model for §7).
  Harness harness;
  build_redbelly(harness);
  harness.nodes[0]->set_rpc_byzantine(true);
  add_client(harness, {1}, 0);  // honest endpoint
  harness.start_all();
  harness.simulation.run_until(sim::sec(25));
  EXPECT_GT(harness.clients[0]->committed(), 300u);
  EXPECT_EQ(deceived(harness, *harness.clients[0]), 0u);
  testing::expect_prefix_consistent(harness);
}

}  // namespace
}  // namespace stabl::core

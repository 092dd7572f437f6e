// Shared helpers for the per-chain protocol tests: build a cluster, attach
// simple clients, run for a while, and check cross-replica invariants.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "chain/hash.hpp"
#include "chain/node.hpp"
#include "core/client.hpp"
#include "net/network.hpp"
#include "sim/simulation.hpp"

namespace stabl::testing {

struct Harness {
  explicit Harness(std::uint64_t seed = 11)
      : simulation(seed), network(simulation, net::LatencyConfig{}) {}

  /// Attach `count` clients at `tps` each, one per entry node, sending
  /// until `stop_at`. Call after the nodes vector is filled.
  void add_clients(std::size_t count, double tps, sim::Time stop_at,
                   int fanout = 1) {
    const std::size_t entries = std::min<std::size_t>(count, nodes.size());
    for (std::size_t i = 0; i < count; ++i) {
      core::ClientConfig config;
      config.id = static_cast<net::NodeId>(nodes.size() + i);
      config.account = static_cast<chain::AccountId>(i);
      config.recipient = static_cast<chain::AccountId>(1000 + i);
      config.tps = tps;
      config.stop_at = stop_at;
      config.tx_seed = chain::mix64(99);
      for (int k = 0; k < fanout; ++k) {
        config.endpoints.push_back(static_cast<net::NodeId>(
            (i + static_cast<std::size_t>(k)) % entries));
      }
      clients.push_back(std::make_unique<core::ClientMachine>(
          simulation, network, config));
    }
  }

  void start_all() {
    for (auto& node : nodes) node->start();
    for (auto& client : clients) client->start();
  }

  [[nodiscard]] std::uint64_t total_client_committed() const {
    std::uint64_t total = 0;
    for (const auto& client : clients) total += client->committed();
    return total;
  }

  [[nodiscard]] std::uint64_t total_client_submitted() const {
    std::uint64_t total = 0;
    for (const auto& client : clients) total += client->submitted();
    return total;
  }

  sim::Simulation simulation;
  net::Network network;
  std::vector<std::unique_ptr<chain::BlockchainNode>> nodes;
  std::vector<std::unique_ptr<core::ClientMachine>> clients;
};

/// Every pair of ledgers must agree block-by-block on their common prefix
/// (no conflicting commits); returns via gtest assertions.
inline void expect_prefix_consistent(const Harness& harness) {
  const auto block_eq = [](const chain::Block& a, const chain::Block& b) {
    if (a.txs().size() != b.txs().size()) return false;
    for (std::size_t i = 0; i < a.txs().size(); ++i) {
      if (a.txs()[i].id != b.txs()[i].id) return false;
    }
    return true;
  };
  for (std::size_t i = 0; i < harness.nodes.size(); ++i) {
    for (std::size_t j = i + 1; j < harness.nodes.size(); ++j) {
      const auto& a = harness.nodes[i]->ledger().blocks();
      const auto& b = harness.nodes[j]->ledger().blocks();
      const std::size_t common = std::min(a.size(), b.size());
      for (std::size_t h = 0; h < common; ++h) {
        ASSERT_TRUE(block_eq(a[h], b[h]))
            << "ledger divergence between node " << i << " and node " << j
            << " at height " << h;
      }
    }
  }
}

/// No transaction may be executed twice on any single replica.
inline void expect_no_double_execution(const Harness& harness) {
  for (const auto& node : harness.nodes) {
    std::unordered_set<chain::TxId> seen;
    for (const chain::Block& block : node->ledger().blocks()) {
      for (const chain::Transaction& tx : block.txs()) {
        ASSERT_TRUE(seen.insert(tx.id).second)
            << "tx " << tx.id << " committed twice on node "
            << node->node_id();
      }
    }
  }
}

}  // namespace stabl::testing

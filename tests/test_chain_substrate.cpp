// Unit tests for the common blockchain substrate: accounts, mempool,
// ledger, CPU model, VRF sortition.
#include <gtest/gtest.h>

#include "chain/account.hpp"
#include "chain/cpu.hpp"
#include "chain/hash.hpp"
#include "chain/ledger.hpp"
#include "chain/mempool.hpp"
#include "chain/vrf.hpp"
#include "sim/simulation.hpp"

namespace stabl::chain {
namespace {

Transaction make_tx(TxId id, AccountId from, std::uint64_t nonce,
                    std::uint64_t amount = 1) {
  Transaction tx;
  tx.id = id;
  tx.from = from;
  tx.to = 999;
  tx.amount = amount;
  tx.nonce = nonce;
  return tx;
}

// ---------------------------------------------------------------- accounts

TEST(AccountState, AppliesInNonceOrder) {
  AccountState accounts(100);
  EXPECT_EQ(accounts.next_nonce(1), 0u);
  EXPECT_TRUE(accounts.apply(make_tx(10, 1, 0)));
  EXPECT_EQ(accounts.next_nonce(1), 1u);
  EXPECT_FALSE(accounts.apply(make_tx(11, 1, 0)));  // replay
  EXPECT_FALSE(accounts.apply(make_tx(12, 1, 2)));  // gap
  EXPECT_TRUE(accounts.apply(make_tx(13, 1, 1)));
}

TEST(AccountState, TransfersBalance) {
  AccountState accounts(100);
  EXPECT_TRUE(accounts.apply(make_tx(1, 1, 0, 30)));
  EXPECT_EQ(accounts.balance(1), 70u);
  EXPECT_EQ(accounts.balance(999), 130u);
}

TEST(AccountState, RejectsOverdraft) {
  AccountState accounts(10);
  EXPECT_FALSE(accounts.apply(make_tx(1, 1, 0, 11)));
  EXPECT_EQ(accounts.next_nonce(1), 0u);
  EXPECT_EQ(accounts.balance(1), 10u);
}

TEST(AccountState, ApplicableMatchesApply) {
  AccountState accounts(10);
  const Transaction good = make_tx(1, 1, 0, 5);
  const Transaction gap = make_tx(2, 1, 7, 5);
  EXPECT_TRUE(accounts.applicable(good));
  EXPECT_FALSE(accounts.applicable(gap));
}

TEST(AccountState, ClearResets) {
  AccountState accounts(10);
  EXPECT_TRUE(accounts.apply(make_tx(1, 1, 0, 5)));
  accounts.clear();
  EXPECT_EQ(accounts.next_nonce(1), 0u);
  EXPECT_EQ(accounts.balance(1), 10u);
}

// ----------------------------------------------------------------- mempool

TEST(Mempool, DeduplicatesById) {
  Mempool pool;
  EXPECT_TRUE(pool.add(make_tx(1, 1, 0)));
  EXPECT_FALSE(pool.add(make_tx(1, 1, 0)));
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.duplicate_submissions(), 1u);
}

TEST(Mempool, CollectReadyRespectsNonceChain) {
  Mempool pool;
  pool.add(make_tx(3, 1, 2));
  pool.add(make_tx(1, 1, 0));
  // nonce 1 missing: only nonce 0 is ready.
  const auto ready =
      pool.collect_ready(10, [](AccountId) { return std::uint64_t{0}; });
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0].id, 1u);
}

TEST(Mempool, CollectReadyChainsConsecutiveNonces) {
  Mempool pool;
  for (std::uint64_t n = 0; n < 5; ++n) pool.add(make_tx(10 + n, 1, n));
  const auto ready =
      pool.collect_ready(10, [](AccountId) { return std::uint64_t{0}; });
  ASSERT_EQ(ready.size(), 5u);
  for (std::uint64_t n = 0; n < 5; ++n) EXPECT_EQ(ready[n].nonce, n);
}

TEST(Mempool, CollectReadyHonorsLimit) {
  Mempool pool;
  for (std::uint64_t n = 0; n < 10; ++n) pool.add(make_tx(10 + n, 1, n));
  EXPECT_EQ(pool.collect_ready(3, [](AccountId) { return std::uint64_t{0}; })
                .size(),
            3u);
}

TEST(Mempool, CollectReadyMultipleSenders) {
  Mempool pool;
  pool.add(make_tx(1, 1, 0));
  pool.add(make_tx(2, 2, 0));
  pool.add(make_tx(3, 2, 1));
  const auto ready =
      pool.collect_ready(10, [](AccountId) { return std::uint64_t{0}; });
  EXPECT_EQ(ready.size(), 3u);
}

TEST(Mempool, RemoveErasesEntries) {
  Mempool pool;
  pool.add(make_tx(1, 1, 0));
  pool.add(make_tx(2, 1, 1));
  pool.remove({make_tx(1, 1, 0)});
  EXPECT_FALSE(pool.contains(1));
  EXPECT_TRUE(pool.contains(2));
}

TEST(Mempool, RemoveStaleDropsExecutedNonces) {
  Mempool pool;
  pool.add(make_tx(1, 1, 0));
  pool.add(make_tx(2, 1, 1));
  pool.add(make_tx(3, 1, 5));
  pool.remove_stale([](AccountId) { return std::uint64_t{2}; });
  EXPECT_FALSE(pool.contains(1));
  EXPECT_FALSE(pool.contains(2));
  EXPECT_TRUE(pool.contains(3));
}

TEST(Mempool, KnownIdsAndGet) {
  Mempool pool;
  pool.add(make_tx(42, 3, 0));
  EXPECT_EQ(pool.known_ids(), std::vector<TxId>{42});
  ASSERT_NE(pool.get(42), nullptr);
  EXPECT_EQ(pool.get(42)->from, 3u);
  EXPECT_EQ(pool.get(43), nullptr);
}

// ------------------------------------------------------------------ ledger

TEST(Ledger, AppendsSequentially) {
  Ledger ledger;
  ledger.append({make_tx(1, 1, 0)}, /*round=*/0, /*proposer=*/0, sim::sec(1));
  EXPECT_EQ(ledger.height(), 1u);
  EXPECT_TRUE(ledger.is_committed(1));
  EXPECT_EQ(ledger.commit_time(1), sim::sec(1));
  EXPECT_EQ(ledger.tx_count(), 1u);
}

TEST(Ledger, EmptyBlocksAllowed) {
  Ledger ledger;
  ledger.append({}, 0, 0, sim::Time{0});
  EXPECT_EQ(ledger.height(), 1u);
  EXPECT_EQ(ledger.tx_count(), 0u);
}

TEST(Ledger, LastCommitTimeTracksTail) {
  Ledger ledger;
  EXPECT_EQ(ledger.last_commit_time(), sim::Time{0});
  ledger.append({}, 0, 0, sim::sec(3));
  EXPECT_EQ(ledger.last_commit_time(), sim::sec(3));
}

// --------------------------------------------------------------------- cpu

class CpuHost final : public sim::Process {
 public:
  using Process::Process;
};

TEST(CpuModel, RunsWorkAfterCost) {
  sim::Simulation simulation(1);
  CpuHost host(simulation, 0);
  host.start();
  CpuModel cpu(host, 1.0);
  sim::Time done_at{0};
  cpu.submit(sim::ms(100), [&] { done_at = simulation.now(); });
  simulation.run();
  EXPECT_EQ(done_at, sim::ms(100));
}

TEST(CpuModel, QueuesBeyondCores) {
  sim::Simulation simulation(1);
  CpuHost host(simulation, 0);
  host.start();
  CpuModel cpu(host, 2.0);
  std::vector<sim::Time> done;
  for (int i = 0; i < 4; ++i) {
    cpu.submit(sim::ms(100), [&] { done.push_back(simulation.now()); });
  }
  simulation.run();
  ASSERT_EQ(done.size(), 4u);
  // Two run immediately, two queue behind them.
  EXPECT_EQ(done[0], sim::ms(100));
  EXPECT_EQ(done[1], sim::ms(100));
  EXPECT_EQ(done[2], sim::ms(200));
  EXPECT_EQ(done[3], sim::ms(200));
}

TEST(CpuModel, QueueDelayReflectsBacklog) {
  sim::Simulation simulation(1);
  CpuHost host(simulation, 0);
  host.start();
  CpuModel cpu(host, 1.0);
  EXPECT_EQ(cpu.queue_delay(), sim::Duration::zero());
  cpu.submit(sim::ms(500), [] {});
  EXPECT_EQ(cpu.queue_delay(), sim::ms(500));
}

TEST(CpuModel, CrashAbandonsWork) {
  sim::Simulation simulation(1);
  CpuHost host(simulation, 0);
  host.start();
  CpuModel cpu(host, 1.0);
  bool finished = false;
  cpu.submit(sim::ms(100), [&] { finished = true; });
  host.kill();
  cpu.reset();
  simulation.run();
  EXPECT_FALSE(finished);
}

TEST(DecayingMeter, TracksRateAndDecays) {
  DecayingMeter meter(sim::sec(1));
  // Steady input of 0.5 units/sec for a while settles near rate 0.5.
  sim::Time t{0};
  for (int i = 0; i < 100; ++i) {
    t += sim::ms(100);
    meter.add(t, 0.05);
  }
  EXPECT_NEAR(meter.rate(t), 0.5, 0.05);
  // After 5 time constants of silence, the rate collapses.
  EXPECT_LT(meter.rate(t + sim::sec(5)), 0.01);
}

// --------------------------------------------------------------------- vrf

TEST(Vrf, DeterministicAcrossCalls) {
  const auto a = sortition_committee(1, 5, 0, 10, 4.0);
  const auto b = sortition_committee(1, 5, 0, 10, 4.0);
  EXPECT_EQ(a, b);
  EXPECT_EQ(sortition_leader(1, 5, 0, 10), sortition_leader(1, 5, 0, 10));
}

TEST(Vrf, LeaderVariesWithRound) {
  std::set<net::NodeId> leaders;
  for (std::uint64_t round = 0; round < 50; ++round) {
    leaders.insert(sortition_leader(9, round, 0, 10));
  }
  // Over 50 rounds, many distinct leaders appear.
  EXPECT_GE(leaders.size(), 6u);
}

TEST(Vrf, CommitteeSizeNearExpectation) {
  double total = 0;
  for (std::uint64_t round = 0; round < 400; ++round) {
    total += static_cast<double>(
        sortition_committee(3, round, 1, 100, 20.0).size());
  }
  EXPECT_NEAR(total / 400.0, 20.0, 1.5);
}

TEST(Vrf, CommitteeIncludesCrashedNodes) {
  // Sortition is oblivious to liveness: over many rounds every node id is
  // selected at some point (the paper's reason Algorand rounds stall).
  std::set<net::NodeId> seen;
  for (std::uint64_t round = 0; round < 200; ++round) {
    for (const auto id : sortition_committee(3, round, 0, 10, 5.0)) {
      seen.insert(id);
    }
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Vrf, DrawInUnitInterval) {
  for (std::uint64_t round = 0; round < 100; ++round) {
    const double draw = sortition_draw(7, round, 2, 3);
    ASSERT_GE(draw, 0.0);
    ASSERT_LT(draw, 1.0);
  }
}

// -------------------------------------------------------------------- hash

TEST(Hash, Mix64IsDeterministicAndSpreads) {
  EXPECT_EQ(mix64(42), mix64(42));
  EXPECT_NE(mix64(42), mix64(43));
  EXPECT_NE(hash_combine(1, 2), hash_combine(2, 1));
}

}  // namespace
}  // namespace stabl::chain

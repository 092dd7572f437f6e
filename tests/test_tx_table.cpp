// Tests for chain::TxTable, the flat transaction-id table behind the
// ledger and mempool indexes: a differential run against
// std::unordered_map, erase clusters that wrap past the end of the slot
// array, and id 0 (the value that marks an empty slot).
#include "chain/tx_table.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <unordered_map>
#include <vector>

namespace stabl::chain {
namespace {

/// Ids whose home slot is `slot` in a table of `capacity` slots.
std::vector<TxId> ids_homed_at(std::size_t slot, std::size_t capacity,
                               std::size_t count) {
  std::vector<TxId> ids;
  for (TxId id = 1; ids.size() < count; ++id) {
    if ((mix64(id) & (capacity - 1)) == slot) ids.push_back(id);
  }
  return ids;
}

TEST(TxTable, MatchesUnorderedMapUnderRandomInsertFindErase) {
  std::mt19937_64 rng(20261019);
  // A small id pool (with id 0) makes repeats, duplicate inserts and
  // misses common; raw 64-bit ids spread over every home slot.
  std::vector<TxId> pool{0};
  for (int i = 0; i < 3000; ++i) pool.push_back(rng());
  TxTable<std::uint32_t> table;
  std::unordered_map<TxId, std::uint32_t> reference;
  std::size_t grown = 0;
  std::size_t last_capacity = 0;
  for (int op = 0; op < 200'000; ++op) {
    // Phases of 20k operations alternate between filling (70% inserts)
    // and draining (70% erases), so the table grows through several
    // doublings and is emptied again.
    const bool filling = (op / 20'000) % 2 == 0;
    const TxId id = pool[rng() % pool.size()];
    const auto value = static_cast<std::uint32_t>(rng());
    const unsigned roll = static_cast<unsigned>(rng() % 10);
    if (roll < (filling ? 7u : 2u)) {
      const bool inserted = reference.emplace(id, value).second;
      ASSERT_EQ(table.insert(id, value), inserted) << "op " << op;
    } else if (roll < 9) {
      ASSERT_EQ(table.erase(id), reference.erase(id) == 1) << "op " << op;
    } else {
      const auto it = reference.find(id);
      const std::uint32_t* found = table.find(id);
      ASSERT_EQ(found != nullptr, it != reference.end()) << "op " << op;
      if (found != nullptr) {
        ASSERT_EQ(*found, it->second) << "op " << op;
      }
    }
    ASSERT_EQ(table.size(), reference.size());
    ASSERT_LE(table.size() * 4, table.capacity() * 3 + 4)
        << "load above 3/4 (the id-0 entry lives outside the array)";
    if (table.capacity() != last_capacity) {
      ++grown;
      last_capacity = table.capacity();
    }
    if (op % 5'000 == 0) {
      for (const TxId probe : pool) {
        const auto it = reference.find(probe);
        const std::uint32_t* found = table.find(probe);
        ASSERT_EQ(found != nullptr, it != reference.end());
        if (found != nullptr) {
          ASSERT_EQ(*found, it->second);
        }
      }
    }
  }
  EXPECT_GE(grown, 6u) << "the run must cross several doublings";
  EXPECT_TRUE(table.contains(0) || !reference.contains(0));
}

TEST(TxTable, EraseShiftsClustersThatWrapPastTheEnd) {
  constexpr std::size_t kCapacity = 16;  // the first insert allocates 16
  const std::vector<TxId> last = ids_homed_at(kCapacity - 1, kCapacity, 4);
  const std::vector<TxId> first = ids_homed_at(0, kCapacity, 2);
  const std::vector<TxId> before = ids_homed_at(kCapacity - 2, kCapacity, 1);
  // Cluster: slot 14 <- before[0]; 15, 0, 1, 2 <- last[0..3]; 3, 4 <-
  // first[0..1] (displaced from their home slot 0 by the wrap).
  std::vector<TxId> cluster{before[0]};
  cluster.insert(cluster.end(), last.begin(), last.end());
  cluster.insert(cluster.end(), first.begin(), first.end());
  // Erase each member in turn from a fresh table holding the whole
  // cluster: every survivor must still be found with its value.
  for (std::size_t victim = 0; victim < cluster.size(); ++victim) {
    TxTable<std::uint32_t> table;
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      ASSERT_TRUE(table.insert(cluster[i], static_cast<std::uint32_t>(i)));
    }
    ASSERT_EQ(table.capacity(), kCapacity);
    ASSERT_TRUE(table.erase(cluster[victim]));
    EXPECT_FALSE(table.contains(cluster[victim]));
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      if (i == victim) continue;
      const std::uint32_t* found = table.find(cluster[i]);
      ASSERT_NE(found, nullptr) << "lost id " << i << " erasing " << victim;
      EXPECT_EQ(*found, i);
    }
  }
  // Drain the cluster from its start, where every erase shifts the rest
  // of the wrapped run back across the end of the array.
  TxTable<std::uint32_t> table;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    table.insert(cluster[i], static_cast<std::uint32_t>(i));
  }
  for (std::size_t gone = 0; gone < cluster.size(); ++gone) {
    ASSERT_TRUE(table.erase(cluster[gone]));
    for (std::size_t i = gone + 1; i < cluster.size(); ++i) {
      ASSERT_TRUE(table.contains(cluster[i]))
          << "lost id " << i << " after erasing " << gone;
    }
  }
  EXPECT_TRUE(table.empty());
}

TEST(TxTable, IdZeroIsAnEntryLikeAnyOther) {
  TxTable<std::uint32_t> table;
  EXPECT_FALSE(table.contains(0));
  EXPECT_FALSE(table.erase(0));
  EXPECT_TRUE(table.insert(0, 7));
  EXPECT_FALSE(table.insert(0, 8)) << "a present id is not overwritten";
  ASSERT_NE(table.find(0), nullptr);
  EXPECT_EQ(*table.find(0), 7u);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_TRUE(table.insert(5, 9));
  EXPECT_FALSE(table.insert(5, 10));
  EXPECT_EQ(*table.find(5), 9u);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_TRUE(table.erase(0));
  EXPECT_FALSE(table.contains(0));
  EXPECT_TRUE(table.contains(5));
  EXPECT_EQ(table.size(), 1u);
  table.insert(0, 1);
  table.clear();
  EXPECT_TRUE(table.empty());
  EXPECT_FALSE(table.contains(0));
  EXPECT_FALSE(table.contains(5));
  EXPECT_EQ(table.capacity(), 16u) << "clear() keeps the slot array";
}

}  // namespace
}  // namespace stabl::chain

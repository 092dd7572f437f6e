#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/rng.hpp"

namespace stabl::sim {
namespace {

TEST(EventQueue, EmptyInitially) {
  EventQueue queue;
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.size(), 0u);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue queue;
  std::vector<int> order;
  queue.schedule(ms(30), [&] { order.push_back(3); });
  queue.schedule(ms(10), [&] { order.push_back(1); });
  queue.schedule(ms(20), [&] { order.push_back(2); });
  Time at{};
  while (!queue.empty()) queue.pop(at)();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(at, ms(30));
}

TEST(EventQueue, SameTimeFifo) {
  EventQueue queue;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    queue.schedule(ms(5), [&, i] { order.push_back(i); });
  }
  Time at{};
  while (!queue.empty()) queue.pop(at)();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue queue;
  bool fired = false;
  const TimerId id = queue.schedule(ms(10), [&] { fired = true; });
  queue.cancel(id);
  EXPECT_TRUE(queue.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelIsIdempotent) {
  EventQueue queue;
  const TimerId id = queue.schedule(ms(10), [] {});
  queue.cancel(id);
  queue.cancel(id);
  queue.cancel(kInvalidTimer);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, CancelMiddleKeepsOthers) {
  EventQueue queue;
  std::vector<int> order;
  queue.schedule(ms(10), [&] { order.push_back(1); });
  const TimerId id = queue.schedule(ms(20), [&] { order.push_back(2); });
  queue.schedule(ms(30), [&] { order.push_back(3); });
  queue.cancel(id);
  EXPECT_EQ(queue.size(), 2u);
  Time at{};
  while (!queue.empty()) queue.pop(at)();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueue, NextTimeSkipsCancelledHead) {
  EventQueue queue;
  const TimerId id = queue.schedule(ms(5), [] {});
  queue.schedule(ms(15), [] {});
  queue.cancel(id);
  EXPECT_EQ(queue.next_time(), ms(15));
}

TEST(EventQueue, CancelAfterFireIsNoOp) {
  EventQueue queue;
  const TimerId id = queue.schedule(ms(1), [] {});
  Time at{};
  queue.pop(at)();
  queue.cancel(id);  // must not assert or corrupt
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, ManyEventsStressOrder) {
  EventQueue queue;
  Time last{-1};
  for (int i = 0; i < 10000; ++i) {
    queue.schedule(ms((i * 7919) % 1000), [] {});
  }
  Time at{};
  while (!queue.empty()) {
    queue.pop(at);
    EXPECT_GE(at, last);
    last = at;
  }
}

// Misuse-on-empty must fail loudly in every build type, not only under
// assert: a release-build caller of the old queue hit UB (top() on an
// empty container).
TEST(EventQueue, PopOnEmptyThrowsLogicError) {
  EventQueue queue;
  Time at{};
  EXPECT_THROW(queue.pop(at), std::logic_error);
  queue.schedule(ms(1), [] {});
  queue.pop(at);
  EXPECT_THROW(queue.pop(at), std::logic_error);
}

TEST(EventQueue, NextTimeOnEmptyThrowsLogicError) {
  EventQueue queue;
  EXPECT_THROW(static_cast<void>(queue.next_time()), std::logic_error);
}

TEST(EventQueue, PopReportsTheScheduledTimerId) {
  EventQueue queue;
  const TimerId a = queue.schedule(ms(2), [] {});
  const TimerId b = queue.schedule(ms(1), [] {});
  Time at{};
  TimerId fired = kInvalidTimer;
  queue.pop(at, &fired);
  EXPECT_EQ(fired, b);
  queue.pop(at, &fired);
  EXPECT_EQ(fired, a);
}

// Generation tags make a stale handle harmless: cancelling a TimerId
// whose pool slot has been recycled must not touch the new occupant.
TEST(EventQueue, StaleHandleAfterSlotReuseIsNoOp) {
  EventQueue queue;
  const TimerId old_id = queue.schedule(ms(10), [] {});
  queue.cancel(old_id);
  bool fired = false;
  const TimerId new_id = queue.schedule(ms(20), [&] { fired = true; });
  EXPECT_NE(old_id, new_id);
  queue.cancel(old_id);  // stale: same slot, older generation
  EXPECT_EQ(queue.size(), 1u);
  Time at{};
  queue.pop(at)();
  EXPECT_TRUE(fired);
}

TEST(EventQueue, FiredHandleIsStaleForItsRecycledSlot) {
  EventQueue queue;
  const TimerId fired_id = queue.schedule(ms(1), [] {});
  Time at{};
  queue.pop(at)();
  const TimerId reuse = queue.schedule(ms(2), [] {});
  queue.cancel(fired_id);  // must not cancel the slot's new occupant
  EXPECT_EQ(queue.size(), 1u);
  queue.cancel(reuse);
  EXPECT_TRUE(queue.empty());
}

// Regression for the lazy-cancel leak: the old design kept a heap entry
// plus a cancelled-set entry per cancelled timer until its fire time, so
// timeout churn (schedule far in the future, cancel long before firing)
// grew internal storage without bound. Eager cancellation must keep the
// pool bounded by the peak live population, no matter how many
// far-future timers churn through.
TEST(EventQueue, CancelChurnKeepsInternalStorageBounded) {
  EventQueue queue;
  std::vector<TimerId> live;
  constexpr int kSteady = 64;
  for (int i = 0; i < kSteady; ++i) {
    live.push_back(queue.schedule(sec(1000) + ms(i), [] {}));
  }
  Rng rng(7);
  for (int round = 0; round < 100000; ++round) {
    const auto pick = static_cast<std::size_t>(
        rng.uniform() * static_cast<double>(live.size()));
    queue.cancel(live[pick]);
    live[pick] = queue.schedule(sec(2000) + ms(round), [] {});
    ASSERT_EQ(queue.size(), static_cast<std::size_t>(kSteady));
  }
  // The slab never outgrows the steady-state population (free-list reuse),
  // and size() reflects exactly the live events.
  EXPECT_LE(queue.allocated_slots(), static_cast<std::size_t>(kSteady) + 1);
}

// Tie order is part of the determinism contract: events scheduled for the
// same instant pop in schedule order, and cancelling neighbours must not
// reshuffle the survivors (indexed-heap removal swaps entries around).
TEST(EventQueue, FifoTiesSurviveCancelChurn) {
  EventQueue queue;
  std::vector<int> order;
  std::vector<TimerId> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(queue.schedule(ms(5), [&, i] { order.push_back(i); }));
  }
  for (int i = 0; i < 100; i += 3) queue.cancel(ids[i]);
  Time at{};
  while (!queue.empty()) queue.pop(at)();
  std::vector<int> expected;
  for (int i = 0; i < 100; ++i) {
    if (i % 3 != 0) expected.push_back(i);
  }
  EXPECT_EQ(order, expected);
}

// Property test against a reference model with the legacy queue's
// observable semantics: a map ordered by (time, schedule order) — the old
// (at, TimerId) heap order. A seeded interleaving of schedule, cancel and
// pop must produce the exact pop sequence the old implementation gave.
struct ChurnCase {
  const char* name;
  std::uint64_t seed;
  int prefill;          // live events scheduled before the churn
  int steps;            // interleaved schedule / cancel / pop steps
  int instants;         // > 0: times fall on this many distinct instants
  double drain_cancel;  // share of drain steps that cancel, not pop
};

void PrintTo(const ChurnCase& c, std::ostream* os) { *os << c.name; }

class EventQueueChurn : public ::testing::TestWithParam<ChurnCase> {};

TEST_P(EventQueueChurn, MatchesLegacyReferenceModel) {
  const ChurnCase& c = GetParam();
  using Key = std::pair<Time, std::uint64_t>;
  EventQueue queue;
  std::map<Key, int> reference;
  // Per payload: its handle, its reference key and its index in `live`.
  std::vector<TimerId> ids;
  std::vector<Key> keys;
  std::vector<std::size_t> live_index;
  std::vector<int> live;  // payloads still scheduled
  Rng rng(c.seed);
  int last_fired = -1;
  Time now{0};
  const auto forget = [&](int payload) {
    const std::size_t i = live_index[payload];
    live[i] = live.back();
    live_index[live[i]] = i;
    live.pop_back();
  };
  const auto schedule = [&] {
    const Time at =
        c.instants > 0
            ? now + ms(1 + static_cast<std::int64_t>(rng.uniform() *
                                                     c.instants))
            : now + Duration{1 + static_cast<std::int64_t>(rng.uniform() *
                                                           1e4)};
    const int payload = static_cast<int>(ids.size());
    const Key key{at, ids.size()};
    ids.push_back(
        queue.schedule(at, [payload, &last_fired] { last_fired = payload; }));
    keys.push_back(key);
    live_index.push_back(live.size());
    live.push_back(payload);
    reference.emplace(key, payload);
  };
  const auto cancel_one = [&] {
    const int payload = live[static_cast<std::size_t>(
        rng.uniform() * static_cast<double>(live.size()))];
    queue.cancel(ids[payload]);
    reference.erase(keys[payload]);
    forget(payload);
  };
  const auto pop_one = [&] {
    Time at{};
    TimerId fired = kInvalidTimer;
    auto action = queue.pop(at, &fired);
    action();
    ASSERT_FALSE(reference.empty());
    const auto expected = reference.begin();
    ASSERT_EQ(at, expected->first.first) << "pop time diverged";
    ASSERT_EQ(last_fired, expected->second) << "pop tie order diverged";
    ASSERT_EQ(fired, ids[last_fired]) << "pop reported another handle";
    reference.erase(expected);
    forget(last_fired);
    now = at;
  };
  for (int i = 0; i < c.prefill; ++i) schedule();
  ASSERT_EQ(queue.size(), reference.size());
  for (int step = 0; step < c.steps; ++step) {
    const double roll = rng.uniform();
    if (roll < 0.5 || queue.empty()) {
      schedule();
    } else if (roll < 0.65) {
      cancel_one();
    } else {
      ASSERT_NO_FATAL_FAILURE(pop_one());
    }
    ASSERT_EQ(queue.size(), reference.size());
  }
  // Drain: the remaining pops must come out in exact reference order,
  // including the payload of every same-instant tie.
  while (!queue.empty()) {
    if (rng.uniform() < c.drain_cancel) {
      cancel_one();
    } else {
      ASSERT_NO_FATAL_FAILURE(pop_one());
    }
    ASSERT_EQ(queue.size(), reference.size());
  }
  EXPECT_TRUE(reference.empty());
}

INSTANTIATE_TEST_SUITE_P(
    Seeded, EventQueueChurn,
    ::testing::Values(
        // Times spread over 10 ms, a few hundred events live.
        ChurnCase{"spread", 0xF00D, 0, 50000, 0, 0.0},
        // 120 k live events on four instants: ties decide almost every
        // comparison of a deep heap, and cancels hit every depth.
        ChurnCase{"heavy_ties", 0xBEEF, 120000, 0, 4, 0.3}),
    [](const ::testing::TestParamInfo<ChurnCase>& info) {
      return std::string(info.param.name);
    });

// Heap shape: at every size across the 4-ary level boundaries (1, 5, 21
// and 85 entries) the event at each heap position is cancelled in turn.
// Every later cancel targets an entry that pops or earlier removals have
// moved, so a stale position, a skipped child or an order that ignores
// ties changes the drained sequence.
TEST(EventQueue, CancelAtEveryHeapPositionAcrossLevelBoundaries) {
  for (int n = 1; n <= 90; ++n) {
    for (int victim = 0; victim < n; ++victim) {
      EventQueue queue;
      std::map<std::pair<Time, int>, int> reference;
      std::vector<TimerId> ids;
      int last_fired = -1;
      for (int i = 0; i < n; ++i) {
        // Descending runs with ties, so schedules sift up past parents.
        const Time at = ms((n - i) % 7);
        ids.push_back(queue.schedule(at, [i, &last_fired] { last_fired = i; }));
        reference.emplace(std::make_pair(at, i), i);
      }
      const auto cancel = [&](int i) {
        queue.cancel(ids[i]);
        for (auto it = reference.begin(); it != reference.end(); ++it) {
          if (it->second == i) {
            reference.erase(it);
            break;
          }
        }
      };
      cancel(victim);
      // Drain, cancelling the next scheduled survivor after every pop.
      int next_cancel = 0;
      while (!queue.empty()) {
        Time at{};
        queue.pop(at)();
        ASSERT_EQ(at, reference.begin()->first.first)
            << "n=" << n << " victim=" << victim;
        ASSERT_EQ(last_fired, reference.begin()->second)
            << "n=" << n << " victim=" << victim;
        reference.erase(reference.begin());
        for (; next_cancel < n; ++next_cancel) {
          const bool live = std::any_of(
              reference.begin(), reference.end(),
              [&](const auto& entry) { return entry.second == next_cancel; });
          if (live) {
            cancel(next_cancel++);
            break;
          }
        }
        ASSERT_EQ(queue.size(), reference.size());
      }
      EXPECT_TRUE(reference.empty());
    }
  }
}

// The heap key packs the slot index under the sequence number. Leaving
// that range must fail loudly in every build type, never wrap into a key
// that sorts out of schedule order.
TEST(EventQueue, PackedKeyRangeThrowsInEveryBuildType) {
  const std::uint64_t max_seq =
      (std::uint64_t{1} << detail::kEventSeqBits) - 1;
  // The all-ones slot is the free list's end mark, so the last usable
  // slot is one below it.
  const std::uint64_t max_slot =
      (std::uint64_t{1} << detail::kEventSlotBits) - 2;
  const Time max_at{
      static_cast<std::int64_t>((std::uint64_t{1} << detail::kEventTimeBits) -
                                1)};
  const auto pack = [](Time at, std::uint64_t seq, std::uint64_t slot) {
    return detail::pack_event_entry(at, seq, slot);
  };
  EXPECT_NO_THROW(static_cast<void>(pack(max_at, max_seq, max_slot)));
  EXPECT_THROW(static_cast<void>(pack(Time{0}, max_seq + 1, 0)),
               std::length_error);
  EXPECT_THROW(static_cast<void>(pack(Time{0}, 0, max_slot + 1)),
               std::length_error);
  EXPECT_THROW(static_cast<void>(pack(max_at + us(1), 0, 0)),
               std::length_error);
  EXPECT_THROW(static_cast<void>(pack(us(-1), 0, 0)), std::length_error);
  // The old 24-bit slot field's bound is well inside the new one.
  EXPECT_NO_THROW(
      static_cast<void>(pack(Time{0}, 0, std::uint64_t{1} << 24)));
  // Entries order as (at, seq) does, whatever the slots.
  EXPECT_TRUE(pack(us(7), 5, max_slot) < pack(us(7), 6, 0));
  EXPECT_TRUE(pack(us(7), max_seq, max_slot) < pack(us(8), 0, 0));
  // A schedule past the bound throws before it changes the queue.
  EventQueue queue;
  queue.schedule(us(1), [] {});
  EXPECT_THROW(queue.schedule(max_at + us(1), [] {}), std::length_error);
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_EQ(queue.allocated_slots(), 1u);
}

TEST(EventQueue, ReserveDoesNotPerturbBehavior) {
  EventQueue queue;
  queue.reserve(4096);
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    queue.schedule(ms(8 - i), [&, i] { order.push_back(i); });
  }
  Time at{};
  while (!queue.empty()) queue.pop(at)();
  EXPECT_EQ(order, (std::vector<int>{7, 6, 5, 4, 3, 2, 1, 0}));
}

}  // namespace
}  // namespace stabl::sim

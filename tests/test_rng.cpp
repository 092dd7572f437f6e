#include "sim/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>

namespace stabl::sim {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.uniform_int(3, 7);
    ASSERT_GE(v, 3);
    ASSERT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(5);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(42, 42), 42);
}

TEST(Rng, NormalMomentsRoughlyStandard) {
  Rng rng(11);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, LognormalMedian) {
  Rng rng(13);
  std::vector<double> xs;
  for (int i = 0; i < 10001; ++i) xs.push_back(rng.lognormal_median(5.0, 0.4));
  std::nth_element(xs.begin(), xs.begin() + 5000, xs.end());
  EXPECT_NEAR(xs[5000], 5.0, 0.25);
  for (const double x : xs) ASSERT_GT(x, 0.0);
}

TEST(Rng, ExponentialMean) {
  Rng rng(17);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / n, 2.0, 0.08);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(19);
  for (int trial = 0; trial < 100; ++trial) {
    const auto sample = rng.sample_without_replacement(10, 6);
    ASSERT_EQ(sample.size(), 6u);
    std::set<std::size_t> unique(sample.begin(), sample.end());
    ASSERT_EQ(unique.size(), 6u);
    for (const std::size_t v : sample) ASSERT_LT(v, 10u);
  }
}

TEST(Rng, SampleWholePopulation) {
  Rng rng(23);
  const auto sample = rng.sample_without_replacement(5, 5);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 5u);
}

TEST(Rng, SampleLargerThanThePopulationThrows) {
  // Checked in every build type, not only where assert() is compiled in.
  Rng rng(31);
  EXPECT_THROW((void)rng.sample_without_replacement(5, 6),
               std::invalid_argument);
  EXPECT_THROW((void)rng.sample_without_replacement(0, 1),
               std::invalid_argument);
  EXPECT_TRUE(rng.sample_without_replacement(0, 0).empty());
}

TEST(Rng, SampleUniformity) {
  // Every element should be sampled roughly equally often.
  Rng rng(29);
  std::vector<int> counts(10, 0);
  for (int trial = 0; trial < 5000; ++trial) {
    for (const std::size_t v : rng.sample_without_replacement(10, 3)) {
      ++counts[v];
    }
  }
  for (const int c : counts) EXPECT_NEAR(c, 1500, 150);
}

TEST(Rng, ForkDivergesFromParent) {
  Rng parent(31);
  Rng child = parent.fork();
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent.next_u64() == child.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, DeriveIsConstAndRepeatable) {
  const Rng root(41);
  Rng a = root.derive(5);
  Rng b = root.derive(5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DeriveStreamsAreIndependentOfDerivationOrder) {
  const Rng root(41);
  // Derive in two different orders; stream 2 must not care.
  (void)root.derive(9);
  Rng first = root.derive(2);
  (void)root.derive(1);
  (void)root.derive(1234567);
  Rng second = root.derive(2);
  EXPECT_EQ(first.next_u64(), second.next_u64());
}

TEST(Rng, DeriveStreamsDiverge) {
  const Rng root(41);
  int equal = 0;
  Rng a = root.derive(0);
  Rng b = root.derive(1);
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 3);
  // Different roots give different streams too.
  EXPECT_NE(Rng(41).derive(7).next_u64(), Rng(42).derive(7).next_u64());
}

TEST(Rng, DeriveDoesNotPerturbTheParent) {
  Rng with_derive(43);
  Rng without(43);
  (void)with_derive.derive(3);
  (void)with_derive.derive(99);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(with_derive.next_u64(), without.next_u64());
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(37);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

}  // namespace
}  // namespace stabl::sim

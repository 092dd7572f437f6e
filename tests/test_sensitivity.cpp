// Tests for the sensitivity metric (paper §3), including the properties
// the paper claims for it: it captures amplitude and duration, resists
// outliers, needs no interpretation parameter, and is comparable across
// chains. Property-style sweeps use parameterized tests.
#include "core/sensitivity.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "sim/rng.hpp"

namespace stabl::core {
namespace {

std::vector<double> constant(std::size_t n, double v) {
  return std::vector<double>(n, v);
}

// ------------------------------------------------------------------- eCDF

TEST(Ecdf, StepsAtSamples) {
  Ecdf ecdf({1.0, 2.0, 2.0, 4.0});
  EXPECT_DOUBLE_EQ(ecdf(0.5), 0.0);
  EXPECT_DOUBLE_EQ(ecdf(1.0), 0.25);
  EXPECT_DOUBLE_EQ(ecdf(2.0), 0.75);
  EXPECT_DOUBLE_EQ(ecdf(3.9), 0.75);
  EXPECT_DOUBLE_EQ(ecdf(4.0), 1.0);
  EXPECT_DOUBLE_EQ(ecdf(100.0), 1.0);
}

TEST(Ecdf, EmptySampleIsZero) {
  Ecdf ecdf({});
  EXPECT_TRUE(ecdf.empty());
  EXPECT_DOUBLE_EQ(ecdf(1.0), 0.0);
  EXPECT_DOUBLE_EQ(ecdf.mean(), 0.0);
}

TEST(Ecdf, SummaryStatistics) {
  Ecdf ecdf({3.0, 1.0, 2.0});
  EXPECT_DOUBLE_EQ(ecdf.min(), 1.0);
  EXPECT_DOUBLE_EQ(ecdf.max(), 3.0);
  EXPECT_DOUBLE_EQ(ecdf.mean(), 2.0);
  EXPECT_DOUBLE_EQ(ecdf.quantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(ecdf.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(ecdf.quantile(1.0), 3.0);
}

TEST(Ecdf, DropsNonFiniteSamplesBeforeSorting) {
  // Regression: NaN in the input used to reach std::sort (strict-weak-
  // ordering UB) and the finiteness assert only ran after the sort. The
  // ctor now drops NaN/±inf deterministically before sorting.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  Ecdf ecdf({3.0, nan, 1.0, inf, 2.0, -inf, nan});
  ASSERT_EQ(ecdf.sorted_samples().size(), 3u);
  EXPECT_DOUBLE_EQ(ecdf.min(), 1.0);
  EXPECT_DOUBLE_EQ(ecdf.max(), 3.0);
  EXPECT_DOUBLE_EQ(ecdf.mean(), 2.0);
  // Same inputs, any order: the same finite subset survives.
  Ecdf again({nan, inf, 2.0, 1.0, 3.0});
  EXPECT_EQ(ecdf.sorted_samples(), again.sorted_samples());
}

TEST(Ecdf, AllNonFiniteBecomesEmpty) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Ecdf ecdf({nan, std::numeric_limits<double>::infinity()});
  EXPECT_TRUE(ecdf.empty());
  EXPECT_DOUBLE_EQ(ecdf(1.0), 0.0);
}

TEST(Ecdf, QuantileInterpolatesEvenSizedMedian) {
  // Regression: the nearest-rank +0.5 rounding biased even-sized medians
  // to the upper element — median of {1,2,3,4} came out as 3.
  Ecdf even({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(even.quantile(0.5), 2.5);
  EXPECT_DOUBLE_EQ(even.quantile(0.25), 1.75);
  EXPECT_DOUBLE_EQ(even.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(even.quantile(1.0), 4.0);
  // Odd sizes keep landing exactly on a sample at the median.
  Ecdf odd({10.0, 20.0, 30.0});
  EXPECT_DOUBLE_EQ(odd.quantile(0.5), 20.0);
  EXPECT_DOUBLE_EQ(odd.quantile(0.75), 25.0);
}

TEST(Ecdf, MonotoneNonDecreasing) {
  sim::Rng rng(5);
  std::vector<double> xs;
  for (int i = 0; i < 500; ++i) xs.push_back(rng.uniform(0.0, 30.0));
  Ecdf ecdf(xs);
  double prev = -1.0;
  for (double x = 0.0; x < 31.0; x += 0.25) {
    const double y = ecdf(x);
    ASSERT_GE(y, prev);
    prev = y;
  }
}

// ------------------------------------------------- super-cumulative / area

TEST(SuperCumulative, MatchesHandComputedSum) {
  // F(0)=0, F(1)=0.5, F(2)=0.5, F(3)=1 for samples {1, 3}.
  Ecdf ecdf({1.0, 3.0});
  EXPECT_DOUBLE_EQ(super_cumulative(ecdf, 3.0, 1.0), 0.0 + 0.5 + 0.5 + 1.0);
  EXPECT_DOUBLE_EQ(super_cumulative(ecdf, 0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(super_cumulative(ecdf, -1.0, 1.0), 0.0);
}

TEST(SuperCumulative, FinerStepScalesTermCount) {
  Ecdf ecdf({1.0, 3.0});
  const double coarse = super_cumulative(ecdf, 3.0, 1.0);
  const double fine = super_cumulative(ecdf, 3.0, 0.5);
  // Twice the grid points, roughly twice the sum.
  EXPECT_NEAR(fine, 2.0 * coarse, 1.0);
}

TEST(EcdfIntegral, EqualsUpperMinusMeanBeyondMax) {
  Ecdf ecdf({2.0, 4.0, 6.0});
  const double upper = 10.0;
  EXPECT_NEAR(ecdf_integral(ecdf, upper), upper - ecdf.mean(), 1e-9);
}

TEST(EcdfIntegral, ZeroBelowAllSamples) {
  Ecdf ecdf({5.0, 6.0});
  EXPECT_DOUBLE_EQ(ecdf_integral(ecdf, 4.0), 0.0);
}

// ------------------------------------------------------------ sensitivity

TEST(Sensitivity, IdenticalDistributionsScoreZero) {
  const auto xs = constant(100, 2.5);
  const auto score = sensitivity(xs, xs);
  EXPECT_DOUBLE_EQ(score.value, 0.0);
  EXPECT_FALSE(score.infinite);
  EXPECT_FALSE(score.benefits);
}

TEST(Sensitivity, WorseLatenciesGivePositiveScore) {
  const auto score = sensitivity(constant(100, 1.0), constant(100, 6.0));
  EXPECT_GT(score.value, 4.0);
  EXPECT_FALSE(score.benefits);
}

TEST(Sensitivity, BetterLatenciesFlagBenefits) {
  const auto score = sensitivity(constant(100, 6.0), constant(100, 1.0));
  EXPECT_GT(score.value, 0.0);
  EXPECT_TRUE(score.benefits) << "striped bar: altered improved latency";
}

TEST(Sensitivity, DeadChainIsInfinite) {
  const auto score =
      sensitivity(constant(100, 1.0), constant(100, 1.0), false);
  EXPECT_TRUE(score.infinite);
  EXPECT_TRUE(std::isinf(score.value));
  EXPECT_EQ(format_score(score), "inf");
}

TEST(Sensitivity, EmptyAlteredIsInfinite) {
  const auto score = sensitivity(constant(100, 1.0), {});
  EXPECT_TRUE(score.infinite);
  EXPECT_FALSE(score.invalid_baseline);
}

TEST(Sensitivity, EmptyBaselineIsInvalidNotABenefit) {
  // Regression: an empty baseline made baseline_area 0, so any altered run
  // scored |0 - altered_area| with benefits=true — a bogus "the fault
  // helped" verdict. The pair is now reported as invalid.
  const auto score = sensitivity({}, constant(100, 1.0));
  EXPECT_TRUE(score.infinite);
  EXPECT_TRUE(score.invalid_baseline);
  EXPECT_TRUE(std::isinf(score.value));
  EXPECT_FALSE(score.benefits);
  EXPECT_EQ(format_score(score), "invalid");
}

TEST(Sensitivity, DeadAlteredIsNotMarkedInvalidBaseline) {
  // The two infinity flavours stay distinguishable: liveness loss prints
  // "inf", a broken baseline prints "invalid".
  const auto dead = sensitivity(constant(100, 1.0), constant(100, 1.0), false);
  EXPECT_FALSE(dead.invalid_baseline);
  EXPECT_EQ(format_score(dead), "inf");
  const auto valid = sensitivity(constant(100, 1.0), constant(100, 2.0));
  EXPECT_FALSE(valid.invalid_baseline);
}

TEST(Sensitivity, CapturesDurationOfDegradation) {
  // Same peak amplitude, longer degradation => larger score.
  std::vector<double> base(1000, 1.0);
  std::vector<double> brief = base;
  std::vector<double> lasting = base;
  for (int i = 0; i < 50; ++i) brief[i] = 20.0;
  for (int i = 0; i < 400; ++i) lasting[i] = 20.0;
  const double brief_score = sensitivity(base, brief).value;
  const double lasting_score = sensitivity(base, lasting).value;
  EXPECT_GT(lasting_score, brief_score * 3.0);
}

TEST(Sensitivity, CapturesAmplitudeOfDegradation) {
  std::vector<double> base(1000, 1.0);
  std::vector<double> mild = base;
  std::vector<double> severe = base;
  for (int i = 0; i < 200; ++i) mild[i] = 5.0;
  for (int i = 0; i < 200; ++i) severe[i] = 50.0;
  EXPECT_GT(sensitivity(base, severe).value,
            sensitivity(base, mild).value * 3.0);
}

TEST(Sensitivity, ResilientToOutliersUnderCommonEndpoint) {
  // The paper: "a smaller fraction of particular latency values does not
  // contribute significantly". One huge outlier must barely move the
  // common-endpoint score...
  std::vector<double> base(10000, 1.0);
  std::vector<double> altered = base;
  altered[0] = 500.0;
  const auto score = sensitivity(base, altered);
  EXPECT_LT(score.value, 1.0);
}

TEST(Sensitivity, PerDistributionEndpointIsOutlierSensitive) {
  // ...whereas the literal per-endpoint variant moves by O(outlier) —
  // which is why common-endpoint is the default (see DESIGN.md §2).
  std::vector<double> base(10000, 1.0);
  std::vector<double> altered = base;
  altered[0] = 500.0;
  SensitivityOptions options;
  options.endpoint = ScoreEndpoint::kPerDistribution;
  const auto score = sensitivity(base, altered, true, options);
  EXPECT_GT(score.value, 100.0);
}

TEST(Sensitivity, UniformShiftScoresOnlyUnderCommonEndpoint) {
  // A uniform +5 s delay moves the whole eCDF: the area between the curves
  // is 5 s on the 0.25 s grid, i.e. 20. The literal per-distribution
  // reading evaluates each super-cumulative at its own maximum, and the
  // shift only prepends zero terms to the shifted sum, so it scores ~0.
  sim::Rng rng(3);
  std::vector<double> base;
  for (int i = 0; i < 50000; ++i) {
    base.push_back(rng.lognormal_median(1.0, 0.3));
  }
  std::vector<double> shifted = base;
  for (double& latency : shifted) latency += 5.0;
  EXPECT_NEAR(sensitivity(base, shifted).value, 20.0, 0.05);
  SensitivityOptions options;
  options.endpoint = ScoreEndpoint::kPerDistribution;
  EXPECT_NEAR(sensitivity(base, shifted, true, options).value, 0.0, 0.05);
}

TEST(Sensitivity, FormatMarksBenefits) {
  const auto score = sensitivity(constant(10, 6.0), constant(10, 1.0));
  const std::string text = format_score(score);
  EXPECT_EQ(text.back(), '*');
}

// ------------------------------- property sweeps (parameterized, TEST_P)

struct ShiftCase {
  double shift;
};

class SensitivityShift : public ::testing::TestWithParam<ShiftCase> {};

TEST_P(SensitivityShift, ScoreGrowsWithShift) {
  // Shifting the whole distribution right by s seconds yields a score of
  // roughly s / step (the paper's "absolute metric" property: the score is
  // a direct function of transaction latencies).
  sim::Rng rng(17);
  std::vector<double> base;
  for (int i = 0; i < 4000; ++i) base.push_back(rng.uniform(0.5, 2.5));
  std::vector<double> shifted;
  shifted.reserve(base.size());
  for (const double x : base) shifted.push_back(x + GetParam().shift);
  SensitivityOptions unit_grid;
  unit_grid.step = 1.0;
  const auto score = sensitivity(base, shifted, true, unit_grid);
  EXPECT_NEAR(score.value, GetParam().shift, 1.0 + 0.2 * GetParam().shift);
  EXPECT_FALSE(score.benefits);
}

INSTANTIATE_TEST_SUITE_P(Shifts, SensitivityShift,
                         ::testing::Values(ShiftCase{2.0}, ShiftCase{5.0},
                                           ShiftCase{10.0}, ShiftCase{20.0},
                                           ShiftCase{40.0}));

class SensitivitySymmetry : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SensitivitySymmetry, AbsoluteValueMakesOrderIrrelevant) {
  // |S1 - S2| == |S2 - S1| for arbitrary random samples.
  sim::Rng rng(GetParam());
  std::vector<double> a;
  std::vector<double> b;
  for (int i = 0; i < 1000; ++i) {
    a.push_back(rng.exponential(2.0));
    b.push_back(rng.exponential(3.0));
  }
  const auto ab = sensitivity(a, b);
  const auto ba = sensitivity(b, a);
  EXPECT_NEAR(ab.value, ba.value, 1e-9);
  EXPECT_NE(ab.benefits, ba.benefits);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SensitivitySymmetry,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

class SensitivityNonNegative : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(SensitivityNonNegative, ScoreIsAlwaysNonNegative) {
  sim::Rng rng(GetParam());
  std::vector<double> a;
  std::vector<double> b;
  const int na = 100 + static_cast<int>(rng.uniform_int(0, 900));
  const int nb = 100 + static_cast<int>(rng.uniform_int(0, 900));
  for (int i = 0; i < na; ++i) a.push_back(rng.lognormal_median(2.0, 0.8));
  for (int i = 0; i < nb; ++i) b.push_back(rng.lognormal_median(3.0, 0.8));
  EXPECT_GE(sensitivity(a, b).value, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SensitivityNonNegative,
                         ::testing::Range<std::uint64_t>(100, 120));

}  // namespace
}  // namespace stabl::core

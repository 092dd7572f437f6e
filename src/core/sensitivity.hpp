// The sensitivity metric (paper §3).
//
// Given transaction latencies measured in a baseline environment and in an
// altered (fault-injected) environment, the sensitivity score is the
// difference between the areas under the two empirical CDFs — the adapted
// super-cumulative Ŝ(x) = Σ_{i=0}^{x} F̂(i·step) evaluated at the end of
// the support. It captures both the amplitude and the duration of a
// failure's effect, is robust to outliers, needs no interpretation
// parameter, and is comparable across blockchains (paper §3).
//
// Endpoint convention. The paper writes |Ŝ₁(b₁) − Ŝ₂(b₂)| with b_i the max
// of each distribution. Because an eCDF equals 1 beyond its own maximum,
// evaluating both sums at the *common* endpoint B = max(b₁, b₂) matches the
// between-curves area of Fig. 1 and is the only reading under which the
// paper's outlier-resilience property holds; it is our default. The literal
// per-distribution-endpoint variant is provided for comparison (the
// Sensitivity tests in tests/test_sensitivity.cpp score both readings).
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace stabl::core {

/// Empirical cumulative distribution function over a latency sample.
class Ecdf {
 public:
  /// Takes ownership of the samples; drops non-finite entries (NaN, ±inf)
  /// deterministically, then sorts the rest.
  explicit Ecdf(std::vector<double> samples);

  /// Fraction of samples <= x. Zero for an empty sample.
  double operator()(double x) const;

  [[nodiscard]] std::size_t count() const { return samples_.size(); }
  [[nodiscard]] bool empty() const { return samples_.empty(); }
  /// Smallest / largest sample; 0 when empty.
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] double mean() const;
  /// Quantile by linear interpolation between ranks (R-7 convention): the
  /// median of an even-sized sample is the midpoint of the two central
  /// elements, not the upper one.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] const std::vector<double>& sorted_samples() const {
    return samples_;
  }

 private:
  std::vector<double> samples_;
};

/// Adapted super-cumulative: Ŝ(x) = Σ_{i=0}^{floor(x/step)} F̂(i·step).
double super_cumulative(const Ecdf& ecdf, double x, double step = 1.0);

/// Exact integral of the eCDF over [0, upper] (piecewise-linear sum).
/// For upper >= max, equals upper - mean — handy for cross-checks.
double ecdf_integral(const Ecdf& ecdf, double upper);

enum class ScoreEndpoint {
  kCommon,           // both Ŝ evaluated at max(b1, b2)  [default]
  kPerDistribution,  // Ŝ1 at b1, Ŝ2 at b2 (paper's literal formula)
};

struct SensitivityOptions {
  /// Grid step, in seconds, of the paper's sum over i. The paper uses the
  /// latency unit directly; we default to a 250 ms grid so that the
  /// sub-second effects of the fastest chains (Aptos, Solana) register in
  /// the score instead of rounding to zero. Scores scale as 1/step.
  double step = 0.25;
  ScoreEndpoint endpoint = ScoreEndpoint::kCommon;
};

struct SensitivityScore {
  /// |Ŝ1 − Ŝ2|; +inf when the altered environment lost liveness.
  double value = 0.0;
  /// Liveness issue in the altered run (paper: "a blockchain that stops
  /// committing transactions after a failure event has an infinite
  /// sensitivity score").
  bool infinite = false;
  /// The BASELINE sample was empty — the baseline run lost liveness or
  /// measured nothing, so no comparison is possible. The score is reported
  /// infinite with this flag set (rendered "invalid") rather than as a
  /// plausible-looking benefits=true number against a zero baseline area.
  bool invalid_baseline = false;
  /// Ŝ2 > Ŝ1: the altered environment *improved* latencies (the paper's
  /// striped bars — Redbelly and Avalanche under the secure client).
  bool benefits = false;
  double baseline_area = 0.0;
  double altered_area = 0.0;
};

/// Score from two latency samples. `altered_live` conveys the liveness
/// verdict of the altered run (an empty altered sample also counts dead).
SensitivityScore sensitivity(const std::vector<double>& baseline,
                             const std::vector<double>& altered,
                             bool altered_live = true,
                             const SensitivityOptions& options = {});

/// Render a score the way the paper's figures do: number, "inf", with a
/// trailing '*' for striped (benefits) bars; "invalid" when the baseline
/// measured nothing.
std::string format_score(const SensitivityScore& score);

}  // namespace stabl::core

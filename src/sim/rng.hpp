// Deterministic pseudo-random number generation.
//
// Every random choice in a STABL experiment flows from a single seeded Rng
// so that an experiment is a pure function of its configuration: same seed,
// same commit log. The generator is xoshiro256++ (public domain, Blackman &
// Vigna), seeded through splitmix64 as its authors recommend.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace stabl::sim {

/// xoshiro256++ generator with convenience distributions.
///
/// Not thread-safe; the simulator is single-threaded by design.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed);

  /// Next raw 64-bit value.
  std::uint64_t next_u64();

  /// Satisfies UniformRandomBitGenerator so Rng works with <algorithm>.
  std::uint64_t operator()() { return next_u64(); }
  static constexpr std::uint64_t min() { return 0; }
  static constexpr std::uint64_t max() { return ~std::uint64_t{0}; }

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Bernoulli trial with success probability p.
  bool chance(double p);

  /// Standard normal via Box-Muller (cached spare for the second value).
  double normal();

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Log-normal such that the *median* of the distribution is `median`
  /// and the underlying normal has standard deviation `sigma`.
  double lognormal_median(double median, double sigma);

  /// Exponential with the given mean.
  double exponential(double mean);

  /// Sample k distinct indices from [0, n) without replacement. Throws
  /// std::invalid_argument when k > n. Order of the returned sample is
  /// unspecified.
  std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                      std::size_t k);

  /// Derive an independent child generator; used to give each node its own
  /// stream so that adding events to one node does not perturb another.
  /// Consumes one draw from this generator, so repeated forks differ.
  Rng fork();

  /// Derive the child generator for a named stream WITHOUT consuming any
  /// state: same parent state + same stream index always yields the same
  /// child, regardless of how many other streams were derived in between
  /// or in what order. This is the RNG discipline the chaos engine relies
  /// on — trial k of a campaign draws from derive(k) and is therefore
  /// reproducible in isolation, independent of thread scheduling.
  [[nodiscard]] Rng derive(std::uint64_t stream) const;

 private:
  std::array<std::uint64_t, 4> state_{};
  double spare_normal_ = 0.0;
  bool has_spare_normal_ = false;
};

}  // namespace stabl::sim

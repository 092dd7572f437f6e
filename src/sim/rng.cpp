#include "sim/rng.hpp"

#include <cassert>
#include <cmath>
#include <numbers>
#include <stdexcept>
#include <string>

namespace stabl::sim {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  for (auto& s : state_) s = splitmix64(seed);
  // Guard against the all-zero state, which xoshiro cannot leave.
  if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 && state_[3] == 0) {
    state_[0] = 1;
  }
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 random mantissa bits, as recommended for xoshiro output.
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  assert(lo <= hi);
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(next_u64());  // full range
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % span);
  std::uint64_t v = next_u64();
  while (v >= limit) v = next_u64();
  return lo + static_cast<std::int64_t>(v % span);
}

bool Rng::chance(double p) { return uniform() < p; }

double Rng::normal() {
  if (has_spare_normal_) {
    has_spare_normal_ = false;
    return spare_normal_;
  }
  double u1 = uniform();
  while (u1 <= 0.0) u1 = uniform();
  const double u2 = uniform();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  spare_normal_ = mag * std::sin(2.0 * std::numbers::pi * u2);
  has_spare_normal_ = true;
  return mag * std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

double Rng::lognormal_median(double median, double sigma) {
  assert(median > 0.0);
  return median * std::exp(sigma * normal());
}

double Rng::exponential(double mean) {
  double u = uniform();
  while (u <= 0.0) u = uniform();
  return -mean * std::log(u);
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n,
                                                         std::size_t k) {
  // Checked in every build type: a caller sampling more peers than exist
  // (Avalanche's Snowball poll on a cluster smaller than sample_k + 1)
  // would otherwise read past the index vector.
  if (k > n) {
    throw std::invalid_argument(
        "Rng::sample_without_replacement: k = " + std::to_string(k) +
        " exceeds n = " + std::to_string(n));
  }
  // Partial Fisher-Yates over an index vector: O(n) setup, O(k) draws.
  std::vector<std::size_t> indices(n);
  for (std::size_t i = 0; i < n; ++i) indices[i] = i;
  std::vector<std::size_t> out;
  out.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    const auto j = static_cast<std::size_t>(
        uniform_int(static_cast<std::int64_t>(i),
                    static_cast<std::int64_t>(n - 1)));
    std::swap(indices[i], indices[j]);
    out.push_back(indices[i]);
  }
  return out;
}

Rng Rng::fork() { return Rng{next_u64()}; }

Rng Rng::derive(std::uint64_t stream) const {
  // Hash the full parent state together with the stream index; the parent
  // is left untouched. splitmix64 finalization decorrelates neighbouring
  // stream indices.
  std::uint64_t h = stream;
  for (const std::uint64_t word : state_) {
    h += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = h ^ word;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    h = z ^ (z >> 31);
  }
  return Rng{h};
}

}  // namespace stabl::sim

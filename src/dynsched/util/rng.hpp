// Deterministic random number generation for workload synthesis.
//
// We avoid std::mt19937 + std:: distributions in the trace generator because
// their exact output is implementation-defined across standard libraries;
// benches must print identical tables everywhere. xoshiro256** plus hand
// rolled distributions gives bit-reproducible streams.
#pragma once

#include <cstdint>
#include <vector>

#include "dynsched/util/error.hpp"

namespace dynsched::util {

/// xoshiro256** 1.0 (Blackman & Vigna), seeded via SplitMix64.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Uniform 64-bit value.
  std::uint64_t next();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p);

  /// Exponential with the given rate (mean = 1/rate).
  double exponential(double rate);

  /// Log-uniform over [lo, hi], lo > 0: exp(Uniform(ln lo, ln hi)).
  double logUniform(double lo, double hi);

  /// Samples an index according to `weights` (non-negative, not all zero).
  std::size_t discrete(const std::vector<double>& weights);

  /// Splits off an independent stream (hash-mixed child seed).
  Rng split();

 private:
  std::uint64_t state_[4];
};

}  // namespace dynsched::util

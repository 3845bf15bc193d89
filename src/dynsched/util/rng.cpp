#include "dynsched/util/rng.hpp"

#include <cmath>

namespace dynsched::util {

namespace {

std::uint64_t splitMix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& w : state_) w = splitMix64(s);
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
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
  // 53 random mantissa bits -> uniform in [0,1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  DYNSCHED_CHECK(lo <= hi);
  return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniformInt(std::int64_t lo, std::int64_t hi) {
  DYNSCHED_CHECK(lo <= hi);
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(next());  // full range
  // Rejection sampling for an unbiased draw.
  const std::uint64_t limit = UINT64_MAX - UINT64_MAX % span;
  std::uint64_t v = next();
  while (v >= limit) v = next();
  return lo + static_cast<std::int64_t>(v % span);
}

bool Rng::bernoulli(double p) { return uniform() < p; }

double Rng::exponential(double rate) {
  DYNSCHED_CHECK(rate > 0);
  // 1 - uniform() is in (0,1], so the log is finite.
  return -std::log(1.0 - uniform()) / rate;
}

double Rng::logUniform(double lo, double hi) {
  DYNSCHED_CHECK(lo > 0 && lo <= hi);
  return std::exp(uniform(std::log(lo), std::log(hi)));
}

std::size_t Rng::discrete(const std::vector<double>& weights) {
  DYNSCHED_CHECK(!weights.empty());
  double total = 0;
  for (double w : weights) {
    DYNSCHED_CHECK(w >= 0);
    total += w;
  }
  DYNSCHED_CHECK(total > 0);
  double r = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    r -= weights[i];
    if (r < 0) return i;
  }
  return weights.size() - 1;  // numerical edge: return the last bucket
}

Rng Rng::split() { return Rng(next() ^ 0xd1b54a32d192ed03ULL); }

}  // namespace dynsched::util

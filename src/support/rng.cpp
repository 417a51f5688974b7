#include "support/rng.h"

#include <bit>

namespace repflow {

std::uint64_t splitmix64_next(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void Rng::reseed(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : state_) word = splitmix64_next(sm);
  // xoshiro must not start from the all-zero state; SplitMix64 cannot emit
  // four consecutive zeros, but keep the guard for belt and braces.
  if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[0] = 1;
}

std::uint64_t Rng::operator()() {
  const std::uint64_t result = std::rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = std::rotl(state_[3], 45);
  return result;
}

std::uint64_t Rng::below(std::uint64_t bound) {
  if (bound == 0) throw std::invalid_argument("Rng::below: bound must be > 0");
  // Lemire's nearly-divisionless method.
  std::uint64_t x = (*this)();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  std::uint64_t low = static_cast<std::uint64_t>(m);
  if (low < bound) {
    std::uint64_t threshold = -bound % bound;
    while (low < threshold) {
      x = (*this)();
      m = static_cast<__uint128_t>(x) * bound;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::range(std::int64_t lo, std::int64_t hi) {
  if (lo > hi) throw std::invalid_argument("Rng::range: lo > hi");
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  return lo + static_cast<std::int64_t>(below(span));
}

double Rng::uniform01() {
  // 53 random mantissa bits -> uniform double in [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  return lo + (hi - lo) * uniform01();
}

bool Rng::chance(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform01() < p;
}

std::vector<std::uint32_t> Rng::sample_without_replacement(std::uint32_t n,
                                                           std::uint32_t k) {
  if (k > n) {
    throw std::invalid_argument("sample_without_replacement: k > n");
  }
  std::vector<std::uint32_t> out;
  out.reserve(k);
  if (k == 0) return out;
  if (k * 4 <= n) {
    // Floyd's algorithm: O(k) expected, no O(n) scratch space.
    std::vector<std::uint32_t> chosen;
    chosen.reserve(k);
    for (std::uint32_t j = n - k; j < n; ++j) {
      auto candidate = static_cast<std::uint32_t>(below(j + 1));
      bool seen = false;
      for (std::uint32_t c : chosen) {
        if (c == candidate) {
          seen = true;
          break;
        }
      }
      chosen.push_back(seen ? j : candidate);
    }
    return chosen;
  }
  // Dense case: partial Fisher-Yates.
  std::vector<std::uint32_t> pool(n);
  for (std::uint32_t i = 0; i < n; ++i) pool[i] = i;
  for (std::uint32_t i = 0; i < k; ++i) {
    auto j = static_cast<std::uint32_t>(i + below(n - i));
    std::swap(pool[i], pool[j]);
    out.push_back(pool[i]);
  }
  return out;
}

Rng Rng::split() {
  return Rng((*this)() ^ 0x6a09e667f3bcc909ULL);
}

}  // namespace repflow

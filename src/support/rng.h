// Deterministic pseudo-random number generation for reproducible workloads.
//
// All experiment generators in this repository draw from Rng so that a fixed
// seed regenerates the exact same query streams, allocations, and disk
// parameter draws across runs and across machines.  The generator is
// xoshiro256** (Blackman & Vigna), seeded through SplitMix64 so that small,
// human-friendly seeds still produce well-mixed state.
#pragma once

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

namespace repflow {

/// SplitMix64 step; used to expand a 64-bit seed into generator state.
/// Public because tests pin its sequence and derived seeding schemes use it.
std::uint64_t splitmix64_next(std::uint64_t& state);

/// xoshiro256** pseudo-random generator with convenience sampling helpers.
///
/// Satisfies UniformRandomBitGenerator, so it also plugs into <random> and
/// std::shuffle when needed.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  /// Re-initialize the state from a 64-bit seed.
  void reseed(std::uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<std::uint64_t>::max();
  }

  /// Next raw 64-bit output.
  std::uint64_t operator()();

  /// Uniform integer in [0, bound); bound must be positive.  Uses Lemire's
  /// multiply-shift rejection method to avoid modulo bias.
  std::uint64_t below(std::uint64_t bound);

  /// Uniform integer in the inclusive range [lo, hi].
  std::int64_t range(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double uniform01();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Bernoulli draw with success probability p.
  bool chance(double p);

  /// k distinct values from [0, n) in sampling order (Floyd's algorithm for
  /// small k, partial shuffle otherwise).
  std::vector<std::uint32_t> sample_without_replacement(std::uint32_t n,
                                                        std::uint32_t k);

  /// Derive an independent child generator (for per-query / per-thread
  /// streams) without perturbing this generator's own sequence more than
  /// one draw.
  Rng split();

 private:
  std::uint64_t state_[4];
};

}  // namespace repflow

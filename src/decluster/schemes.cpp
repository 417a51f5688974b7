#include "decluster/schemes.h"

#include <numeric>
#include <stdexcept>

#include "decluster/analysis.h"

namespace repflow::decluster {

const char* scheme_name(Scheme s) {
  switch (s) {
    case Scheme::kRda:
      return "RDA";
    case Scheme::kDependent:
      return "Dependent";
    case Scheme::kOrthogonal:
      return "Orthogonal";
  }
  return "?";
}

Allocation periodic_allocation(std::int32_t n, std::int32_t a1,
                               std::int32_t a2) {
  if (n < 1) throw std::invalid_argument("periodic_allocation: n < 1");
  auto norm = [&](std::int32_t a) { return ((a % n) + n) % n; };
  const std::int32_t b1 = norm(a1);
  const std::int32_t b2 = norm(a2);
  if (n > 1 && (b1 == 0 || b2 == 0 || std::gcd(b1, n) != 1 ||
                std::gcd(b2, n) != 1)) {
    throw std::invalid_argument(
        "periodic_allocation: coefficients must be nonzero and coprime to N");
  }
  Allocation alloc(n, n);
  for (std::int32_t i = 0; i < n; ++i) {
    for (std::int32_t j = 0; j < n; ++j) {
      alloc.set_disk(i, j, static_cast<DiskId>(
                               (static_cast<std::int64_t>(b1) * i +
                                static_cast<std::int64_t>(b2) * j) %
                               n));
    }
  }
  return alloc;
}

std::int32_t best_periodic_coefficient(std::int32_t n,
                                       std::int32_t exact_threshold) {
  if (n <= 2) return 1;
  if (n <= exact_threshold) {
    std::int32_t best_a2 = 1;
    std::int32_t best_err = -1;
    for (std::int32_t a2 = 1; a2 < n; ++a2) {
      if (std::gcd(a2, n) != 1) continue;
      const Allocation alloc = periodic_allocation(n, 1, a2);
      const std::int32_t err = worst_case_additive_error(alloc);
      if (best_err < 0 || err < best_err) {
        best_err = err;
        best_a2 = a2;
      }
    }
    return best_a2;
  }
  // Golden-ratio heuristic: a2 ~ N/phi spreads consecutive columns far
  // apart; nudge to the nearest value coprime with N.
  constexpr double kInvPhi = 0.6180339887498949;
  auto candidate = static_cast<std::int32_t>(kInvPhi * n + 0.5);
  for (std::int32_t delta = 0; delta < n; ++delta) {
    for (std::int32_t sign : {+1, -1}) {
      const std::int32_t a2 = candidate + sign * delta;
      if (a2 >= 1 && a2 < n && std::gcd(a2, n) == 1) return a2;
    }
  }
  return 1;  // n == 1 fallback; unreachable for n > 2
}

ReplicatedAllocation make_rda(std::int32_t n, std::int32_t copies,
                              SiteMapping mapping, repflow::Rng& rng) {
  if (copies < 1) throw std::invalid_argument("make_rda: copies < 1");
  if (mapping == SiteMapping::kSingleSite && copies > n) {
    throw std::invalid_argument("make_rda: more single-site copies than disks");
  }
  std::vector<Allocation> allocs(static_cast<std::size_t>(copies),
                                 Allocation(n, n));
  for (std::int32_t i = 0; i < n; ++i) {
    for (std::int32_t j = 0; j < n; ++j) {
      if (mapping == SiteMapping::kSingleSite) {
        // Distinct disks per bucket across copies (the RDA definition [38]).
        auto picks = rng.sample_without_replacement(
            static_cast<std::uint32_t>(n), static_cast<std::uint32_t>(copies));
        for (std::int32_t k = 0; k < copies; ++k) {
          allocs[k].set_disk(i, j, static_cast<DiskId>(picks[k]));
        }
      } else {
        for (std::int32_t k = 0; k < copies; ++k) {
          allocs[k].set_disk(
              i, j,
              static_cast<DiskId>(rng.below(static_cast<std::uint64_t>(n))));
        }
      }
    }
  }
  return ReplicatedAllocation(std::move(allocs), mapping);
}

ReplicatedAllocation make_orthogonal(std::int32_t n, SiteMapping mapping) {
  // (i + j, i + 2j) is a bijection of Z_N^2 (determinant 1), so the pair
  // structure is orthogonal for every N.  Note a2 = 2 need not be coprime
  // with N; g is then not a balanced Latin-square allocation on its own,
  // which is why we build it directly instead of via periodic_allocation.
  Allocation first(n, n);
  Allocation second(n, n);
  for (std::int32_t i = 0; i < n; ++i) {
    for (std::int32_t j = 0; j < n; ++j) {
      first.set_disk(i, j, static_cast<DiskId>((i + j) % n));
      second.set_disk(
          i, j,
          static_cast<DiskId>((i + 2 * static_cast<std::int64_t>(j)) % n));
    }
  }
  return ReplicatedAllocation({std::move(first), std::move(second)}, mapping);
}

ReplicatedAllocation make_dependent(std::int32_t n, SiteMapping mapping,
                                    std::int32_t shift) {
  if (shift < 1 || shift >= std::max(n, 2)) {
    throw std::invalid_argument("make_dependent: shift must be in [1, N-1]");
  }
  const std::int32_t a2 = best_periodic_coefficient(n);
  Allocation first = periodic_allocation(n, 1, a2);
  Allocation second(n, n);
  for (std::int32_t i = 0; i < n; ++i) {
    for (std::int32_t j = 0; j < n; ++j) {
      second.set_disk(i, j,
                      static_cast<DiskId>((first.disk_of(i, j) + shift) % n));
    }
  }
  return ReplicatedAllocation({std::move(first), std::move(second)}, mapping);
}

ReplicatedAllocation make_scheme(Scheme s, std::int32_t n, SiteMapping mapping,
                                 repflow::Rng& rng) {
  switch (s) {
    case Scheme::kRda:
      return make_rda(n, 2, mapping, rng);
    case Scheme::kDependent:
      return make_dependent(n, mapping);
    case Scheme::kOrthogonal:
      return make_orthogonal(n, mapping);
  }
  throw std::invalid_argument("make_scheme: unknown scheme");
}

}  // namespace repflow::decluster

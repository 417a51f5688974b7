// The three replicated declustering schemes evaluated by the paper
// (Section VI-A): Random Duplicate Allocation, Orthogonal allocation, and
// Dependent periodic allocation — plus the underlying periodic scheme.
#pragma once

#include <cstdint>

#include "decluster/allocation.h"
#include "support/rng.h"

namespace repflow::decluster {

/// Which replication scheme generated an allocation; used by the bench
/// harness to label series like the paper's legends.
enum class Scheme {
  kRda,
  kDependent,
  kOrthogonal,
};

const char* scheme_name(Scheme s);

/// Periodic allocation f(i, j) = (a1*i + a2*j) mod N.  Requires
/// gcd(a1, N) = gcd(a2, N) = 1 (throws otherwise) so that every row and
/// column is a permutation — the condition from [11], [46].
Allocation periodic_allocation(std::int32_t n, std::int32_t a1,
                               std::int32_t a2);

/// Pick the a2 coefficient (a1 = 1) with the lowest worst-case additive
/// error among range queries.  Exhaustive over coprime a2 for n <= threshold
/// (exact error via decluster/analysis.h); golden-ratio coprime heuristic
/// beyond, matching the intent of the paper's reference [11].
std::int32_t best_periodic_coefficient(std::int32_t n,
                                       std::int32_t exact_threshold = 16);

/// Random Duplicate Allocation [38]: each copy assigns the bucket to a disk
/// chosen uniformly at random.  With kSingleSite mapping the two copies are
/// forced onto distinct disks (the RDA definition); with kCopyPerSite each
/// site draws independently.
ReplicatedAllocation make_rda(std::int32_t n, std::int32_t copies,
                              SiteMapping mapping, repflow::Rng& rng);

/// Orthogonal allocation: copy 0 is f(i,j) = (i + j) mod N, copy 1 is
/// g(i,j) = (i + 2j) mod N.  The linear map (i,j) -> (f,g) has determinant 1
/// over Z_N, so every (f,g) pair appears exactly once for every N — the
/// defining orthogonality property ([23], [39]).
ReplicatedAllocation make_orthogonal(std::int32_t n, SiteMapping mapping);

/// Dependent periodic allocation: copy 0 is the best periodic allocation
/// f(i,j) = (i + a2*j) mod N; copy 1 the shifted g = (f + shift) mod N with
/// 1 <= shift <= N-1 ([11], [46]).
ReplicatedAllocation make_dependent(std::int32_t n, SiteMapping mapping,
                                    std::int32_t shift = 1);

/// Dispatch helper used by benches: build scheme `s` with `copies = 2`.
ReplicatedAllocation make_scheme(Scheme s, std::int32_t n, SiteMapping mapping,
                                 repflow::Rng& rng);

}  // namespace repflow::decluster

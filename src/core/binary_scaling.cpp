#include "core/binary_scaling.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "obs/span.h"

namespace repflow::core {

BinaryScalingDriver::GreedyPass BinaryScalingDriver::greedy_pass(
    const RetrievalProblem& problem) {
  const auto disks = static_cast<std::size_t>(problem.total_disks());
  greedy_load_.assign(disks, 0);
  next_slot_.resize(disks);
  for (DiskId d = 0; d < problem.total_disks(); ++d) {
    next_slot_[d] = problem.completion_time(d, 1);
  }
  greedy_disk_.resize(problem.replicas.size());
  GreedyPass pass{-std::numeric_limits<double>::infinity(),
                  -std::numeric_limits<double>::infinity()};
  for (std::size_t b = 0; b < problem.replicas.size(); ++b) {
    const auto& replicas = problem.replicas[b];
    if (replicas.empty()) {
      throw std::invalid_argument(
          "BinaryScalingDriver: bucket without replica");
    }
    DiskId pick = replicas.front();
    double pick_t = next_slot_[pick];
    double first_slot = std::numeric_limits<double>::infinity();
    for (const DiskId d : replicas) {
      const double t = next_slot_[d];
      if (t < pick_t) {  // strict: the first-listed replica wins ties
        pick = d;
        pick_t = t;
      }
      first_slot = std::min(first_slot, problem.completion_time(d, 1));
    }
    next_slot_[pick] = problem.completion_time(pick, ++greedy_load_[pick] + 1);
    greedy_disk_[b] = pick;
    pass.response = std::max(pass.response, pick_t);
    pass.bucket_bound = std::max(pass.bucket_bound, first_slot);
  }
  return pass;
}

void BinaryScalingDriver::trim_greedy_to(const RetrievalProblem& problem,
                                         double lower) {
  for (DiskId d = 0; d < problem.total_disks(); ++d) {
    // A disk the greedy left idle is never looked up below.
    if (greedy_load_[d] > 0) {
      greedy_load_[d] = problem.system.slots_within(d, lower);
    }
  }
  for (std::int32_t& d : greedy_disk_) {
    if (greedy_load_[d] > 0) {
      --greedy_load_[d];
    } else {
      d = -1;
    }
  }
}

void BinaryScalingDriver::run(const RetrievalProblem& problem,
                              std::span<const std::int32_t> in_degree,
                              ScalingKernel& kernel, SolveResult& result,
                              const char* probe_span) {
  const std::int64_t q = problem.query_size();
  if (q == 0) return;  // zero flow already retrieves the empty query

  // The greedy schedule's T is feasible, so it is the best one known.  Every
  // disk it loads with k buckets has its first k completions at or below
  // it, so at least |Q| candidates are collected.  The bucket bound is one
  // of them (a k = 1 completion at most the greedy T).
  const GreedyPass greedy = greedy_pass(problem);
  const double bound = greedy.bucket_bound;
  double best = greedy.response;
  candidates_.clear();
  candidates_.reserve(
      std::accumulate(in_degree.begin(), in_degree.end(), std::size_t{0}));
  std::int64_t below_bound = 0;    // candidates < bound
  std::int64_t at_most_bound = 0;  // candidates <= bound
  for (DiskId d = 0; d < problem.total_disks(); ++d) {
    const std::int64_t k_max = std::min<std::int64_t>(in_degree[d], q);
    for (std::int64_t k = 1; k <= k_max; ++k) {
      const double t = problem.completion_time(d, k);
      if (t > best) break;
      candidates_.push_back(t);
      below_bound += t < bound;
      at_most_bound += t <= bound;
    }
  }

  const auto probe = [&](double t) {
    obs::ScopedSpan span(probe_span);
    kernel.set_capacities_for_time(t);
    ++result.binary_probes;
    return kernel.resume() == q;
  };

  // Live range [first, last), sorted: the candidates of rank >= |Q| - 1 in
  // [L, best), L the larger of the |Q|-th smallest and the bucket bound.
  auto first = candidates_.begin();
  auto last = candidates_.end();
  double lower = bound;
  if (at_most_bound >= q) {
    // The |Q|-th smallest is at most the bucket bound, so L is the bound.
    // Every candidate above it has rank >= |Q|; of its copies, those of
    // rank >= |Q| - 1 stay.
    const std::int64_t copies =
        bound < best ? at_most_bound - std::max(below_bound, q - 1) : 0;
    last = std::remove_if(first, last, [bound, best](double t) {
      return t <= bound || t >= best;
    });
    last = std::fill_n(last, copies, bound);
  } else {
    // The |Q|-th smallest exceeds the bound and is L; nothing from it on
    // lies below it.
    first += q - 1;
    std::nth_element(candidates_.begin(), first, last);
    lower = *first;
    last = std::partition(first, last, [best](double t) { return t < best; });
  }
  std::sort(first, last);
  // Every probe is at least the lower bound, so the greedy schedule trimmed
  // to its capacities fits them all: what the search starts from and what a
  // feasible first probe falls back to.
  trim_greedy_to(problem, lower);
  kernel.seed(greedy_disk_);
  kernel.save();
  bool holds_optimum = false;  // the kernel's flow is complete at caps(best)
  while (first != last) {
    // The middle of the sorted range is the median nth_element would pick.
    const auto mid = first + (last - first) / 2;
    const double t = *mid;
    if (probe(t)) {
      best = t;
      last = std::lower_bound(first, mid, t);
      holds_optimum = first == last;
      if (!holds_optimum) kernel.restore();
    } else {
      first = std::upper_bound(mid + 1, last, t);
      holds_optimum = false;
      if (first != last) kernel.save();
    }
  }
  // Otherwise the flow of the last (infeasible) probe is valid under
  // caps(best) and finishes there.
  if (!holds_optimum && !probe(best)) {
    throw std::logic_error("BinaryScalingDriver: optimum infeasible");
  }
}

}  // namespace repflow::core

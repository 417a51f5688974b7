#include "core/binary_scaling.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "obs/span.h"

namespace repflow::core {

BinaryScalingDriver::GreedyPass BinaryScalingDriver::greedy_pass(
    const RetrievalProblem& problem) {
  greedy_load_.assign(static_cast<std::size_t>(problem.total_disks()), 0);
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
    double pick_t = problem.completion_time(pick, greedy_load_[pick] + 1);
    double first_slot = std::numeric_limits<double>::infinity();
    for (const DiskId d : replicas) {
      const double t = problem.completion_time(d, greedy_load_[d] + 1);
      if (t < pick_t) {  // strict: the first-listed replica wins ties
        pick = d;
        pick_t = t;
      }
      first_slot = std::min(first_slot, problem.completion_time(d, 1));
    }
    ++greedy_load_[pick];
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
  // it, so at least |Q| candidates are collected.
  const GreedyPass greedy = greedy_pass(problem);
  double best = greedy.response;
  candidates_.clear();
  candidates_.reserve(
      std::accumulate(in_degree.begin(), in_degree.end(), std::size_t{0}));
  for (DiskId d = 0; d < problem.total_disks(); ++d) {
    const std::int64_t k_max = std::min<std::int64_t>(in_degree[d], q);
    for (std::int64_t k = 1; k <= k_max; ++k) {
      const double t = problem.completion_time(d, k);
      if (t > best) break;
      candidates_.push_back(t);
    }
  }

  const auto probe = [&](double t) {
    obs::ScopedSpan span(probe_span);
    kernel.set_capacities_for_time(t);
    ++result.binary_probes;
    return kernel.resume() == q;
  };

  // Live range [first, last): the candidates from the lower bound, the
  // larger of the |Q|-th smallest and the bucket bound, up to but excluding
  // the best feasible one.
  auto first = candidates_.begin() + (q - 1);
  std::nth_element(candidates_.begin(), first, candidates_.end());
  const double lower = std::max(*first, greedy.bucket_bound);
  first = std::partition(first, candidates_.end(),
                         [lower](double t) { return t < lower; });
  auto last = std::partition(first, candidates_.end(),
                             [best](double t) { return t < best; });
  // Every probe is at least the lower bound, so the greedy schedule trimmed
  // to its capacities fits them all: what the search starts from and what a
  // feasible first probe falls back to.
  trim_greedy_to(problem, lower);
  kernel.seed(greedy_disk_);
  kernel.save();
  bool holds_optimum = false;  // the kernel's flow is complete at caps(best)
  while (first != last) {
    const auto mid = first + (last - first) / 2;
    std::nth_element(first, mid, last);
    const double t = *mid;
    if (probe(t)) {
      best = t;
      last = std::partition(first, mid, [t](double c) { return c < t; });
      holds_optimum = first == last;
      if (!holds_optimum) kernel.restore();
    } else {
      first = std::partition(mid + 1, last, [t](double c) { return c <= t; });
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

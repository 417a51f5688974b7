#include "core/binary_scaling.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "obs/span.h"

namespace repflow::core {

TimeBounds compute_time_bounds(const RetrievalProblem& problem) {
  const auto& sys = problem.system;
  const double q = static_cast<double>(problem.query_size());
  const double n = static_cast<double>(problem.total_disks());
  TimeBounds bounds;
  bounds.tmin = std::numeric_limits<double>::infinity();
  for (DiskId d = 0; d < problem.total_disks(); ++d) {
    // Same association as completion_time(): (D + X) + k * C.
    const double fixed = sys.delay_ms[d] + sys.init_load_ms[d];
    bounds.tmax = std::max(bounds.tmax, fixed + q * sys.cost_ms[d]);
    bounds.tmin = std::min(bounds.tmin, fixed + (q / n) * sys.cost_ms[d]);
  }
  return bounds;
}

void BinaryScalingDriver::run(const RetrievalProblem& problem,
                              std::span<const std::int32_t> in_degree,
                              ScalingKernel& kernel, SolveResult& result,
                              const char* probe_span) {
  const std::int64_t q = problem.query_size();
  if (q == 0) return;  // zero flow already retrieves the empty query

  // Candidates inside the window.  The largest is feasible: T* is a
  // candidate in the window, and feasibility is monotone in t.
  const TimeBounds bounds = compute_time_bounds(problem);
  candidates_.clear();
  candidates_.reserve(
      std::accumulate(in_degree.begin(), in_degree.end(), std::size_t{0}));
  double best = -std::numeric_limits<double>::infinity();
  for (DiskId d = 0; d < problem.total_disks(); ++d) {
    const std::int64_t k_max = std::min<std::int64_t>(in_degree[d], q);
    for (std::int64_t k = 1; k <= k_max; ++k) {
      const double t = problem.completion_time(d, k);
      if (t > bounds.tmax) break;
      if (t < bounds.tmin) continue;
      candidates_.push_back(t);
      best = std::max(best, t);
    }
  }
  if (candidates_.empty()) {
    throw std::logic_error("BinaryScalingDriver: no candidate in the window");
  }

  const auto probe = [&](double t) {
    obs::ScopedSpan span(probe_span);
    kernel.set_capacities_for_time(t);
    ++result.binary_probes;
    return kernel.resume() == q;
  };

  // Live range [first, last): the candidates still below the best feasible
  // one and above every infeasible probe.
  auto first = candidates_.begin();
  auto last = std::partition(first, candidates_.end(),
                             [best](double t) { return t < best; });
  kernel.save();  // zero flow: what a feasible first probe falls back to
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

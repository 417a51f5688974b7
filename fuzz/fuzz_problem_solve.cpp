// Fuzz target for the solver catalog: decode the input bytes into a small
// but adversarial RetrievalProblem (skewed costs/delays/loads, arbitrary
// replica placement, possibly empty queries) and cross-check the solve
// paths against each other and against the full invariant suite:
//
//   * Algorithm 2 (integrated Ford-Fulkerson incrementation),
//   * Algorithm 6 (push-relabel with binary capacity scaling),
//   * the black-box binary-search baseline,
//   * the Hopcroft-Karp b-matching kernel (kIntegratedMatching), and
//   * the ReferenceSolver oracle (candidate enumeration + Edmonds-Karp).
//
// Some inputs decode C/D/X from raw 8-byte doubles, reaching NaN, the
// infinities, denormals and magnitudes near 1e+-308.  Such a problem must
// either be rejected by validate() or be solved exactly: Algorithm 2 and
// every binary-scaling driver return the oracle's optimum bit for bit, and
// the binary-scaling drivers do so within ceil(log2 #candidates) + 1
// resumes and without capacity steps.
//
// Any disagreement in optimal response time, any invariant violation
// (flow conservation, schedule feasibility, recomputed response time), or
// any unexpected exception aborts — that is the fuzzer's crash signal.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/schedule_invariants.h"
#include "core/binary_scaling.h"
#include "core/problem.h"
#include "core/reference.h"
#include "core/solve.h"
#include "core/solver.h"
#include "driver.h"

namespace {

using repflow::core::RetrievalProblem;
using repflow::core::SolveResult;
using repflow::core::SolverKind;

/// Sequential byte reader; reads past the end yield zero so every prefix of
/// an interesting input is itself a (smaller) interesting input.
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::uint8_t u8() { return pos_ < size_ ? data_[pos_++] : 0; }

  /// Eight bytes, little-endian, as an IEEE-754 double.
  double f64() {
    std::uint64_t bits = 0;
    for (int i = 0; i < 8; ++i) bits |= std::uint64_t{u8()} << (8 * i);
    return std::bit_cast<double>(bits);
  }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

RetrievalProblem decode_problem(ByteReader& in) {
  const std::uint8_t shape = in.u8();
  const std::int32_t disks = 1 + shape % 6;
  // shape / 6 picks the parameter encoding: quarter-ms values (0, 1), raw
  // doubles with the sign bit cleared (2), or raw doubles verbatim (3).
  const int encoding = (shape / 6) % 4;
  const std::int64_t buckets = in.u8() % 13;  // 0 = degenerate empty query
  RetrievalProblem p;
  p.system.num_sites = 1;
  p.system.disks_per_site = disks;
  const auto n = static_cast<std::size_t>(disks);
  p.system.model.assign(n, "F");
  p.system.cost_ms.resize(n);
  p.system.delay_ms.resize(n);
  p.system.init_load_ms.resize(n);
  const auto raw = [&in, encoding] {
    const double x = in.f64();
    return encoding == 2 ? std::fabs(x) : x;
  };
  for (std::size_t d = 0; d < n; ++d) {
    if (encoding >= 2) {
      p.system.cost_ms[d] = raw();
      p.system.delay_ms[d] = raw();
      p.system.init_load_ms[d] = raw();
      continue;
    }
    // Strictly positive quarter-ms costs; delays/loads may be zero.  Small
    // ranges keep solves fast while still forcing ties, skew, and disks
    // whose delay alone exceeds other disks' full schedules.
    p.system.cost_ms[d] = 0.25 * (1 + in.u8() % 32);
    p.system.delay_ms[d] = 0.25 * (in.u8() % 32);
    p.system.init_load_ms[d] = 0.25 * (in.u8() % 32);
  }
  p.replicas.resize(static_cast<std::size_t>(buckets));
  for (auto& replica_set : p.replicas) {
    const std::uint8_t mask = in.u8();
    for (std::int32_t d = 0; d < disks; ++d) {
      if ((mask >> d) & 1U) replica_set.push_back(d);
    }
    if (replica_set.empty()) replica_set.push_back(in.u8() % disks);
  }
  return p;
}

[[noreturn]] void die(const RetrievalProblem& problem, const char* what,
                      const std::string& detail) {
  std::fprintf(stderr, "fuzz_problem_solve: %s\n%s\n", what, detail.c_str());
  std::fprintf(stderr, "disks=%d buckets=%zu\n", problem.system.total_disks(),
               problem.replicas.size());
  std::abort();
}

/// "oracle=<T> got=<T>" with every digit: the checks compare bit for bit,
/// and std::to_string's "%f" prints 4e-300 as 0.000000.
std::string disagreement(double expected, double got) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "oracle=%.17g got=%.17g", expected, got);
  return buf;
}

void check_result(const RetrievalProblem& problem, const SolveResult& result,
                  const char* solver) {
  const auto report = repflow::analysis::check_solve_result(problem, result);
  if (!report.ok()) die(problem, solver, report.to_string());
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  ByteReader in(data, size);
  const RetrievalProblem problem = decode_problem(in);
  try {
    problem.validate();  // raw doubles may be negative, zero or non-finite
  } catch (const std::invalid_argument&) {
    return 0;
  }

  const SolveResult alg2 =
      repflow::core::solve(problem, SolverKind::kFordFulkersonIncremental);
  const SolveResult alg6 =
      repflow::core::solve(problem, SolverKind::kPushRelabelBinary);
  const SolveResult blackbox =
      repflow::core::solve(problem, SolverKind::kBlackBoxBinary);
  const SolveResult matching =
      repflow::core::solve(problem, SolverKind::kIntegratedMatching);
  const SolveResult oracle = repflow::core::ReferenceSolver(problem).solve();

  check_result(problem, alg2, "alg2_ff_incremental");
  check_result(problem, alg6, "alg6_pr_binary");
  check_result(problem, blackbox, "blackbox_binary");
  check_result(problem, matching, "matching_hk");

  const double expected = oracle.response_time_ms;
  if (std::isnan(expected)) die(problem, "oracle returned NaN", "");
  // Algorithm 2 admits exactly the minimum next completion per step, so it
  // stops at the oracle's optimum bit for bit.
  if (alg2.response_time_ms != expected) {
    die(problem, "alg2 disagrees with the oracle",
        disagreement(expected, alg2.response_time_ms));
  }

  // The binary-scaling drivers search the exact candidate set: the optimum
  // is bit-identical to the oracle's, within the probe bound.
  std::int64_t candidates = 0;
  const repflow::core::TimeBounds window =
      repflow::core::compute_time_bounds(problem);
  const auto degree = problem.disk_in_degrees();
  for (repflow::core::DiskId d = 0; d < problem.total_disks(); ++d) {
    const std::int64_t k_max = std::min<std::int64_t>(
        degree[static_cast<std::size_t>(d)], problem.query_size());
    for (std::int64_t k = 1; k <= k_max; ++k) {
      const double t = problem.completion_time(d, k);
      if (t >= window.tmin && t <= window.tmax) ++candidates;
    }
  }
  std::int64_t probe_bound = 0;
  if (candidates > 0) {
    while ((std::int64_t{1} << probe_bound) < candidates) ++probe_bound;
    ++probe_bound;
  }
  for (const SolveResult* r : {&alg6, &blackbox, &matching}) {
    if (r->response_time_ms != expected) {
      die(problem, "optimal response times disagree",
          disagreement(expected, r->response_time_ms));
    }
    if (r->binary_probes > probe_bound || r->capacity_steps != 0) {
      die(problem, "search exceeded its probe bound",
          "probes=" + std::to_string(r->binary_probes) +
              " bound=" + std::to_string(probe_bound) +
              " steps=" + std::to_string(r->capacity_steps));
    }
  }
  return 0;
}

namespace repflow::fuzz {

std::string raw_doubles_seed() {
  // Shape 13 = 2 disks, raw magnitudes; 4 buckets on both disks.  Disk 0:
  // C = 1e-300, D = 0, X = 1e300; disk 1: C = 1, D = X = 0.
  std::string seed = {static_cast<char>(13), 4};
  for (const double x : {1e-300, 0.0, 1e300, 1.0, 0.0, 0.0}) {
    const auto bits = std::bit_cast<std::uint64_t>(x);
    for (int i = 0; i < 8; ++i) {
      seed.push_back(static_cast<char>(bits >> (8 * i)));
    }
  }
  seed.append(4, '\x03');
  return seed;
}

std::vector<std::string> seed_corpus() {
  // Raw decoder bytes (not text).  First seed: 4 disks, 5 buckets, mixed
  // parameters, replica masks touching every disk; second: single disk,
  // empty query; third: all-zero bytes = 1 fast disk, degenerate query;
  // fourth: the 1e-300 / 1e300 magnitudes a real-valued bisection never
  // resolves.
  return {
      raw_doubles_seed(),
      std::string("\x03\x05"
                  "\x08\x00\x00"
                  "\x01\x04\x10"
                  "\x1f\x00\x02"
                  "\x02\x08\x00"
                  "\x0f\x03\x05\x09\x06",
                  19),
      std::string("\x00\x00", 2),
      std::string(8, '\0'),
  };
}

}  // namespace repflow::fuzz

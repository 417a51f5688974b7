#include "core/bipartite_matching.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "analysis/schedule_invariants.h"
#include "obs/metrics.h"

namespace repflow::core {

namespace {

constexpr std::int32_t kUnreachable = std::numeric_limits<std::int32_t>::max();

// Kernel observability handles, resolved once per process and written once
// per solve (BipartiteMatcher::publish_metrics).
struct MatchingMetrics {
  obs::Counter& phase_count;
  obs::Histogram& path_len;
  obs::Counter& visits;
};

MatchingMetrics& matching_metrics() {
  static MatchingMetrics metrics{
      obs::Registry::global().counter("matching.phase_count"),
      obs::Registry::global().histogram("matching.augmenting_path_len"),
      obs::Registry::global().counter("matching.visits")};
  return metrics;
}

// Branch-free blocked scan over a full disk's slot segment [s, s_end):
// returns the first slot holding an admissible next-layer child
// (phase-stamped, dist == next_dist), or s_end, and adds every slot it read
// to `reads`.  Sixteen-slot blocks fold the eligibility predicate into a
// bitmask with no per-element branch, then countr_zero picks the hit — the
// c > 2 adversarial shapes spend most of their DFS time here scanning
// mostly-ineligible slots, where a branchy scan mispredicts per slot.  Dead
// buckets carry dist == -1, so they never match.
inline std::int32_t scan_slots(const MatchingWorkspace& ws,
                               std::int32_t s, const std::int32_t s_end,
                               const std::uint32_t epoch,
                               const std::int32_t next_dist,
                               std::int64_t& reads) {
  while (s < s_end) {
    const std::int32_t block_end = std::min<std::int32_t>(s + 16, s_end);
    reads += block_end - s;
    unsigned mask = 0;
    for (std::int32_t k = s; k < block_end; ++k) {
      const auto w =
          static_cast<std::size_t>(ws.slots[static_cast<std::size_t>(k)]);
      const unsigned ok = static_cast<unsigned>(ws.bucket_epoch[w] == epoch) &
                          static_cast<unsigned>(ws.dist[w] == next_dist);
      mask |= ok << static_cast<unsigned>(k - s);
    }
    if (mask != 0) return s + static_cast<std::int32_t>(std::countr_zero(mask));
    s = block_end;
  }
  return s_end;
}

// Apply the augmenting path held in the DFS stack frames [0..top]: the
// terminal disk appends the deepest bucket, and every intermediate slot is
// handed from child to parent.
inline void apply_path(MatchingWorkspace& ws, const std::int32_t top,
                       const std::int32_t d) {
  const std::int32_t deepest = ws.stack_bucket[static_cast<std::size_t>(top)];
  ws.slots[static_cast<std::size_t>(
      ws.disk_first[static_cast<std::size_t>(d)] +
      ws.load[static_cast<std::size_t>(d)])] = deepest;
  ++ws.load[static_cast<std::size_t>(d)];
  ws.match[static_cast<std::size_t>(deepest)] = d;
  for (std::int32_t i = top; i >= 1; --i) {
    const auto frame = static_cast<std::size_t>(i - 1);
    const std::int32_t parent = ws.stack_bucket[frame];
    ws.slots[static_cast<std::size_t>(ws.stack_slot[frame])] = parent;
    ws.match[static_cast<std::size_t>(parent)] =
        ws.adj[static_cast<std::size_t>(ws.stack_arc[frame])];
  }
}

}  // namespace

void BipartiteMatcher::rebind(const RetrievalProblem& problem) {
  problem_ = &problem;
  q_ = static_cast<std::int32_t>(problem.query_size());
  n_ = problem.total_disks();
  auto& ws = ws_;
  const auto qs = static_cast<std::size_t>(q_);
  const auto ns = static_cast<std::size_t>(n_);

  std::int64_t total_arcs = 0;
  for (const auto& options : problem.replicas) {
    total_arcs += static_cast<std::int64_t>(options.size());
  }
  if (total_arcs > std::numeric_limits<std::int32_t>::max()) {
    throw std::length_error("BipartiteMatcher: arc count exceeds int32");
  }

  // Bucket-major adjacency CSR + per-disk in-degrees in one pass.
  ws.first.assign(qs + 1, 0);
  ws.in_degree.assign(ns, 0);
  ws.adj.resize(static_cast<std::size_t>(total_arcs));
  std::int32_t e = 0;
  for (std::int32_t u = 0; u < q_; ++u) {
    ws.first[static_cast<std::size_t>(u)] = e;
    for (const DiskId d : problem.replicas[static_cast<std::size_t>(u)]) {
      ws.adj[static_cast<std::size_t>(e++)] = d;
      ++ws.in_degree[static_cast<std::size_t>(d)];
    }
  }
  ws.first[qs] = e;

  // Slot segments: disk d's matched buckets live in
  // slots[disk_first[d] .. disk_first[d] + load[d]); load[d] can never
  // exceed in_degree[d], so the segments tile the arc array exactly.
  ws.disk_first.assign(ns + 1, 0);
  for (std::size_t d = 0; d < ns; ++d) {
    ws.disk_first[d + 1] = ws.disk_first[d] + ws.in_degree[d];
  }
  ws.slots.resize(static_cast<std::size_t>(total_arcs));

  ws.match.assign(qs, -1);
  ws.cap.assign(ns, 0);
  ws.load.assign(ns, 0);
  ws.free_buckets.resize(qs);
  std::iota(ws.free_buckets.begin(), ws.free_buckets.end(), 0);

  ws.dist.assign(qs, 0);
  ws.bucket_epoch.assign(qs, 0);
  ws.disk_epoch.assign(ns, 0);
  ws.epoch = 0;
  ws.disk_layer.assign(ns, 0);
  ws.disk_cursor.assign(ns, 0);
  ws.queue.resize(qs);
  // DFS stack depth is bounded by the path's distinct buckets (<= |Q|).
  ws.stack_bucket.resize(qs + 1);
  ws.stack_arc.resize(qs + 1);
  ws.stack_slot.resize(qs + 1);

  matched_ = 0;
  phases_ = 0;
  augmentations_ = 0;
  visits_ = 0;
  path_len_.clear();
}

void BipartiteMatcher::set_capacities_for_time(double t) {
  const auto& sys = problem_->system;
  for (std::int32_t d = 0; d < n_; ++d) {
    ws_.cap[static_cast<std::size_t>(d)] = sys.slots_within(d, t);
  }
}

// One global BFS layering pass: `limit` becomes the bucket-depth of the
// nearest disk with spare capacity (the shortest augmenting path ends
// there), or kUnreachable when no augmenting path exists.  Disks with spare
// capacity are terminals, never expanded; full disks expand their matched
// buckets as the next layer.  Loads only grow within a phase, so the
// layering stays valid for every DFS of the phase.  Every reached disk
// records the layer its slot buckets sit on (the first reaching bucket's
// du + 1; every slot bucket of a full disk ends at dist <= that layer) and
// rewinds its DFS scan cursor.  Every adjacency entry and slot read counts
// one visit.
bool BipartiteMatcher::bfs_phase(std::int32_t& limit) {
  auto& ws = ws_;
  const std::uint32_t epoch = ++ws.epoch;
  limit = kUnreachable;
  std::int32_t qt = 0;
  for (const std::int32_t u : ws.free_buckets) {
    ws.dist[static_cast<std::size_t>(u)] = 0;
    ws.bucket_epoch[static_cast<std::size_t>(u)] = epoch;
    ws.queue[static_cast<std::size_t>(qt++)] = u;
  }
  std::int32_t qh = 0;
  while (qh < qt) {
    const std::int32_t u = ws.queue[static_cast<std::size_t>(qh++)];
    const std::int32_t du = ws.dist[static_cast<std::size_t>(u)];
    if (du >= limit) break;  // deeper layers cannot shorten the paths
    const std::int32_t e_begin = ws.first[static_cast<std::size_t>(u)];
    const std::int32_t e_end = ws.first[static_cast<std::size_t>(u) + 1];
    visits_ += e_end - e_begin;
    for (std::int32_t e = e_begin; e < e_end; ++e) {
      const std::int32_t d = ws.adj[static_cast<std::size_t>(e)];
      if (d == ws.match[static_cast<std::size_t>(u)]) continue;
      if (ws.disk_epoch[static_cast<std::size_t>(d)] == epoch) continue;
      ws.disk_epoch[static_cast<std::size_t>(d)] = epoch;
      const std::int32_t base = ws.disk_first[static_cast<std::size_t>(d)];
      ws.disk_layer[static_cast<std::size_t>(d)] = du + 1;
      ws.disk_cursor[static_cast<std::size_t>(d)] = base;
      if (ws.load[static_cast<std::size_t>(d)] <
          ws.cap[static_cast<std::size_t>(d)]) {
        limit = std::min(limit, du + 1);
      } else {
        const std::int32_t s_end =
            base + ws.load[static_cast<std::size_t>(d)];
        visits_ += s_end - base;
        for (std::int32_t s = base; s < s_end; ++s) {
          const std::int32_t w = ws.slots[static_cast<std::size_t>(s)];
          if (ws.bucket_epoch[static_cast<std::size_t>(w)] == epoch) continue;
          ws.bucket_epoch[static_cast<std::size_t>(w)] = epoch;
          ws.dist[static_cast<std::size_t>(w)] = du + 1;
          ws.queue[static_cast<std::size_t>(qt++)] = w;
        }
      }
    }
  }
  return limit != kUnreachable;
}

// The layered DFS from one free bucket, iterative so deep paths cannot blow
// the call stack.  Descends only along the phase's BFS layering
// (dist[child] == dist[parent] + 1) and memoizes failures as dist = -1,
// which keeps each phase linear in the layer graph.
//
// A full disk d is scanned only from a bucket u with dist[u] + 1 ==
// disk_layer[d], and from d's scan cursor on, so each phase reads a full
// disk's slot list once, not once per arc into it.  Both skips are exact:
//  * The BFS crossed every free arc u -> d of a bucket the DFS reaches, so
//    disk_layer[d] <= dist[u] + 1, and it left every slot bucket of d at
//    dist <= disk_layer[d]: an eligible child (dist[u] + 1) exists only
//    when disk_layer[d] == dist[u] + 1.
//  * Within a phase dist only ever changes to -1, and a full disk's slot
//    only changes when apply_path hands it to the parent, at dist
//    disk_layer[d] - 1, which no scan of d looks for.  So a slot the cursor
//    has passed never becomes eligible again, and a re-matched bucket is
//    never reached again, which keeps the free arcs of every bucket the
//    DFS reaches those the BFS crossed.
//
// Every arc probed past the matched/unlayered filter and every slot the
// scan reads count one visit.
bool BipartiteMatcher::try_augment(const std::int32_t root,
                                   const std::int32_t limit) {
  auto& ws = ws_;
  const std::uint32_t epoch = ws.epoch;
  if (ws.bucket_epoch[static_cast<std::size_t>(root)] != epoch ||
      ws.dist[static_cast<std::size_t>(root)] != 0) {
    return false;
  }
  std::int32_t* sb = ws.stack_bucket.data();
  std::int32_t* sa = ws.stack_arc.data();
  std::int32_t* ss = ws.stack_slot.data();
  std::int32_t top = 0;
  sb[0] = root;
  sa[0] = ws.first[static_cast<std::size_t>(root)];
  ss[0] = -1;
  while (top >= 0) {
    const std::int32_t u = sb[top];
    const std::int32_t du = ws.dist[static_cast<std::size_t>(u)];
    std::int32_t e = sa[top];
    std::int32_t s = ss[top];
    const std::int32_t e_end = ws.first[static_cast<std::size_t>(u) + 1];
    bool descended = false;
    for (; e < e_end; ++e, s = -1) {
      const std::int32_t d = ws.adj[static_cast<std::size_t>(e)];
      if (d == ws.match[static_cast<std::size_t>(u)] ||
          ws.disk_epoch[static_cast<std::size_t>(d)] != epoch) {
        continue;
      }
      ++visits_;
      if (ws.load[static_cast<std::size_t>(d)] <
          ws.cap[static_cast<std::size_t>(d)]) {
        if (du + 1 != limit) continue;  // only shortest paths this phase
        sa[top] = e;
        apply_path(ws, top, d);
        ++matched_;
        ++augmentations_;
        path_len_.observe(2.0 * top + 1.0);
        return true;
      }
      // Full disk: scan its matched buckets for a next-layer child.
      if (ws.disk_layer[static_cast<std::size_t>(d)] != du + 1) continue;
      std::int32_t& cursor = ws.disk_cursor[static_cast<std::size_t>(d)];
      const std::int32_t s_end = ws.disk_first[static_cast<std::size_t>(d)] +
                                 ws.load[static_cast<std::size_t>(d)];
      s = scan_slots(ws, std::max(s, cursor), s_end, epoch, du + 1, visits_);
      cursor = s;
      if (s < s_end) {
        const std::int32_t w = ws.slots[static_cast<std::size_t>(s)];
        sa[top] = e;
        ss[top] = s;
        ++top;
        sb[top] = w;
        sa[top] = ws.first[static_cast<std::size_t>(w)];
        ss[top] = -1;
        descended = true;
        break;
      }
    }
    if (descended) continue;
    // No admissible continuation from u this phase: memoize the failure so
    // no later DFS re-explores this subtree.
    ws.dist[static_cast<std::size_t>(u)] = -1;
    --top;
    if (top >= 0) ++ss[top];
  }
  return false;
}

void BipartiteMatcher::augment_pass(const std::int32_t limit) {
  auto& ws = ws_;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < ws.free_buckets.size(); ++i) {
    const std::int32_t u = ws.free_buckets[i];
    if (!try_augment(u, limit)) ws.free_buckets[kept++] = u;
  }
  ws.free_buckets.resize(kept);
}

std::int64_t BipartiteMatcher::augment_to_maximum() {
  while (matched_ < q_) {
    std::int32_t limit = 0;
    if (!bfs_phase(limit)) break;
    ++phases_;
    const std::int64_t before = matched_;
    augment_pass(limit);
    // A phase whose BFS found a terminal always augments at least once
    // (failures don't mutate the matching); this is a loop guard only.
    if (matched_ == before) break;
  }
  return matched_;
}

void BipartiteMatcher::publish_metrics() const {
  MatchingMetrics& metrics = matching_metrics();
  metrics.phase_count.add(static_cast<std::uint64_t>(phases_));
  metrics.visits.add(static_cast<std::uint64_t>(visits_));
  metrics.path_len.merge(path_len_);
}

void BipartiteMatcher::save_matching_into(
    std::vector<std::int32_t>& out) const {
  out.assign(ws_.match.begin(), ws_.match.end());
}

void BipartiteMatcher::restore_matching(
    const std::vector<std::int32_t>& saved) {
  auto& ws = ws_;
  std::fill(ws.load.begin(), ws.load.end(), 0);
  ws.free_buckets.clear();
  matched_ = 0;
  for (std::int32_t u = 0; u < q_; ++u) {
    const std::int32_t d = saved[static_cast<std::size_t>(u)];
    ws.match[static_cast<std::size_t>(u)] = d;
    if (d >= 0) {
      ws.slots[static_cast<std::size_t>(
          ws.disk_first[static_cast<std::size_t>(d)] +
          ws.load[static_cast<std::size_t>(d)])] = u;
      ++ws.load[static_cast<std::size_t>(d)];
      ++matched_;
    } else {
      ws.free_buckets.push_back(u);
    }
  }
}

void BipartiteMatcher::extract_schedule_into(Schedule& schedule) const {
  if (matched_ != q_) {
    throw std::logic_error("BipartiteMatcher: matching is not complete");
  }
  const auto& ws = ws_;
  schedule.assigned_disk.assign(static_cast<std::size_t>(q_), -1);
  schedule.per_disk_count.assign(static_cast<std::size_t>(n_), 0);
  for (std::int32_t u = 0; u < q_; ++u) {
    const std::int32_t d = ws.match[static_cast<std::size_t>(u)];
    schedule.assigned_disk[static_cast<std::size_t>(u)] = d;
    ++schedule.per_disk_count[static_cast<std::size_t>(d)];
  }
}

void IntegratedMatchingSolver::solve_into(const RetrievalProblem& problem,
                                          SolveResult& result) {
  result.clear();
  matcher_.rebind(problem);
  driver_.run(problem, matcher_.in_degrees(), *this, result,
              "matching.probe");
  result.flow_stats.augmentations =
      static_cast<std::uint64_t>(matcher_.augmentations());
  result.flow_stats.dfs_visits =
      static_cast<std::uint64_t>(matcher_.visits());
  result.flow_stats.global_relabels =
      static_cast<std::uint64_t>(matcher_.phases());  // BFS layering passes
  matcher_.publish_metrics();
  matcher_.extract_schedule_into(result.schedule);
  result.response_time_ms = result.schedule.response_time(problem.system);
  REPFLOW_CHECK_MATCHING(problem, matcher_.capacities(), result,
                         "matching.post_solve");
}

std::size_t IntegratedMatchingSolver::retained_bytes() const {
  return matcher_.workspace().retained_bytes() +
         saved_match_.capacity() * sizeof(std::int32_t) +
         driver_.retained_bytes();
}

}  // namespace repflow::core

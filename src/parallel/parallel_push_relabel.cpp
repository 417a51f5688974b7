#include "parallel/parallel_push_relabel.h"

#include <algorithm>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>

#include "analysis/check.h"
#include "graph/exact_heights.h"

// Memory-order audit of the lock-free engine (verified under
// ThreadSanitizer by tests/analysis/stress_concurrent_solve.cpp):
//
//   * flow/excess_/height_ on the discharge hot path use acquire loads and
//     acq_rel RMWs: each fetch_add/fetch_sub both publishes the writer's
//     preceding state (release half) and observes every earlier RMW on the
//     same cell (acquire half), so the residual/excess a worker computes is
//     never newer than the arc state it acts on.  Monotonicity arguments
//     (only the owner decreases its own excess, heights only rise between
//     global relabels) make the remaining staleness benign: a stale read
//     can only under-estimate the push budget, never overshoot it.
//
//   * gr_state_/gr_paused_/gr_exited_ form the global-relabel park
//     protocol.  The coordinator's CAS(0->1) is acq_rel; workers observe 1
//     with acquire at a safe checkpoint and spin; the coordinator's
//     store(0, release) after exact_heights() publishes the new heights to
//     the acquire spin-loads, so no worker resumes with pre-relabel
//     heights.
//
//   * relaxed is confined to (a) single-threaded phases — exact_heights,
//     the drain, and the resume() prologue/epilogue run while every worker
//     is idle, with the worker pool's handoff (a release/acquire
//     generation bump in, acq_rel completion count out) providing the
//     happens-before into and out of the run — and (b) pure statistics
//     (relabels_since_gr_), where a lost update only nudges the relabel
//     cadence.
//
// Every atomic access goes through a std::atomic_ref temporary, never
// stored, so between resumes no atomic_ref exists and the driver's plain flow
// reads and writes are legal C++20.
namespace repflow::parallel {

using graph::ArcId;
using graph::Cap;
using graph::Vertex;

namespace {

// Index of the current worker thread; routes operation counters to the
// thread's private slot so the hot path stays write-contention free.
thread_local int t_worker_index = 0;

static_assert(std::atomic_ref<Cap>::is_always_lock_free &&
              std::atomic_ref<Cap>::required_alignment == alignof(Cap));
static_assert(std::atomic_ref<std::int32_t>::is_always_lock_free);
static_assert(std::atomic_ref<std::uint8_t>::is_always_lock_free);

}  // namespace

ParallelPushRelabel::RegistryHandles
ParallelPushRelabel::RegistryHandles::make(int threads) {
  auto& reg = obs::Registry::global();
  RegistryHandles handles{
      reg.counter("parallel.pushes"),
      reg.counter("parallel.relabels"),
      reg.counter("parallel.discharges"),
      reg.counter("parallel.queue_yields"),
      reg.counter("parallel.resumes"),
      reg.gauge("parallel.last_run_queue_yields"),
      {},
      {},
      {},
      {}};
  for (int t = 0; t < threads; ++t) {
    const std::string prefix = "parallel.thread" + std::to_string(t);
    handles.thread_pushes.push_back(&reg.counter(prefix + ".pushes"));
    handles.thread_relabels.push_back(&reg.counter(prefix + ".relabels"));
    handles.thread_discharges.push_back(&reg.counter(prefix + ".discharges"));
    handles.thread_queue_yields.push_back(
        &reg.counter(prefix + ".queue_yields"));
  }
  return handles;
}

ParallelPushRelabel::ParallelPushRelabel(graph::FlowNetwork& net,
                                         int threads)
    : net_(net),
      threads_(threads),
      registry_(RegistryHandles::make(threads)),
      pool_(threads) {
  if (threads < 1) {
    throw std::invalid_argument("ParallelPushRelabel: threads < 1");
  }
  counters_.resize(static_cast<std::size_t>(threads));
}

ParallelPushRelabel::ParallelPushRelabel(graph::FlowNetwork& net,
                                         Vertex source, Vertex sink,
                                         int threads)
    : ParallelPushRelabel(net, threads) {
  rebind(source, sink);
}

void ParallelPushRelabel::rebind(Vertex source, Vertex sink) {
  if (source < 0 || source >= net_.num_vertices() || sink < 0 ||
      sink >= net_.num_vertices() || source == sink) {
    throw std::invalid_argument("ParallelPushRelabel: bad source/sink");
  }
  source_ = source;
  sink_ = sink;
  net_.finalize_adjacency();
  const auto n = static_cast<std::size_t>(net_.num_vertices());
  excess_.resize(n);
  height_.resize(n);
  queued_.resize(n);
  if (2 * n + 4 > queue_capacity_) {
    queue_capacity_ = 2 * n + 4;
    queue_ = std::make_unique<MpmcQueue<Vertex>>(queue_capacity_);
  }
  bfs_height_.resize(n);
  bfs_queue_.resize(n + 1);
  drain_visit_pos_.resize(n);
  drain_walk_.reserve(n);
}

void ParallelPushRelabel::saturate_source_arcs() {
  const std::span<Cap> flow = net_.flows();
  // mo: relaxed — single-threaded prologue phase (see the resume() note).
  for (const ArcId a : net_.out_arcs(source_)) {
    const Cap delta = net_.capacity(a) -
                      std::atomic_ref(flow[a]).load(std::memory_order_relaxed);
    if (delta <= 0) continue;
    // mo: relaxed — single-threaded prologue phase (see the resume() note).
    std::atomic_ref(flow[a]).fetch_add(delta, std::memory_order_relaxed);
    std::atomic_ref(flow[a ^ 1]).fetch_sub(delta, std::memory_order_relaxed);
    std::atomic_ref(excess_[net_.head(a)])
        .fetch_add(delta, std::memory_order_relaxed);
  }
}

void ParallelPushRelabel::drain_stranded_excess() {
  // mo: relaxed throughout — single-threaded epilogue after the last
  // parallel phase; the pool handoff ordered all worker writes, and the
  // per-site tags below inherit this note.
  const auto n = static_cast<std::size_t>(net_.num_vertices());
  const std::span<Cap> flow = net_.flows();
  std::vector<std::int32_t>& visit_pos = drain_visit_pos_;
  std::fill(visit_pos.begin(),
            visit_pos.begin() + static_cast<std::ptrdiff_t>(n), -1);
  // Finds the in-arc (u -> cur) carrying flow: stored as reverse slot b^1
  // of cur's out-slot b.
  auto inflow_arc = [&](Vertex cur) -> ArcId {
    // mo: relaxed — see the epilogue note at the top of this function.
    for (const ArcId b : net_.out_arcs(cur)) {
      if (std::atomic_ref(flow[b ^ 1]).load(std::memory_order_relaxed) > 0) {
        return b ^ 1;
      }
    }
    return graph::kInvalidArc;
  };
  for (Vertex v = 0; v < net_.num_vertices(); ++v) {
    if (v == source_ || v == sink_) continue;
    // mo: relaxed — see the epilogue note at the top of this function.
    while (std::atomic_ref(excess_[v]).load(std::memory_order_relaxed) > 0) {
      // Walk backward from v; walk[i] is the flow-carrying arc entering the
      // vertex at depth i.
      std::vector<ArcId>& walk = drain_walk_;
      walk.clear();
      std::fill(visit_pos.begin(), visit_pos.end(), -1);
      visit_pos[v] = 0;
      Vertex cur = v;
      bool reached_source = false;
      while (!reached_source) {
        const ArcId in = inflow_arc(cur);
        if (in == graph::kInvalidArc) {
          // Impossible for a vertex with surplus inflow; guard anyway.
          // mo: relaxed — epilogue note at the top of this function.
          std::atomic_ref(excess_[v]).store(0, std::memory_order_relaxed);
          break;
        }
        const Vertex prev = net_.tail(in);  // tail of (prev -> cur)
        if (prev == source_) {
          walk.push_back(in);
          reached_source = true;
          break;
        }
        if (visit_pos[prev] >= 0) {
          // Cancel the flow cycle prev -> ... -> cur -> prev.
          // mo: relaxed — epilogue note at the top of this function.
          Cap cycle_min =
              std::atomic_ref(flow[in]).load(std::memory_order_relaxed);
          for (std::size_t k = static_cast<std::size_t>(visit_pos[prev]);
               k < walk.size(); ++k) {
            // mo: relaxed — epilogue note at the top of this function.
            const Cap f =
                std::atomic_ref(flow[walk[k]]).load(std::memory_order_relaxed);
            cycle_min = std::min(cycle_min, f);
          }
          // mo: relaxed — epilogue note at the top of this function.
          std::atomic_ref(flow[in]).fetch_sub(cycle_min,
                                              std::memory_order_relaxed);
          std::atomic_ref(flow[in ^ 1]).fetch_add(cycle_min,
                                                  std::memory_order_relaxed);
          for (std::size_t k = static_cast<std::size_t>(visit_pos[prev]);
               k < walk.size(); ++k) {
            // mo: relaxed — epilogue note at the top of this function.
            std::atomic_ref(flow[walk[k]]).fetch_sub(cycle_min,
                                          std::memory_order_relaxed);
            std::atomic_ref(flow[walk[k] ^ 1]).fetch_add(cycle_min,
                                              std::memory_order_relaxed);
          }
          // Rewind the walk to prev, unmarking the tails of popped arcs.
          while (walk.size() > static_cast<std::size_t>(visit_pos[prev])) {
            visit_pos[net_.tail(walk.back())] = -1;
            walk.pop_back();
          }
          // visit_pos bookkeeping: prev keeps its position; resume there.
          cur = prev;
          continue;
        }
        walk.push_back(in);
        visit_pos[prev] = static_cast<std::int32_t>(walk.size());
        cur = prev;
      }
      if (!reached_source) continue;
      // mo: relaxed — epilogue note at the top of this function.
      Cap delta = std::atomic_ref(excess_[v]).load(std::memory_order_relaxed);
      for (ArcId a : walk) {
        delta = std::min(
            delta, std::atomic_ref(flow[a]).load(std::memory_order_relaxed));
      }
      // mo: relaxed — epilogue note at the top of this function.
      for (ArcId a : walk) {
        std::atomic_ref(flow[a]).fetch_sub(delta, std::memory_order_relaxed);
        std::atomic_ref(flow[a ^ 1])
            .fetch_add(delta, std::memory_order_relaxed);
      }
      // mo: relaxed — epilogue note at the top of this function.
      std::atomic_ref(excess_[v]).fetch_sub(delta, std::memory_order_relaxed);
    }
  }
}

void ParallelPushRelabel::exact_heights() {
  ++stats_.global_relabels;
  const auto n = static_cast<std::size_t>(net_.num_vertices());
  const std::span<Cap> flow = net_.flows();
  const auto residual = [&](ArcId a) {
    // mo: relaxed — global relabel runs between parallel phases (workers
    // parked), so the pool handoff already ordered every flow write.
    return net_.capacity(a) -
           std::atomic_ref(flow[a]).load(std::memory_order_relaxed);
  };
  // Runs single-threaded (coordinator with workers parked, or between
  // runs), so the BFS scratch is safe to reuse here.
  graph::compute_exact_heights(net_, source_, sink_, residual, bfs_height_,
                               bfs_queue_);
  // mo: relaxed — single-threaded (workers parked); the gr_state_ release
  // or the pool handoff publishes the fresh heights to the workers.
  for (std::size_t v = 0; v < n; ++v) {
    std::atomic_ref(height_[v])
        .store(bfs_height_[v], std::memory_order_relaxed);
  }
}

void ParallelPushRelabel::enqueue(Vertex v) {
  if (v == source_ || v == sink_) return;
  // mo: acq_rel — the winning exchange must see the prior owner's release
  // clear (and its preceding drains); the count RMW pairs with the
  // termination check's acquire load so active work is never undercounted.
  if (std::atomic_ref(queued_[v]).exchange(1, std::memory_order_acq_rel) == 0) {
    active_count_.fetch_add(1, std::memory_order_acq_rel);
    while (!queue_->try_push(v)) {
      // The queue is sized so this cannot stay full; spin defensively.
      std::this_thread::yield();
    }
  }
}

void ParallelPushRelabel::seed_queue() {
  // mo: relaxed — single-threaded prologue (see the resume() note); the
  // pool handoff publishes all of this.
  active_count_.store(0, std::memory_order_relaxed);
  Vertex drained;
  while (queue_->try_pop(drained)) {
  }
  const auto n = static_cast<std::int32_t>(net_.num_vertices());
  for (Vertex v = 0; v < net_.num_vertices(); ++v) {
    if (v == source_ || v == sink_) continue;
    // mo: relaxed — same single-threaded prologue as above.
    if (std::atomic_ref(excess_[v]).load(std::memory_order_relaxed) > 0 &&
        std::atomic_ref(height_[v]).load(std::memory_order_relaxed) < n) {
      enqueue(v);
    }
  }
}

void ParallelPushRelabel::discharge(Vertex v) {
  ThreadCounters& counters =
      counters_[static_cast<std::size_t>(t_worker_index)];
  const auto n = static_cast<std::int32_t>(net_.num_vertices());
  const std::span<Cap> flow = net_.flows();
  // mo: acquire — pairs with peers' acq_rel excess RMWs so a newly pushed
  // delta (and the flow writes before it) is visible before we discharge.
  while (std::atomic_ref(excess_[v]).load(std::memory_order_acquire) > 0) {
    // Yield to a pending global relabel at a safe boundary (never
    // mid-push); the worker loop re-arms this vertex.
    // mo: relaxed — advisory peek; maybe_global_relabel() re-checks with
    // acquire at the real checkpoint, so a stale read only delays parking.
    if (gr_state_.load(std::memory_order_relaxed) == 1) return;
    // Height >= n proves no residual path to the sink remains (validity of
    // the labeling), so this vertex's excess can never reach t in this run:
    // park it.  drain_stranded_excess() walks the surplus back to the
    // source after the threads quiesce, replacing the O(n)-relabel climb of
    // naive excess return (phase-two of classic push-relabel).
    // mo: acquire — pairs with relabel's release store; the parked-vertex
    // decision must see the latest height.
    if (std::atomic_ref(height_[v]).load(std::memory_order_acquire) >= n) {
      return;
    }
    // Find the lowest residual neighbor (Hong & He's v-bar).
    std::int32_t min_height = std::numeric_limits<std::int32_t>::max();
    ArcId best = graph::kInvalidArc;
    for (const ArcId a : net_.out_arcs(v)) {
      // mo: acquire — residual and neighbor height must be no older than
      // the last release that touched them (Hong & He's validity argument
      // tolerates stale-but-ordered reads; see the lemma note below).
      const Cap residual =
          net_.capacity(a) -
          std::atomic_ref(flow[a]).load(std::memory_order_acquire);
      if (residual <= 0) continue;
      // mo: acquire — see the residual note above.
      const std::int32_t hw = std::atomic_ref(height_[net_.head(a)])
                                  .load(std::memory_order_acquire);
      if (hw < min_height) {
        min_height = hw;
        best = a;
      }
    }
    if (best == graph::kInvalidArc) {
      return;  // no residual arc: cannot be active (defensive)
    }
    // mo: acquire — own height may have been rewritten by a global relabel.
    const std::int32_t hv =
        std::atomic_ref(height_[v]).load(std::memory_order_acquire);
    if (hv > min_height) {
      // Push.  Only this thread decreases excess(v) and residual(best), so
      // the stale reads can only underestimate the budget.
      // mo: acquire — see the lemma note; underestimates are safe, and the
      // RMWs below are acq_rel so each push is a full synchronization
      // point on the cells it touches.
      const Cap e = std::atomic_ref(excess_[v]).load(std::memory_order_acquire);
      const Cap r = net_.capacity(best) -
                    std::atomic_ref(flow[best]).load(std::memory_order_acquire);
      const Cap delta = std::min(e, r);
      if (delta <= 0) continue;  // neighbor refunded concurrently; rescan
      // mo: acq_rel — the push must release our prior writes to the
      // receiving vertex (whose discharge acquires excess) and acquire the
      // neighbor's prior pushes before compounding on them.
      std::atomic_ref(excess_[v]).fetch_sub(delta, std::memory_order_acq_rel);
      std::atomic_ref(flow[best]).fetch_add(delta, std::memory_order_acq_rel);
      // mo: acq_rel — see the push note above.
      std::atomic_ref(flow[best ^ 1])
          .fetch_sub(delta, std::memory_order_acq_rel);
      const Vertex w = net_.head(best);
      // mo: acq_rel — see the push note above.
      std::atomic_ref(excess_[w]).fetch_add(delta, std::memory_order_acq_rel);
      enqueue(w);
      ++counters.pushes;
    } else {
      // Relabel to one above the lowest residual neighbor.
      // mo: release — publishes the new height to the acquire loads in
      // peers' neighbor scans and parked-vertex checks.
      std::atomic_ref(height_[v])
          .store(min_height + 1, std::memory_order_release);
      ++counters.relabels;
      // mo: relaxed — heuristic trigger counter; the coordinator only
      // compares it against a threshold.
      relabels_since_gr_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

bool ParallelPushRelabel::maybe_global_relabel() {
  // mo: acquire — pairs with the coordinator's release store of 0 so a
  // resuming worker sees the rewritten heights.
  const int state = gr_state_.load(std::memory_order_acquire);
  if (state == 1) {
    // Someone else coordinates: park at this checkpoint until it finishes.
    // mo: acq_rel — the park count releases our in-flight writes to the
    // coordinator's acquire loads (it must observe a quiesced heap before
    // rewriting heights), and the acquire side orders our resume.
    gr_paused_.fetch_add(1, std::memory_order_acq_rel);
    while (gr_state_.load(std::memory_order_acquire) == 1) {
      std::this_thread::yield();
    }
    // mo: acq_rel — see the park note above (unpark side).
    gr_paused_.fetch_sub(1, std::memory_order_acq_rel);
    return true;
  }
  // mo: relaxed — heuristic threshold check (see the trigger counter note).
  if (relabels_since_gr_.load(std::memory_order_relaxed) < gr_threshold_) {
    return false;
  }
  int expected = 0;
  // mo: acq_rel — winning the election acquires the previous coordinator's
  // epilogue and releases our intent to the parking workers.
  if (!gr_state_.compare_exchange_strong(expected, 1,
                                         std::memory_order_acq_rel)) {
    return false;  // lost the election; next checkpoint will park us
  }
  // Coordinator: wait until every other worker is parked or has exited.
  // mo: acquire — pairs with the workers' acq_rel park/exit RMWs; their
  // flow/height writes must be visible before exact_heights() reads them.
  const int others = threads_ - 1;
  while (gr_paused_.load(std::memory_order_acquire) +
             gr_exited_.load(std::memory_order_acquire) <
         others) {
    std::this_thread::yield();
  }
  exact_heights();
  // mo: relaxed — trigger reset; published by the release store below.
  relabels_since_gr_.store(0, std::memory_order_relaxed);
  // mo: release — publishes the rewritten heights to the parked workers'
  // acquire loads above.
  gr_state_.store(0, std::memory_order_release);
  return true;
}

void ParallelPushRelabel::worker() {
  const auto n = static_cast<std::int32_t>(net_.num_vertices());
  ThreadCounters& counters =
      counters_[static_cast<std::size_t>(t_worker_index)];
  Vertex v;
  for (;;) {
    if (maybe_global_relabel()) continue;
    if (queue_->try_pop(v)) {
      ++counters.discharges;
      discharge(v);
      // mo: release — hands the vertex off; the next enqueue's acq_rel
      // exchange must see every write from this drain.
      std::atomic_ref(queued_[v]).store(0, std::memory_order_release);
      // Re-arm if excess arrived between the last drain and the flag clear.
      // Vertices parked at height >= n stay parked: their excess is
      // provably sink-unreachable and is returned by the drain phase.
      // mo: acquire — must observe a peer's push that landed after our
      // last excess check, else the vertex would strand with excess.
      if (std::atomic_ref(excess_[v]).load(std::memory_order_acquire) > 0 &&
          std::atomic_ref(height_[v]).load(std::memory_order_acquire) < n) {
        enqueue(v);
      }
      // mo: acq_rel — pairs with the termination check's acquire load.
      active_count_.fetch_sub(1, std::memory_order_acq_rel);
    } else {
      // mo: acquire — termination: zero here means every enqueue that
      // could still produce work has been balanced by its matching
      // decrement, whose writes we now observe.
      if (active_count_.load(std::memory_order_acquire) == 0) {
        // mo: acq_rel — the exit count joins the coordinator's quiescence
        // sum (see maybe_global_relabel).
        gr_exited_.fetch_add(1, std::memory_order_acq_rel);
        return;
      }
      // Starved: another thread owns every active vertex.
      ++counters.queue_yields;
      std::this_thread::yield();
    }
  }
}

Cap ParallelPushRelabel::resume() {
  const auto n = static_cast<std::size_t>(net_.num_vertices());
  // Excess is implied by the conserved flows: inflow minus outflow.
  // mo: relaxed — single-threaded prologue; the pool_.run() handoff below
  // publishes every store in this block to the workers.
  for (std::size_t v = 0; v < n; ++v) {
    const Cap excess = -net_.net_out_flow(static_cast<Vertex>(v));
    std::atomic_ref(excess_[v]).store(excess, std::memory_order_relaxed);
    std::atomic_ref(queued_[v]).store(0, std::memory_order_relaxed);
  }
  // mo: relaxed — same prologue contract as the loop above.
  std::atomic_ref(excess_[source_]).store(0, std::memory_order_relaxed);
  saturate_source_arcs();
  exact_heights();
  seed_queue();
  gr_threshold_ = static_cast<std::uint64_t>(net_.num_vertices());
  // mo: relaxed — the loop condition reads the count single-threaded,
  // after run() joined every worker.
  while (active_count_.load(std::memory_order_relaxed) > 0) {
    // mo: relaxed — same prologue contract as above.
    gr_state_.store(0, std::memory_order_relaxed);
    gr_paused_.store(0, std::memory_order_relaxed);
    gr_exited_.store(0, std::memory_order_relaxed);
    relabels_since_gr_.store(0, std::memory_order_relaxed);
    pool_.run([this](int index) {
      t_worker_index = index;
      worker();
    });
    // A worker parks a vertex once it reads a height >= n, and a stale
    // read can park excess that still has a residual path to the sink.
    // With the workers joined, exact heights decide: rerun while any
    // excess sits below height n, else the preflow is maximum.
    exact_heights();
    seed_queue();
  }

  drain_stranded_excess();

  std::uint64_t run_yields = 0;
  for (std::size_t t = 0; t < counters_.size(); ++t) {
    const ThreadCounters& c = counters_[t];
    stats_.pushes += c.pushes;
    stats_.relabels += c.relabels;
    registry_.pushes.add(c.pushes);
    registry_.relabels.add(c.relabels);
    registry_.discharges.add(c.discharges);
    registry_.queue_yields.add(c.queue_yields);
    registry_.thread_pushes[t]->add(c.pushes);
    registry_.thread_relabels[t]->add(c.relabels);
    registry_.thread_discharges[t]->add(c.discharges);
    registry_.thread_queue_yields[t]->add(c.queue_yields);
    run_yields += c.queue_yields;
  }
  registry_.resumes.add(1);
  registry_.contention.set(static_cast<double>(run_yields));
  std::fill(counters_.begin(), counters_.end(), ThreadCounters{});

  // mo: relaxed — single-threaded epilogue (workers joined by run()).
  const Cap value =
      std::atomic_ref(excess_[sink_]).load(std::memory_order_relaxed);
  // Post-solve seam (single-threaded epilogue; all workers joined above,
  // and the pool's handoff orders their pushes before these plain
  // reads): the network's flows must be conserved, and the sink inflow
  // must match the engine's own excess accounting.
  REPFLOW_CHECK_FLOW(net_, source_, sink_, "parallel_pr.post_resume");
#if REPFLOW_INVARIANTS_ENABLED
  if (net_.flow_into(sink_) != value) {
    analysis::InvariantReport report;
    report.fail("engine sink excess " + std::to_string(value) +
                " != network sink inflow " +
                std::to_string(net_.flow_into(sink_)));
    analysis::enforce(report, "parallel_pr.post_resume");
  }
#endif
  return value;
}

void ParallelPushRelabel::reset_excess_after_restore(Cap /*sink_excess*/) {
  // Excess is recomputed from the conserved flows at every resume(); there
  // is no cross-run excess state to realign.
}

std::size_t ParallelPushRelabel::retained_bytes() const {
  return excess_.capacity() * sizeof(Cap) +
         height_.capacity() * sizeof(std::int32_t) +
         queued_.capacity() * sizeof(std::uint8_t) +
         bfs_height_.capacity() * sizeof(std::int32_t) +
         bfs_queue_.capacity() * sizeof(Vertex) +
         drain_visit_pos_.capacity() * sizeof(std::int32_t) +
         drain_walk_.capacity() * sizeof(ArcId);
}

}  // namespace repflow::parallel

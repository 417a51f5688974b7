// Tests for the parallel push-relabel engine (Section V, Hong & He): the
// worker pool's handoff, the MPMC queue, flow-value agreement with the
// sequential engine on random networks, integrated resume semantics, and
// multi-thread stress runs.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "analysis/flow_invariants.h"
#include "graph/ford_fulkerson.h"
#include "graph/generators.h"
#include "parallel/mpmc_queue.h"
#include "parallel/parallel_push_relabel.h"
#include "parallel/worker_pool.h"
#include "support/rng.h"

namespace repflow::parallel {
namespace {

using graph::Cap;
using graph::FlowNetwork;
using graph::Vertex;

// Far longer than WorkerPool::kSpinLimit pauses, even under a sanitizer,
// so a run after it finds every waiter parked on its condition variable.
constexpr auto kPastTheSpin = std::chrono::milliseconds(30);

TEST(WorkerPool, RunsEveryIndexOnceWithTheCallerAsIndexZero) {
  for (const int threads : {1, 2, 3, 4}) {
    WorkerPool pool(threads);
    const auto n = static_cast<std::size_t>(threads);
    std::vector<int> runs(n, 0);  // each index writes only its own slot
    std::vector<std::thread::id> ran_on(n);
    for (int round = 0; round < 50; ++round) {
      pool.run([&](int index) {
        ++runs[static_cast<std::size_t>(index)];
        ran_on[static_cast<std::size_t>(index)] = std::this_thread::get_id();
      });
      EXPECT_EQ(ran_on[0], std::this_thread::get_id()) << "threads=" << threads;
      for (std::size_t i = 1; i < n; ++i) {
        EXPECT_NE(ran_on[i], std::this_thread::get_id()) << "index " << i;
      }
    }
    EXPECT_EQ(runs, std::vector<int>(n, 50)) << "threads=" << threads;
  }
}

TEST(WorkerPool, HandoffPublishesPlainWritesBothWays) {
  constexpr int kThreads = 4;
  WorkerPool pool(kThreads);
  std::vector<long> input(kThreads, 0);
  std::vector<long> output(kThreads, 0);
  std::vector<char> saw_input(kThreads, 0);
  for (long round = 1; round <= 200; ++round) {
    for (long& x : input) x = round;  // plain writes before run()
    pool.run([&](int index) {
      const auto i = static_cast<std::size_t>(index);
      saw_input[i] = input[i] == round;
      output[i] = round * 10 + index;  // plain write read after run()
    });
    for (int i = 0; i < kThreads; ++i) {
      ASSERT_TRUE(saw_input[static_cast<std::size_t>(i)]) << "round " << round;
      ASSERT_EQ(output[static_cast<std::size_t>(i)], round * 10 + i);
    }
  }
}

TEST(WorkerPool, BackToBackRunsOnTheSpinPath) {
  constexpr int kThreads = 3;
  constexpr int kRuns = 10000;
  WorkerPool pool(kThreads);
  std::vector<long> sums(kThreads, 0);
  for (int r = 0; r < kRuns; ++r) {
    pool.run([&](int index) { sums[static_cast<std::size_t>(index)] += r; });
  }
  const long expected = static_cast<long>(kRuns) * (kRuns - 1) / 2;
  EXPECT_EQ(sums, std::vector<long>(kThreads, expected));
}

TEST(WorkerPool, RunsAfterEveryWaiterParked) {
  constexpr int kThreads = 3;
  WorkerPool pool(kThreads);
  std::vector<int> runs(kThreads, 0);
  for (int r = 0; r < 4; ++r) {
    std::this_thread::sleep_for(kPastTheSpin);  // idle workers park
    pool.run([&](int index) {
      // Index 0 outlasts the spin too, so the caller parks on the others.
      if (index == 1) std::this_thread::sleep_for(kPastTheSpin);
      ++runs[static_cast<std::size_t>(index)];
    });
  }
  EXPECT_EQ(runs, std::vector<int>(kThreads, 4));
}

TEST(WorkerPool, DestroysSpinningAndParkedWorkers) {
  { WorkerPool never_ran(4); }  // workers still spin on their first wait
  {
    WorkerPool pool(4);
    std::atomic<int> ran{0};
    pool.run([&](int) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 4);
  }  // destroyed while its workers spin for the next run
  {
    WorkerPool pool(4);
    std::atomic<int> ran{0};
    pool.run([&](int) { ran.fetch_add(1); });
    std::this_thread::sleep_for(kPastTheSpin);
    EXPECT_EQ(ran.load(), 4);
  }  // destroyed with its workers parked
}

TEST(WorkerPool, CallerThrowWaitsForTheWorkers) {
  constexpr int kThreads = 3;
  WorkerPool pool(kThreads);
  std::vector<char> finished(kThreads, 0);
  EXPECT_THROW(pool.run([&](int index) {
                 if (index == 0) throw std::runtime_error("job 0");
                 std::this_thread::sleep_for(std::chrono::milliseconds(5));
                 finished[static_cast<std::size_t>(index)] = 1;
               }),
               std::runtime_error);
  EXPECT_EQ(finished, (std::vector<char>{0, 1, 1}));
  int after = 0;
  pool.run([&](int index) {
    if (index == 0) after = 1;
  });
  EXPECT_EQ(after, 1);  // the pool stays usable
}

TEST(MpmcQueue, FifoSingleThread) {
  MpmcQueue<int> q(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.try_push(i));
  int out;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(q.try_pop(out));
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(q.try_pop(out));
}

TEST(MpmcQueue, ReportsFull) {
  MpmcQueue<int> q(2);  // rounds to capacity 2
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));
  int out;
  EXPECT_TRUE(q.try_pop(out));
  EXPECT_TRUE(q.try_push(3));
}

TEST(MpmcQueue, ConcurrentProducersConsumers) {
  MpmcQueue<int> q(1024);
  constexpr int kPerProducer = 5000;
  constexpr int kProducers = 3;
  constexpr int kConsumers = 3;
  std::atomic<long long> sum{0};
  std::atomic<int> consumed{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        while (!q.try_push(p * kPerProducer + i)) std::this_thread::yield();
      }
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      int v;
      while (consumed.load() < kProducers * kPerProducer) {
        if (q.try_pop(v)) {
          sum.fetch_add(v);
          consumed.fetch_add(1);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  const long long n = static_cast<long long>(kProducers) * kPerProducer;
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

Cap sequential_value(FlowNetwork net, Vertex s, Vertex t) {
  graph::FordFulkerson engine(net, s, t, graph::SearchOrder::kBfs);
  return engine.solve_from_zero().value;
}

class ParallelMatchesSequential : public ::testing::TestWithParam<int> {};

TEST_P(ParallelMatchesSequential, RandomGeneralNetworks) {
  Rng rng(4000 + GetParam());
  auto g = graph::random_general(
      2 + static_cast<std::int32_t>(rng.below(40)),
      static_cast<std::int32_t>(rng.below(200)),
      1 + static_cast<Cap>(rng.below(25)), rng);
  const Cap reference = sequential_value(g.net, g.source, g.sink);
  for (int threads : {1, 2, 4}) {
    FlowNetwork net = g.net;  // fresh flows
    net.clear_flow();
    ParallelPushRelabel engine(net, g.source, g.sink, threads);
    EXPECT_EQ(engine.resume(), reference) << "threads=" << threads;
    const auto check = analysis::check_flow_invariants(net, g.source, g.sink);
    EXPECT_TRUE(check.ok()) << check.to_string();
  }
}

TEST_P(ParallelMatchesSequential, RetrievalShapedNetworks) {
  Rng rng(5000 + GetParam());
  const auto left = 5 + static_cast<std::int32_t>(rng.below(60));
  const auto right = 2 + static_cast<std::int32_t>(rng.below(14));
  auto g = graph::random_bipartite(left, right, 2,
                                   1 + static_cast<Cap>(rng.below(6)), rng);
  const Cap reference = sequential_value(g.net, g.source, g.sink);
  FlowNetwork net = g.net;
  net.clear_flow();
  ParallelPushRelabel engine(net, g.source, g.sink, 2);
  EXPECT_EQ(engine.resume(), reference);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ParallelMatchesSequential,
                         ::testing::Range(0, 15));

TEST(ParallelIntegrated, ResumeConservesFlowAcrossCapacityChanges) {
  // Same scenario as the sequential integrated test: raising a sink-edge
  // capacity and resuming must not restart from zero.
  FlowNetwork net(3);
  const auto sa = net.add_arc(0, 1, 10);
  const auto at = net.add_arc(1, 2, 3);
  ParallelPushRelabel engine(net, 0, 2, 2);
  EXPECT_EQ(engine.resume(), 3);
  EXPECT_EQ(net.flow(at), 3);
  net.set_capacity(at, 8);
  EXPECT_EQ(engine.resume(), 8);
  EXPECT_EQ(net.flow(sa), 8);
  const auto check = analysis::check_flow_invariants(net, 0, 2);
  EXPECT_TRUE(check.ok()) << check.to_string();
}

TEST(ParallelIntegrated, RestoredSnapshotsAreHonored) {
  FlowNetwork net(3);
  net.add_arc(0, 1, 6);
  const auto at = net.add_arc(1, 2, 2);
  ParallelPushRelabel engine(net, 0, 2, 2);
  EXPECT_EQ(engine.resume(), 2);
  const auto snapshot = net.save_flows();
  net.set_capacity(at, 6);
  EXPECT_EQ(engine.resume(), 6);
  net.restore_flows(snapshot);
  engine.reset_excess_after_restore(2);
  net.set_capacity(at, 4);
  EXPECT_EQ(engine.resume(), 4);
}

TEST(ParallelEngineConfig, RejectsBadArguments) {
  FlowNetwork net(3);
  net.add_arc(0, 1, 1);
  EXPECT_THROW(ParallelPushRelabel(net, 0, 2, 0), std::invalid_argument);
  EXPECT_THROW(ParallelPushRelabel(net, 0, 0, 1), std::invalid_argument);
  EXPECT_THROW(ParallelPushRelabel(net, 0), std::invalid_argument);
}

TEST(ParallelStress, RepeatedRunsAreStable) {
  // Run the same instance many times with 4 threads; any race manifests as
  // a wrong value or a validation failure.
  Rng rng(717);
  auto g = graph::layered_network(4, 10, 8, rng);
  const Cap reference = sequential_value(g.net, g.source, g.sink);
  for (int iter = 0; iter < 20; ++iter) {
    FlowNetwork net = g.net;
    net.clear_flow();
    ParallelPushRelabel engine(net, g.source, g.sink, 4);
    ASSERT_EQ(engine.resume(), reference) << "iteration " << iter;
    ASSERT_TRUE(analysis::check_flow_invariants(net, g.source, g.sink).ok());
  }
}

}  // namespace
}  // namespace repflow::parallel

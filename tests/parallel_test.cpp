// Tests for the parallel push-relabel engine (Section V, Hong & He): the
// MPMC queue, flow-value agreement with the sequential engine on random
// networks, integrated resume semantics, and multi-thread stress runs.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "graph/checks.h"
#include "graph/ford_fulkerson.h"
#include "graph/generators.h"
#include "parallel/mpmc_queue.h"
#include "parallel/parallel_engine.h"
#include "parallel/parallel_push_relabel.h"
#include "support/rng.h"

namespace repflow::parallel {
namespace {

using graph::Cap;
using graph::FlowNetwork;
using graph::Vertex;

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
    const auto check = graph::validate_flow(net, g.source, g.sink);
    EXPECT_TRUE(check.ok) << check.reason;
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
  const auto check = graph::validate_flow(net, 0, 2);
  EXPECT_TRUE(check.ok) << check.reason;
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
  EXPECT_THROW(parallel_engine_factory(0), std::invalid_argument);
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
    ASSERT_TRUE(graph::validate_flow(net, g.source, g.sink).ok);
  }
}

}  // namespace
}  // namespace repflow::parallel

#include "parallel/parallel_engine.h"

#include <memory>
#include <stdexcept>

#include "parallel/parallel_push_relabel.h"

namespace repflow::parallel {

core::EngineFactory parallel_engine_factory(int threads) {
  if (threads < 1) {
    throw std::invalid_argument("parallel_engine_factory: threads < 1");
  }
  return [threads](graph::FlowNetwork& net, graph::Vertex source,
                   graph::Vertex sink)
             -> std::unique_ptr<core::IntegratedEngine> {
    return std::make_unique<ParallelPushRelabel>(net, source, sink, threads);
  };
}

}  // namespace repflow::parallel

// Engine factory plugging the multithreaded Hong & He engine
// (ParallelPushRelabel, itself an IntegratedEngine) into Algorithm 6's
// driver, so kParallelPushRelabelBinary runs the paper's Section V engine
// with the driver unchanged (Section V modifies only line 29).
#pragma once

#include "core/push_relabel_binary.h"

namespace repflow::parallel {

/// Engine factory for PushRelabelBinarySolver running `threads` workers of
/// the Hong & He asynchronous engine.  Throws on threads < 1.
core::EngineFactory parallel_engine_factory(int threads);

}  // namespace repflow::parallel

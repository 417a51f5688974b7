// Bounded lock-free multi-producer/multi-consumer FIFO (Vyukov's design).
//
// The parallel push-relabel engine distributes active vertices through this
// queue so that, per the paper's Section V requirement (following Hong & He
// [31]), no locks are taken anywhere on the push/relabel hot path — all
// coordination is atomic read-modify-write.
//
// Memory-order audit (the full protocol; verified under ThreadSanitizer by
// tests/analysis/stress_concurrent_solve.cpp):
//
//   * Each cell's `sequence` is the only synchronization edge for its
//     `value`.  A writer publishes with sequence.store(release) AFTER
//     writing value; a reader first observes that store with
//     sequence.load(acquire) and only then reads value.  The release/
//     acquire pair makes the plain (non-atomic) value access data-race-free
//     in both directions (producer->consumer on push, consumer->recycler on
//     the wrap-around reuse of the cell).
//
//   * head_/tail_ are mere tickets: the CAS that claims position `pos` can
//     be relaxed because claiming grants no access by itself — the claimant
//     still waits on the cell's sequence before touching value, so every
//     inter-thread data edge goes through the sequence pair above.  Relaxed
//     RMWs still totally order claims per counter (RMW atomicity), which is
//     all FIFO ordering needs.
//
//   * The initial sequence stores in the constructor are relaxed: the
//     constructor is single-threaded and the object is published to workers
//     via the engine's worker-pool handoff (a release/acquire generation
//     bump), which provides the necessary happens-before.
#pragma once

#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace repflow::parallel {

template <typename T>
class MpmcQueue {
 public:
  /// Capacity is rounded up to a power of two; the engine sizes the queue so
  /// that it can never fill (each vertex is enqueued at most once at a time).
  explicit MpmcQueue(std::size_t min_capacity) {
    std::size_t cap = 1;
    while (cap < min_capacity) cap <<= 1;
    cells_ = std::vector<Cell>(cap);  // in-place construction (atomics
                                      // are neither copyable nor movable)
    mask_ = cap - 1;
    // mo: relaxed — single-threaded constructor; the engine's pool handoff
    // publishes the whole queue (header audit, bullet 3).
    for (std::size_t i = 0; i < cap; ++i) {
      cells_[i].sequence.store(i, std::memory_order_relaxed);
    }
  }

  MpmcQueue(const MpmcQueue&) = delete;
  MpmcQueue& operator=(const MpmcQueue&) = delete;

  /// Non-blocking push; returns false when full.
  bool try_push(T value) {
    Cell* cell;
    // mo: relaxed — ticket peek; the claim CAS re-validates (header audit).
    std::size_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      cell = &cells_[pos & mask_];
      // mo: acquire — synchronizes with the consumer's release store that
      // recycled this cell, so the consumer's value read happened-before
      // our value write below (no overwrite of an in-flight read).
      const std::size_t seq = cell->sequence.load(std::memory_order_acquire);
      const auto diff = static_cast<std::ptrdiff_t>(seq) -
                        static_cast<std::ptrdiff_t>(pos);
      if (diff == 0) {
        // mo: relaxed CAS — claiming the ticket grants nothing by itself;
        // the cell's sequence above already carries the data edge.
        if (tail_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          break;
        }
      } else if (diff < 0) {
        return false;  // full
      } else {
        // mo: relaxed — ticket re-peek after losing the CAS race.
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
    cell->value = value;
    // mo: release — publishes the value write to the consumer whose
    // acquire load of `sequence` observes pos + 1.
    cell->sequence.store(pos + 1, std::memory_order_release);
    return true;
  }

  /// Non-blocking pop; returns false when empty.
  bool try_pop(T& out) {
    Cell* cell;
    // mo: relaxed — ticket peek; the claim CAS re-validates (header audit).
    std::size_t pos = head_.load(std::memory_order_relaxed);
    for (;;) {
      cell = &cells_[pos & mask_];
      // mo: acquire — synchronizes with the producer's release store,
      // making its value write visible before our value read below.
      const std::size_t seq = cell->sequence.load(std::memory_order_acquire);
      const auto diff = static_cast<std::ptrdiff_t>(seq) -
                        static_cast<std::ptrdiff_t>(pos + 1);
      if (diff == 0) {
        // mo: relaxed CAS — same ticket argument as try_push.
        if (head_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          break;
        }
      } else if (diff < 0) {
        return false;  // empty
      } else {
        // mo: relaxed — ticket re-peek after losing the CAS race.
        pos = head_.load(std::memory_order_relaxed);
      }
    }
    out = cell->value;
    // mo: release — recycles the cell for the producer one lap ahead; its
    // acquire load sees our value read completed.
    cell->sequence.store(pos + mask_ + 1, std::memory_order_release);
    return true;
  }

 private:
  struct Cell {
    std::atomic<std::size_t> sequence{0};
    T value{};
  };
  // Cells are padded implicitly by vector layout; contention is acceptable
  // for the vertex-id payloads used here.
  std::vector<Cell> cells_;
  std::size_t mask_ = 0;
  std::atomic<std::size_t> head_{0};
  std::atomic<std::size_t> tail_{0};
};

}  // namespace repflow::parallel

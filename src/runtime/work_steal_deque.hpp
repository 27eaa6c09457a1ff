// Chase-Lev work-stealing deque over task ids.
//
// One owner thread pushes and pops at the bottom (LIFO — the depth-first
// order that keeps a worker on the tiles it just touched); idle siblings
// steal from the top (FIFO — the oldest task, the one least likely to be in
// anyone's cache). The only synchronization is one CAS on `top_` when a
// thief claims a task or when the owner races a thief for the last element.
//
// This implementation is deliberately non-resizing: DagExecutor sizes each
// deque to the run's task count, every task is pushed at most once per run,
// so the circular indices never wrap and a slot is written exactly once.
// That removes the classic grow/overwrite hazard (and the standalone memory
// fences the canonical weak-memory formulation needs, which ThreadSanitizer
// models poorly) — top_/bottom_ use seq_cst at the two Dekker points
// instead, which costs nothing measurable next to a kernel launch.
//
// push() reports false when full. DagExecutor asserts it never is: a deque
// sized to the run's task count cannot fill when each task is pushed once.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "common/error.hpp"

namespace tqr::runtime {

class WorkStealDeque {
 public:
  /// Capacity is rounded up to a power of two; the deque holds at most
  /// `capacity` items and, as used by DagExecutor, at most `capacity` items
  /// are ever pushed over its lifetime (reset() rewinds for the next run).
  explicit WorkStealDeque(std::size_t capacity) {
    TQR_REQUIRE(capacity > 0, "WorkStealDeque needs capacity >= 1");
    std::size_t cap = 1;
    while (cap < capacity) cap <<= 1;
    mask_ = cap - 1;
    buffer_ = std::make_unique<std::atomic<std::int32_t>[]>(cap);
  }

  WorkStealDeque(const WorkStealDeque&) = delete;
  WorkStealDeque& operator=(const WorkStealDeque&) = delete;

  /// Owner only. False when full (caller spills elsewhere).
  bool push(std::int32_t t) {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t top = top_.load(std::memory_order_acquire);
    if (b - top > static_cast<std::int64_t>(mask_)) return false;
    buffer_[static_cast<std::size_t>(b) & mask_].store(
        t, std::memory_order_relaxed);
    // Release so a thief that observes the new bottom also observes the
    // element; seq_cst so the store is ordered against the owner's
    // subsequent top_ load in pop() (Dekker with steal()).
    bottom_.store(b + 1, std::memory_order_seq_cst);
    return true;
  }

  /// Owner only. False when empty.
  bool pop(std::int32_t& out) {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    bottom_.store(b, std::memory_order_seq_cst);  // reserve before reading top
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    if (t < b) {
      // More than one element: the reservation alone wins.
      out = buffer_[static_cast<std::size_t>(b) & mask_].load(
          std::memory_order_relaxed);
      return true;
    }
    bool won = false;
    if (t == b) {
      // Exactly one element: race thieves for it with the same CAS they use.
      won = top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                         std::memory_order_relaxed);
      if (won)
        out = buffer_[static_cast<std::size_t>(b) & mask_].load(
            std::memory_order_relaxed);
    }
    bottom_.store(b + 1, std::memory_order_seq_cst);  // restore the bottom
    return won;
  }

  /// Any thread. False when empty or when another thief (or the owner's
  /// last-element pop) won the race — callers treat both as "try elsewhere".
  bool steal(std::int32_t& out) {
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    const std::int64_t b = bottom_.load(std::memory_order_seq_cst);
    if (t >= b) return false;
    const std::int32_t v = buffer_[static_cast<std::size_t>(t) & mask_].load(
        std::memory_order_relaxed);
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed))
      return false;
    out = v;
    return true;
  }

  /// Racy size hint — only for "is there anything worth stealing" checks.
  bool maybe_nonempty() const {
    return bottom_.load(std::memory_order_acquire) >
           top_.load(std::memory_order_acquire);
  }

  /// Owner only, with no concurrent thieves (between runs): rewind so the
  /// next run reuses the buffer without wrapping.
  void reset() {
    bottom_.store(0, std::memory_order_relaxed);
    top_.store(0, std::memory_order_relaxed);
  }

 private:
  alignas(64) std::atomic<std::int64_t> top_{0};
  alignas(64) std::atomic<std::int64_t> bottom_{0};
  std::size_t mask_ = 0;
  std::unique_ptr<std::atomic<std::int32_t>[]> buffer_;
};

}  // namespace tqr::runtime

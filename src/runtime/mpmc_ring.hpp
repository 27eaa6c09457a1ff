// Bounded lock-free MPMC ring (sequence-stamped slots).
//
// The layout is the classic Vyukov bounded queue: every slot carries an
// atomic sequence number that encodes, relative to the producer/consumer
// tickets, whether the slot is empty, full, or mid-publication. A producer
// claims a ticket with one CAS on `enqueue_pos_`, writes the payload, then
// publishes by bumping the slot's sequence; a consumer mirrors the dance on
// `dequeue_pos_`. No mutex anywhere, so N producers and M consumers scale
// until the two ticket cache lines saturate — instead of serializing on one
// lock the way the old mutex+deque JobQueue did.
//
// Progress guarantee: lock-free, not wait-free — a CAS loser retries with
// bounded exponential backoff (`Backoff`), which is also what keeps the
// ticket lines from being hammered under heavy contention (the Synch
// framework's CAS/backoff idiom).
//
// Capacity is exact (not rounded to a power of two): admission control uses
// the queue bound as the service's backpressure point, so "capacity 64"
// must admit exactly 64. The modulo per access costs a few cycles against
// an uncontended CAS and nothing against a contended one.
//
// A pop that races a claimed-but-unpublished push reports "empty"; callers
// that need to distinguish "drained" from "a producer is mid-publish" (the
// close()-drains semantics of JobQueue) compare tickets via in_flight().
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include "common/error.hpp"

namespace tqr::runtime {

/// One CPU-relax hint; the body of every spin loop in the lock-free paths.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::this_thread::yield();
#endif
}

/// Bounded exponential backoff for CAS retry loops: spin 1, 2, 4, ... relax
/// hints up to a cap, then yield the timeslice. Resets per acquisition
/// attempt. `spun()` tells callers (queue stats) that contention happened.
class Backoff {
 public:
  void pause() {
    spun_ = true;
    if (spins_ <= kMaxSpins) {
      for (std::uint32_t i = 0; i < spins_; ++i) cpu_relax();
      spins_ <<= 1;
    } else {
      // Past the spin budget: stop burning the core. The caller decides
      // whether to keep retrying or to park on its eventcount.
      std::this_thread::yield();
    }
  }

  /// True once the spin budget is exhausted — the caller should park.
  bool exhausted() const { return spins_ > kMaxSpins; }
  bool spun() const { return spun_; }
  void reset() { spins_ = 1; }

 private:
  static constexpr std::uint32_t kMaxSpins = 1024;
  std::uint32_t spins_ = 1;
  bool spun_ = false;
};

template <typename T>
class MpmcRing {
 public:
  explicit MpmcRing(std::size_t capacity)
      : capacity_(capacity),
        // At least two physical cells: with a single cell the published state
        // of ticket n (seq == n + 1) is bit-identical to the free state of
        // ticket n + 1, so a second push would overwrite the unconsumed slot
        // and its popper would livelock waiting for a sequence that never
        // comes. The logical bound stays exact via the ticket-distance check
        // in try_push.
        phys_(capacity < 2 ? 2 : capacity),
        cells_(new Cell[phys_]) {
    TQR_REQUIRE(capacity > 0, "MpmcRing needs capacity >= 1");
    for (std::size_t i = 0; i < phys_; ++i)
      cells_[i].seq.store(i, std::memory_order_relaxed);
  }

  MpmcRing(const MpmcRing&) = delete;
  MpmcRing& operator=(const MpmcRing&) = delete;

  /// Claims a slot and publishes `v`. Returns false when full (the value is
  /// left intact so the caller still owns it, mirroring JobQueue::push's
  /// only-consumed-on-accept contract).
  bool try_push(T&& v) {
    Cell* cell;
    std::size_t pos = enqueue_pos_.load(std::memory_order_relaxed);
    Backoff backoff;
    for (;;) {
      // Exact admission bound. `pos` is the ticket the CAS below validates,
      // so a stale (low) dequeue_pos_ read can only under-admit, never let
      // occupancy exceed capacity. A stale `pos` can trail dequeue_pos_ once
      // consumers drain past it; the distance is then negative (not "full")
      // and the sequence check below reloads the ticket.
      const auto occupied = static_cast<std::intptr_t>(
          pos - dequeue_pos_.load(std::memory_order_acquire));
      if (occupied >= static_cast<std::intptr_t>(capacity_)) return false;
      cell = &cells_[pos % phys_];
      const std::size_t seq = cell->seq.load(std::memory_order_acquire);
      const std::intptr_t dif = static_cast<std::intptr_t>(seq) -
                                static_cast<std::intptr_t>(pos);
      if (dif == 0) {
        // Slot is free for ticket `pos`; claim it. A weak CAS is fine — a
        // spurious failure just reloads the ticket.
        if (enqueue_pos_.compare_exchange_weak(pos, pos + 1,
                                               std::memory_order_relaxed))
          break;
        backoff.pause();  // lost the ticket race
      } else if (dif < 0) {
        // Slot still holds the previous lap (its popper is mid-consume):
        // full from this producer's point of view.
        return false;
      } else {
        pos = enqueue_pos_.load(std::memory_order_relaxed);
      }
    }
    cell->value = std::move(v);
    // Publish: consumers of ticket `pos` wait for seq == pos + 1.
    cell->seq.store(pos + 1, std::memory_order_release);
    return true;
  }

  /// Pops the oldest published value. Returns nullopt when no slot is
  /// published — either truly empty or a producer is mid-publish (use
  /// in_flight() to tell the difference).
  std::optional<T> try_pop() {
    Cell* cell;
    std::size_t pos = dequeue_pos_.load(std::memory_order_relaxed);
    Backoff backoff;
    for (;;) {
      cell = &cells_[pos % phys_];
      const std::size_t seq = cell->seq.load(std::memory_order_acquire);
      const std::intptr_t dif = static_cast<std::intptr_t>(seq) -
                                static_cast<std::intptr_t>(pos + 1);
      if (dif == 0) {
        if (dequeue_pos_.compare_exchange_weak(pos, pos + 1,
                                               std::memory_order_relaxed))
          break;
        backoff.pause();
      } else if (dif < 0) {
        return std::nullopt;  // nothing published at this ticket yet
      } else {
        pos = dequeue_pos_.load(std::memory_order_relaxed);
      }
    }
    std::optional<T> out(std::move(cell->value));
    // Free the slot for the producer one physical lap ahead.
    cell->seq.store(pos + phys_, std::memory_order_release);
    return out;
  }

  std::size_t capacity() const { return capacity_; }

  /// Claimed-but-not-yet-consumed items (includes mid-publish slots).
  /// Approximate under concurrency; exact once producers and consumers are
  /// quiescent.
  std::size_t in_flight() const {
    const std::size_t tail = dequeue_pos_.load(std::memory_order_acquire);
    const std::size_t head = enqueue_pos_.load(std::memory_order_acquire);
    return head >= tail ? head - tail : 0;
  }

 private:
  struct Cell {
    std::atomic<std::size_t> seq;
    T value{};
  };

  // Tickets on their own cache lines so producers and consumers don't
  // false-share; the cells array false-shares adjacent slots by design
  // (padding every slot costs more memory than the sharing costs time for
  // the job-sized payloads this queue carries).
  alignas(64) std::atomic<std::size_t> enqueue_pos_{0};
  alignas(64) std::atomic<std::size_t> dequeue_pos_{0};
  const std::size_t capacity_;  // logical admission bound (exact)
  const std::size_t phys_;      // allocated cells (>= 2, >= capacity_)
  std::unique_ptr<Cell[]> cells_;
};

/// Eventcount: the futex-backed park/unpark fallback behind every bounded
/// spin in the lock-free hot paths (C++20 atomic wait == futex on Linux).
///
/// Protocol — waiter:
///   const std::uint32_t e = ec.prepare();   // BEFORE re-checking work
///   if (work available) continue;           // never parks with work queued
///   ec.wait(e);                             // sleeps unless epoch moved
/// Waker (after making work visible):
///   ec.notify_all();
///
/// Why no lost wakeup: the waker bumps the epoch with a release RMW *after*
/// publishing work. If the waiter's prepare() read the bumped epoch, the
/// acquire load synchronizes with the bump and the re-check must see the
/// work. If prepare() read the old epoch, the bump makes epoch != e and
/// wait(e) returns immediately. Either way the waiter cannot sleep through
/// a publication.
class EventCount {
 public:
  std::uint32_t prepare() const {
    return epoch_.load(std::memory_order_acquire);
  }

  void wait(std::uint32_t expected) const {
    epoch_.wait(expected, std::memory_order_acquire);
  }

  void notify_all() {
    epoch_.fetch_add(1, std::memory_order_release);
    epoch_.notify_all();
  }

 private:
  mutable std::atomic<std::uint32_t> epoch_{0};
};

}  // namespace tqr::runtime

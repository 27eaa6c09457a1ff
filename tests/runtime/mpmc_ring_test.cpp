// Stress and contract tests for the lock-free building blocks behind the
// service queue and the executor: the Vyukov MPMC ring, the backoff helper,
// and the eventcount. The thread-storm cases are the ones the TSan CI leg
// exists for — they encode the races (capacity-1 ping-pong, N x M storms,
// park-vs-publish) that broke or would break the naive formulations.
#include "runtime/mpmc_ring.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/error.hpp"

namespace tqr::runtime {
namespace {

TEST(MpmcRing, PushPopRoundTripPreservesFifo) {
  MpmcRing<int> ring(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.try_push(int{i}));
  for (int i = 0; i < 4; ++i) {
    auto v = ring.try_pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(ring.try_pop().has_value());
}

TEST(MpmcRing, CapacityIsExactNotRoundedToPowerOfTwo) {
  MpmcRing<int> ring(3);
  EXPECT_EQ(ring.capacity(), 3u);
  EXPECT_TRUE(ring.try_push(1));
  EXPECT_TRUE(ring.try_push(2));
  EXPECT_TRUE(ring.try_push(3));
  EXPECT_FALSE(ring.try_push(4));  // exactly 3 admitted
  EXPECT_EQ(ring.in_flight(), 3u);
}

TEST(MpmcRing, ZeroCapacityThrows) {
  EXPECT_THROW(MpmcRing<int>(0), InvalidArgument);
}

// The degenerate single-slot ring: the published sequence of ticket n equals
// the free sequence of ticket n + 1, so a ring that allocates exactly one
// physical cell lets a second push overwrite the unconsumed slot and then
// livelocks its popper. This pins the fix (>= 2 physical cells + an exact
// logical admission bound).
TEST(MpmcRing, CapacityOneRejectsSecondPushAndNeverOverwrites) {
  MpmcRing<int> ring(1);
  EXPECT_EQ(ring.capacity(), 1u);
  for (int lap = 0; lap < 100; ++lap) {
    EXPECT_TRUE(ring.try_push(int{lap}));
    EXPECT_FALSE(ring.try_push(int{-1}));  // full: must not overwrite
    EXPECT_EQ(ring.in_flight(), 1u);
    auto v = ring.try_pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, lap);
  }
  EXPECT_FALSE(ring.try_pop().has_value());
}

TEST(MpmcRing, FailedPushLeavesValueIntact) {
  MpmcRing<std::vector<int>> ring(1);
  ASSERT_TRUE(ring.try_push(std::vector<int>{1}));
  std::vector<int> mine{1, 2, 3};
  EXPECT_FALSE(ring.try_push(std::move(mine)));
  // The caller still owns a full-queue reject — the JobQueue contract.
  EXPECT_EQ(mine.size(), 3u);
}

TEST(MpmcRing, WrapsManyLaps) {
  MpmcRing<std::uint64_t> ring(3);
  std::uint64_t next_in = 0, next_out = 0;
  for (int lap = 0; lap < 1000; ++lap) {
    while (ring.try_push(std::uint64_t{next_in})) ++next_in;
    while (auto v = ring.try_pop()) {
      ASSERT_EQ(*v, next_out);
      ++next_out;
    }
  }
  EXPECT_EQ(next_in, next_out);
  EXPECT_EQ(ring.in_flight(), 0u);
}

// N producers x M consumers storm through a tiny ring: every pushed value
// must come out exactly once. Run under TSan/ASan this is the core
// correctness check for the claim/publish protocol.
TEST(MpmcRing, ManyProducersManyConsumersDeliverEverythingOnce) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 3;
  constexpr int kPerProducer = 2000;
  MpmcRing<std::uint32_t> ring(4);

  std::vector<std::atomic<int>> seen(kProducers * kPerProducer);
  std::atomic<int> consumed{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      Backoff backoff;
      for (int i = 0; i < kPerProducer; ++i) {
        const auto v = static_cast<std::uint32_t>(p * kPerProducer + i);
        while (!ring.try_push(std::uint32_t{v})) backoff.pause();
        backoff.reset();
      }
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      Backoff backoff;
      while (consumed.load(std::memory_order_acquire) <
             kProducers * kPerProducer) {
        if (auto v = ring.try_pop()) {
          seen[*v].fetch_add(1, std::memory_order_relaxed);
          consumed.fetch_add(1, std::memory_order_acq_rel);
          backoff.reset();
        } else {
          backoff.pause();
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& s : seen) EXPECT_EQ(s.load(), 1);
  EXPECT_EQ(ring.in_flight(), 0u);
}

// A ring sized to every value it will ever hold can never be full — the
// executor's device inboxes rely on this (an inbox holds each task at most
// once). A producer whose ticket read went stale while consumers drained
// past it must re-read the ticket, not report "full".
TEST(MpmcRing, PushIntoRingSizedForAllValuesNeverFails) {
  constexpr int kProducers = 6;
  constexpr int kConsumers = 6;
  constexpr int kPerProducer = 20000;
  constexpr int kTotal = kProducers * kPerProducer;
  MpmcRing<std::uint32_t> ring(kTotal);

  std::atomic<int> failed_pushes{0};
  std::atomic<int> consumed{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i)
        if (!ring.try_push(static_cast<std::uint32_t>(p * kPerProducer + i)))
          failed_pushes.fetch_add(1, std::memory_order_relaxed);
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      while (consumed.load(std::memory_order_acquire) +
                 failed_pushes.load(std::memory_order_acquire) <
             kTotal) {
        if (ring.try_pop()) consumed.fetch_add(1, std::memory_order_acq_rel);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failed_pushes.load(), 0);
  EXPECT_EQ(consumed.load(), kTotal);
}

TEST(Backoff, ExhaustsAfterBoundedSpins) {
  Backoff b;
  EXPECT_FALSE(b.exhausted());
  EXPECT_FALSE(b.spun());
  int pauses = 0;
  while (!b.exhausted()) {
    b.pause();
    ASSERT_LT(++pauses, 64) << "spin budget must be bounded";
  }
  EXPECT_TRUE(b.spun());
  b.reset();
  EXPECT_FALSE(b.exhausted());
}

// The park/publish race the eventcount protocol exists for: a waiter that
// prepared, re-checked, and decided to sleep must never sleep through a
// publication that happened after its prepare().
TEST(EventCount, WakeBetweenPrepareAndWaitIsNotLost) {
  EventCount ec;
  std::atomic<bool> work{false};
  const std::uint32_t e = ec.prepare();
  // Publish + notify after prepare(), before wait(): epoch moved, so wait()
  // must return immediately instead of sleeping forever.
  work.store(true, std::memory_order_release);
  ec.notify_all();
  ec.wait(e);
  EXPECT_TRUE(work.load());
}

TEST(EventCount, ParkedWaiterIsWokenByPublish) {
  EventCount ec;
  std::atomic<bool> work{false};
  std::thread waiter([&] {
    for (;;) {
      const std::uint32_t e = ec.prepare();
      if (work.load(std::memory_order_acquire)) return;
      ec.wait(e);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  work.store(true, std::memory_order_release);
  ec.notify_all();
  waiter.join();  // must terminate: either re-check saw work or wait woke
}

}  // namespace
}  // namespace tqr::runtime

// Cooperative cancellation of DagExecutor runs, plus the Trace reader-race
// regression. The concurrency tests here are the ones scripts/check.sh runs
// under ThreadSanitizer.
#include "runtime/cancel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "dag/tiled_qr_dag.hpp"
#include "runtime/dag_executor.hpp"
#include "runtime/trace.hpp"

namespace tqr::runtime {
namespace {

using dag::Task;
using dag::task_id;
using Builder = dag::TaskGraph::Builder;
using Mode = Builder::Mode;

dag::TaskGraph chain(int n) {
  Builder b(2, 2);
  for (int i = 0; i < n; ++i) {
    Task t;
    t.op = dag::Op::kGeqrt;
    t.k = static_cast<std::int16_t>(i);
    b.add_task(t, {{b.upper(0, 0), Mode::kReadWrite}});
  }
  return std::move(b).build();
}

TEST(CancelToken, LatchesOnceAndResets) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  token.request_cancel();
  EXPECT_TRUE(token.cancelled());
  token.request_cancel();  // idempotent
  EXPECT_TRUE(token.cancelled());
  token.reset();
  EXPECT_FALSE(token.cancelled());
}

TEST(CancelToken, WakerFiresOnCancelAndOnLateRegistration) {
  CancelToken token;
  std::atomic<int> fired{0};
  token.set_waker([&] { fired.fetch_add(1); });
  token.request_cancel();
  EXPECT_EQ(fired.load(), 1);
  token.request_cancel();  // second request: latch already set, no re-fire
  EXPECT_EQ(fired.load(), 1);

  // Registering a waker on an already-latched token must fire immediately —
  // the cancel-before-execute path depends on it.
  std::atomic<int> late{0};
  token.set_waker([&] { late.fetch_add(1); });
  EXPECT_EQ(late.load(), 1);
  token.clear_waker();
}

TEST(DagExecutorCancel, CancelBeforeExecuteThrowsAndRunsNothing) {
  DagExecutor::Options opts;
  opts.num_devices = 1;
  DagExecutor engine(opts);
  dag::TaskGraph g = chain(8);
  std::atomic<int> ran{0};
  CancelToken token;
  token.request_cancel();
  EXPECT_THROW(engine.execute(
                   g, [](task_id, const Task&) { return 0; },
                   [&](task_id, const Task&, int) { ran.fetch_add(1); },
                   nullptr, &token),
               Cancelled);
  EXPECT_EQ(ran.load(), 0);
  EXPECT_EQ(engine.runs_completed(), 0u);

  // The token is reusable after reset(), and the engine is unharmed.
  token.reset();
  engine.execute(
      g, [](task_id, const Task&) { return 0; },
      [&](task_id, const Task&, int) { ran.fetch_add(1); }, nullptr, &token);
  EXPECT_EQ(ran.load(), 8);
  EXPECT_EQ(engine.runs_completed(), 1u);
}

TEST(DagExecutorCancel, MidRunCancelAbortsPromptlyAndEngineStaysUsable) {
  constexpr int kTasks = 200;
  DagExecutor::Options opts;
  opts.threads_per_device = {2};
  DagExecutor engine(opts);
  dag::TaskGraph g = chain(kTasks);
  std::atomic<int> ran{0};
  CancelToken token;

  // Cancel from another thread once a few tasks have gone through; sleepy
  // kernels keep the run alive long enough for the signal to land mid-run.
  std::thread canceller([&] {
    while (ran.load() < 3)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    token.request_cancel();
  });
  bool cancelled_thrown = false;
  std::string what;
  try {
    engine.execute(
        g, [](task_id, const Task&) { return 0; },
        [&](task_id, const Task&, int) {
          ran.fetch_add(1);
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        },
        nullptr, &token);
  } catch (const Cancelled& e) {
    cancelled_thrown = true;
    what = e.what();
  }
  canceller.join();
  EXPECT_TRUE(cancelled_thrown);
  // Aborted at a task boundary: strictly partial progress, and the run never
  // counts as completed.
  EXPECT_GE(ran.load(), 3);
  EXPECT_LT(ran.load(), kTasks);
  EXPECT_EQ(engine.runs_completed(), 0u);
  EXPECT_NE(what.find("cancelled"), std::string::npos) << what;

  // The same engine (same resident worker threads) runs the next graph to
  // completion once the token is reset.
  token.reset();
  std::atomic<int> ran2{0};
  engine.execute(
      g, [](task_id, const Task&) { return 0; },
      [&](task_id, const Task&, int) { ran2.fetch_add(1); }, nullptr, &token);
  EXPECT_EQ(ran2.load(), kTasks);
  EXPECT_EQ(engine.runs_completed(), 1u);
}

TEST(DagExecutorCancel, CancelDuringLastKernelStillReportsCancelled) {
  // A cancel that latches while the final kernel is running wins: the run is
  // reported Cancelled (the deadline story — "too late" stays too late even
  // if the kernel happened to finish), and it never counts as completed.
  DagExecutor::Options opts;
  opts.num_devices = 1;
  DagExecutor engine(opts);
  dag::TaskGraph g = chain(4);
  std::atomic<int> ran{0};
  CancelToken token;
  EXPECT_THROW(engine.execute(
                   g, [](task_id, const Task&) { return 0; },
                   [&](task_id t, const Task&, int) {
                     ran.fetch_add(1);
                     if (t == 3) token.request_cancel();  // mid-last-kernel
                   },
                   nullptr, &token),
               Cancelled);
  EXPECT_EQ(ran.load(), 4);  // every kernel did run ...
  EXPECT_EQ(engine.runs_completed(), 0u);  // ... but the run is not "clean"
}

TEST(DagExecutorCancel, KernelFailureStillReportedAsOriginalError) {
  // A kernel exception must not be relabelled kCancelled even when a cancel
  // arrives while the failure is unwinding.
  DagExecutor::Options opts;
  opts.num_devices = 1;
  DagExecutor engine(opts);
  dag::TaskGraph g = chain(6);
  CancelToken token;
  EXPECT_THROW(engine.execute(
                   g, [](task_id, const Task&) { return 0; },
                   [&](task_id t, const Task&, int) {
                     if (t == 2) throw Error("kernel exploded");
                   },
                   nullptr, &token),
               Error);
  token.reset();
  std::atomic<int> ran{0};
  engine.execute(
      g, [](task_id, const Task&) { return 0; },
      [&](task_id, const Task&, int) { ran.fetch_add(1); }, nullptr, &token);
  EXPECT_EQ(ran.load(), 6);
}

dag::TaskGraph independent(int n) {
  Builder b(static_cast<std::int32_t>(n), 1);
  for (int i = 0; i < n; ++i) {
    Task t;
    t.op = dag::Op::kGeqrt;
    t.k = static_cast<std::int16_t>(i);
    b.add_task(t, {{b.upper(i, 0), Mode::kReadWrite}});
  }
  return std::move(b).build();
}

TEST(DagExecutorCancel, DroppedTasksAreAccountedInTraceAndCounters) {
  // The silent-drop bug this PR fixes: tasks a cancelled run never executed
  // used to vanish without a trace, so merged Perfetto timelines didn't
  // balance. Now every dispatched task is either a kTask span or a
  // kCancelled/kDrained instant, and the drop count surfaces through
  // ExecCounters. Eight independent seeds on one worker: the first kernel
  // latches the token, the other seven are still queued and must drain as
  // accounted drops.
  constexpr int kTasks = 8;
  ExecCounters counters;
  DagExecutor::Options opts;
  opts.num_devices = 1;
  opts.counters = &counters;
  DagExecutor engine(opts);
  dag::TaskGraph g = independent(kTasks);
  std::atomic<int> ran{0};
  CancelToken token;
  Trace trace;
  EXPECT_THROW(engine.execute(
                   g, [](task_id, const Task&) { return 0; },
                   [&](task_id, const Task&, int) {
                     if (ran.fetch_add(1) == 0) token.request_cancel();
                   },
                   &trace, &token),
               Cancelled);
  const int executed = ran.load();
  EXPECT_LT(executed, kTasks);

  const TraceSnapshot events = trace.events();
  int spans = 0, drops = 0;
  for (const TraceEvent& e : events) {
    if (e.kind == TraceEvent::Kind::kTask) ++spans;
    else ++drops;
  }
  // Every dispatched task is accounted exactly once: span or drop instant.
  EXPECT_EQ(spans, executed);
  EXPECT_EQ(spans + drops, kTasks);
  EXPECT_GE(drops, 1);
  EXPECT_EQ(counters.drained_tasks.load(), static_cast<std::uint64_t>(drops));
  // Drop instants are zero-duration and add no busy time.
  for (const TraceEvent& e : events) {
    if (e.kind != TraceEvent::Kind::kTask) {
      EXPECT_EQ(e.start_s, e.end_s);
    }
  }
}

TEST(DagExecutorCancel, CleanRunRecordsNoDropInstants) {
  // TraceRecordsEveryTask pins events().size() == graph size for clean runs;
  // this pins the complementary property explicitly — drop instants only
  // ever come from aborted/failed runs.
  ExecCounters counters;
  DagExecutor::Options opts;
  opts.num_devices = 1;
  opts.counters = &counters;
  DagExecutor engine(opts);
  dag::TaskGraph g = chain(16);
  Trace trace;
  engine.execute(
      g, [](task_id, const Task&) { return 0; },
      [](task_id, const Task&, int) {}, &trace);
  for (const TraceEvent& e : trace.events())
    EXPECT_EQ(e.kind, TraceEvent::Kind::kTask);
  EXPECT_EQ(counters.drained_tasks.load(), 0u);
  EXPECT_EQ(trace.events().size(), g.size());
}

TEST(TraceRace, ConcurrentReadersAndWritersAreSafe) {
  // Regression for the reader-side race: events()/busy_*/dump readers used
  // to walk events_ without the lock while record() could reallocate it.
  // Run writers and every reader concurrently; TSan (scripts/check.sh)
  // turns any relapse into a hard failure.
  Trace trace;
  constexpr int kEventsPerWriter = 4000;
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&, w] {
      TraceEvent e;
      e.device = w;
      e.op = dag::Op::kGeqrt;
      for (int i = 0; i < kEventsPerWriter; ++i) {
        e.task = i;
        e.start_s = i * 1e-3;
        e.end_s = e.start_s + 1e-3;
        trace.record(e);
      }
    });
  }
  // Read while the writers append: every reader must see a consistent
  // snapshot (never a half-grown vector).
  while (trace.size() < 2 * kEventsPerWriter) {
    const auto snapshot = trace.events();
    for (std::size_t i = 1; i < snapshot.size(); ++i)
      ASSERT_GE(snapshot[i].task, 0);
    (void)trace.busy_per_device(2);
    (void)trace.busy_per_step();
    (void)trace.to_csv();
    (void)trace.to_chrome_json();
  }
  for (auto& t : writers) t.join();
  EXPECT_EQ(trace.size(), 2u * kEventsPerWriter);
}

}  // namespace
}  // namespace tqr::runtime

#include "runtime/dag_executor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <thread>

#include "common/error.hpp"
#include "dag/tiled_qr_dag.hpp"

namespace tqr::runtime {
namespace {

using dag::Elimination;
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

/// The frozen Affinity argument; execute() never calls it.
int group0(task_id, const Task&) { return 0; }

/// Runs one graph on a fresh engine.
double run_once(const dag::TaskGraph& g, const DagExecutor::Kernel& kernel,
                const DagExecutor::Options& opts, Trace* trace = nullptr) {
  DagExecutor engine(opts);
  return engine.execute(g, group0, kernel, trace);
}

TEST(DagExecutor, ExecutesEveryTaskOnce) {
  dag::TaskGraph g = dag::build_tiled_qr_graph(4, 4, Elimination::kTs);
  std::vector<std::atomic<int>> ran(g.size());
  DagExecutor::Options opts;
  opts.threads_per_device = {4};
  run_once(g, [&](task_id t, const Task&, int) { ran[t].fetch_add(1); }, opts);
  for (std::size_t t = 0; t < g.size(); ++t) EXPECT_EQ(ran[t].load(), 1);
}

TEST(DagExecutor, RespectsDependenceOrder) {
  dag::TaskGraph g = dag::build_tiled_qr_graph(3, 3, Elimination::kTt);
  std::mutex m;
  std::vector<int> order(g.size(), -1);
  int clock = 0;
  DagExecutor::Options opts;
  opts.threads_per_device = {3};
  run_once(
      g,
      [&](task_id t, const Task&, int) {
        std::lock_guard<std::mutex> lock(m);
        order[t] = clock++;
      },
      opts);
  for (task_id t = 0; t < static_cast<task_id>(g.size()); ++t)
    for (auto it = g.predecessors_begin(t); it != g.predecessors_end(t); ++it)
      EXPECT_LT(order[*it], order[t]) << "task " << t << " ran before dep";
}

TEST(DagExecutor, ChainRunsSequentially) {
  dag::TaskGraph g = chain(20);
  std::vector<int> seen;
  run_once(g, [&](task_id t, const Task&, int) { seen.push_back(t); }, {});
  for (int i = 0; i < 20; ++i) EXPECT_EQ(seen[i], i);
}

TEST(DagExecutor, TraceRecordsEveryTask) {
  dag::TaskGraph g = dag::build_tiled_qr_graph(3, 3, Elimination::kTs);
  Trace trace;
  DagExecutor::Options opts;
  opts.threads_per_device = {2};
  run_once(g, [](task_id, const Task&, int) {}, opts, &trace);
  EXPECT_EQ(trace.events().size(), g.size());
  std::set<std::int32_t> ids;
  for (const auto& e : trace.events()) {
    ids.insert(e.task);
    EXPECT_GE(e.end_s, e.start_s);
  }
  EXPECT_EQ(ids.size(), g.size());
}

TEST(DagExecutor, PropagatesKernelExceptions) {
  dag::TaskGraph g = chain(5);
  EXPECT_THROW(run_once(
                   g,
                   [](task_id t, const Task&, int) {
                     if (t == 2) throw tqr::Error("boom");
                   },
                   {}),
               tqr::Error);
}

TEST(DagExecutor, EmptyGraphReturnsImmediately) {
  Builder b(1, 1);
  dag::TaskGraph g = std::move(b).build();
  const double secs = run_once(g, [](task_id, const Task&, int) {}, {});
  EXPECT_GE(secs, 0.0);
}

TEST(DagExecutor, InvalidOptionsRejected) {
  dag::TaskGraph g = chain(2);
  auto noop = [](task_id, const Task&, int) {};
  DagExecutor::Options opts;
  opts.num_devices = 0;
  EXPECT_THROW(run_once(g, noop, opts), tqr::InvalidArgument);
  opts.num_devices = 2;
  opts.threads_per_device = {1};  // size mismatch
  EXPECT_THROW(run_once(g, noop, opts), tqr::InvalidArgument);
  // One worker set only: a second group is rejected however it is spelled.
  opts.threads_per_device.clear();
  EXPECT_THROW(run_once(g, noop, opts), tqr::InvalidArgument);
  opts.num_devices = 1;
  opts.threads_per_device = {1, 1};
  EXPECT_THROW(run_once(g, noop, opts), tqr::InvalidArgument);
}

TEST(DagExecutorEngine, SuccessiveGraphsOnOneEngine) {
  DagExecutor::Options opts;
  opts.threads_per_device = {4};
  DagExecutor engine(opts);
  for (int round = 0; round < 4; ++round) {
    dag::TaskGraph g = dag::build_tiled_qr_graph(3 + round % 2, 3,
                                                 Elimination::kTt);
    std::vector<std::atomic<int>> ran(g.size());
    engine.execute(g, group0,
                   [&](task_id t, const Task&, int) { ran[t].fetch_add(1); });
    for (std::size_t t = 0; t < g.size(); ++t)
      EXPECT_EQ(ran[t].load(), 1) << "round " << round;
  }
  EXPECT_EQ(engine.runs_completed(), 4u);
}

TEST(DagExecutorEngine, ReusesTheSameThreads) {
  DagExecutor::Options opts;
  opts.num_devices = 1;
  opts.threads_per_device = {1};
  DagExecutor engine(opts);
  std::set<std::thread::id> ids;
  std::mutex m;
  for (int round = 0; round < 3; ++round) {
    dag::TaskGraph g = chain(4);
    engine.execute(
        g, [](task_id, const Task&) { return 0; },
        [&](task_id, const Task&, int) {
          std::lock_guard<std::mutex> lock(m);
          ids.insert(std::this_thread::get_id());
        });
  }
  // A resident engine must not respawn its workers between runs.
  EXPECT_EQ(ids.size(), 1u);
}

TEST(DagExecutorEngine, SurvivesKernelExceptionAndRunsAgain) {
  DagExecutor::Options opts;
  opts.num_devices = 1;
  DagExecutor engine(opts);
  dag::TaskGraph g = chain(5);
  EXPECT_THROW(engine.execute(
                   g, [](task_id, const Task&) { return 0; },
                   [](task_id t, const Task&, int) {
                     if (t == 2) throw tqr::Error("boom");
                   }),
               tqr::Error);
  // The engine stays usable after a failed run.
  std::atomic<int> ran{0};
  engine.execute(
      g, [](task_id, const Task&) { return 0; },
      [&](task_id, const Task&, int) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 5);
  EXPECT_EQ(engine.runs_completed(), 1u);  // failed run does not count
}

TEST(DagExecutorEngine, ConcurrentExecuteCallsSerialize) {
  DagExecutor::Options opts;
  opts.threads_per_device = {2};
  DagExecutor engine(opts);
  std::atomic<int> inside{0};
  std::atomic<bool> overlapped{false};
  auto body = [&] {
    dag::TaskGraph g = chain(8);
    engine.execute(
        g, [](task_id, const Task&) { return 0; },
        [&](task_id, const Task&, int) {
          if (inside.fetch_add(1) > 0) overlapped.store(true);
          std::this_thread::sleep_for(std::chrono::microseconds(100));
          inside.fetch_sub(1);
        });
  };
  std::thread a(body), b(body);
  a.join();
  b.join();
  // chain() serializes its own tasks, so any overlap means two runs were
  // live on the engine at once.
  EXPECT_FALSE(overlapped.load());
  EXPECT_EQ(engine.runs_completed(), 2u);
}

TEST(DagExecutorEngine, EmptyGraphNoOp) {
  DagExecutor::Options opts;
  opts.num_devices = 1;
  DagExecutor engine(opts);
  Builder b(1, 1);
  dag::TaskGraph g = std::move(b).build();
  const double secs = engine.execute(
      g, [](task_id, const Task&) { return 0; },
      [](task_id, const Task&, int) {});
  EXPECT_GE(secs, 0.0);
  EXPECT_EQ(engine.runs_completed(), 0u);
}

TEST(DagExecutorEngine, TracePerRunIsIndependent) {
  DagExecutor::Options opts;
  opts.num_devices = 1;
  DagExecutor engine(opts);
  Trace first, second;
  dag::TaskGraph g = chain(6);
  auto noop = [](task_id, const Task&, int) {};
  auto aff = [](task_id, const Task&) { return 0; };
  engine.execute(g, aff, noop, &first);
  engine.execute(g, aff, noop, &second);
  EXPECT_EQ(first.events().size(), 6u);
  EXPECT_EQ(second.events().size(), 6u);
}

TEST(DagExecutorEngine, PostTaskHookRunsOncePerTaskAfterKernel) {
  DagExecutor::Options opts;
  opts.threads_per_device = {4};
  DagExecutor engine(opts);
  dag::TaskGraph g = dag::build_tiled_qr_graph(4, 4, Elimination::kTt);
  std::vector<std::atomic<int>> kernel_ran(g.size());
  std::vector<std::atomic<int>> hook_ran(g.size());
  DagExecutor::Kernel hook = [&](task_id t, const Task&, int) {
    // Runs after the task's kernel (same worker thread, before successors
    // are released), so the kernel's effect is already visible.
    EXPECT_EQ(kernel_ran[t].load(), 1) << "hook before kernel for " << t;
    hook_ran[t].fetch_add(1);
  };
  engine.execute(
      g, group0,
      [&](task_id t, const Task&, int) { kernel_ran[t].fetch_add(1); },
      nullptr, nullptr, &hook);
  for (std::size_t t = 0; t < g.size(); ++t)
    EXPECT_EQ(hook_ran[t].load(), 1) << "task " << t;
}

TEST(DagExecutorEngine, ThrowingPostTaskHookFailsRunAndBlocksSuccessors) {
  // A verification hook that rejects a task's output must behave exactly
  // like a kernel exception: the run rethrows it, the poisoned task's
  // successors never execute, and the engine stays usable.
  DagExecutor::Options opts;
  opts.num_devices = 1;
  DagExecutor engine(opts);
  dag::TaskGraph g = chain(6);  // strict chain: successors of 2 are 3,4,5
  std::atomic<int> ran{0};
  DagExecutor::Kernel hook = [](task_id t, const Task&, int) {
    if (t == 2) throw tqr::VerificationError("bad tile");
  };
  EXPECT_THROW(engine.execute(
                   g, [](task_id, const Task&) { return 0; },
                   [&](task_id, const Task&, int) { ran.fetch_add(1); },
                   nullptr, nullptr, &hook),
               tqr::VerificationError);
  EXPECT_EQ(ran.load(), 3);  // tasks 0,1,2 ran; 3,4,5 never released
  ran.store(0);
  engine.execute(
      g, [](task_id, const Task&) { return 0; },
      [&](task_id, const Task&, int) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 6);  // engine healthy without the hook
}

TEST(DagExecutor, MultiWorkerGroupStealsAndExecutesEveryTaskOnce) {
  // Several workers share the ready tasks through the work-stealing deques.
  // Whatever mix of owner pops, inbox pops, and steals happens, every task
  // runs exactly once — and since every task is enqueued exactly once, the
  // counters must account for all of them: the seeds go through the inbox,
  // every released successor onto its releaser's deque.
  dag::TaskGraph g = dag::build_tiled_qr_graph(5, 5, Elimination::kTs);
  std::vector<std::atomic<int>> ran(g.size());
  ExecCounters counters;
  DagExecutor::Options opts;
  opts.num_devices = 1;
  opts.threads_per_device = {3};
  opts.counters = &counters;
  DagExecutor engine(opts);
  engine.execute(
      g, [](task_id, const Task&) { return 0; },
      [&](task_id t, const Task&, int) { ran[t].fetch_add(1); });
  for (std::size_t t = 0; t < g.size(); ++t) EXPECT_EQ(ran[t].load(), 1);
  EXPECT_EQ(counters.local_pushes.load() + counters.inbox_pushes.load(),
            g.size());
  std::uint64_t seeds = 0;
  for (task_id t = 0; t < static_cast<task_id>(g.size()); ++t)
    seeds += g.indegree(t) == 0;
  EXPECT_EQ(counters.inbox_pushes.load(), seeds);
  EXPECT_EQ(counters.drained_tasks.load(), 0u);
}

TEST(DagExecutorEngine, RepeatedRunsExerciseParkUnparkWithoutLostWakeups) {
  // Lost-wakeup regression against the futex park path: every run ends with
  // idle workers parking on the run's eventcount and the next run must
  // rouse them. Dozens of tiny back-to-back runs on a multi-worker engine
  // turn a missed notify into a hang (caught by the test timeout) instead
  // of a flake.
  ExecCounters counters;
  DagExecutor::Options opts;
  opts.threads_per_device = {4};
  opts.counters = &counters;
  DagExecutor engine(opts);
  dag::TaskGraph g = chain(10);
  for (int run = 0; run < 50; ++run) {
    std::atomic<int> ran{0};
    engine.execute(g, group0,
                   [&](task_id, const Task&, int) { ran.fetch_add(1); });
    ASSERT_EQ(ran.load(), 10);
  }
  EXPECT_EQ(engine.runs_completed(), 50u);
}

TEST(Trace, BusyAccounting) {
  Trace trace;
  trace.record({0, dag::Op::kGeqrt, 0, 0.0, 1.0});
  trace.record({1, dag::Op::kTsmqr, 1, 0.0, 2.0});
  trace.record({2, dag::Op::kTsmqr, 1, 2.0, 3.0});
  const auto busy = trace.busy_per_device(2);
  EXPECT_DOUBLE_EQ(busy[0], 1.0);
  EXPECT_DOUBLE_EQ(busy[1], 3.0);
  const auto steps = trace.busy_per_step();
  EXPECT_DOUBLE_EQ(steps[0], 1.0);  // T
  EXPECT_DOUBLE_EQ(steps[3], 3.0);  // UE
}

TEST(Trace, CsvContainsHeaderAndRows) {
  Trace trace;
  trace.record({0, dag::Op::kGeqrt, 0, 0.0, 1.0});
  const std::string csv = trace.to_csv();
  EXPECT_NE(csv.find("task,op,step,device"), std::string::npos);
  EXPECT_NE(csv.find("GEQRT"), std::string::npos);
}

}  // namespace
}  // namespace tqr::runtime

namespace tqr::runtime {
namespace {

TEST(DagExecutor, PanelPriorityServesLowestTaskIdFirst) {
  // One worker, all tasks made ready up front by using an edge-free graph:
  // the seeds stream through the FIFO inbox in ascending id order, so the
  // service order is lowest-task-id first.
  dag::TaskGraph::Builder b(4, 4);
  // Independent tasks on distinct tiles.
  for (int i = 0; i < 8; ++i) {
    dag::Task t;
    t.op = dag::Op::kGeqrt;
    t.k = static_cast<std::int16_t>(i);
    b.add_task(t, {{b.upper(i % 4, i / 4), dag::TaskGraph::Builder::Mode::kWrite}});
  }
  dag::TaskGraph g = std::move(b).build();

  std::vector<dag::task_id> order;
  std::mutex m;
  run_once(
      g,
      [&](dag::task_id t, const dag::Task&, int) {
        std::lock_guard<std::mutex> lock(m);
        order.push_back(t);
      },
      {});
  ASSERT_EQ(order.size(), 8u);
  for (std::size_t i = 1; i < order.size(); ++i)
    EXPECT_LT(order[i - 1], order[i]);
}

TEST(DagExecutor, PanelPriorityFactorizationStillCorrect) {
  // Lowest-id-first release order keeps dependence order. (The numerics
  // are covered by ScheduleInvariance; here we just check completion and
  // dependence order.)
  dag::TaskGraph g = dag::build_tiled_qr_graph(4, 4, dag::Elimination::kTt);
  std::vector<int> order(g.size(), -1);
  std::mutex m;
  int clock = 0;
  DagExecutor::Options opts;
  opts.threads_per_device = {4};
  run_once(
      g,
      [&](dag::task_id t, const dag::Task&, int) {
        std::lock_guard<std::mutex> lock(m);
        order[t] = clock++;
      },
      opts);
  for (dag::task_id t = 0; t < static_cast<dag::task_id>(g.size()); ++t)
    for (auto it = g.predecessors_begin(t); it != g.predecessors_end(t); ++it)
      EXPECT_LT(order[*it], order[t]);
}

}  // namespace
}  // namespace tqr::runtime

// Dependence-driven host execution of a TaskGraph.
//
// The PLASMA runtime model: one set of worker threads pulls ready tiles from
// one DAG. There is no manager thread; dependence bookkeeping lives in
// per-task atomic counters, and whichever worker finishes a task releases
// its successors onto its own work-stealing deque. The paper's CPU + GPU
// split (Alg. 2-4) is modeled by core::Plan and the sim:: discrete-event
// simulator, never by host threads pretending to be devices.
//
// A DagExecutor instance is a *resident engine*: its workers are spawned
// once at construction and reused by every execute() call, so a service
// that factors many matrices pays the thread start/stop cost once instead
// of per run (the amortization tqr::svc is built on).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "dag/graph.hpp"
#include "runtime/cancel.hpp"
#include "runtime/trace.hpp"

namespace tqr::runtime {

/// Scheduler-contention telemetry, aggregated across every run of every
/// engine pointed at one instance (the service shares one across its lanes).
/// All relaxed atomics — increments ride the dispatch hot path.
struct ExecCounters {
  /// Tasks a worker took from a sibling's deque instead of its own.
  std::atomic<std::uint64_t> steals{0};
  /// Times a worker exhausted its spin budget and parked on the futex.
  std::atomic<std::uint64_t> parks{0};
  /// Seed tasks (indegree 0) the execute() caller pushed through the
  /// shared inbox ring.
  std::atomic<std::uint64_t> inbox_pushes{0};
  /// Released successors the releasing worker kept on its own deque.
  std::atomic<std::uint64_t> local_pushes{0};
  /// Popped-then-dropped plus never-dispatched tasks accounted during an
  /// aborted or failed run's drain (see the `cancelled`/`drained` trace
  /// instants).
  std::atomic<std::uint64_t> drained_tasks{0};
};

class DagExecutor {
 public:
  /// Kept for the call shape existing callers spell; execute() never calls
  /// it (every task goes to the one worker set).
  using Affinity = std::function<int(dag::task_id, const dag::Task&)>;
  /// Executes the kernel for a task. The third argument is the worker-set
  /// index and is always 0.
  using Kernel = std::function<void(dag::task_id, const dag::Task&, int)>;

  struct Options {
    /// Must be 1: the engine has one worker set.
    int num_devices = 1;
    /// Worker count, as at most one entry (>= 1); empty means one worker.
    std::vector<int> threads_per_device;
    /// Optional shared telemetry sink (steal/park/drain counters). Must
    /// outlive the engine. May be shared between engines.
    ExecCounters* counters = nullptr;
  };

  /// Spawns the persistent workers. Throws InvalidArgument on bad options.
  explicit DagExecutor(const Options& options);
  /// Joins the workers. Must not race an in-flight execute().
  ~DagExecutor();

  DagExecutor(const DagExecutor&) = delete;
  DagExecutor& operator=(const DagExecutor&) = delete;

  /// Executes one graph to completion on the resident workers and returns
  /// wall-clock seconds. Rethrows the first kernel exception (after the
  /// workers have quiesced); the engine stays usable for the next
  /// execute() afterwards. Thread-safe: concurrent calls are serialized.
  ///
  /// `cancel` (optional) makes the run abortable: the token is checked at
  /// every task-dispatch boundary, and a latched token aborts the run — the
  /// per-run ready queues are dropped, workers quiesce, and execute() throws
  /// tqr::Cancelled (distinct from a kernel exception). A request that races
  /// the final task may still complete normally; a token latched before the
  /// call throws Cancelled without dispatching anything. The token must
  /// outlive the call and can be reused after reset(). The engine stays
  /// usable for the next execute() after a cancelled run.
  ///
  /// `post_task` (optional) runs in the worker thread immediately after each
  /// kernel, before the task's successors are released — the kernel-boundary
  /// hook result verification hangs off (a task's output tiles are still
  /// exclusively owned there, so scanning them races nothing). An exception
  /// from the hook is handled exactly like a kernel exception: the run
  /// drains, quiesces, and rethrows it, and the failed task's successors
  /// never run, so a detected-bad tile is never consumed downstream. Hook
  /// time is attributed to the task in traces.
  double execute(const dag::TaskGraph& graph, const Affinity& affinity,
                 const Kernel& kernel, Trace* trace = nullptr,
                 CancelToken* cancel = nullptr,
                 const Kernel* post_task = nullptr);

  /// Number of execute() calls that ran to completion (diagnostics).
  std::uint64_t runs_completed() const {
    return completed_.load(std::memory_order_acquire);
  }

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  std::atomic<std::uint64_t> completed_{0};
};

}  // namespace tqr::runtime

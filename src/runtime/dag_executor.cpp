#include "runtime/dag_executor.hpp"

#include <algorithm>
#include <exception>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "runtime/mpmc_ring.hpp"
#include "runtime/work_steal_deque.hpp"

namespace tqr::runtime {

namespace {

/// Shared state for one execute() call. Workers hold it via shared_ptr, so a
/// straggler that wakes after the run finished can still touch its own
/// bookkeeping safely; the caller-owned graph/affinity/kernel references are
/// only dereferenced while tasks remain, and execute() quiesces (waits for
/// workers_inside == 0) before returning.
///
/// Ready-task plumbing (the lock-free redesign): each worker thread owns a
/// Chase-Lev deque — it pushes tasks it releases for its own device at the
/// bottom and pops them LIFO (depth-first, cache-warm); idle siblings of the
/// same device steal from the top. Tasks released for *another* device (and
/// the seed tasks, pushed by the execute() caller) go through that device's
/// bounded MPMC inbox ring. A worker that finds all three sources empty
/// spins a bounded backoff, then parks on the device's futex-backed
/// EventCount; every push_ready bumps the target device's eventcount, so a
/// publication can never race a worker to sleep (see mpmc_ring.hpp for the
/// epoch argument). No mutex is taken anywhere on the dispatch path.
struct RunState {
  const dag::TaskGraph& graph;
  const DagExecutor::Affinity& affinity;
  const DagExecutor::Kernel& kernel;
  Trace* trace;
  CancelToken* cancel = nullptr;
  /// Post-kernel hook (result verification); failures are kernel failures.
  const DagExecutor::Kernel* post_task = nullptr;
  ExecCounters* counters = nullptr;

  std::uint64_t seq = 0;  // engine run sequence number

  std::vector<std::atomic<std::int32_t>> remaining;  // per-task deps left
  std::atomic<std::int64_t> tasks_left;

  /// Per-device-group scheduling state: the cross-thread inbox and the park
  /// point. Workers of the group are deques[w] for w in [first_worker,
  /// first_worker + num_workers).
  struct DeviceState {
    std::unique_ptr<MpmcRing<std::int32_t>> inbox;
    EventCount ec;
    int first_worker = 0;
    int num_workers = 0;
  };
  std::vector<DeviceState> devices;
  /// One work-stealing deque per worker thread, indexed by global worker id.
  std::vector<std::unique_ptr<WorkStealDeque>> deques;
  /// Global worker id -> device group (thief candidates are same-device).
  std::vector<int> device_of_worker;
  bool panel_priority = false;

  std::atomic<bool> failed{false};
  /// Set when a CancelToken aborted the run. Workers stop dispatching and
  /// stop releasing successors, so tasks_left never reaches zero and a
  /// cancelled run is reported as such, never as a completed one.
  std::atomic<bool> aborted{false};
  std::mutex error_mutex;
  std::exception_ptr error;

  /// Tasks dropped without executing (popped-then-cancelled, or left in the
  /// queues when an aborted/failed run drains). Keeps merged traces and
  /// ServiceStats balanced: executed + drained == dispatched.
  std::atomic<std::int64_t> drained{0};

  /// Workers currently inside worker(); execute() returns only once this is
  /// back to zero so caller-owned callbacks cannot be used after return.
  std::atomic<int> workers_inside{0};

  Timer clock;

  RunState(const dag::TaskGraph& g, const DagExecutor::Affinity& a,
           const DagExecutor::Kernel& k, Trace* t, int num_devices,
           const std::vector<int>& threads_per_device)
      : graph(g),
        affinity(a),
        kernel(k),
        trace(t),
        remaining(g.size()),
        tasks_left(static_cast<std::int64_t>(g.size())),
        devices(static_cast<std::size_t>(num_devices)) {
    // Inboxes sized to the whole graph: every task is enqueued at most once,
    // so a push can never find the ring full (asserted in push_ready).
    int wid = 0;
    for (int dev = 0; dev < num_devices; ++dev) {
      devices[static_cast<std::size_t>(dev)].inbox =
          std::make_unique<MpmcRing<std::int32_t>>(g.size());
      devices[static_cast<std::size_t>(dev)].first_worker = wid;
      devices[static_cast<std::size_t>(dev)].num_workers =
          threads_per_device[static_cast<std::size_t>(dev)];
      for (int s = 0; s < threads_per_device[static_cast<std::size_t>(dev)];
           ++s, ++wid) {
        deques.push_back(std::make_unique<WorkStealDeque>(g.size()));
        device_of_worker.push_back(dev);
      }
    }
  }

  /// Routes one ready task. `from_wid` is the releasing worker's global id
  /// (-1 when the execute() caller seeds the run): a task for the releasing
  /// worker's own device goes on its own deque (no shared state touched
  /// beyond the deque bottom), anything else through the target device's
  /// inbox ring.
  void push_ready(dag::task_id t, int from_wid) {
    enqueue(t, affinity(t, graph.task(t)), from_wid);
  }

  void enqueue(dag::task_id t, int dev, int from_wid) {
    TQR_ASSERT(dev >= 0 && dev < static_cast<int>(devices.size()),
               "affinity returned an out-of-range device");
    bool queued = false;
    if (from_wid >= 0 &&
        device_of_worker[static_cast<std::size_t>(from_wid)] == dev) {
      queued = deques[static_cast<std::size_t>(from_wid)]->push(
          static_cast<std::int32_t>(t));
      if (queued && counters)
        counters->local_pushes.fetch_add(1, std::memory_order_relaxed);
    }
    if (!queued) {
      const bool ok =
          devices[static_cast<std::size_t>(dev)].inbox->try_push(
              static_cast<std::int32_t>(t));
      TQR_ASSERT(ok, "device inbox overflow (task enqueued twice?)");
      if (counters)
        counters->inbox_pushes.fetch_add(1, std::memory_order_relaxed);
    }
    devices[static_cast<std::size_t>(dev)].ec.notify_all();
  }

  /// Wakes every worker parked on a device eventcount. The epoch bump in
  /// notify_all() orders after the flag stores that precede this call, so a
  /// worker either sees the flag on its re-check or gets an immediate
  /// wakeup — the futex analogue of the old empty-critical-section trick.
  void wake_all_queues() {
    for (auto& d : devices) d.ec.notify_all();
  }

  void record_failure(std::exception_ptr e) {
    {
      std::lock_guard<std::mutex> lock(error_mutex);
      if (!error) error = e;
    }
    failed.store(true, std::memory_order_release);
    wake_all_queues();
  }

  /// Latches the abort flag and unblocks everyone; idempotent.
  void abort_run() {
    if (aborted.exchange(true, std::memory_order_acq_rel)) return;
    wake_all_queues();
  }

  bool done() const { return tasks_left.load(std::memory_order_acquire) == 0; }

  bool stopping() const {
    return failed.load(std::memory_order_acquire) ||
           aborted.load(std::memory_order_acquire);
  }

  /// Accounts one task dropped without executing: a trace instant (so
  /// merged Perfetto timelines balance — every dispatched task is either a
  /// span or an instant) plus the drained counters.
  void note_dropped(dag::task_id t, int dev, int wid, TraceEvent::Kind kind) {
    drained.fetch_add(1, std::memory_order_relaxed);
    if (counters)
      counters->drained_tasks.fetch_add(1, std::memory_order_relaxed);
    if (trace) {
      TraceEvent ev;
      ev.task = t;
      ev.op = graph.task(t).op;
      ev.device = dev;
      ev.worker = wid;
      ev.start_s = ev.end_s = clock.seconds();
      ev.kind = kind;
      trace->record(ev);
    }
  }

  /// Empties every inbox and deque after the workers quiesced (abort/failure
  /// paths), accounting each leftover as kDrained. Caller must guarantee no
  /// worker is inside worker() — execute() runs this after the quiesce wait.
  void drain_leftovers() {
    for (std::size_t dev = 0; dev < devices.size(); ++dev)
      while (auto t = devices[dev].inbox->try_pop())
        note_dropped(*t, static_cast<int>(dev), -1,
                     TraceEvent::Kind::kDrained);
    for (std::size_t w = 0; w < deques.size(); ++w) {
      std::int32_t t;
      while (deques[w]->steal(t))
        note_dropped(t, device_of_worker[w], static_cast<int>(w),
                     TraceEvent::Kind::kDrained);
    }
  }

  /// One attempt to obtain a task for worker `wid`: own deque (LIFO), then
  /// the device inbox, then stealing from same-device siblings.
  bool try_get(int wid, const DeviceState& ds, std::int32_t& t) {
    if (deques[static_cast<std::size_t>(wid)]->pop(t)) return true;
    if (auto v = ds.inbox->try_pop()) {
      t = *v;
      return true;
    }
    for (int i = 1; i < ds.num_workers; ++i) {
      // Start at our right-hand neighbour so thieves spread instead of all
      // hammering worker 0's deque.
      const int other = ds.first_worker +
                        (wid - ds.first_worker + i) % ds.num_workers;
      if (deques[static_cast<std::size_t>(other)]->steal(t)) {
        if (counters) counters->steals.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
    }
    return false;
  }

  /// True when a re-check before parking sees anything dispatchable.
  bool maybe_has_work(int wid, const DeviceState& ds) const {
    if (ds.inbox->in_flight() != 0) return true;
    for (int i = 0; i < ds.num_workers; ++i)
      if (deques[static_cast<std::size_t>(ds.first_worker + i)]
              ->maybe_nonempty())
        return true;
    (void)wid;
    return false;
  }

  /// Serves device `dev`'s ready tasks until the run completes, fails, or
  /// aborts. `wid` is this thread's global worker id.
  void worker(int dev, int wid) {
    DeviceState& ds = devices[static_cast<std::size_t>(dev)];
    Backoff idle;
    for (;;) {
      if (stopping()) return;
      std::int32_t t = -1;
      if (!try_get(wid, ds, t)) {
        if (done()) return;
        if (!idle.exhausted()) {
          idle.pause();
          continue;
        }
        // Park. prepare() before the re-checks: any push_ready or flag
        // store that lands after them bumps the epoch and wait() returns
        // immediately, so no publication can be slept through.
        const std::uint32_t e = ds.ec.prepare();
        if (maybe_has_work(wid, ds) || done() || stopping()) continue;
        if (counters) counters->parks.fetch_add(1, std::memory_order_relaxed);
        ds.ec.wait(e);
        idle.reset();
        continue;
      }
      idle.reset();

      // Task-dispatch boundary: honor an external cancellation request
      // before starting the kernel. This task was already popped, so it is
      // accounted as dropped (trace instant + drained counter) instead of
      // vanishing between the queues and the kernel; whatever is still
      // queued is accounted when execute() drains the leftovers.
      if (cancel && cancel->cancelled()) {
        note_dropped(t, dev, wid, TraceEvent::Kind::kCancelled);
        abort_run();
        return;
      }

      const dag::Task& task = graph.task(t);
      TraceEvent ev;
      ev.task = t;
      ev.op = task.op;
      ev.device = dev;
      ev.worker = wid;
      ev.start_s = clock.seconds();
      try {
        kernel(t, task, dev);
        // Kernel boundary: verify this task's freshly-written tiles before
        // any successor can consume them. The hook throws to reject.
        if (post_task) (*post_task)(t, task, dev);
      } catch (...) {
        record_failure(std::current_exception());
        return;
      }
      ev.end_s = clock.seconds();
      if (trace) trace->record(ev);

      // A cancel that landed mid-kernel: stop here without releasing
      // successors, so a partially-executed run can never masquerade as a
      // completed one.
      if (aborted.load(std::memory_order_acquire) ||
          (cancel && cancel->cancelled())) {
        abort_run();
        return;
      }

      // Release successors. Collect the batch first so the panel-priority
      // hint can order simultaneously-released tasks: own-device tasks are
      // pushed bottom-first in *descending* id order (the LIFO pop then
      // dispatches ascending), cross-device tasks stream to inboxes in
      // ascending (FIFO) order.
      thread_local std::vector<dag::task_id> batch;
      batch.clear();
      for (auto it = graph.successors_begin(t); it != graph.successors_end(t);
           ++it) {
        if (remaining[*it].fetch_sub(1, std::memory_order_acq_rel) == 1)
          batch.push_back(*it);
      }
      if (panel_priority && batch.size() > 1)
        std::sort(batch.begin(), batch.end());
      // Cross-device tasks go out first, ascending — the FIFO inbox
      // dispatches them in push order. Own-device tasks are kept and then
      // pushed in *descending* order, so the owner's LIFO pop dispatches
      // them ascending too.
      std::size_t own = 0;
      for (dag::task_id s : batch) {
        const int sdev = affinity(s, graph.task(s));
        if (sdev == dev)
          batch[own++] = s;
        else
          enqueue(s, sdev, wid);
      }
      for (std::size_t i = own; i-- > 0;) enqueue(batch[i], dev, wid);
      if (tasks_left.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        // Last task: wake every device so idle workers can exit. Must go
        // through wake_all_queues() — its epoch bumps cannot race a worker
        // that read tasks_left just before this decrement and is about to
        // park.
        wake_all_queues();
      }
    }
  }
};

}  // namespace

struct DagExecutor::Impl {
  int num_devices = 1;
  bool panel_priority = false;
  std::vector<int> threads_per_device;
  ExecCounters* counters = nullptr;

  std::mutex mutex;                 // guards current/seq/stop
  std::condition_variable cv_run;   // workers wait here for a new run
  std::condition_variable cv_done;  // execute() waits here for completion
  std::shared_ptr<RunState> current;
  std::uint64_t seq = 0;
  std::uint64_t completed = 0;
  bool stop = false;

  std::mutex execute_mutex;  // serializes concurrent execute() callers
  std::vector<std::thread> threads;

  void thread_main(int dev, int wid) {
    std::uint64_t seen = 0;
    for (;;) {
      std::shared_ptr<RunState> run;
      {
        std::unique_lock<std::mutex> lock(mutex);
        cv_run.wait(lock, [&] {
          return stop || (current && current->seq > seen);
        });
        if (stop) return;
        run = current;
        seen = run->seq;
        run->workers_inside.fetch_add(1, std::memory_order_acq_rel);
      }
      run->worker(dev, wid);
      {
        // Under the engine mutex so execute()'s cv_done wait cannot miss the
        // final transition to workers_inside == 0. The worker's RunState
        // reference must also die inside this critical section (before the
        // mutex is released, hence before execute() can wake): execute()
        // then always holds the last reference, so per-run teardown — in
        // particular releasing the stored exception_ptr while the caller is
        // still inside a catch handler for that same exception — never runs
        // on a worker thread concurrently with the caller.
        std::lock_guard<std::mutex> lock(mutex);
        std::shared_ptr<RunState> last = std::move(run);
        last->workers_inside.fetch_sub(1, std::memory_order_acq_rel);
      }
      cv_done.notify_all();
    }
  }
};

DagExecutor::DagExecutor(const Options& options)
    : impl_(std::make_unique<Impl>()) {
  TQR_REQUIRE(options.num_devices > 0, "need at least one device group");
  std::vector<int> threads = options.threads_per_device;
  if (threads.empty()) threads.assign(options.num_devices, 1);
  TQR_REQUIRE(static_cast<int>(threads.size()) == options.num_devices,
              "threads_per_device size must equal num_devices");
  for (int n : threads)
    TQR_REQUIRE(n >= 1, "each device group needs at least one thread");

  impl_->num_devices = options.num_devices;
  impl_->panel_priority = options.panel_priority;
  impl_->threads_per_device = threads;
  impl_->counters = options.counters;
  int wid = 0;
  for (int dev = 0; dev < options.num_devices; ++dev)
    for (int s = 0; s < threads[dev]; ++s, ++wid)
      impl_->threads.emplace_back(
          [impl = impl_.get(), dev, wid] { impl->thread_main(dev, wid); });
}

DagExecutor::~DagExecutor() {
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->stop = true;
  }
  impl_->cv_run.notify_all();
  for (auto& th : impl_->threads) th.join();
}

int DagExecutor::num_devices() const { return impl_->num_devices; }

std::uint64_t DagExecutor::runs_completed() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->completed;
}

double DagExecutor::execute(const dag::TaskGraph& graph,
                            const Affinity& affinity, const Kernel& kernel,
                            Trace* trace, CancelToken* cancel,
                            const Kernel* post_task) {
  std::lock_guard<std::mutex> serialize(impl_->execute_mutex);
  if (graph.size() == 0) return 0.0;
  if (cancel && cancel->cancelled())
    throw Cancelled("run cancelled before dispatch");

  auto run = std::make_shared<RunState>(graph, affinity, kernel, trace,
                                        impl_->num_devices,
                                        impl_->threads_per_device);
  run->panel_priority = impl_->panel_priority;
  run->cancel = cancel;
  run->counters = impl_->counters;
  run->post_task = post_task && *post_task ? post_task : nullptr;
  for (dag::task_id t = 0; t < static_cast<dag::task_id>(graph.size()); ++t)
    run->remaining[t].store(graph.indegree(t), std::memory_order_relaxed);

  // Seed initially-ready tasks before publishing the run to the workers.
  // The caller is not a worker (from_wid = -1), so seeds stream through the
  // device inboxes in ascending task order — the panel-priority seed order.
  for (dag::task_id t = 0; t < static_cast<dag::task_id>(graph.size()); ++t)
    if (graph.indegree(t) == 0) run->push_ready(t, -1);
  run->clock.reset();

  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    run->seq = ++impl_->seq;
    impl_->current = run;
  }
  impl_->cv_run.notify_all();

  // A cancel request must rouse workers parked on empty queues *and* this
  // thread's completion wait; the waker holds the run alive via shared_ptr.
  if (cancel) {
    cancel->set_waker([run, impl = impl_.get()] {
      run->abort_run();
      { std::lock_guard<std::mutex> lock(impl->mutex); }
      impl->cv_done.notify_all();
    });
  }

  {
    std::unique_lock<std::mutex> lock(impl_->mutex);
    impl_->cv_done.wait(lock, [&] {
      return (run->done() || run->stopping()) &&
             run->workers_inside.load(std::memory_order_acquire) == 0;
    });
    impl_->current.reset();
    // Only clean, fully-executed runs count.
    if (!run->error && run->done()) ++impl_->completed;
  }
  if (cancel) cancel->clear_waker();  // blocks out in-flight waker calls
  const double secs = run->clock.seconds();
  // Aborted/failed runs leave ready tasks behind; account every one (trace
  // instants + drained counters) now that the workers have quiesced, so
  // dispatched == executed + drained holds for every run.
  if (run->stopping()) run->drain_leftovers();
  if (run->error) std::rethrow_exception(run->error);
  if (!run->done()) {
    TQR_ASSERT(run->aborted.load(std::memory_order_acquire),
               "executor stopped with tasks pending but no abort");
    throw Cancelled("run cancelled after " +
                    std::to_string(
                        graph.size() -
                        static_cast<std::size_t>(run->tasks_left.load())) +
                    " of " + std::to_string(graph.size()) + " tasks");
  }
  return secs;
}

double DagExecutor::run(const dag::TaskGraph& graph, const Affinity& affinity,
                        const Kernel& kernel, const Options& options) {
  DagExecutor engine(options);
  return engine.execute(graph, affinity, kernel, options.trace);
}

}  // namespace tqr::runtime

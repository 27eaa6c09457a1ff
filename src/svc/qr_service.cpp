#include "svc/qr_service.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>
#include <utility>

#include "common/error.hpp"
#include "core/batched_qr.hpp"
#include "core/tiled_qr.hpp"
#include "dag/task_accesses.hpp"
#include "la/blas.hpp"
#include "la/checks.hpp"
#include "runtime/dag_executor.hpp"

namespace tqr::svc {

namespace {

/// Sum of squares of rows [0, rows) of column j, accumulated in row order
/// one contiguous tile-column segment at a time.
double column_sumsq(const la::TiledMatrix<double>& t, la::index_t j,
                    la::index_t rows) {
  const la::index_t b = t.tile_size();
  double s = 0;
  for (la::index_t i0 = 0; i0 < rows; i0 += b) {
    const double* seg = t.column_segment(i0, j);
    const la::index_t n = std::min(b, rows - i0);
    for (la::index_t i = 0; i < n; ++i) s += seg[i] * seg[i];
  }
  return s;
}

la::index_t round_up(la::index_t n, la::index_t b) {
  return (n + b - 1) / b * b;
}

/// Workers in each lane's engine: one per hardware thread.
int host_workers() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

/// std::to_string renders small doubles as "0.000000"; verification
/// tolerances live around 1e-11, so failure messages use scientific form.
std::string sci(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3e", v);
  return buf;
}

/// A job whose input holds a non-finite value (after narrowing, for fp32):
/// terminal JobStatus::kInvalidInput, never retried, never held against the
/// lane.
class NonFiniteInput : public Error {
 public:
  explicit NonFiniteInput(const std::string& what) : Error(what) {}
};

/// Scalar Q replay against one batch member's extracted dense factor
/// (R upper / V lower, unit diagonal implied): c <- Q c. Verification-only;
/// O(m n) per column of c, so batching it buys nothing.
void batch_apply_q(const la::Matrix<double>& fac,
                   const la::AlignedVector<double>& tau,
                   la::Matrix<double>& c) {
  const la::index_t m = fac.rows();
  const la::index_t n = fac.cols();
  for (la::index_t k = n - 1; k >= 0; --k) {
    for (la::index_t j = 0; j < c.cols(); ++j) {
      double w = c(k, j);
      for (la::index_t i = k + 1; i < m; ++i) w += fac(i, k) * c(i, j);
      w *= tau[static_cast<std::size_t>(k)];
      c(k, j) -= w;
      for (la::index_t i = k + 1; i < m; ++i) c(i, j) -= w * fac(i, k);
    }
  }
}

}  // namespace

QrService::Metrics::Metrics(obs::Registry& r)
    : submitted(r.counter("jobs.submitted")),
      completed(r.counter("jobs.completed")),
      failed(r.counter("jobs.failed")),
      rejected(r.counter("jobs.rejected")),
      expired(r.counter("jobs.expired")),
      cancelled(r.counter("jobs.cancelled")),
      retried(r.counter("jobs.retried")),
      corrupted(r.counter("jobs.corrupted")),
      invalid_input(r.counter("jobs.invalid_input")),
      verify_failures(r.counter("verify.failures")),
      lane_quarantines(r.counter("lane.quarantines")),
      lane_probations(r.counter("lane.probations")),
      node_rejects(r.counter("node.rejects")),
      batched_jobs(r.counter("svc.batched_jobs")),
      batched_problems(r.counter("svc.batched_problems")),
      batch_occupancy(r.gauge("exec.batch_occupancy")),
      // 10 us .. 2 min covers a one-tile job through a deadline-length
      // stall; doubling edges give ~12% worst-case interpolation error.
      job_s(r.histogram("job.latency_s",
                        obs::exponential_bounds(1e-5, 120.0))),
      queue_s(r.histogram("job.queue_s",
                          obs::exponential_bounds(1e-5, 120.0))),
      exec_s(r.histogram("job.exec_s",
                         obs::exponential_bounds(1e-5, 120.0))) {}

/// Per-lane resident executor. With reuse_engines the engine (and its worker
/// threads) lives as long as the lane; otherwise one is built per job, paying
/// the per-run spawn cost for baseline comparisons.
struct QrService::LaneEngine {
  runtime::DagExecutor::Options options;
  std::unique_ptr<runtime::DagExecutor> resident;

  double execute(const dag::TaskGraph& graph,
                 const runtime::DagExecutor::Affinity& affinity,
                 const runtime::DagExecutor::Kernel& kernel,
                 runtime::Trace* trace, runtime::CancelToken* cancel,
                 const runtime::DagExecutor::Kernel* post_task) {
    if (resident)
      return resident->execute(graph, affinity, kernel, trace, cancel,
                               post_task);
    runtime::DagExecutor fresh(options);
    return fresh.execute(graph, affinity, kernel, trace, cancel, post_task);
  }
};

/// Per-job cancellation handle. The token is what the executor and the
/// kernel wrapper poll; `reason` records WHY it latched (first writer wins)
/// so the JobResult error text can distinguish caller cancels from deadline
/// expiry from shutdown.
struct QrService::JobControl {
  static constexpr int kUser = 1, kDeadline = 2, kShutdown = 3;

  runtime::CancelToken token;
  std::atomic<int> reason{0};
  /// Latched by the lane that pops the job; started() reads it.
  std::atomic<bool> picked{false};

  void request(int r) {
    int expected = 0;
    reason.compare_exchange_strong(expected, r);
    token.request_cancel();
  }

  const char* reason_text() const {
    switch (reason.load()) {
      case kUser: return "cancelled by caller";
      case kDeadline: return "exec deadline exceeded";
      case kShutdown: return "service shutdown";
      default: return "cancelled";
    }
  }
};

QrService::QrService(const ServiceConfig& config)
    : config_(config),
      queue_(config.queue_capacity, config.admission),
      plan_cache_(config.plan_cache_capacity),
      workspace_pool_(config.workspace_max_bytes),
      metrics_(registry_),
      exec_counters_(std::make_unique<runtime::ExecCounters>()) {
  TQR_REQUIRE(config.lanes > 0, "service needs at least one lane");
  TQR_REQUIRE(config.default_tile > 0, "default_tile must be >= 1");
  TQR_REQUIRE(config.quarantine_after >= 0,
              "quarantine_after must be >= 0");
  TQR_REQUIRE(config.probation_s >= 0, "probation_s must be >= 0");
  lane_health_.resize(static_cast<std::size_t>(config.lanes));
  if (config.fault.mode != FaultConfig::Mode::kNone)
    fault_ = std::make_unique<FaultInjector>(config.fault);
  if (config.node_fault.kind != NodeFaultConfig::Kind::kNone &&
      config.node_fault.kind != NodeFaultConfig::Kind::kFlakyLink)
    node_fault_ = std::make_unique<NodeFaultInjector>(config.node_fault);
  if (config.collect_trace) {
    trace_ = std::make_unique<obs::TraceLog>(config.trace_capacity);
    // Name the viewer tracks up front: pid trace_pid_base is the shared
    // queue (its rows are named as queue_row() opens them), one "process"
    // per lane with a lifecycle row plus one row per executor worker.
    // trace_label qualifies the names when several services (cluster nodes)
    // merge into one document.
    trace_->process_name(queue_pid(), config.trace_label + "svc queue");
    for (int lane = 0; lane < config.lanes; ++lane) {
      const int pid = lane_pid(lane);
      trace_->process_name(pid,
                           config.trace_label + "lane " + std::to_string(lane));
      trace_->thread_name(pid, 0, "jobs");
      for (int w = 0; w < host_workers(); ++w)
        trace_->thread_name(pid, 1 + w, "worker " + std::to_string(w));
    }
  }
  lanes_.reserve(static_cast<std::size_t>(config.lanes));
  for (int lane = 0; lane < config.lanes; ++lane)
    lanes_.emplace_back([this, lane] { lane_main(lane); });
}

QrService::~QrService() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
    if (config_.cancel_on_shutdown) {
      // Latch every outstanding token: queued jobs resolve kCancelled
      // without factoring, running jobs abort at the next task boundary.
      for (auto& [id, control] : controls_)
        control->request(JobControl::kShutdown);
    }
  }
  queue_.close();  // lanes drain accepted jobs, then exit
  for (auto& lane : lanes_) lane.join();
}

std::future<JobResult> QrService::submit(JobSpec spec,
                                         std::uint64_t* id_out) {
  // A crashed or reject-storming node bounces at the door: the job never
  // enters the queue, the future resolves immediately, and the caller (the
  // cluster's failover layer, a load generator) can route elsewhere.
  if (node_fault_ && node_fault_->rejecting(clock_.seconds())) {
    JobResult bounced;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_) throw Error("QrService::submit after shutdown");
      bounced.id = next_id_++;
      metrics_.submitted.inc();
    }
    if (id_out) *id_out = bounced.id;
    bounced.tag = spec.tag;
    bounced.rows = spec.a.rows();
    bounced.cols = spec.a.cols();
    bounced.status = JobStatus::kRejected;
    bounced.error = node_fault_->crashed(clock_.seconds())
                        ? "node down: injected crash"
                        : "node rejecting: injected reject storm";
    node_fault_->count_injection();
    metrics_.rejected.inc();
    metrics_.node_rejects.inc();
    std::promise<JobResult> promise;
    std::future<JobResult> future = promise.get_future();
    promise.set_value(std::move(bounced));
    return future;
  }

  PendingJob job;
  auto control = std::make_shared<JobControl>();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_) throw Error("QrService::submit after shutdown");
    job.id = next_id_++;
    metrics_.submitted.inc();
    ++in_flight_;
    // Registered before push so cancel(id) works the moment submit returns
    // (and even concurrently with a blocking push).
    controls_.emplace(job.id, control);
  }
  if (id_out) *id_out = job.id;
  job.spec = std::move(spec);
  job.submit_s = clock_.seconds();
  std::future<JobResult> future = job.promise.get_future();

  const PushResult admitted = queue_.push(std::move(job));
  if (trace_ && admitted == PushResult::kAccepted)
    trace_->counter("queue.depth", queue_pid(), clock_.seconds(), "depth",
                    static_cast<double>(queue_.depth()));
  if (admitted != PushResult::kAccepted) {
    // push() only consumes the job on acceptance, so `job` is intact here;
    // the job never reached a lane and the future resolves immediately.
    JobResult rejected;
    rejected.id = job.id;
    rejected.tag = job.spec.tag;
    rejected.rows = job.spec.a.rows();
    rejected.cols = job.spec.a.cols();
    rejected.status = JobStatus::kRejected;
    rejected.error = admitted == PushResult::kClosed
                         ? "service shutting down"
                         : "queue full (admission kReject)";
    metrics_.rejected.inc();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      controls_.erase(job.id);
    }
    job.promise.set_value(std::move(rejected));
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --in_flight_;
    }
    cv_drained_.notify_all();
  }
  return future;
}

bool QrService::cancel(std::uint64_t id) {
  std::shared_ptr<JobControl> control;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = controls_.find(id);
    if (it == controls_.end()) return false;
    control = it->second;
  }
  control->request(JobControl::kUser);
  return true;
}

std::size_t QrService::cancel_all() {
  std::vector<std::shared_ptr<JobControl>> outstanding;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    outstanding.reserve(controls_.size());
    for (auto& [id, control] : controls_) outstanding.push_back(control);
  }
  for (auto& control : outstanding) control->request(JobControl::kUser);
  return outstanding.size();
}

bool QrService::started(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = controls_.find(id);
  // An unknown id is a job that already resolved (or never existed); either
  // way it is past the point where cloning it elsewhere could double work.
  if (it == controls_.end()) return true;
  return it->second->picked.load(std::memory_order_relaxed);
}

void QrService::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_drained_.wait(lock, [this] { return in_flight_ == 0; });
}

void QrService::lane_main(int lane) {
  LaneEngine engine;
  engine.options.threads_per_device = {host_workers()};
  engine.options.counters = exec_counters_.get();
  if (config_.reuse_engines)
    engine.resident =
        std::make_unique<runtime::DagExecutor>(engine.options);

  for (;;) {
    // Circuit-breaker gate: a quarantined lane stops popping, so the shared
    // queue redistributes its jobs to healthy lanes. Returns false only at
    // shutdown (the surviving lanes drain the queue).
    if (!quarantine_gate(lane)) return;
    auto job = queue_.pop();
    if (!job) return;
    const std::uint64_t id = job->id;
    std::shared_ptr<JobControl> control;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      control = controls_.at(id);  // registered by submit, erased only here
    }
    control->picked.store(true, std::memory_order_relaxed);
    std::promise<JobResult> promise = std::move(job->promise);
    JobResult result = process(engine, lane, std::move(*job), *control);
    const JobStatus status = result.status;
    const double total_s = result.total_s;
    // Status counters and latency update BEFORE the promise resolves, so a
    // caller who observes a ready future sees consistent stats; in_flight_
    // drops AFTER, so drain() returning guarantees every future is ready.
    switch (status) {
      case JobStatus::kOk: metrics_.completed.inc(); break;
      case JobStatus::kFailed: metrics_.failed.inc(); break;
      case JobStatus::kExpired: metrics_.expired.inc(); break;
      case JobStatus::kRejected: metrics_.rejected.inc(); break;
      case JobStatus::kCancelled: metrics_.cancelled.inc(); break;
      case JobStatus::kCorrupted: metrics_.corrupted.inc(); break;
      case JobStatus::kInvalidInput: metrics_.invalid_input.inc(); break;
    }
    if (status == JobStatus::kOk) metrics_.job_s.observe(total_s);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (config_.quarantine_after > 0)
        update_lane_health_locked(lane, status);
      controls_.erase(id);
    }
    promise.set_value(std::move(result));
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --in_flight_;
    }
    cv_drained_.notify_all();
  }
}

bool QrService::quarantine_gate(int lane) {
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      LaneHealth& h = lane_health_[static_cast<std::size_t>(lane)];
      if (!h.quarantined) return true;
      if (closed_) return false;
      if (config_.probation_s > 0 && clock_.seconds() >= h.retry_at_s) {
        // Half-open: re-admit the lane for exactly one probation job; its
        // outcome decides between full re-admission and re-quarantine.
        h.quarantined = false;
        h.probation = true;
        metrics_.lane_probations.inc();
        if (trace_)
          trace_->instant("probation", "lane", lane_pid(lane), 0,
                          clock_.seconds());
        return true;
      }
    }
    // Polling slices keep the gate simple (no extra condition variable);
    // 2 ms of wake latency is noise against probation periods.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

void QrService::update_lane_health_locked(int lane, JobStatus status) {
  LaneHealth& h = lane_health_[static_cast<std::size_t>(lane)];
  // Only outcomes that indict the lane's execution count: cancellations and
  // expirations are the caller's (or the clock's) doing, and invalid input
  // the submitter's, not the hardware's.
  const bool bad =
      status == JobStatus::kFailed || status == JobStatus::kCorrupted;
  const bool was_probation = h.probation;
  h.probation = false;
  if (!bad) {
    h.consecutive_bad = 0;
    return;
  }
  ++h.consecutive_bad;
  // A failed probation job re-quarantines immediately; otherwise the streak
  // must reach the configured threshold.
  if (!was_probation && h.consecutive_bad < config_.quarantine_after) return;
  int active = 0;
  for (const LaneHealth& o : lane_health_)
    if (!o.quarantined) ++active;
  if (active <= 1) return;  // never quarantine the last active lane
  h.quarantined = true;
  h.consecutive_bad = 0;
  h.retry_at_s = clock_.seconds() + config_.probation_s;
  metrics_.lane_quarantines.inc();
  if (trace_)
    trace_->instant("quarantine", "lane", lane_pid(lane), 0,
                    clock_.seconds());
}

JobResult QrService::process(LaneEngine& engine, int lane, PendingJob job,
                             JobControl& control) {
  JobResult result;
  result.id = job.id;
  result.tag = job.spec.tag;
  result.lane = lane;
  if (job.spec.is_batch()) {
    result.rows = job.spec.batch.front().rows();
    result.cols = job.spec.batch.front().cols();
    result.problems = static_cast<int>(job.spec.batch.size());
  } else {
    result.rows = job.spec.a.rows();
    result.cols = job.spec.a.cols();
  }
  const double picked_up_s = clock_.seconds();
  result.queue_s = picked_up_s - job.submit_s;
  metrics_.queue_s.observe(result.queue_s);
  if (trace_) {
    // The job's time in the shared queue, on the queue track; the lifecycle
    // span on the lane track starts where this one ends.
    trace_->complete("queued", "queue", queue_pid(),
                     queue_row(job.submit_s, picked_up_s), job.submit_s,
                     result.queue_s,
                     obs::TraceArgs()
                         .add("job", static_cast<std::int64_t>(job.id))
                         .add("lane", static_cast<std::int64_t>(lane)));
    trace_->counter("queue.depth", queue_pid(), picked_up_s, "depth",
                    static_cast<double>(queue_.depth()));
  }
  // Everything from pickup to return below lands in the lifecycle span.
  struct SpanGuard {
    QrService* svc;
    const JobResult& result;
    std::uint64_t id;
    int lane;
    double start_s;
    ~SpanGuard() {
      if (!svc->trace_) return;
      svc->trace_->complete(
          "job " + std::to_string(id), to_string(result.status),
          svc->lane_pid(lane), 0, start_s, svc->clock_.seconds() - start_s,
          obs::TraceArgs()
              .add("job", static_cast<std::int64_t>(id))
              .add("status", to_string(result.status))
              .add("attempts", static_cast<std::int64_t>(result.attempts))
              .add("tile", static_cast<std::int64_t>(result.tile_size))
              .add("queue_s", result.queue_s));
    }
  } span_guard{this, result, job.id, lane, picked_up_s};

  if (job.spec.queue_deadline_s > 0 &&
      result.queue_s > job.spec.queue_deadline_s) {
    result.status = JobStatus::kExpired;
    result.total_s = clock_.seconds() - job.submit_s;
    return result;
  }
  if (control.token.cancelled()) {
    // Cancelled while queued: never factored.
    result.status = JobStatus::kCancelled;
    result.error = control.reason_text();
    result.total_s = clock_.seconds() - job.submit_s;
    return result;
  }
  if (node_fault_ && node_fault_->crashed(clock_.seconds())) {
    // Popped on a crashed node: fail fast without planning or factoring —
    // a down node loses its queue, it doesn't slowly chew through it. The
    // failure is permanent (no retry loop), so the owning cluster's
    // failover sees it as soon as possible.
    node_fault_->count_injection();
    result.status = JobStatus::kFailed;
    result.error = "node down: injected crash";
    result.total_s = clock_.seconds() - job.submit_s;
    return result;
  }

  if (job.spec.is_batch()) {
    // Batched jobs skip the retry loop: members never retry — a member that
    // fails its verify tier is quarantined alone (kCorrupted in
    // problem_status) while the rest of the batch stays valid, and a
    // whole-batch exception (bad spec) is terminal. The tail of the single
    // path must not run either: it clears result.r wholesale, whereas a
    // non-kOk batch keeps every member the per-problem statuses vouch for.
    result.attempts = 1;
    try {
      run_batch(job, picked_up_s, control, result);
    } catch (const Cancelled&) {
      result.status = JobStatus::kCancelled;
      result.error = control.reason_text();
    } catch (const std::exception& e) {
      // Spec validation or an engine failure poisons the whole batch: no
      // member result is trustworthy, so none are handed out.
      result.status = JobStatus::kFailed;
      result.error = e.what();
      result.batch_r.clear();
      result.problem_status.clear();
      result.problems_ok = 0;
    }
    result.total_s = clock_.seconds() - job.submit_s;
    return result;
  }

  const int max_attempts = std::max(1, job.spec.max_attempts);
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    result.attempts = attempt;
    try {
      run_attempt(engine, job, picked_up_s, control, result);
      result.status = JobStatus::kOk;
      result.error.clear();  // drop any earlier attempt's transient error
      break;
    } catch (const Cancelled&) {
      result.status = JobStatus::kCancelled;
      result.error = control.reason_text();
      break;
    } catch (const NonFiniteInput& e) {
      // The input, not the run, is at fault: every attempt would see it.
      result.status = JobStatus::kInvalidInput;
      result.error = e.what();
      break;
    } catch (const TransientError& e) {
      // VerificationError is a TransientError on purpose: silent corruption
      // is transient by nature (a re-run on healthy silicon comes back
      // clean), so detection flows through the same bounded retry/backoff
      // machinery as injected throws — but its *terminal* status is
      // kCorrupted, so exhausted retries are never reported as a generic
      // failure and never as silently-wrong success.
      const bool verification =
          dynamic_cast<const VerificationError*>(&e) != nullptr;
      result.error = e.what();
      if (verification) metrics_.verify_failures.inc();
      if (trace_)
        trace_->instant(verification ? "verify_fail" : "transient_fault",
                        "job", lane_pid(lane), 0, clock_.seconds(),
                        obs::TraceArgs()
                            .add("job", static_cast<std::int64_t>(job.id))
                            .add("attempt",
                                 static_cast<std::int64_t>(attempt))
                            .add("error", result.error));
      if (attempt == max_attempts) {
        result.status =
            verification ? JobStatus::kCorrupted : JobStatus::kFailed;
        break;
      }
      metrics_.retried.inc();
      if (trace_)
        trace_->instant("retry", "job", lane_pid(lane), 0, clock_.seconds(),
                        obs::TraceArgs().add(
                            "attempt", static_cast<std::int64_t>(attempt + 1)));
      // Backoff in token-aware slices; the exec deadline keeps running
      // during backoff, and lapsing flips the token so we exit kCancelled
      // instead of starting an attempt we already know must be abandoned.
      constexpr double kSliceS = 1e-3;
      double remaining = std::max(0.0, job.spec.retry_backoff_s);
      while (remaining > 0 && !control.token.cancelled()) {
        if (job.spec.exec_deadline_s > 0 &&
            clock_.seconds() - picked_up_s > job.spec.exec_deadline_s)
          control.request(JobControl::kDeadline);
        if (control.token.cancelled()) break;
        const double slice = std::min(remaining, kSliceS);
        std::this_thread::sleep_for(std::chrono::duration<double>(slice));
        remaining -= slice;
      }
      if (control.token.cancelled()) {
        result.status = JobStatus::kCancelled;
        result.error = control.reason_text();
        break;
      }
    } catch (const std::exception& e) {
      result.status = JobStatus::kFailed;
      result.error = e.what();
      break;
    }
  }
  // A non-kOk job must never hand out factors: a failed later attempt (or a
  // verification rejection raised after extraction) can leave a stale or
  // corrupt R from earlier in the loop.
  if (result.status != JobStatus::kOk) result.r = la::Matrix<double>();
  result.total_s = clock_.seconds() - job.submit_s;
  return result;
}

void QrService::run_attempt(LaneEngine& engine, const PendingJob& job,
                            double picked_up_s, JobControl& control,
                            JobResult& result) {
  const la::Matrix<double>& a = job.spec.a;
  TQR_REQUIRE(a.rows() > 0 && a.cols() > 0, "job matrix is empty");
  TQR_REQUIRE(a.rows() >= a.cols(), "tiled QR requires rows >= cols");
  const int b = job.spec.tile_size > 0 ? job.spec.tile_size
                                       : config_.default_tile;
  result.tile_size = b;
  result.precision = job.spec.precision;
  const bool fp32 = job.spec.precision == Precision::kFp32;
  const la::index_t pr = round_up(a.rows(), b);
  const la::index_t pc = round_up(a.cols(), b);

  // Task graph: cached per shape.
  const PlanKey key{pr, pc, b, job.spec.elim};
  const std::shared_ptr<const dag::TaskGraph> graph =
      config_.plan_cache_enabled
          ? plan_cache_.get_or_build(key, &result.plan_cache_hit)
          : std::make_shared<const dag::TaskGraph>(build_graph(key));

  // Workspace: recycled per shape. The RAII lease is what guarantees the
  // pool's `outstanding` returns to zero on EVERY exit from this attempt —
  // success, injected fault, or a cancellation unwinding through execute().
  // The scrub stays armed until the attempt finishes cleanly, so any
  // abnormal exit returns zero-filled storage to the pool: half-written or
  // poisoned factors can never leak into a later lease (including this same
  // job's retry).
  //
  // fp32 jobs factor in the lease's float planes and the factored planes
  // are widened back into its fp64 planes after execution. float -> double
  // is exact, so every downstream consumer — R extraction, the verification
  // replays — sees precisely the reflectors the fp32 kernels wrote, just
  // applied in fp64 arithmetic.
  const la::index_t ib = config_.inner_block;
  WorkspacePool::Lease ws = workspace_pool_.acquire(pr, pc, b, ib, fp32);
  ws.scrub_on_release(true);
  // Both packing passes report finiteness, so bad input is caught with no
  // extra pass and never reaches a kernel, where it would read as
  // corruption and indict a healthy lane.
  if (!la::load_padded(ws->a, a.view()))
    throw NonFiniteInput("invalid input: matrix holds NaN or Inf");
  if (fp32 && !la::convert(ws->a, ws->a32))
    throw NonFiniteInput("invalid input: matrix exceeds the fp32 range");

  const Verify verify = job.spec.verify;
  // Tier-1 baseline: orthogonal transforms preserve column 2-norms, so each
  // column of R must reproduce the matching column norm of the padded input.
  // Captured here, before the factorization overwrites the tiles; one O(m n)
  // pass, paid only when verification is on.
  std::vector<double> col_norm;
  double a_fro = 0;
  if (verify >= Verify::kScan) {
    col_norm.resize(static_cast<std::size_t>(pc));
    double fro2 = 0;
    for (la::index_t j = 0; j < pc; ++j) {
      const double col2 = column_sumsq(ws->a, j, pr);
      col_norm[static_cast<std::size_t>(j)] = std::sqrt(col2);
      fro2 += col2;
    }
    a_fro = std::sqrt(fro2);
  }

  // Execute the factorization graph on the lane engine's workers.
  // The kernel wrapper is the service's task-boundary hook: it enforces the
  // exec deadline (measured from lane pickup), short-circuits once the token
  // latched (the executor then aborts without releasing successors), and
  // runs fault injection ahead of the real tile kernel.
  const double deadline_s = job.spec.exec_deadline_s;
  const int lane = result.lane;

  // Tier-1 kernel-boundary scan, run by the executor in the worker thread
  // right after each kernel (and after any injected corruption), while the
  // task's written tiles are still exclusively owned — scanning them races
  // nothing, and a detection stops the run before any successor can consume
  // the bad tile. Cost: O(b^2) per written tile, a few percent of the O(b^3)
  // kernel it follows.
  const runtime::DagExecutor::Kernel scan_written_tiles =
      [&ws, fp32](dag::task_id t, const dag::Task& task, int) {
        dag::TileAccess acc[5];
        const int n_acc = dag::tile_accesses(task, acc);
        for (int idx = 0; idx < n_acc; ++idx) {
          if (!acc[idx].write) continue;
          bool ok;
          if (fp32) {
            const la::TiledMatrix<float>& plane =
                acc[idx].plane == dag::Plane::kA
                    ? ws->a32
                    : (acc[idx].plane == dag::Plane::kTg ? ws->tg32
                                                         : ws->te32);
            ok = la::all_finite<float>(plane.tile(acc[idx].i, acc[idx].j));
          } else {
            const la::TiledMatrix<double>& plane =
                acc[idx].plane == dag::Plane::kA
                    ? ws->a
                    : (acc[idx].plane == dag::Plane::kTg ? ws->tg : ws->te);
            ok = la::all_finite<double>(plane.tile(acc[idx].i, acc[idx].j));
          }
          if (!ok)
            throw VerificationError(
                "verification: non-finite value in output of " +
                dag::to_string(task) + " (task " + std::to_string(t) + ")");
        }
      };
  const bool corrupting =
      fault_ && fault_->config().mode == FaultConfig::Mode::kCorrupt;

  // Per-attempt task trace: the executor's timestamps are relative to this
  // run, so remember where the attempt started on the service clock.
  runtime::Trace task_trace;
  const double exec_start_s = clock_.seconds();
  Timer exec_clock;
  engine.execute(
      *graph, [](dag::task_id, const dag::Task&) { return 0; },
      [this, &ws, fp32, ib, &control, picked_up_s, deadline_s, lane,
       corrupting](dag::task_id t, const dag::Task& task, int) {
        auto past_deadline = [&] {
          return deadline_s > 0 &&
                 clock_.seconds() - picked_up_s > deadline_s;
        };
        if (past_deadline()) control.request(JobControl::kDeadline);
        if (control.token.cancelled()) return;  // aborting: skip the kernel
        if (fault_) {
          // Cap an injected stall at the time left on the deadline so a
          // stalled job goes kCancelled at the deadline, not stall_s later.
          const double cap =
              deadline_s > 0
                  ? std::max(0.0, deadline_s -
                                      (clock_.seconds() - picked_up_s))
                  : -1.0;
          fault_->maybe_inject(t, task, lane, &control.token, cap);
          if (past_deadline()) control.request(JobControl::kDeadline);
          if (control.token.cancelled()) return;
        }
        if (node_fault_ && node_fault_->crashed(clock_.seconds())) {
          // Node crash: in-flight jobs die at the next task boundary with a
          // permanent error (plain tqr::Error, not TransientError), so the
          // retry loop does not resurrect work on a dead node.
          node_fault_->count_injection();
          throw Error("node down: injected crash at " + dag::to_string(task));
        }
        const double task_start_s = clock_.seconds();
        if (fp32)
          core::execute_task<float>(task, ws->a32, ws->tg32, ws->te32, ib);
        else
          core::execute_task<double>(task, ws->a, ws->tg, ws->te, ib);
        const double brown =
            node_fault_ ? node_fault_->stall_factor(clock_.seconds()) : 1.0;
        if (brown > 1.0) {
          // Brownout: stretch the task to ~brown x its measured time by
          // sleeping the difference, in token-aware slices capped by the
          // time left on the exec deadline (same contract as injected
          // stalls: a browned-out job dies at the deadline, not later).
          node_fault_->count_injection();
          constexpr double kSliceS = 1e-4;
          double remaining =
              (clock_.seconds() - task_start_s) * (brown - 1.0);
          if (deadline_s > 0)
            remaining = std::min(
                remaining, std::max(0.0, deadline_s - (clock_.seconds() -
                                                       picked_up_s)));
          while (remaining > 0 && !control.token.cancelled()) {
            const double slice = std::min(remaining, kSliceS);
            std::this_thread::sleep_for(
                std::chrono::duration<double>(slice));
            remaining -= slice;
          }
        }
        if (corrupting) {
          // Silent-corruption injection: poison the task's primary output
          // tile *after* the kernel ran — exactly what flaky silicon does.
          // Nothing throws; only verification can tell.
          dag::TileAccess acc[5];
          const int n_acc = dag::tile_accesses(task, acc);
          for (int idx = 0; idx < n_acc; ++idx) {
            if (acc[idx].plane == dag::Plane::kA && acc[idx].write) {
              if (fp32)
                fault_->maybe_corrupt(t, task, lane,
                                      ws->a32.tile(acc[idx].i, acc[idx].j));
              else
                fault_->maybe_corrupt(t, task, lane,
                                      ws->a.tile(acc[idx].i, acc[idx].j));
              break;
            }
          }
        }
      },
      trace_ ? &task_trace : nullptr, &control.token,
      verify >= Verify::kScan ? &scan_written_tiles : nullptr);
  result.exec_s = exec_clock.seconds();
  metrics_.exec_s.observe(result.exec_s);
  if (fp32) {
    // Widen the factored planes back into the pooled workspace (exactly);
    // extraction and verification below run unchanged against the lease.
    la::convert(ws->a32, ws->a);
    la::convert(ws->tg32, ws->tg);
    la::convert(ws->te32, ws->te);
  }
  if (trace_)
    obs::append_task_events(*trace_, task_trace.events(), *graph, b,
                            lane_pid(lane), exec_start_s,
                            static_cast<int>(ib));

  // Extract the caller-shaped R (leading block; identity padding keeps it
  // equal to R of the unpadded matrix).
  result.r = la::upper_triangle(ws->a, a.cols());

  const double tol = fp32 ? la::verify_tolerance<float>(std::max(pr, pc))
                          : la::verify_tolerance<double>(std::max(pr, pc));
  if (verify >= Verify::kScan) {
    // End-of-job tier 1: column-norm drift of R against the input norms
    // captured above, normalized by ||A||_F (per-column normalization would
    // let a tiny column amplify rounding into a false positive). All
    // comparisons are written !(x <= tol) so a NaN that somehow survived the
    // per-task scans still fails.
    double worst = 0;
    for (la::index_t j = 0; j < pc; ++j) {
      const double col2 = column_sumsq(ws->a, j, std::min(j + 1, pr));
      worst = std::max(
          worst,
          std::abs(std::sqrt(col2) - col_norm[static_cast<std::size_t>(j)]));
    }
    const double drift = a_fro > 0 ? worst / a_fro : worst;
    if (!(drift <= tol))
      throw VerificationError("verification: column-norm drift " +
                              sci(drift) + " exceeds tolerance " + sci(tol));
  }

  if (verify == Verify::kProbe) {
    // Tier 2: push one random probe x through both sides of A = Q R. The
    // factorization's answer is z = Q ([R; 0] x), replaying the factor
    // tasks against a single column (O(m n) — about n x cheaper than the
    // full reconstruction); the reference A x comes straight from the
    // caller's matrix plus the identity pad. Seeded from (job, attempt), so
    // a flagged run can be replayed bit-for-bit and a retry never reuses a
    // probe direction.
    const std::uint64_t probe_seed =
        job.id * 0x9E3779B97F4A7C15ull +
        static_cast<std::uint64_t>(result.attempts);
    la::Matrix<double> x = la::probe_vector<double>(pc, probe_seed);
    la::Matrix<double> z(pr, 1);
    for (la::index_t i = 0; i < pc; ++i) {
      double s = 0;
      for (la::index_t j = i; j < pc; ++j) s += ws->a.at(i, j) * x(j, 0);
      z(i, 0) = s;
    }
    core::apply_q_tiles<double>(*graph, ws->a, ws->tg, ws->te, z.view(),
                                la::Trans::kNoTrans, config_.inner_block);
    la::Matrix<double> ax(pr, 1);
    for (la::index_t i = 0; i < a.rows(); ++i) {
      double s = 0;
      for (la::index_t j = 0; j < a.cols(); ++j) s += a(i, j) * x(j, 0);
      ax(i, 0) = s;
    }
    for (la::index_t d = 0; d + a.cols() < pc && d + a.rows() < pr; ++d)
      ax(a.rows() + d, 0) = x(a.cols() + d, 0);  // identity pad rows
    result.verify_residual = la::relative_error<double>(z.view(), ax.view());
    if (!(result.verify_residual <= tol))
      throw VerificationError("verification: probe residual " +
                              sci(result.verify_residual) +
                              " exceeds tolerance " + sci(tol));
  }

  if (job.spec.compute_residual || verify == Verify::kFull) {
    // ||A - Q R||_F / ||A||_F over the padded matrix: build [R; 0],
    // apply Q by replaying the factor tasks, subtract A.
    la::Matrix<double> qr(pr, pc);
    for (la::index_t j = 0; j < pc; ++j)
      for (la::index_t i = 0; i <= j && i < pr; ++i)
        qr(i, j) = ws->a.at(i, j);
    core::apply_q_tiles<double>(*graph, ws->a, ws->tg, ws->te, qr.view(),
                                la::Trans::kNoTrans, config_.inner_block);
    double diff2 = 0, norm2 = 0;
    for (la::index_t j = 0; j < pc; ++j) {
      for (la::index_t i = 0; i < pr; ++i) {
        const bool inside = i < a.rows() && j < a.cols();
        double aij = inside ? a(i, j) : 0.0;
        if (!inside && i - a.rows() == j - a.cols() && i >= a.rows())
          aij = 1.0;  // identity pad diagonal
        const double d = qr(i, j) - aij;
        diff2 += d * d;
        norm2 += aij * aij;
      }
    }
    result.residual = std::sqrt(diff2) / (norm2 > 0 ? std::sqrt(norm2) : 1);
    if (verify == Verify::kFull) {
      // Tier 3: the reconstruction residual itself is the verdict.
      result.verify_residual = result.residual;
      if (!(result.residual <= tol))
        throw VerificationError("verification: reconstruction residual " +
                                sci(result.residual) + " exceeds tolerance " +
                                sci(tol));
    }
  }

  // Clean finish: the recycled workspace only holds factors every enabled
  // check accepted, so it can be parked without the scrub pass.
  ws.scrub_on_release(false);
}

void QrService::run_batch(const PendingJob& job, double picked_up_s,
                          JobControl& control, JobResult& result) {
  const std::vector<la::Matrix<double>>& batch = job.spec.batch;
  TQR_REQUIRE(job.spec.a.rows() == 0 && job.spec.a.cols() == 0,
              "batched job must not also carry a single matrix");
  const la::index_t m = batch.front().rows();
  const la::index_t n = batch.front().cols();
  TQR_REQUIRE(m > 0 && n > 0, "batched job problems must be non-empty");
  TQR_REQUIRE(m >= n, "batched QR requires rows >= cols");
  for (const la::Matrix<double>& a : batch)
    TQR_REQUIRE(a.rows() == m && a.cols() == n,
                "batched job problems must share one shape");
  const la::index_t count = static_cast<la::index_t>(batch.size());
  const bool fp32 = job.spec.precision == Precision::kFp32;
  const int b = job.spec.tile_size > 0 ? job.spec.tile_size
                                       : config_.default_tile;
  result.tile_size = b;
  result.precision = job.spec.precision;
  result.problems = static_cast<int>(count);
  // Members start kCancelled: exactly the problems whose chunk completes
  // (and survives verification) are promoted below, so a mid-batch cancel
  // needs no status fixup for the un-reached tail.
  result.problem_status.assign(static_cast<std::size_t>(count),
                               JobStatus::kCancelled);
  result.batch_r.assign(static_cast<std::size_t>(count),
                        la::Matrix<double>());

  // One PlanCache touch per batch — the same (shape, tile, elim) key a
  // single job of this shape uses. The interleaved engine needs no
  // task graph, but resolving it here (a) makes plan_cache_hit mean
  // the same thing for both job kinds, (b) amortizes to one lookup per
  // *batch* where the loop-of-jobs baseline pays one per problem, and (c)
  // pre-warms the graph any same-shape single job (e.g. a caller
  // re-checking one member) would otherwise build.
  const la::index_t pr = round_up(m, b);
  const la::index_t pc = round_up(n, b);
  const PlanKey key{pr, pc, b, job.spec.elim};
  if (config_.plan_cache_enabled)
    plan_cache_.get_or_build(key, &result.plan_cache_hit);

  // One WorkspacePool lease per batch: pooled fp64 interleaved factor
  // storage. fp32 batches factor into transient float planes (unlike the
  // single path, whose lease carries its float planes) and widen back into
  // the lease, so extraction and verification below read fp64 either way.
  // The scrub stays armed until the batch finishes with every member
  // accounted for, same contract as the tiled lease.
  WorkspacePool::BatchLease ws = workspace_pool_.acquire_batch(m, n, count);
  ws.scrub_on_release(true);
  struct FloatBatch {
    la::BatchMatrix<float> vr, tau;
  };
  std::unique_ptr<FloatBatch> f32;
  if (fp32)
    f32 = std::make_unique<FloatBatch>(
        FloatBatch{la::BatchMatrix<float>(m, n, count),
                   la::BatchMatrix<float>(n, 1, count)});

  const double deadline_s = job.spec.exec_deadline_s;
  auto deadline_hit = [&] {
    return deadline_s > 0 && clock_.seconds() - picked_up_s > deadline_s;
  };

  // Factor chunk by chunk. The chunk boundary is the batch path's task
  // boundary: cancellation and the exec deadline are honored between
  // chunks, so a cancelled batch keeps every already-factored member and
  // abandons the rest at problem granularity. Loading happens per chunk
  // (members are scattered into their lanes, pad lanes zeroed so recycled
  // pool storage never feeds stale factors into the sweep).
  // A member with a non-finite input is marked kInvalidInput as it loads
  // and factors as a zero lane, so the rest of its chunk runs unaffected.
  Timer exec_clock;
  la::index_t done = 0;  // members whose chunk fully factored
  std::vector<bool> invalid(static_cast<std::size_t>(count), false);
  auto factor_chunks = [&](auto& vr, auto& tau) {
    using Plane = std::decay_t<decltype(vr)>;
    using T = std::decay_t<decltype(*vr.data())>;
    constexpr la::index_t width = Plane::kWidth;
    for (la::index_t c = 0; c < vr.chunks(); ++c) {
      if (deadline_hit()) control.request(JobControl::kDeadline);
      if (control.token.cancelled()) return;
      const la::index_t begin = c * width;
      const la::index_t end = std::min<la::index_t>(begin + width, count);
      for (la::index_t p = begin; p < end; ++p)
        if (!vr.load(p, batch[static_cast<std::size_t>(p)].view())) {
          invalid[static_cast<std::size_t>(p)] = true;
          vr.clear(p);
        }
      for (la::index_t p = end; p < begin + width; ++p) vr.clear(p);
      la::batch::qr_factor_chunk<T>(m, n, vr.chunk(c), tau.chunk(c));
      done = end;
    }
  };
  if (fp32)
    factor_chunks(f32->vr, f32->tau);
  else
    factor_chunks(ws->vr, ws->tau);
  result.exec_s = exec_clock.seconds();
  metrics_.exec_s.observe(result.exec_s);

  const la::index_t width =
      fp32 ? la::batch_width<float>() : la::batch_width<double>();
  const la::index_t chunks = (count + width - 1) / width;
  result.batch_occupancy =
      static_cast<double>(count) / static_cast<double>(chunks * width);
  metrics_.batch_occupancy.set(result.batch_occupancy);

  if (fp32) {
    // Widen the factored members into the pooled lease (float -> double is
    // exact): downstream consumers see precisely the factors the fp32
    // sweep wrote, applied in fp64 arithmetic, like the single fp32 path.
    for (la::index_t p = 0; p < done; ++p) {
      for (la::index_t j = 0; j < n; ++j)
        for (la::index_t i = 0; i < m; ++i)
          ws->vr.at(i, j, p) = static_cast<double>(f32->vr.at(i, j, p));
      for (la::index_t k = 0; k < n; ++k)
        ws->tau.at(k, 0, p) = static_cast<double>(f32->tau.at(k, 0, p));
    }
  }

  // Per-member epilogue: extract, optionally inject silent corruption,
  // verify, and promote. Verification and quarantine act on one member at
  // a time — a corrupted member costs exactly its own result.
  const Verify verify = job.spec.verify;
  const double tol = fp32 ? la::verify_tolerance<float>(std::max(m, n))
                          : la::verify_tolerance<double>(std::max(m, n));
  const bool corrupting =
      fault_ && fault_->config().mode == FaultConfig::Mode::kCorrupt;
  la::Matrix<double> fac(m, n);
  la::AlignedVector<double> tau_p(static_cast<std::size_t>(n));
  la::index_t bad = 0, rejected = 0;
  for (la::index_t p = 0; p < done; ++p) {
    if (invalid[static_cast<std::size_t>(p)]) {
      ++rejected;
      result.problem_status[static_cast<std::size_t>(p)] =
          JobStatus::kInvalidInput;
      continue;
    }
    ws->vr.extract(p, fac.view());
    for (la::index_t k = 0; k < n; ++k) tau_p[static_cast<std::size_t>(k)] =
        ws->tau.at(k, 0, p);
    if (corrupting) {
      // Member-granular SDC model: the injector sees one synthetic GEQRT
      // "task" per member (task id = member index), so FaultConfig::task
      // pins the corruption to a single problem and max_injections bounds
      // it. The poison lands in the member's extracted factors — upper
      // triangle, i.e. its R — exactly the data handed out below.
      const dag::Task task{dag::Op::kGeqrt, 0, 0, 0, -1};
      fault_->maybe_corrupt(static_cast<dag::task_id>(p), task, result.lane,
                            fac.view());
    }

    std::string fail;
    if (verify >= Verify::kScan && !la::all_finite<double>(fac.view()))
      fail = "non-finite value in factors";
    if (fail.empty() && verify >= Verify::kScan) {
      // Tier 1 per member: column norms of R must reproduce the member's
      // input column norms (orthogonal invariance), normalized by ||A||_F.
      const la::Matrix<double>& a = batch[static_cast<std::size_t>(p)];
      double fro2 = 0, worst = 0;
      for (la::index_t j = 0; j < n; ++j) {
        double col2 = 0, rcol2 = 0;
        for (la::index_t i = 0; i < m; ++i) {
          const double v = a(i, j);
          col2 += v * v;
        }
        for (la::index_t i = 0; i <= j; ++i) {
          const double v = fac(i, j);
          rcol2 += v * v;
        }
        worst = std::max(worst,
                         std::abs(std::sqrt(rcol2) - std::sqrt(col2)));
        fro2 += col2;
      }
      const double a_fro = std::sqrt(fro2);
      const double drift = a_fro > 0 ? worst / a_fro : worst;
      if (!(drift <= tol))
        fail = "column-norm drift " + sci(drift) + " exceeds tolerance " +
               sci(tol);
    }
    if (fail.empty() && verify == Verify::kProbe) {
      // Tier 2 per member: z = Q ([R; 0] x) by reflector replay vs A x.
      const std::uint64_t probe_seed =
          job.id * 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(p);
      la::Matrix<double> x = la::probe_vector<double>(n, probe_seed);
      la::Matrix<double> z(m, 1);
      for (la::index_t i = 0; i < n; ++i) {
        double s = 0;
        for (la::index_t j = i; j < n; ++j) s += fac(i, j) * x(j, 0);
        z(i, 0) = s;
      }
      batch_apply_q(fac, tau_p, z);
      const la::Matrix<double>& a = batch[static_cast<std::size_t>(p)];
      la::Matrix<double> ax(m, 1);
      for (la::index_t i = 0; i < m; ++i) {
        double s = 0;
        for (la::index_t j = 0; j < n; ++j) s += a(i, j) * x(j, 0);
        ax(i, 0) = s;
      }
      const double rel = la::relative_error<double>(z.view(), ax.view());
      result.verify_residual = std::max(result.verify_residual, rel);
      if (!(rel <= tol))
        fail = "probe residual " + sci(rel) + " exceeds tolerance " +
               sci(tol);
    }
    if (fail.empty() &&
        (verify == Verify::kFull || job.spec.compute_residual)) {
      // Tier 3 / report-only: ||A - Q R||_F / ||A||_F by full replay.
      la::Matrix<double> qr(m, n);
      for (la::index_t j = 0; j < n; ++j)
        for (la::index_t i = 0; i <= j; ++i) qr(i, j) = fac(i, j);
      batch_apply_q(fac, tau_p, qr);
      const la::Matrix<double>& a = batch[static_cast<std::size_t>(p)];
      double diff2 = 0, norm2 = 0;
      for (la::index_t j = 0; j < n; ++j)
        for (la::index_t i = 0; i < m; ++i) {
          const double d = qr(i, j) - a(i, j);
          diff2 += d * d;
          norm2 += a(i, j) * a(i, j);
        }
      const double rel =
          std::sqrt(diff2) / (norm2 > 0 ? std::sqrt(norm2) : 1);
      result.residual = std::max(result.residual, rel);
      if (verify == Verify::kFull) {
        result.verify_residual = std::max(result.verify_residual, rel);
        if (!(rel <= tol))
          fail = "reconstruction residual " + sci(rel) +
                 " exceeds tolerance " + sci(tol);
      }
    }

    if (!fail.empty()) {
      ++bad;
      result.problem_status[static_cast<std::size_t>(p)] =
          JobStatus::kCorrupted;
      metrics_.verify_failures.inc();
      if (trace_)
        trace_->instant("verify_fail", "job", lane_pid(result.lane), 0,
                        clock_.seconds(),
                        obs::TraceArgs()
                            .add("job", static_cast<std::int64_t>(job.id))
                            .add("problem", static_cast<std::int64_t>(p))
                            .add("error", fail));
    } else {
      result.problem_status[static_cast<std::size_t>(p)] = JobStatus::kOk;
      la::Matrix<double> r(n, n);
      for (la::index_t j = 0; j < n; ++j)
        for (la::index_t i = 0; i <= j; ++i) r(i, j) = fac(i, j);
      result.batch_r[static_cast<std::size_t>(p)] = std::move(r);
      ++result.problems_ok;
    }
  }

  // One terminal status for the whole batch; the per-member truth is
  // problem_status. Cancellation dominates (the caller asked for it), then
  // corruption (at least one member quarantined), then invalid input (at
  // least one member rejected unfactored), then clean.
  if (done < count) {
    result.status = JobStatus::kCancelled;
    result.error = control.reason_text();
  } else if (bad > 0) {
    result.status = JobStatus::kCorrupted;
    result.error = std::to_string(bad) + " of " + std::to_string(count) +
                   " problems failed verification";
  } else if (rejected > 0) {
    result.status = JobStatus::kInvalidInput;
    result.error = std::to_string(rejected) + " of " + std::to_string(count) +
                   " problems hold NaN or Inf";
  } else {
    result.status = JobStatus::kOk;
    // Every member verified clean, so the lease holds nothing a scrub
    // would need to hide. (A corrupted batch keeps the scrub armed: the
    // injected poison only ever touched the extracted copy, but the
    // conservative contract is cheap.)
    ws.scrub_on_release(false);
  }
  metrics_.batched_jobs.inc();
  metrics_.batched_problems.inc(
      static_cast<std::uint64_t>(result.problems_ok));
  if (trace_)
    trace_->instant("batch", "job", lane_pid(result.lane), 0,
                    clock_.seconds(),
                    obs::TraceArgs()
                        .add("job", static_cast<std::int64_t>(job.id))
                        .add("problems", static_cast<std::int64_t>(count))
                        .add("ok", static_cast<std::int64_t>(
                                       result.problems_ok))
                        .add("occupancy", result.batch_occupancy));
}

int QrService::queue_row(double submit_s, double picked_up_s) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t row = 0;
  while (row < queue_row_free_s_.size() && queue_row_free_s_[row] > submit_s)
    ++row;
  if (row == queue_row_free_s_.size()) {
    queue_row_free_s_.push_back(0);
    trace_->thread_name(queue_pid(), static_cast<int>(row), "queued jobs");
  }
  queue_row_free_s_[row] = picked_up_s;
  return static_cast<int>(row);
}

ServiceStats QrService::stats() const {
  ServiceStats s;
  s.jobs_submitted = metrics_.submitted.value();
  s.jobs_completed = metrics_.completed.value();
  s.jobs_failed = metrics_.failed.value();
  s.jobs_rejected = metrics_.rejected.value();
  s.jobs_expired = metrics_.expired.value();
  s.jobs_cancelled = metrics_.cancelled.value();
  s.jobs_retried = metrics_.retried.value();
  s.jobs_corrupted = metrics_.corrupted.value();
  s.jobs_invalid_input = metrics_.invalid_input.value();
  s.verify_failures = metrics_.verify_failures.value();
  s.lane_quarantines = metrics_.lane_quarantines.value();
  s.lane_probations = metrics_.lane_probations.value();
  s.batched_jobs = metrics_.batched_jobs.value();
  s.batched_problems = metrics_.batched_problems.value();
  s.batch_occupancy = metrics_.batch_occupancy.value();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const LaneHealth& h : lane_health_)
      if (h.quarantined) ++s.lanes_quarantined;
  }
  s.faults_injected = fault_ ? fault_->injected() : 0;
  s.node_faults_injected = node_fault_ ? node_fault_->injected() : 0;
  s.node_rejects = metrics_.node_rejects.value();
  s.node_down = node_fault_ && node_fault_->crashed(clock_.seconds());
  s.uptime_s = clock_.seconds();
  s.jobs_per_s = s.uptime_s > 0
                     ? static_cast<double>(s.jobs_completed) / s.uptime_s
                     : 0.0;
  const obs::Histogram::Snapshot lat = metrics_.job_s.snapshot();
  s.p50_ms = lat.quantile(0.50) * 1e3;
  s.p95_ms = lat.quantile(0.95) * 1e3;
  s.mean_ms = lat.mean() * 1e3;
  s.lanes = config_.lanes;
  s.exec_steals = exec_counters_->steals.load(std::memory_order_relaxed);
  s.exec_parks = exec_counters_->parks.load(std::memory_order_relaxed);
  s.exec_local_pushes =
      exec_counters_->local_pushes.load(std::memory_order_relaxed);
  s.exec_inbox_pushes =
      exec_counters_->inbox_pushes.load(std::memory_order_relaxed);
  s.tasks_drained =
      exec_counters_->drained_tasks.load(std::memory_order_relaxed);
  s.queue = queue_.stats();
  s.plan_cache = plan_cache_.stats();
  s.workspace = workspace_pool_.stats();
  return s;
}

obs::Registry::Snapshot QrService::metrics() const {
  obs::Registry::Snapshot s = registry_.snapshot();
  const ServiceStats st = stats();
  // Derived and externally-held state folded into the one exposition: the
  // queue, cache, and pool keep their own counters (they predate the
  // registry and are useful standalone), so the snapshot adopts them here.
  s.counters["faults.injected"] = st.faults_injected;
  s.counters["node.faults_injected"] = st.node_faults_injected;
  s.gauges["node.down"] = st.node_down ? 1.0 : 0.0;
  s.counters["queue.accepted"] = st.queue.accepted;
  s.counters["queue.rejected"] = st.queue.rejected;
  s.counters["queue.blocked_pushes"] = st.queue.blocked_pushes;
  s.counters["queue.closed_rejects"] = st.queue.closed_rejects;
  s.counters["queue.parks"] = st.queue.parks;
  s.counters["exec.steals"] = st.exec_steals;
  s.counters["exec.parks"] = st.exec_parks;
  s.counters["exec.local_pushes"] = st.exec_local_pushes;
  s.counters["exec.inbox_pushes"] = st.exec_inbox_pushes;
  s.counters["exec.tasks_drained"] = st.tasks_drained;
  s.counters["plan_cache.hits"] = st.plan_cache.hits;
  s.counters["plan_cache.misses"] = st.plan_cache.misses;
  s.counters["plan_cache.evictions"] = st.plan_cache.evictions;
  s.counters["workspace.allocated"] = st.workspace.allocated;
  s.counters["workspace.reused"] = st.workspace.reused;
  s.counters["workspace.dropped"] = st.workspace.dropped;
  s.counters["workspace.scrubbed"] = st.workspace.scrubbed;
  s.gauges["uptime_s"] = st.uptime_s;
  s.gauges["jobs_per_s"] = st.jobs_per_s;
  s.gauges["lanes"] = st.lanes;
  s.gauges["lanes.quarantined"] = st.lanes_quarantined;
  s.gauges["queue.depth"] = static_cast<double>(st.queue.depth);
  s.gauges["queue.high_water"] = static_cast<double>(st.queue.high_water);
  s.gauges["plan_cache.size"] = static_cast<double>(st.plan_cache.size);
  s.gauges["plan_cache.hit_rate"] = st.plan_cache.hit_rate();
  s.gauges["workspace.bytes_retained"] =
      static_cast<double>(st.workspace.bytes_retained);
  s.gauges["workspace.outstanding"] =
      static_cast<double>(st.workspace.outstanding);
  if (trace_) {
    s.gauges["trace.events"] = static_cast<double>(trace_->size());
    s.gauges["trace.dropped"] = static_cast<double>(trace_->dropped());
  }
  return s;
}

std::string QrService::trace_json() const {
  if (!trace_) return "{\"traceEvents\":[]}\n";
  return trace_->to_json();
}

}  // namespace tqr::svc

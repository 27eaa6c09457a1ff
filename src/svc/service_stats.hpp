// Aggregate service telemetry snapshot.
//
// The counters and latency percentiles behind this struct live in the
// service's obs::Registry (see src/obs/metrics.hpp); stats() materializes
// one consistent view. Kept as a plain struct so callers (tools, benches,
// tests) read fields instead of metric names.
#pragma once

#include <cstdint>

#include "svc/job_queue.hpp"
#include "svc/plan_cache.hpp"
#include "svc/workspace_pool.hpp"

namespace tqr::svc {

/// One consistent snapshot of everything the service tracks.
struct ServiceStats {
  std::uint64_t jobs_submitted = 0;
  std::uint64_t jobs_completed = 0;  // status kOk
  std::uint64_t jobs_failed = 0;
  std::uint64_t jobs_rejected = 0;
  std::uint64_t jobs_expired = 0;
  std::uint64_t jobs_cancelled = 0;  // caller cancel / exec deadline / shutdown
  std::uint64_t jobs_retried = 0;    // extra attempts after transient faults
  std::uint64_t faults_injected = 0; // delivered by the FaultInjector
  std::uint64_t jobs_corrupted = 0;  // every attempt failed verification
  std::uint64_t jobs_invalid_input = 0;  // non-finite input, never factored
  /// Verification rejections across attempts (a retried-then-clean job
  /// contributes here without contributing to jobs_corrupted).
  std::uint64_t verify_failures = 0;
  std::uint64_t lane_quarantines = 0;  // quarantine entries (lifetime)
  std::uint64_t lane_probations = 0;   // half-open re-admissions attempted
  int lanes_quarantined = 0;           // currently quarantined lanes

  /// Node-scoped fault injection (ServiceConfig::node_fault).
  std::uint64_t node_faults_injected = 0;  // delivered node-scale faults
  std::uint64_t node_rejects = 0;  // submissions bounced by crash/reject-storm
  bool node_down = false;          // a crash episode covers "now"

  /// Batched jobs (JobSpec::batch): whole batches run, members whose R
  /// came back valid, and the SIMD-lane fill of the most recent batch.
  std::uint64_t batched_jobs = 0;
  std::uint64_t batched_problems = 0;
  double batch_occupancy = 0;

  double uptime_s = 0;
  /// Completed jobs per second of uptime.
  double jobs_per_s = 0;

  /// Completed-job latency, interpolated from the registry's histogram.
  double p50_ms = 0;
  double p95_ms = 0;
  double mean_ms = 0;

  /// Scheduler contention telemetry from the work-stealing executors,
  /// aggregated across every lane engine (see runtime::ExecCounters).
  std::uint64_t exec_steals = 0;       // tasks taken from a sibling's deque
  std::uint64_t exec_parks = 0;        // spin budgets exhausted -> futex park
  std::uint64_t exec_local_pushes = 0; // ready tasks kept on the owner deque
  std::uint64_t exec_inbox_pushes = 0; // seed tasks through the inbox ring
  /// Tasks dropped without executing (cancel at a dispatch boundary or an
  /// aborted run's queue drain). Balances traces: executed + drained ==
  /// dispatched for every run.
  std::uint64_t tasks_drained = 0;

  int lanes = 0;
  JobQueue::Stats queue;
  PlanCache::Stats plan_cache;
  WorkspacePool::Stats workspace;
};

}  // namespace tqr::svc

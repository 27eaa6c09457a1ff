// Job vocabulary for the resident QR service.
//
// A job carries one matrix to factor plus per-job knobs; the result carries
// the R factor, timing breakdown, and provenance (which lane ran it, whether
// the plan came from cache). Jobs travel by value through the queue so a
// submitting thread keeps no aliases into service-owned storage.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dag/task.hpp"
#include "la/matrix.hpp"

namespace tqr::svc {

enum class JobStatus : std::uint8_t {
  kOk,         // factored; result fields valid
  kRejected,   // bounced by admission control (queue full, kReject policy)
  kExpired,    // queue deadline elapsed before a lane picked the job up
  kFailed,     // factorization threw; see error
  kCancelled,  // aborted mid-run: caller cancel, exec deadline, or shutdown
  kCorrupted,  // every attempt produced factors that failed verification
  kInvalidInput,  // the input holds NaN or Inf (or, for fp32, values beyond
                  // float range); rejected before factoring, never retried
};

inline const char* to_string(JobStatus s) {
  switch (s) {
    case JobStatus::kOk: return "ok";
    case JobStatus::kRejected: return "rejected";
    case JobStatus::kExpired: return "expired";
    case JobStatus::kFailed: return "failed";
    case JobStatus::kCancelled: return "cancelled";
    case JobStatus::kCorrupted: return "corrupted";
    case JobStatus::kInvalidInput: return "invalid_input";
  }
  return "?";
}

/// Result-verification tier, cheapest to strongest. Detection failures are
/// retryable (silent corruption is transient by nature — a re-run on healthy
/// hardware succeeds); a job whose every attempt fails verification
/// completes with kCorrupted and an empty R, never with silently-wrong data.
enum class Verify : std::uint8_t {
  kNone,   // tier 0: trust the kernels (free)
  kScan,   // tier 1: per-task NaN/Inf scan of written tiles at each kernel
           // boundary + end-of-job column-norm drift check (O(MT b^2) per
           // task / O(mn) per job — a few percent of factorization cost)
  kProbe,  // tier 2: kScan + randomized probe residual ||QRx - Ax||/||Ax||
           // (one Q application to a single vector: O(n^2), ~n x cheaper
           // than full reconstruction)
  kFull,   // tier 3: kScan + full reconstruction residual with threshold
           // enforcement (replays Q against the identity; ~2x job cost)
};

inline const char* to_string(Verify v) {
  switch (v) {
    case Verify::kNone: return "none";
    case Verify::kScan: return "scan";
    case Verify::kProbe: return "probe";
    case Verify::kFull: return "full";
  }
  return "?";
}

/// Parses "none" | "scan" | "probe" | "full"; throws InvalidArgument
/// otherwise.
Verify parse_verify(const std::string& name);

/// Arithmetic precision of the factorization itself. The service API stays
/// fp64 either way — input and the returned R are double — but under kFp32
/// the tile kernels run in single precision: half the tile bandwidth, and
/// the vectorized kernels get twice the SIMD lanes. Verification tiers
/// switch to the float tolerance, so the tier ladder keeps its zero-false-
/// positive / guaranteed-detection properties at the reduced precision.
/// For fp64-accurate solutions from an fp32 factorization see
/// core::qr_solve_mixed (fp32 factor + fp64 iterative refinement).
enum class Precision : std::uint8_t {
  kFp64,  // double-precision kernels (the default)
  kFp32,  // single-precision kernels; R returned rounded to double
};

inline const char* to_string(Precision p) {
  switch (p) {
    case Precision::kFp64: return "fp64";
    case Precision::kFp32: return "fp32";
  }
  return "?";
}

/// Parses "fp64" | "fp32" (also "double" | "single" | "float"); throws
/// InvalidArgument otherwise.
Precision parse_precision(const std::string& name);

struct JobSpec {
  /// Matrix to factor (rows >= cols; padded to the tile grid internally).
  la::Matrix<double> a;
  /// Tile size; 0 means the service default.
  int tile_size = 0;
  /// Elimination tree. TS by default: on a multicore host the flat tree
  /// already exposes enough parallelism, and its TS kernels take well under
  /// half the TT tree's kernel time on every grid with two or more tile
  /// columns (EXPERIMENTS.md has the measured crossover). Any explicit value
  /// runs exactly that tree.
  dag::Elimination elim = dag::Elimination::kTs;
  /// Max seconds the job may wait in the queue before a lane starts it;
  /// 0 disables the deadline. Expired jobs complete with kExpired and are
  /// never factored.
  double queue_deadline_s = 0;
  /// Max seconds of execution once a lane picks the job up (spans retries);
  /// 0 disables it. Enforced cooperatively at task-dispatch boundaries, so
  /// an overrunning job completes with kCancelled within the deadline plus
  /// one task granularity, and the lane stays healthy for the next job.
  double exec_deadline_s = 0;
  /// Total attempts for failures carrying tqr::TransientError (injected
  /// faults, flaky devices). 1 = no retry; permanent errors never retry.
  int max_attempts = 1;
  /// Sleep between attempts; interrupted early by cancellation.
  double retry_backoff_s = 0;
  /// Compute the reconstruction residual ||A - Q R||_F / ||A||_F (replays
  /// Q; roughly doubles the job's work). residual stays -1 otherwise.
  /// Report-only: never fails the job. Use `verify` to enforce.
  bool compute_residual = false;
  /// Result-verification tier; failures retry under max_attempts and
  /// exhaust to kCorrupted. See svc::Verify for the cost ladder.
  Verify verify = Verify::kNone;
  /// Kernel precision for this job (see svc::Precision).
  Precision precision = Precision::kFp64;
  /// Opaque caller tag, echoed in the result.
  std::uint64_t tag = 0;

  /// Batched job kind: N small matrices (one shared rows x cols shape,
  /// 8-64 typical) factored by the chunk-interleaved engine
  /// (core::BatchedQr) instead of the tiled DAG path. Non-empty `batch`
  /// makes this a batched job; `a` must then stay empty. The whole batch is
  /// one unit of service work — one queue slot, one PlanCache entry, one
  /// WorkspacePool lease, one queued→picked→done span set — while
  /// cancellation, verification, and corruption quarantine act at problem
  /// granularity (JobResult::problem_status). Batched jobs honor
  /// queue/exec deadlines, verify tiers, and precision; max_attempts is
  /// ignored (members never retry — a corrupted member quarantines alone).
  std::vector<la::Matrix<double>> batch;

  bool is_batch() const { return !batch.empty(); }
};

struct JobResult {
  std::uint64_t id = 0;   // service-assigned, dense from 1
  std::uint64_t tag = 0;  // echoed from the spec
  JobStatus status = JobStatus::kFailed;
  std::string error;  // set when status == kFailed / kCorrupted

  la::index_t rows = 0, cols = 0;  // original (unpadded) shape
  int tile_size = 0;
  Precision precision = Precision::kFp64;  // echoed from the spec

  /// Upper-triangular R factor, cols x cols (leading block of the padded
  /// factorization). Empty unless status == kOk.
  la::Matrix<double> r;
  /// ||A - Q R||_F / ||A||_F over the padded matrix; -1 if not requested.
  double residual = -1;
  /// Verification statistic from the last attempt (probe or full relative
  /// residual, depending on tier); -1 when verify < kProbe.
  double verify_residual = -1;

  double queue_s = 0;  // submit -> lane pickup
  double exec_s = 0;   // factorization (graph execution) only
  double total_s = 0;  // submit -> completion
  bool plan_cache_hit = false;
  int lane = -1;      // lane that ran the job
  int attempts = 0;   // execution attempts consumed (0 if never started)

  // --- batched jobs only (JobSpec::batch non-empty) ---
  /// Per-problem R factors, aligned with spec.batch. batch_r[p] is valid
  /// (cols x cols upper triangular) iff problem_status[p] == kOk — partial
  /// results survive a mid-batch cancel or a quarantined member.
  std::vector<la::Matrix<double>> batch_r;
  /// Per-problem terminal status: kOk, kCorrupted (that member failed its
  /// verify tier), kInvalidInput (its input holds NaN or Inf; never
  /// factored), or kCancelled (cancel/deadline hit before its chunk ran).
  std::vector<JobStatus> problem_status;
  int problems = 0;     // batch size (0 for single-matrix jobs)
  int problems_ok = 0;  // members whose R is valid
  /// problems / (chunks * lanes): SIMD-lane fill of the interleaved engine
  /// for this batch (1.0 when the batch size is a multiple of the width).
  double batch_occupancy = 0;
};

}  // namespace tqr::svc

// Task vocabulary for tiled QR.
//
// A Task names one tile-kernel invocation. The four paper steps map onto six
// kernels: triangulation T -> geqrt, elimination E -> tsqrt (flat/TS variant)
// or ttqrt (tree/TT variant), update-for-triangulation UT -> unmqr,
// update-for-elimination UE -> tsmqr / ttmqr.
#pragma once

#include <cstdint>
#include <string>

namespace tqr::dag {

enum class Op : std::uint8_t {
  kGeqrt,  // T : QR of tile (i, k)                       (i == k in TS mode)
  kUnmqr,  // UT: apply geqrt Q^T of (i, k) to tile (i, j)
  kTsqrt,  // E : eliminate square tile (i, k) into R of (p, k), p == k
  kTsmqr,  // UE: apply tsqrt Q^T of (i, k) to tiles (p, j), (i, j)
  kTtqrt,  // E : eliminate triangular tile (i, k) into R of (p, k)
  kTtmqr,  // UE: apply ttqrt Q^T of (i, k) to tiles (p, j), (i, j)
  // Tiled Cholesky (the second factorization scheduled by the same
  // framework; the paper's step classes generalize: panel work vs updates).
  kPotrf,  // T : Cholesky of diagonal tile (k, k)
  kTrsm,   // E : panel solve, tile (i, k) against L of (k, k)
  kSyrk,   // UE: rank-b update of diagonal tile (i, i) from (i, k)
  kGemm,   // UE: update of tile (i, j) from (i, k) x (j, k)^T
};

/// The paper's four steps; used for per-step accounting and device routing.
enum class Step : std::uint8_t {
  kTriangulation,        // T
  kElimination,          // E
  kUpdateTriangulation,  // UT
  kUpdateElimination,    // UE
};

inline Step step_of(Op op) {
  switch (op) {
    case Op::kGeqrt:
    case Op::kPotrf:
      return Step::kTriangulation;
    case Op::kUnmqr:
      return Step::kUpdateTriangulation;
    case Op::kTsqrt:
    case Op::kTtqrt:
    case Op::kTrsm:
      return Step::kElimination;
    case Op::kTsmqr:
    case Op::kTtmqr:
    case Op::kSyrk:
    case Op::kGemm:
      return Step::kUpdateElimination;
  }
  return Step::kTriangulation;
}

inline const char* op_name(Op op) {
  switch (op) {
    case Op::kGeqrt:
      return "GEQRT";
    case Op::kUnmqr:
      return "UNMQR";
    case Op::kTsqrt:
      return "TSQRT";
    case Op::kTsmqr:
      return "TSMQR";
    case Op::kTtqrt:
      return "TTQRT";
    case Op::kTtmqr:
      return "TTMQR";
    case Op::kPotrf:
      return "POTRF";
    case Op::kTrsm:
      return "TRSM";
    case Op::kSyrk:
      return "SYRK";
    case Op::kGemm:
      return "GEMM";
  }
  return "?";
}

inline const char* step_name(Step s) {
  switch (s) {
    case Step::kTriangulation:
      return "T";
    case Step::kElimination:
      return "E";
    case Step::kUpdateTriangulation:
      return "UT";
    case Step::kUpdateElimination:
      return "UE";
  }
  return "?";
}

/// One kernel invocation on tile coordinates. Kept compact (10 bytes):
/// graphs for large simulations hold millions of these.
///   k : panel (elimination column)
///   i : the row tile the kernel factors/eliminates/applies from
///   p : partner (surviving) row for E/UE kernels; == k in TS mode
///   j : target column for update kernels; -1 otherwise
struct Task {
  Op op;
  std::int16_t k = 0;
  std::int16_t i = 0;
  std::int16_t p = 0;
  std::int16_t j = -1;
};

static_assert(sizeof(Task) <= 12, "Task must stay compact");

inline std::string to_string(const Task& t) {
  std::string s = op_name(t.op);
  s += "(k=" + std::to_string(t.k) + ",i=" + std::to_string(t.i);
  if (t.op != Op::kGeqrt && t.op != Op::kUnmqr)
    s += ",p=" + std::to_string(t.p);
  if (t.j >= 0) s += ",j=" + std::to_string(t.j);
  s += ")";
  return s;
}

/// Elimination strategy:
///   kTs     - flat reduction against the panel diagonal with TS kernels
///             (PLASMA default; minimal kernel count, O(M) chain) — the
///             default of every path that executes on the host (svc::JobSpec,
///             core::TiledQrFactorization, tqr factor/solve/serve): the TS
///             kernels do the least work, and a multicore host already finds
///             enough parallelism in the flat tree
///   kTt     - binary tree of triangle-on-triangle combines (the paper's
///             Table I bookkeeping; O(log M) chain) — the default of the
///             paths that model the paper's CPU + 3-GPU node (core::PlanConfig,
///             core/autotune, tqr simulate/plan, the ablation and cluster
///             simulations), where it shortens the main device's chain
///   kTtFlat - every tile triangulated, then folded sequentially into the
///             diagonal with TT kernels (cheap combines, O(M) chain;
///             locality-friendly middle ground)
///   kHier   - hierarchical TSQR (arXiv:1110.1553): rows split into
///             contiguous groups (one per cluster node), flat TT fold
///             inside each group, then a binary TT tree across the group
///             heads — so only O(log G) combines cross the network
enum class Elimination : std::uint8_t { kTs, kTt, kTtFlat, kHier };

inline const char* elimination_name(Elimination e) {
  switch (e) {
    case Elimination::kTs:
      return "TS";
    case Elimination::kTt:
      return "TT";
    case Elimination::kTtFlat:
      return "TT-flat";
    case Elimination::kHier:
      return "Hier";
  }
  return "?";
}

/// True when the strategy triangulates every panel tile and eliminates with
/// triangle-on-triangle kernels.
inline bool uses_tt_kernels(Elimination e) { return e != Elimination::kTs; }

}  // namespace tqr::dag

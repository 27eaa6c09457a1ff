// Tiled QR factorization driver — the library's main functional entry point.
//
// TiledQrFactorization<T> owns the factored tile storage (the matrix tiles
// plus the two compact block-reflector planes, one nb x b factor per tile)
// and the task graph that produced it, so Q can be re-applied by replaying
// the factor tasks. factor() replays the graph sequentially in task order.
// Parallel host execution is runtime::DagExecutor driving execute_task over
// the same graph (what svc::QrService does); tests check it reproduces the
// sequential factors bitwise.
#pragma once

#include <optional>

#include "dag/graph.hpp"
#include "dag/tiled_qr_dag.hpp"
#include "la/checks.hpp"
#include "la/kernels.hpp"
#include "la/tiled_matrix.hpp"

namespace tqr::core {

/// Executes one task against tile storage. Exposed so executors, tests, and
/// the examples can drive custom schedules. inner_block is the kernels' `ib`
/// (<= 0 selects la::kPanelBase): the panel and T block width of la::geqrt
/// and la::tpqrt, which their applies unmqr/tpmqrt walk. Every task of one
/// factorization must run with the same value. tg/te tiles need at least
/// la::inner_block_width(inner_block, b) rows: la::t_plane's compact nb x b
/// tiles, or square b x b ones whose top nb rows then hold the factors.
template <typename T>
void execute_task(const dag::Task& task, la::TiledMatrix<T>& a,
                  la::TiledMatrix<T>& tg, la::TiledMatrix<T>& te,
                  la::index_t inner_block = 0);

/// Applies Q (kNoTrans) or Q^T (kTrans) of a completed tiled factorization
/// to c in place by replaying the factor tasks of `graph` against the tile
/// storage the factorization wrote (a = factored tiles, tg/te = block
/// reflectors). c.rows must equal a.rows(), and inner_block must be the one
/// the factor tasks ran with (it fixes the T block layout). Free-standing so
/// callers that own tile storage directly — e.g. tqr::svc's pooled
/// workspaces — can apply Q without wrapping the tiles in a
/// TiledQrFactorization.
template <typename T>
void apply_q_tiles(const dag::TaskGraph& graph, const la::TiledMatrix<T>& a,
                   const la::TiledMatrix<T>& tg, const la::TiledMatrix<T>& te,
                   la::MatrixView<T> c, la::Trans trans,
                   la::index_t inner_block);

template <typename T>
class TiledQrFactorization {
 public:
  struct Options {
    /// Elimination tree (TS by default, like svc::JobSpec). To factor the
    /// tree a core::Plan models, pass plan.config().elim and
    /// plan.hier_groups().
    dag::Elimination elim = dag::Elimination::kTs;
    /// Row groups for Elimination::kHier (0 = one group).
    std::int32_t hier_groups = 0;
    /// Inner block width `ib`: the panel and T block width of every factor
    /// kernel (0 = la::kPanelBase, >= the tile size = one full-T block). Kept
    /// with the factors, so apply_q and solve replay them with the same
    /// value.
    la::index_t inner_block = 0;
  };

  /// Factors `a` (rows >= cols, both multiples of b).
  static TiledQrFactorization factor(const la::Matrix<T>& a, int b,
                                     const Options& options = {});

  std::int32_t rows() const { return a_.rows(); }
  std::int32_t cols() const { return a_.cols(); }
  int tile_size() const { return a_.tile_size(); }
  dag::Elimination elimination() const { return elim_; }
  la::index_t inner_block() const { return inner_block_; }
  const dag::TaskGraph& graph() const { return graph_; }
  const la::TiledMatrix<T>& tiles() const { return a_; }

  /// The n x n upper-triangular R factor.
  la::Matrix<T> r() const;

  /// Applies Q (kNoTrans) or Q^T (kTrans) to c in place; c.rows == rows().
  void apply_q(la::MatrixView<T> c, la::Trans trans) const;

  /// Forms Q explicitly (m x m). Quadratic memory; intended for
  /// verification and small problems.
  la::Matrix<T> form_q() const;

  /// Economy-size Q: the first n columns (m x n), enough for thin QR uses.
  la::Matrix<T> form_q_thin() const;

  /// Least-squares / linear solve via R^{-1} (Q^T b)(0:n).
  la::Matrix<T> solve(const la::Matrix<T>& rhs) const;

  /// solve() followed by `iterations` rounds of iterative refinement
  /// (x += solve(rhs - A x)); needs the original matrix back. Worthwhile in
  /// single precision or for ill-conditioned systems.
  la::Matrix<T> solve_refined(const la::Matrix<T>& a,
                              const la::Matrix<T>& rhs,
                              int iterations = 1) const;

 private:
  TiledQrFactorization(la::TiledMatrix<T> a, la::TiledMatrix<T> tg,
                       la::TiledMatrix<T> te, dag::TaskGraph graph,
                       dag::Elimination elim, la::index_t inner_block)
      : a_(std::move(a)),
        tg_(std::move(tg)),
        te_(std::move(te)),
        graph_(std::move(graph)),
        elim_(elim),
        inner_block_(inner_block) {}

  la::TiledMatrix<T> a_;
  la::TiledMatrix<T> tg_;  // geqrt block-reflector factors (la::t_plane)
  la::TiledMatrix<T> te_;  // elimination block-reflector factors (ditto)
  dag::TaskGraph graph_;
  dag::Elimination elim_;
  la::index_t inner_block_ = 0;
};

/// One-call convenience: QR-based least-squares solve of A x = b.
template <typename T>
la::Matrix<T> qr_solve(const la::Matrix<T>& a, const la::Matrix<T>& b, int
                       tile_size, dag::Elimination elim = dag::Elimination::kTs);

/// Outcome of qr_solve_mixed: the fp64 solution plus convergence
/// diagnostics, so callers can tell whether the cheap factorization was
/// actually good enough for this system.
struct MixedSolveResult {
  la::Matrix<double> x;
  int iterations = 0;   ///< refinement rounds actually run
  double residual = 0;  ///< final ||b - A x||_F / (||A||_F ||x||_F + ||b||_F)
  bool converged = false;  ///< residual fell below the tolerance
};

/// Mixed-precision least-squares solve of A x = b: factor A once in fp32 —
/// half the factorization bandwidth, and the vectorized tile kernels run at
/// twice the lanes — then recover fp64 accuracy by iterative refinement.
/// Each round computes the residual r = b - A x in fp64, solves the fp32
/// factorization for the correction, and accumulates x in fp64 (the
/// classical dsgesv scheme, here on the tiled QR). Converges to fp64-level
/// backward error whenever kappa(A) is well below 1/eps32 (~1e7); for
/// systems beyond that the result reports converged = false and callers
/// should fall back to qr_solve<double>.
///
/// `tolerance` <= 0 picks the library's fp64 acceptance threshold
/// (la::verify_tolerance<double>). `inner_block` is forwarded to the fp32
/// factor kernels (0 = library default).
MixedSolveResult qr_solve_mixed(const la::Matrix<double>& a,
                                const la::Matrix<double>& b, int tile_size,
                                dag::Elimination elim = dag::Elimination::kTs,
                                int max_iterations = 8, double tolerance = 0,
                                la::index_t inner_block = 0);

}  // namespace tqr::core

// Tiled Cholesky factorization driver — the paper's scheduling framework
// applied to a second factorization. Shares everything with the QR driver:
// tile storage, the dependence-built task graph, core::Plan's modeled
// routing (POTRF/TRSM on the main device, SYRK/GEMM to the column owners)
// for the discrete-event simulator, and runtime::DagExecutor for parallel
// host execution of execute_cholesky_task. factor() replays the graph
// sequentially.
#pragma once

#include "dag/graph.hpp"
#include "dag/tiled_cholesky_dag.hpp"
#include "la/cholesky.hpp"
#include "la/tiled_matrix.hpp"

namespace tqr::core {

/// Executes one Cholesky task against tile storage.
template <typename T>
void execute_cholesky_task(const dag::Task& task, la::TiledMatrix<T>& a);

template <typename T>
class TiledCholesky {
 public:
  /// Factors SPD `a` (lower triangle used; rows == cols, multiple of b).
  /// Throws tqr::Error if a pivot loses positivity.
  static TiledCholesky factor(const la::Matrix<T>& a, int b);

  std::int32_t order() const { return a_.rows(); }
  int tile_size() const { return a_.tile_size(); }
  const dag::TaskGraph& graph() const { return graph_; }
  const la::TiledMatrix<T>& tiles() const { return a_; }

  /// The lower Cholesky factor as a dense matrix (strictly-upper zeroed).
  la::Matrix<T> l() const;

  /// Solves A x = rhs via the two triangular solves.
  la::Matrix<T> solve(const la::Matrix<T>& rhs) const;

 private:
  TiledCholesky(la::TiledMatrix<T> a, dag::TaskGraph graph)
      : a_(std::move(a)), graph_(std::move(graph)) {}

  la::TiledMatrix<T> a_;
  dag::TaskGraph graph_;
};

}  // namespace tqr::core

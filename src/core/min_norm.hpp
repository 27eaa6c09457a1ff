// Minimum-norm solution of underdetermined systems.
//
// For a wide full-rank A (m < n), min ||x||_2 subject to A x = b is solved
// through the LQ factorization obtained by tiled QR of A^T:
//   A^T = Q1 R  =>  A = R^T Q1^T  =>  solve R^T y = b, x = Q1 y.
// This rounds out the solver API: tall and square systems go through
// TiledQrFactorization::solve; wide systems come here.
#pragma once

#include "core/tiled_qr.hpp"

namespace tqr::core {

/// Minimum-norm solve for a wide matrix (rows < cols; rows and cols must be
/// multiples of the tile size). Returns x (cols x rhs).
template <typename T>
la::Matrix<T> min_norm_solve(const la::Matrix<T>& a, const la::Matrix<T>& b,
                             int tile_size,
                             dag::Elimination elim = dag::Elimination::kTs) {
  TQR_REQUIRE(a.rows() < a.cols(),
              "min_norm_solve expects a wide matrix; use solve() otherwise");
  TQR_REQUIRE(b.rows() == a.rows(), "min_norm_solve: rhs row mismatch");
  const la::index_t m = a.rows(), n = a.cols();

  // Transpose and factor: A^T (n x m, tall) = Q1 R.
  la::Matrix<T> at(n, m);
  for (la::index_t j = 0; j < m; ++j)
    for (la::index_t i = 0; i < n; ++i) at(i, j) = a(j, i);
  typename TiledQrFactorization<T>::Options opts;
  opts.elim = elim;
  auto f = TiledQrFactorization<T>::factor(at, tile_size, opts);

  // Solve R^T y = b (R is m x m upper triangular => forward substitution).
  la::Matrix<T> y = b;
  la::Matrix<T> r = f.r();
  la::trsm_left<T>(la::UpLo::kUpper, la::Trans::kTrans, la::Diag::kNonUnit,
                   r.view(), y.view());

  // x = Q1 y: embed y into an n x rhs block and apply Q.
  la::Matrix<T> x(n, b.cols());
  la::copy<T>(la::ConstMatrixView<T>(y.view()), x.block(0, 0, m, b.cols()));
  f.apply_q(x.view(), la::Trans::kNoTrans);
  return x;
}

}  // namespace tqr::core

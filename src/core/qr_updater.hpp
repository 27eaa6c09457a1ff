// Streaming QR / recursive least squares.
//
// The TS elimination kernel factors [R; new rows] — exactly the update step
// of a streaming least-squares problem. QrUpdater maintains the R factor of
// everything absorbed so far together with Q^T b, so after any number of
// row-block updates the current least-squares solution is one triangular
// solve away. This never stores more than O(n^2) state regardless of how
// many rows have streamed past — the classic QR-RLS formulation, built
// directly on the paper's elimination kernels.
#pragma once

#include "la/blas.hpp"
#include "la/kernels.hpp"
#include "la/matrix.hpp"

namespace tqr::core {

template <typename T>
class QrUpdater {
 public:
  /// n: number of columns (features); rhs_cols: right-hand sides tracked.
  QrUpdater(la::index_t n, la::index_t rhs_cols)
      : n_(n), r_(n, n), qtb_(n, rhs_cols), t_(n, n) {
    TQR_REQUIRE(n > 0, "QrUpdater needs at least one column");
    TQR_REQUIRE(rhs_cols >= 0, "negative rhs count");
  }

  la::index_t cols() const { return n_; }
  la::index_t rhs_cols() const { return qtb_.cols(); }
  std::int64_t rows_absorbed() const { return rows_absorbed_; }

  /// Absorbs a block of rows (a: m x n, b: m x rhs_cols). The block is
  /// consumed (overwritten with reflector data).
  void absorb(la::MatrixView<T> a, la::MatrixView<T> b) {
    TQR_REQUIRE(a.cols == n_, "absorb: column mismatch");
    TQR_REQUIRE(b.rows == a.rows && b.cols == qtb_.cols(),
                "absorb: rhs shape mismatch");
    if (rows_absorbed_ == 0 && a.rows >= n_) {
      // First block: plain QR of the block seeds R and Q^T b.
      la::geqrt<T>(a, t_.view());
      la::unmqr<T>(a, t_.view(), b, la::Trans::kTrans, 0);
      for (la::index_t j = 0; j < n_; ++j)
        for (la::index_t i = 0; i <= j; ++i) r_(i, j) = a(i, j);
      la::copy<T>(b.block(0, 0, n_, b.cols), qtb_.view());
      rows_absorbed_ += a.rows;
      return;
    }
    TQR_REQUIRE(rows_absorbed_ > 0 || a.rows >= n_,
                "first block must have at least n rows");
    // TS elimination (tpqrt with l = 0: a dense bottom of any height)
    // absorbs the whole block into R; the same reflectors update Q^T b.
    la::tpqrt<T>(r_.view(), a, t_.view(), 0, 0);
    la::tpmqrt<T>(a, t_.view(), qtb_.view(), b, 0, la::Trans::kTrans, 0);
    rows_absorbed_ += a.rows;
  }

  /// Convenience overload for owning matrices.
  void absorb(la::Matrix<T> a, la::Matrix<T> b) {
    absorb(a.view(), b.view());
  }

  /// Current R factor (n x n upper triangular).
  const la::Matrix<T>& r() const { return r_; }

  /// Current least-squares solution argmin ||A x - b|| over everything
  /// absorbed so far.
  la::Matrix<T> solve() const {
    TQR_REQUIRE(rows_absorbed_ >= n_,
                "underdetermined: need at least n rows absorbed");
    la::Matrix<T> x = qtb_;
    la::Matrix<T> rr = r_;
    la::trsm_left<T>(la::UpLo::kUpper, la::Trans::kNoTrans,
                     la::Diag::kNonUnit, rr.view(), x.view());
    return x;
  }

  /// Sum of squared residuals is not tracked (it lives in the discarded
  /// part of Q^T b); expose the normal-equations cross product R^T R = A^T A
  /// for callers that need covariance-style diagnostics.
  la::Matrix<T> gram() const {
    la::Matrix<T> g(n_, n_);
    la::gemm<T>(la::Trans::kTrans, la::Trans::kNoTrans, T(1), r_.view(),
                r_.view(), T(0), g.view());
    return g;
  }

 private:
  la::index_t n_;
  la::Matrix<T> r_;
  la::Matrix<T> qtb_;
  la::Matrix<T> t_;  // reflector factor workspace, reused per absorb
  std::int64_t rows_absorbed_ = 0;
};

}  // namespace tqr::core

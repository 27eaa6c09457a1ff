// Blocked Householder QR (LAPACK geqrf/ormqr-style) — the classical
// single-device algorithm between the naive reference sweep and the tiled
// factorization: panels of `nb` columns are factored and the trailing matrix
// is updated with one compact-WY block apply per panel. Built on the
// verified inner-blocked kernels; serves as the host baseline in benches and
// as a standalone dense-QR API.
#pragma once

#include "la/blas.hpp"
#include "la/kernels.hpp"
#include "la/matrix.hpp"

namespace tqr::la {

template <typename T>
class BlockedQr {
 public:
  /// Factors a (m >= n) with panel width nb.
  BlockedQr(Matrix<T> a, index_t nb)
      : a_(std::move(a)), t_(a_.cols(), a_.cols()), nb_(nb) {
    TQR_REQUIRE(a_.rows() >= a_.cols(), "BlockedQr: require rows >= cols");
    TQR_REQUIRE(nb >= 1, "BlockedQr: panel width must be >= 1");
    geqrt<T>(a_.view(), t_.view(), nb_);
  }

  index_t rows() const { return a_.rows(); }
  index_t cols() const { return a_.cols(); }
  index_t panel_width() const { return nb_; }

  /// The n x n upper-triangular R factor.
  Matrix<T> r() const {
    const index_t n = a_.cols();
    Matrix<T> out(n, n);
    for (index_t j = 0; j < n; ++j)
      for (index_t i = 0; i <= j; ++i) out(i, j) = a_(i, j);
    return out;
  }

  /// Applies Q (kNoTrans) or Q^T (kTrans) to c (c.rows == rows()).
  void apply_q(MatrixView<T> c, Trans trans) const {
    unmqr<T>(a_.view(), t_.view(), c, trans, nb_);
  }

  Matrix<T> q() const {
    Matrix<T> out = Matrix<T>::identity(a_.rows());
    apply_q(out.view(), Trans::kNoTrans);
    return out;
  }

  /// Least-squares solve.
  Matrix<T> solve(const Matrix<T>& rhs) const {
    TQR_REQUIRE(rhs.rows() == a_.rows(), "solve: rhs row mismatch");
    Matrix<T> qtb = rhs;
    apply_q(qtb.view(), Trans::kTrans);
    const index_t n = a_.cols();
    Matrix<T> x(n, rhs.cols());
    copy<T>(ConstMatrixView<T>(qtb.view()).block(0, 0, n, rhs.cols()),
            x.view());
    Matrix<T> rr = r();
    trsm_left<T>(UpLo::kUpper, Trans::kNoTrans, Diag::kNonUnit, rr.view(),
                 x.view());
    return x;
  }

 private:
  Matrix<T> a_;   // reflectors below the diagonal, R above
  Matrix<T> t_;   // per-panel block-reflector factors (diag blocks)
  index_t nb_;
};

}  // namespace tqr::la

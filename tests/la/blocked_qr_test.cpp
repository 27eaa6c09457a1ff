// Blocked Householder QR of a whole matrix (LAPACK geqrf/ormqr-style) is the
// tile kernels used directly: la::geqrt with panel width nb factors it, and
// la::unmqr with the same nb applies Q and Q^T. The compact T factor is
// nb x n. Swept over panel widths from 1 to wider than the matrix.
#include <gtest/gtest.h>

#include "la/checks.hpp"
#include "la/kernels.hpp"
#include "la/reference_qr.hpp"

namespace tqr::la {
namespace {

/// A factored m x n matrix: R above the diagonal, V below, T compact.
struct Blocked {
  Matrix<double> a, t;
  index_t nb;
  Blocked(Matrix<double> a0, index_t nb_in)
      : a(std::move(a0)),
        t(inner_block_width(nb_in, a.cols()), a.cols()),
        nb(nb_in) {
    geqrt<double>(a.view(), t.view(), nb);
  }
  void apply_q(MatrixView<double> c, Trans trans) const {
    unmqr<double>(a.view(), t.view(), c, trans, nb);
  }
  /// [R; 0], m x n.
  Matrix<double> r_full() const {
    Matrix<double> r(a.rows(), a.cols());
    for (index_t j = 0; j < a.cols(); ++j)
      for (index_t i = 0; i <= j; ++i) r(i, j) = a(i, j);
    return r;
  }
};

class PanelWidths : public ::testing::TestWithParam<int> {};

TEST_P(PanelWidths, FactorsToMachinePrecision) {
  const index_t m = 40, n = 24;
  const index_t nb = GetParam();
  auto a = Matrix<double>::random(m, n, 300 + nb);
  const Blocked qr(a, nb);
  Matrix<double> q = Matrix<double>::identity(m);
  qr.apply_q(q.view(), Trans::kNoTrans);
  EXPECT_LT(orthogonality_residual<double>(q.view()),
            residual_tolerance<double>(m));
  const Matrix<double> r = qr.r_full();
  EXPECT_LT(reconstruction_residual<double>(a.view(), q.view(), r.view()),
            residual_tolerance<double>(m));
}

TEST_P(PanelWidths, MatchesReferenceSolve) {
  const index_t n = 24;
  const index_t nb = GetParam();
  auto a = Matrix<double>::random(n, n, 400 + nb);
  for (index_t i = 0; i < n; ++i) a(i, i) += 4.0;
  auto rhs = Matrix<double>::random(n, 2, 401);
  const Blocked qr(a, nb);
  Matrix<double> x = rhs;
  qr.apply_q(x.view(), Trans::kTrans);
  const Matrix<double> r = qr.r_full();
  trsm_left<double>(UpLo::kUpper, Trans::kNoTrans, Diag::kNonUnit, r.view(),
                    x.view());
  const auto x_ref = ReferenceQr<double>(a).solve(rhs);
  for (index_t j = 0; j < 2; ++j)
    for (index_t i = 0; i < n; ++i)
      EXPECT_NEAR(x(i, j), x_ref(i, j), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Widths, PanelWidths,
                         ::testing::Values(1, 2, 4, 8, 24, 64));

TEST(BlockedQr, ApplyQRoundTrips) {
  const Blocked qr(Matrix<double>::random(20, 12, 5), 4);
  auto c0 = Matrix<double>::random(20, 3, 6);
  Matrix<double> c = c0;
  qr.apply_q(c.view(), Trans::kTrans);
  qr.apply_q(c.view(), Trans::kNoTrans);
  for (index_t j = 0; j < 3; ++j)
    for (index_t i = 0; i < 20; ++i) EXPECT_NEAR(c(i, j), c0(i, j), 1e-10);
}

TEST(BlockedQr, WideMatrixRejected) {
  auto a = Matrix<double>::random(4, 8, 7);
  EXPECT_THROW(Blocked(a, 4), InvalidArgument);
}

TEST(BlockedQr, InvalidPanelWidthRejected) {
  // A T factor with fewer rows than the panel width cannot hold the
  // panels' factors: geqrt, unmqr, tpqrt and tpmqrt all reject it.
  auto a = Matrix<double>::random(16, 8, 8);
  Matrix<double> t(3, 8);
  EXPECT_THROW(geqrt<double>(a.view(), t.view(), 4), InvalidArgument);
  EXPECT_THROW(unmqr<double>(a.view(), t.view(), a.view(), Trans::kTrans, 4),
               InvalidArgument);
  Matrix<double> r1(8, 8), b(8, 8);
  EXPECT_THROW(tpqrt<double>(r1.view(), b.view(), t.view(), 0, 4),
               InvalidArgument);
  EXPECT_THROW(tpmqrt<double>(b.view(), t.view(), r1.view(), b.view(), 0,
                              Trans::kTrans, 4),
               InvalidArgument);
}

}  // namespace
}  // namespace tqr::la

// Single-precision coverage sweep: the paper evaluates in float, so every
// factorization path must hold its backward-error bounds at float epsilon,
// not just double.
#include <gtest/gtest.h>

#include "core/tiled_cholesky.hpp"
#include "core/tiled_qr.hpp"
#include "la/checks.hpp"
#include "la/cholesky.hpp"
#include "la/generators.hpp"
#include "la/reference_qr.hpp"

namespace tqr::la {
namespace {

Matrix<float> random_f(index_t m, index_t n, std::uint64_t seed) {
  return Matrix<float>::random(m, n, seed);
}

struct FloatCase {
  int n;
  int b;
  dag::Elimination elim;
};

void PrintTo(const FloatCase& c, std::ostream* os) {
  *os << c.n << "/b" << c.b << "/" << dag::elimination_name(c.elim);
}

class FloatTiledQr : public ::testing::TestWithParam<FloatCase> {};

TEST_P(FloatTiledQr, BackwardStableAtFloatEpsilon) {
  const FloatCase c = GetParam();
  auto a = random_f(c.n, c.n, 4000 + c.n + c.b);
  typename core::TiledQrFactorization<float>::Options opts;
  opts.elim = c.elim;
  auto f = core::TiledQrFactorization<float>::factor(a, c.b, opts);
  auto q = f.form_q();
  EXPECT_LT(orthogonality_residual<float>(q.view()),
            residual_tolerance<float>(c.n));
  auto r = f.r();
  Matrix<float> r_full(c.n, c.n);
  for (index_t j = 0; j < c.n; ++j)
    for (index_t i = 0; i <= j; ++i) r_full(i, j) = r(i, j);
  EXPECT_LT(reconstruction_residual<float>(a.view(), q.view(),
                                           r_full.view()),
            residual_tolerance<float>(c.n));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FloatTiledQr,
    ::testing::Values(FloatCase{16, 4, dag::Elimination::kTs},
                      FloatCase{32, 8, dag::Elimination::kTt},
                      FloatCase{32, 8, dag::Elimination::kTtFlat},
                      FloatCase{48, 16, dag::Elimination::kTt},
                      FloatCase{64, 16, dag::Elimination::kTs}));

TEST(FloatPaths, ReferenceQrFloat) {
  auto a = random_f(32, 20, 1);
  ReferenceQr<float> qr(a);
  auto q = qr.q();
  EXPECT_LT(orthogonality_residual<float>(q.view()),
            residual_tolerance<float>(32));
}

TEST(FloatPaths, BlockedQrFloat) {
  // Whole-matrix blocked QR: geqrt with panel width 8, Q through unmqr.
  auto a = random_f(40, 24, 2);
  Matrix<float> t(8, 24);
  geqrt<float>(a.view(), t.view(), 8);
  Matrix<float> q = Matrix<float>::identity(40);
  unmqr<float>(a.view(), t.view(), q.view(), Trans::kNoTrans, 8);
  EXPECT_LT(orthogonality_residual<float>(q.view()),
            residual_tolerance<float>(40));
}

TEST(FloatPaths, CholeskyQr2Float) {
  const index_t m = 64, n = 16;
  auto a = random_f(m, n, 3);
  auto r = cholesky_qr2<float>(a);
  Matrix<float> gram(n, n);
  gemm<float>(Trans::kTrans, Trans::kNoTrans, 1.0f, r.q.view(), r.q.view(),
              0.0f, gram.view());
  for (index_t i = 0; i < n; ++i) gram(i, i) -= 1.0f;
  EXPECT_LT(norm_frobenius<float>(gram.view()),
            residual_tolerance<float>(m));
}

TEST(FloatPaths, SolveAccuracyScalesWithEpsilon) {
  // The float solve error should sit near float epsilon * kappa, far above
  // the double solve error for the same system — a sanity check that both
  // instantiations genuinely run in their own precision.
  const index_t n = 32, b = 8;
  auto ad = Matrix<double>::random(n, n, 4);
  for (index_t i = 0; i < n; ++i) ad(i, i) += 4.0;
  Matrix<float> af(n, n);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i) af(i, j) = static_cast<float>(ad(i, j));
  auto xd_true = Matrix<double>::random(n, 1, 5);
  Matrix<double> bd(n, 1);
  gemm<double>(Trans::kNoTrans, Trans::kNoTrans, 1.0, ad.view(),
               xd_true.view(), 0.0, bd.view());
  Matrix<float> bf(n, 1);
  for (index_t i = 0; i < n; ++i) bf(i, 0) = static_cast<float>(bd(i, 0));

  auto fd = core::TiledQrFactorization<double>::factor(ad, b);
  auto ff = core::TiledQrFactorization<float>::factor(af, b);
  auto xd = fd.solve(bd);
  auto xf = ff.solve(bf);
  double err_d = 0, err_f = 0;
  for (index_t i = 0; i < n; ++i) {
    err_d = std::max(err_d, std::abs(xd(i, 0) - xd_true(i, 0)));
    err_f = std::max(err_f,
                     std::abs(static_cast<double>(xf(i, 0)) - xd_true(i, 0)));
  }
  EXPECT_LT(err_d, 1e-12);
  EXPECT_GT(err_f, err_d * 100);  // float genuinely float
  EXPECT_LT(err_f, 1e-3);        // but still accurate at its own scale
}

TEST(FloatPaths, TiledCholeskyFloatSolve) {
  const index_t n = 32, b = 8;
  auto bd = Matrix<float>::random(n, n, 6);
  Matrix<float> a(n, n);
  gemm<float>(Trans::kNoTrans, Trans::kTrans, 1.0f, bd.view(), bd.view(),
              0.0f, a.view());
  for (index_t i = 0; i < n; ++i) a(i, i) += static_cast<float>(n);
  auto x_true = Matrix<float>::random(n, 1, 7);
  Matrix<float> rhs(n, 1);
  gemm<float>(Trans::kNoTrans, Trans::kNoTrans, 1.0f, a.view(),
              x_true.view(), 0.0f, rhs.view());
  auto f = core::TiledCholesky<float>::factor(a, b);
  auto x = f.solve(rhs);
  for (index_t i = 0; i < n; ++i)
    EXPECT_NEAR(x(i, 0), x_true(i, 0), 5e-3f);
}

TEST(FloatPaths, FloatRecursiveFactorHoldsBoundAcrossInnerBlocks) {
  // The recursive kernels must hold the float backward-error bound at every
  // leaf width, including through the full tiled factorization.
  const index_t n = 96, b = 48;
  auto a = random_f(n, n, 4300);
  for (index_t ib : {index_t{1}, index_t{4}, index_t{24}, index_t{48}}) {
    typename core::TiledQrFactorization<float>::Options opts;
    opts.inner_block = ib;
    auto f = core::TiledQrFactorization<float>::factor(a, b, opts);
    auto q = f.form_q();
    EXPECT_LT(orthogonality_residual<float>(q.view()),
              residual_tolerance<float>(n))
        << "ib=" << ib;
    auto r = f.r();
    Matrix<float> r_full(n, n);
    for (index_t j = 0; j < n; ++j)
      for (index_t i = 0; i <= j; ++i) r_full(i, j) = r(i, j);
    EXPECT_LT(
        reconstruction_residual<float>(a.view(), q.view(), r_full.view()),
        residual_tolerance<float>(n))
        << "ib=" << ib;
  }
}

TEST(FloatPaths, MixedSolveReachesDoubleAccuracy) {
  // fp32 factor + fp64 refinement must land at fp64-level accuracy on a
  // well-conditioned system — the whole point of the mixed mode.
  const index_t n = 64, b = 16;
  auto a = Matrix<double>::random(n, n, 4400);
  for (index_t i = 0; i < n; ++i) a(i, i) += 4.0;
  auto x_true = Matrix<double>::random(n, 2, 4401);
  Matrix<double> rhs(n, 2);
  gemm<double>(Trans::kNoTrans, Trans::kNoTrans, 1.0, a.view(),
               x_true.view(), 0.0, rhs.view());

  const auto mixed = core::qr_solve_mixed(a, rhs, b);
  EXPECT_TRUE(mixed.converged);
  EXPECT_LE(mixed.residual, verify_tolerance<double>(n));
  // Refinement must actually have run (a raw fp32 solve cannot hit fp64
  // tolerance) but converge quickly on a benign system.
  EXPECT_GE(mixed.iterations, 1);
  EXPECT_LE(mixed.iterations, 4);
  double err = 0;
  for (index_t j = 0; j < 2; ++j)
    for (index_t i = 0; i < n; ++i)
      err = std::max(err, std::abs(mixed.x(i, j) - x_true(i, j)));
  EXPECT_LT(err, 1e-10);

  // A plain fp32 solve of the same system is orders of magnitude worse —
  // the refinement is what buys the accuracy.
  Matrix<float> af(n, n), bf(n, 2);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i) af(i, j) = static_cast<float>(a(i, j));
  for (index_t j = 0; j < 2; ++j)
    for (index_t i = 0; i < n; ++i) bf(i, j) = static_cast<float>(rhs(i, j));
  auto xf = core::qr_solve<float>(af, bf, b);
  double err_f = 0;
  for (index_t j = 0; j < 2; ++j)
    for (index_t i = 0; i < n; ++i)
      err_f = std::max(err_f, std::abs(static_cast<double>(xf(i, j)) -
                                       x_true(i, j)));
  EXPECT_GT(err_f, err * 100);
}

TEST(FloatPaths, MixedSolveReportsNonConvergenceWhenIllConditioned) {
  // kappa near 1/eps32: fp32 factors cannot drive the refinement, and the
  // result must say so instead of silently returning a bad x.
  const index_t n = 32, b = 8;
  // Genuine spectral conditioning (not column grading, which Householder QR
  // absorbs): kappa_2 = 1e10, past 1/eps32 ~ 1e7 but benign for double.
  auto a = random_with_condition<double>(n, 1e10, 4500);
  auto rhs = Matrix<double>::random(n, 1, 4501);
  const auto mixed = core::qr_solve_mixed(a, rhs, b, dag::Elimination::kTt,
                                          /*max_iterations=*/3);
  EXPECT_FALSE(mixed.converged);
  EXPECT_GT(mixed.residual, 0.0);
}

}  // namespace
}  // namespace tqr::la

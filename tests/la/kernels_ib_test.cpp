// The factor kernels at every inner block width must be numerically
// interchangeable with the unblocked ones (same factored subspace,
// machine-precision factors), including through the full tiled
// factorization; the apply kernels are given the ib the factor ran with.
#include "la/kernels.hpp"

#include <gtest/gtest.h>

#include "core/tiled_qr.hpp"
#include "la/checks.hpp"

namespace tqr::la {
namespace {

class IbWidths : public ::testing::TestWithParam<int> {};

TEST_P(IbWidths, GeqrtIbProducesValidQr) {
  const index_t b = 24;
  const index_t ib = GetParam();
  auto a0 = Matrix<double>::random(b, b, 800 + ib);
  Matrix<double> a = a0;
  Matrix<double> t(b, b);
  geqrt<double>(a.view(), t.view(), ib);

  // Q from the blocked factors via unmqr applied to the identity.
  Matrix<double> q = Matrix<double>::identity(b);
  unmqr<double>(a.view(), t.view(), q.view(), Trans::kNoTrans, ib);
  EXPECT_LT(orthogonality_residual<double>(q.view()),
            residual_tolerance<double>(b));

  Matrix<double> r(b, b);
  for (index_t j = 0; j < b; ++j)
    for (index_t i = 0; i <= j; ++i) r(i, j) = a(i, j);
  EXPECT_LT(reconstruction_residual<double>(a0.view(), q.view(), r.view()),
            residual_tolerance<double>(b));
}

TEST_P(IbWidths, GeqrtIbMatchesUnblockedR) {
  // Same math, same column spans: R must match the unblocked R up to row
  // signs (each block's larfg sees the same leading data).
  const index_t b = 24;
  const index_t ib = GetParam();
  auto a0 = Matrix<double>::random(b, b, 900 + ib);
  Matrix<double> blocked = a0, plain = a0;
  Matrix<double> tb(b, b), tp(b, b);
  geqrt<double>(blocked.view(), tb.view(), ib);
  geqrt<double>(plain.view(), tp.view());
  for (index_t i = 0; i < b; ++i) {
    const double sign =
        (blocked(i, i) >= 0) == (plain(i, i) >= 0) ? 1.0 : -1.0;
    for (index_t j = i; j < b; ++j)
      EXPECT_NEAR(blocked(i, j), sign * plain(i, j), 1e-10);
  }
}

TEST_P(IbWidths, TsqrtIbEliminatesStackedTile) {
  const index_t b = 24;
  const index_t ib = GetParam();
  Matrix<double> r1(b, b);
  auto rnd = Matrix<double>::random(b, b, 1000 + ib);
  for (index_t j = 0; j < b; ++j)
    for (index_t i = 0; i <= j; ++i)
      r1(i, j) = rnd(i, j) + (i == j ? 2.0 : 0.0);
  auto a2_0 = Matrix<double>::random(b, b, 1001 + ib);
  Matrix<double> r1w = r1, a2 = a2_0;
  Matrix<double> t(b, b);
  tpqrt<double>(r1w.view(), a2.view(), t.view(), 0, ib);

  // Applying Q^T to the original stack must reproduce [R_new; 0].
  Matrix<double> c1 = r1, c2 = a2_0;
  tpmqrt<double>(a2.view(), t.view(), c1.view(), c2.view(), 0, Trans::kTrans,
                 ib);
  for (index_t j = 0; j < b; ++j) {
    for (index_t i = 0; i <= j; ++i) EXPECT_NEAR(c1(i, j), r1w(i, j), 1e-9);
    for (index_t i = 0; i < b; ++i) EXPECT_NEAR(c2(i, j), 0.0, 1e-9);
  }
}

TEST_P(IbWidths, TsmqrIbRoundTrips) {
  const index_t b = 16;
  const index_t ib = GetParam();
  Matrix<double> r1(b, b);
  for (index_t j = 0; j < b; ++j)
    for (index_t i = 0; i <= j; ++i) r1(i, j) = 1.0 + i + 2 * j;
  auto v2 = Matrix<double>::random(b, b, 1100 + ib);
  Matrix<double> t(b, b);
  tpqrt<double>(r1.view(), v2.view(), t.view(), 0, ib);
  auto c1_0 = Matrix<double>::random(b, b, 1101 + ib);
  auto c2_0 = Matrix<double>::random(b, b, 1102 + ib);
  Matrix<double> c1 = c1_0, c2 = c2_0;
  tpmqrt<double>(v2.view(), t.view(), c1.view(), c2.view(), 0, Trans::kTrans,
                 ib);
  tpmqrt<double>(v2.view(), t.view(), c1.view(), c2.view(), 0, Trans::kNoTrans,
                 ib);
  for (index_t j = 0; j < b; ++j)
    for (index_t i = 0; i < b; ++i) {
      EXPECT_NEAR(c1(i, j), c1_0(i, j), 1e-9);
      EXPECT_NEAR(c2(i, j), c2_0(i, j), 1e-9);
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, IbWidths,
                         ::testing::Values(1, 2, 3, 4, 8, 100 /*>=b*/));

TEST(KernelsIb, PreservesDiagonalTileVStorage) {
  // The blocked TSQRT must also leave the geqrt reflectors under R intact.
  const index_t b = 16, ib = 4;
  auto top = Matrix<double>::random(b, b, 42);
  Matrix<double> tg(b, b);
  geqrt<double>(top.view(), tg.view());
  Matrix<double> below(b, b);
  for (index_t j = 0; j < b; ++j)
    for (index_t i = j + 1; i < b; ++i) below(i, j) = top(i, j);
  auto a2 = Matrix<double>::random(b, b, 43);
  Matrix<double> t(b, b);
  tpqrt<double>(top.view(), a2.view(), t.view(), 0, ib);
  for (index_t j = 0; j < b; ++j)
    for (index_t i = j + 1; i < b; ++i) EXPECT_EQ(top(i, j), below(i, j));
}

TEST(KernelsIb, FullTiledFactorizationWithInnerBlocking) {
  const int n = 48, b = 16, ib = 4;
  auto a = Matrix<double>::random(n, n, 77);
  typename core::TiledQrFactorization<double>::Options opts;
  opts.inner_block = ib;
  for (auto elim : {dag::Elimination::kTs, dag::Elimination::kTt}) {
    opts.elim = elim;
    auto f = core::TiledQrFactorization<double>::factor(a, b, opts);
    EXPECT_EQ(f.inner_block(), ib);
    auto q = f.form_q();
    EXPECT_LT(orthogonality_residual<double>(q.view()),
              residual_tolerance<double>(n));
    auto r = f.r();
    Matrix<double> r_full(n, n);
    for (index_t j = 0; j < n; ++j)
      for (index_t i = 0; i <= j; ++i) r_full(i, j) = r(i, j);
    EXPECT_LT(
        reconstruction_residual<double>(a.view(), q.view(), r_full.view()),
        residual_tolerance<double>(n));
  }
}

TEST(KernelsIb, BlockedSolveMatchesUnblocked) {
  const int n = 32, b = 16;
  auto a = Matrix<double>::random(n, n, 88);
  for (index_t i = 0; i < n; ++i) a(i, i) += 5.0;
  auto rhs = Matrix<double>::random(n, 1, 89);
  typename core::TiledQrFactorization<double>::Options plain, blocked;
  blocked.inner_block = 4;
  auto xp = core::TiledQrFactorization<double>::factor(a, b, plain).solve(rhs);
  auto xb =
      core::TiledQrFactorization<double>::factor(a, b, blocked).solve(rhs);
  for (index_t i = 0; i < n; ++i) EXPECT_NEAR(xb(i, 0), xp(i, 0), 1e-10);
}

TEST(KernelsIb, IbZeroFallsBackToUnblocked) {
  const index_t b = 12;
  auto a0 = Matrix<double>::random(b, b, 90);
  Matrix<double> a1 = a0, a2 = a0;
  Matrix<double> t1(b, b), t2(b, b);
  geqrt<double>(a1.view(), t1.view());
  geqrt<double>(a2.view(), t2.view(), 0);
  for (index_t j = 0; j < b; ++j)
    for (index_t i = 0; i < b; ++i) {
      EXPECT_EQ(a1(i, j), a2(i, j));
      EXPECT_EQ(t1(i, j), t2(i, j));
    }
}

}  // namespace
}  // namespace tqr::la

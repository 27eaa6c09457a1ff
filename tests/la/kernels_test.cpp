// Correctness of the tile kernels: factor-and-reassemble identities,
// orthogonality, structure preservation, and TS/TT equivalence, over a
// parameterized sweep of tile sizes in float and double.
#include "la/kernels.hpp"

#include <gtest/gtest.h>

#include "la/blas.hpp"
#include "la/checks.hpp"
#include "la/matrix.hpp"

namespace tqr::la {
namespace {

// --- geqrt -----------------------------------------------------------------

class GeqrtSizes : public ::testing::TestWithParam<int> {};

TEST_P(GeqrtSizes, ReconstructsInputAndQOrthogonal) {
  const index_t b = GetParam();
  auto a0 = Matrix<double>::random(b, b, 100 + b);
  Matrix<double> a = a0;
  Matrix<double> t(b, b);
  geqrt<double>(a.view(), t.view());

  // Q = unmqr applied to the identity.
  Matrix<double> q = Matrix<double>::identity(b);
  unmqr<double>(a.view(), t.view(), q.view(), Trans::kNoTrans, 0);
  EXPECT_LT(orthogonality_residual<double>(q.view()),
            residual_tolerance<double>(b));

  // R = upper triangle of the factored tile.
  Matrix<double> r(b, b);
  for (index_t j = 0; j < b; ++j)
    for (index_t i = 0; i <= j; ++i) r(i, j) = a(i, j);
  EXPECT_LT(reconstruction_residual<double>(a0.view(), q.view(), r.view()),
            residual_tolerance<double>(b));
}

TEST_P(GeqrtSizes, QtTimesAEqualsR) {
  const index_t b = GetParam();
  auto a0 = Matrix<double>::random(b, b, 200 + b);
  Matrix<double> a = a0;
  Matrix<double> t(b, b);
  geqrt<double>(a.view(), t.view());

  Matrix<double> qta = a0;
  unmqr<double>(a.view(), t.view(), qta.view(), Trans::kTrans, 0);
  // Q^T A should equal R: upper triangle matches, lower ~ 0.
  for (index_t j = 0; j < b; ++j)
    for (index_t i = 0; i < b; ++i) {
      if (i <= j)
        EXPECT_NEAR(qta(i, j), a(i, j), 1e-10) << i << "," << j;
      else
        EXPECT_NEAR(qta(i, j), 0.0, 1e-10) << i << "," << j;
    }
}

TEST_P(GeqrtSizes, ApplyQThenQtIsIdentity) {
  const index_t b = GetParam();
  auto a = Matrix<double>::random(b, b, 300 + b);
  Matrix<double> t(b, b);
  geqrt<double>(a.view(), t.view());

  auto c0 = Matrix<double>::random(b, b, 301 + b);
  Matrix<double> c = c0;
  unmqr<double>(a.view(), t.view(), c.view(), Trans::kNoTrans, 0);
  unmqr<double>(a.view(), t.view(), c.view(), Trans::kTrans, 0);
  for (index_t j = 0; j < b; ++j)
    for (index_t i = 0; i < b; ++i) EXPECT_NEAR(c(i, j), c0(i, j), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(TileSweep, GeqrtSizes,
                         ::testing::Values(1, 2, 3, 4, 8, 13, 16, 24, 32));

TEST(Geqrt, RectangularTallTile) {
  const index_t m = 12, n = 5;
  auto a0 = Matrix<double>::random(m, n, 7);
  Matrix<double> a = a0;
  Matrix<double> t(n, n);
  geqrt<double>(a.view(), t.view());
  Matrix<double> qta = a0;
  unmqr<double>(a.view(), t.view(), qta.view(), Trans::kTrans, 0);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = j + 1; i < m; ++i)
      EXPECT_NEAR(qta(i, j), 0.0, 1e-10);
}

TEST(Geqrt, WideTileRejected) {
  Matrix<double> a(3, 5), t(5, 5);
  EXPECT_THROW(geqrt<double>(a.view(), t.view()), InvalidArgument);
}

TEST(Geqrt, ZeroColumnYieldsTauZeroAndSurvives) {
  const index_t b = 5;
  Matrix<double> a(b, b);
  // Column 2 entirely zero below and on the diagonal tail.
  for (index_t j = 0; j < b; ++j)
    for (index_t i = 0; i < b; ++i)
      a(i, j) = (j == 2) ? 0.0 : static_cast<double>((i * 7 + j * 3) % 5) - 2;
  Matrix<double> a0 = a;
  Matrix<double> t(b, b);
  geqrt<double>(a.view(), t.view());
  Matrix<double> q = Matrix<double>::identity(b);
  unmqr<double>(a.view(), t.view(), q.view(), Trans::kNoTrans, 0);
  EXPECT_LT(orthogonality_residual<double>(q.view()), 1e-10);
}

TEST(Geqrt, AlreadyTriangularInputNearlyUnchanged) {
  const index_t b = 6;
  Matrix<double> a(b, b);
  for (index_t j = 0; j < b; ++j)
    for (index_t i = 0; i <= j; ++i) a(i, j) = 1.0 + i + j;
  Matrix<double> a0 = a;
  Matrix<double> t(b, b);
  geqrt<double>(a.view(), t.view());
  // R must match the input up to column signs.
  for (index_t j = 0; j < b; ++j) {
    const double sign = a(j, j) * a0(j, j) >= 0 ? 1.0 : -1.0;
    for (index_t i = 0; i <= j; ++i)
      EXPECT_NEAR(a(i, j), sign * a0(i, j), 1e-10);
  }
}

// --- TS: tpqrt / tpmqrt with l = 0 ----------------------------------------

class TsSizes : public ::testing::TestWithParam<int> {};

TEST_P(TsSizes, StackedFactorizationReconstructs) {
  const index_t b = GetParam();
  // Start from a geqrt-triangulated top tile, as in the real algorithm.
  auto top0 = Matrix<double>::random(b, b, 400 + b);
  Matrix<double> top = top0;
  Matrix<double> tg(b, b);
  geqrt<double>(top.view(), tg.view());
  Matrix<double> r1(b, b);
  for (index_t j = 0; j < b; ++j)
    for (index_t i = 0; i <= j; ++i) r1(i, j) = top(i, j);

  auto a2_0 = Matrix<double>::random(b, b, 401 + b);
  Matrix<double> r1w = r1;
  Matrix<double> a2 = a2_0;
  Matrix<double> t(b, b);
  tpqrt<double>(r1w.view(), a2.view(), t.view(), 0, 0);

  // Apply Q^T to the original stacked [R1; A2]: must give [R_new; 0].
  Matrix<double> stacked(2 * b, b);
  copy<double>(r1.view(), stacked.block(0, 0, b, b));
  copy<double>(a2_0.view(), stacked.block(b, 0, b, b));
  tpmqrt<double>(a2.view(), t.view(), stacked.block(0, 0, b, b),
                 stacked.block(b, 0, b, b), 0, Trans::kTrans, 0);
  for (index_t j = 0; j < b; ++j) {
    for (index_t i = 0; i <= j; ++i)
      EXPECT_NEAR(stacked(i, j), r1w(i, j), 1e-9);
    for (index_t i = b; i < 2 * b; ++i)
      EXPECT_NEAR(stacked(i, j), 0.0, 1e-9);
  }
}

TEST_P(TsSizes, QIsOrthogonal) {
  const index_t b = GetParam();
  Matrix<double> r1(b, b);
  auto rnd = Matrix<double>::random(b, b, 500 + b);
  for (index_t j = 0; j < b; ++j)
    for (index_t i = 0; i <= j; ++i) r1(i, j) = rnd(i, j) + (i == j ? 2 : 0);
  auto a2 = Matrix<double>::random(b, b, 501 + b);
  Matrix<double> t(b, b);
  tpqrt<double>(r1.view(), a2.view(), t.view(), 0, 0);

  Matrix<double> q = Matrix<double>::identity(2 * b);
  tpmqrt<double>(a2.view(), t.view(), q.block(0, 0, b, 2 * b),
                 q.block(b, 0, b, 2 * b), 0, Trans::kNoTrans, 0);
  EXPECT_LT(orthogonality_residual<double>(q.view()),
            residual_tolerance<double>(2 * b));
}

TEST_P(TsSizes, TsmqrQThenQtRoundTrips) {
  const index_t b = GetParam();
  Matrix<double> r1(b, b);
  for (index_t j = 0; j < b; ++j)
    for (index_t i = 0; i <= j; ++i) r1(i, j) = 1.0 + i + 2 * j;
  auto a2 = Matrix<double>::random(b, b, 502 + b);
  Matrix<double> t(b, b);
  tpqrt<double>(r1.view(), a2.view(), t.view(), 0, 0);

  auto c1_0 = Matrix<double>::random(b, b, 503 + b);
  auto c2_0 = Matrix<double>::random(b, b, 504 + b);
  Matrix<double> c1 = c1_0, c2 = c2_0;
  tpmqrt<double>(a2.view(), t.view(), c1.view(), c2.view(), 0, Trans::kTrans,
                 0);
  tpmqrt<double>(a2.view(), t.view(), c1.view(), c2.view(), 0,
                 Trans::kNoTrans, 0);
  for (index_t j = 0; j < b; ++j)
    for (index_t i = 0; i < b; ++i) {
      EXPECT_NEAR(c1(i, j), c1_0(i, j), 1e-9);
      EXPECT_NEAR(c2(i, j), c2_0(i, j), 1e-9);
    }
}

INSTANTIATE_TEST_SUITE_P(TileSweep, TsSizes,
                         ::testing::Values(1, 2, 4, 8, 16, 24));

TEST(Tsqrt, PreservesVBelowDiagonalOfTopTile) {
  // The diagonal tile keeps its geqrt reflectors under the R part; TSQRT
  // must not disturb them (storage contract of the tiled algorithm).
  const index_t b = 8;
  auto top = Matrix<double>::random(b, b, 42);
  Matrix<double> tg(b, b);
  geqrt<double>(top.view(), tg.view());
  Matrix<double> below_before(b, b);
  for (index_t j = 0; j < b; ++j)
    for (index_t i = j + 1; i < b; ++i) below_before(i, j) = top(i, j);

  auto a2 = Matrix<double>::random(b, b, 43);
  Matrix<double> t(b, b);
  tpqrt<double>(top.view(), a2.view(), t.view(), 0, 0);
  for (index_t j = 0; j < b; ++j)
    for (index_t i = j + 1; i < b; ++i)
      EXPECT_EQ(top(i, j), below_before(i, j));
}

// --- TT: tpqrt / tpmqrt with l = b ----------------------------------------

class TtSizes : public ::testing::TestWithParam<int> {};

TEST_P(TtSizes, TriangleOnTriangleReconstructs) {
  const index_t b = GetParam();
  Matrix<double> r1(b, b), r2(b, b);
  auto rnd1 = Matrix<double>::random(b, b, 600 + b);
  auto rnd2 = Matrix<double>::random(b, b, 601 + b);
  for (index_t j = 0; j < b; ++j)
    for (index_t i = 0; i <= j; ++i) {
      r1(i, j) = rnd1(i, j) + (i == j ? 1.5 : 0);
      r2(i, j) = rnd2(i, j) + (i == j ? 1.5 : 0);
    }
  Matrix<double> r1_0 = r1, r2_0 = r2;
  Matrix<double> t(b, b);
  tpqrt<double>(r1.view(), r2.view(), t.view(), b, 0);

  // Q^T [R1; R2] = [R_new; 0].
  Matrix<double> c1 = r1_0, c2 = r2_0;
  tpmqrt<double>(r2.view(), t.view(), c1.view(), c2.view(), b, Trans::kTrans,
                 0);
  for (index_t j = 0; j < b; ++j) {
    for (index_t i = 0; i <= j; ++i) EXPECT_NEAR(c1(i, j), r1(i, j), 1e-9);
    for (index_t i = 0; i < b; ++i) EXPECT_NEAR(c2(i, j), 0.0, 1e-9);
  }
}

TEST_P(TtSizes, QIsOrthogonal) {
  const index_t b = GetParam();
  Matrix<double> r1(b, b), r2(b, b);
  for (index_t j = 0; j < b; ++j)
    for (index_t i = 0; i <= j; ++i) {
      r1(i, j) = (i == j) ? 3.0 + j : 0.5 * (i + j);
      r2(i, j) = (i == j) ? 2.0 + j : 0.3 * (i - j);
    }
  Matrix<double> t(b, b);
  tpqrt<double>(r1.view(), r2.view(), t.view(), b, 0);

  Matrix<double> q = Matrix<double>::identity(2 * b);
  tpmqrt<double>(r2.view(), t.view(), q.block(0, 0, b, 2 * b),
                 q.block(b, 0, b, 2 * b), b, Trans::kNoTrans, 0);
  EXPECT_LT(orthogonality_residual<double>(q.view()),
            residual_tolerance<double>(2 * b));
}

TEST_P(TtSizes, V2StaysUpperTriangular) {
  const index_t b = GetParam();
  Matrix<double> r1(b, b), r2(b, b);
  auto rnd = Matrix<double>::random(b, b, 700 + b);
  for (index_t j = 0; j < b; ++j)
    for (index_t i = 0; i <= j; ++i) {
      r1(i, j) = rnd(i, j) + (i == j ? 2 : 0);
      r2(i, j) = rnd(j, i) + (i == j ? 2 : 0);
    }
  Matrix<double> t(b, b);
  tpqrt<double>(r1.view(), r2.view(), t.view(), b, 0);
  for (index_t j = 0; j < b; ++j)
    for (index_t i = j + 1; i < b; ++i) EXPECT_EQ(r2(i, j), 0.0);
}

INSTANTIATE_TEST_SUITE_P(TileSweep, TtSizes,
                         ::testing::Values(1, 2, 4, 8, 16, 24));

// --- float precision --------------------------------------------------------

TEST(KernelsFloat, GeqrtReconstructsInSingle) {
  const index_t b = 16;
  auto a0 = Matrix<float>::random(b, b, 9);
  Matrix<float> a = a0;
  Matrix<float> t(b, b);
  geqrt<float>(a.view(), t.view());
  Matrix<float> q = Matrix<float>::identity(b);
  unmqr<float>(a.view(), t.view(), q.view(), Trans::kNoTrans, 0);
  EXPECT_LT(orthogonality_residual<float>(q.view()),
            residual_tolerance<float>(b));
}

TEST(KernelsFloat, TsqrtReconstructsInSingle) {
  const index_t b = 16;
  Matrix<float> r1(b, b);
  auto rnd = Matrix<float>::random(b, b, 10);
  for (index_t j = 0; j < b; ++j)
    for (index_t i = 0; i <= j; ++i)
      r1(i, j) = rnd(i, j) + (i == j ? 2.0f : 0.0f);
  auto a2 = Matrix<float>::random(b, b, 11);
  Matrix<float> r1_0 = r1, a2_0 = a2;
  Matrix<float> t(b, b);
  tpqrt<float>(r1.view(), a2.view(), t.view(), 0, 0);
  Matrix<float> c1 = r1_0, c2 = a2_0;
  tpmqrt<float>(a2.view(), t.view(), c1.view(), c2.view(), 0, Trans::kTrans, 0);
  for (index_t j = 0; j < b; ++j)
    for (index_t i = 0; i < b; ++i)
      EXPECT_NEAR(c2(i, j), 0.0f, 5e-5f);
}

}  // namespace
}  // namespace tqr::la

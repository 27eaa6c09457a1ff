#include "la/blas.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "la/matrix.hpp"

namespace tqr::la {
namespace {

Matrix<double> naive_mm(const Matrix<double>& a, const Matrix<double>& b,
                        bool ta, bool tb) {
  const index_t m = ta ? a.cols() : a.rows();
  const index_t k = ta ? a.rows() : a.cols();
  const index_t n = tb ? b.rows() : b.cols();
  Matrix<double> c(m, n);
  for (index_t i = 0; i < m; ++i)
    for (index_t j = 0; j < n; ++j) {
      double acc = 0;
      for (index_t p = 0; p < k; ++p) {
        const double av = ta ? a(p, i) : a(i, p);
        const double bv = tb ? b(j, p) : b(p, j);
        acc += av * bv;
      }
      c(i, j) = acc;
    }
  return c;
}

class GemmVariants : public ::testing::TestWithParam<std::pair<Trans, Trans>> {
};

TEST_P(GemmVariants, MatchesNaiveReference) {
  const auto [ta, tb] = GetParam();
  const index_t m = 7, k = 5, n = 6;
  auto a = (ta == Trans::kNoTrans) ? Matrix<double>::random(m, k, 1)
                                   : Matrix<double>::random(k, m, 1);
  auto b = (tb == Trans::kNoTrans) ? Matrix<double>::random(k, n, 2)
                                   : Matrix<double>::random(n, k, 2);
  Matrix<double> c(m, n);
  gemm<double>(ta, tb, 1.0, a.view(), b.view(), 0.0, c.view());
  auto ref = naive_mm(a, b, ta == Trans::kTrans, tb == Trans::kTrans);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i) EXPECT_NEAR(c(i, j), ref(i, j), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    AllTransCombos, GemmVariants,
    ::testing::Values(std::pair{Trans::kNoTrans, Trans::kNoTrans},
                      std::pair{Trans::kTrans, Trans::kNoTrans},
                      std::pair{Trans::kNoTrans, Trans::kTrans},
                      std::pair{Trans::kTrans, Trans::kTrans}));

TEST(Gemm, AlphaBetaScaling) {
  auto a = Matrix<double>::random(4, 4, 3);
  auto b = Matrix<double>::random(4, 4, 4);
  Matrix<double> c(4, 4);
  c.view().fill(1.0);
  gemm<double>(Trans::kNoTrans, Trans::kNoTrans, 2.0, a.view(), b.view(), 3.0,
               c.view());
  auto ref = naive_mm(a, b, false, false);
  for (index_t j = 0; j < 4; ++j)
    for (index_t i = 0; i < 4; ++i)
      EXPECT_NEAR(c(i, j), 2.0 * ref(i, j) + 3.0, 1e-12);
}

TEST(Gemm, BetaZeroOverwritesGarbage) {
  auto a = Matrix<double>::random(3, 3, 5);
  auto b = Matrix<double>::random(3, 3, 6);
  Matrix<double> c(3, 3);
  c.view().fill(std::numeric_limits<double>::quiet_NaN());
  gemm<double>(Trans::kNoTrans, Trans::kNoTrans, 1.0, a.view(), b.view(), 0.0,
               c.view());
  auto ref = naive_mm(a, b, false, false);
  for (index_t j = 0; j < 3; ++j)
    for (index_t i = 0; i < 3; ++i) EXPECT_NEAR(c(i, j), ref(i, j), 1e-12);
}

TEST(Gemm, InnerDimensionMismatchThrows) {
  Matrix<double> a(3, 4), b(5, 2), c(3, 2);
  EXPECT_THROW(gemm<double>(Trans::kNoTrans, Trans::kNoTrans, 1.0, a.view(),
                            b.view(), 0.0, c.view()),
               InvalidArgument);
}

// trmm against explicit triangular multiply.
class TrmmVariants
    : public ::testing::TestWithParam<std::tuple<UpLo, Trans, Diag>> {};

TEST_P(TrmmVariants, MatchesExplicitTriangularProduct) {
  const auto [uplo, trans, diag] = GetParam();
  const index_t m = 6, n = 4;
  auto a_full = Matrix<double>::random(m, m, 11);
  // Build the explicit triangular operator.
  Matrix<double> tri(m, m);
  for (index_t j = 0; j < m; ++j)
    for (index_t i = 0; i < m; ++i) {
      const bool keep = (uplo == UpLo::kUpper) ? (i <= j) : (i >= j);
      tri(i, j) = keep ? a_full(i, j) : 0.0;
      if (i == j && diag == Diag::kUnit) tri(i, j) = 1.0;
    }
  auto b = Matrix<double>::random(m, n, 12);
  Matrix<double> expect(m, n);
  gemm<double>(trans, Trans::kNoTrans, 1.0, tri.view(), b.view(), 0.0,
               expect.view());

  Matrix<double> got = b;
  trmm_left<double>(uplo, trans, diag, a_full.view(), got.view());
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i)
      EXPECT_NEAR(got(i, j), expect(i, j), 1e-12)
          << "at (" << i << "," << j << ")";
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, TrmmVariants,
    ::testing::Combine(::testing::Values(UpLo::kUpper, UpLo::kLower),
                       ::testing::Values(Trans::kNoTrans, Trans::kTrans),
                       ::testing::Values(Diag::kUnit, Diag::kNonUnit)));

class TrsmVariants
    : public ::testing::TestWithParam<std::tuple<UpLo, Trans, Diag>> {};

TEST_P(TrsmVariants, SolveThenMultiplyRoundTrips) {
  const auto [uplo, trans, diag] = TrsmVariants::GetParam();
  const index_t m = 6, n = 3;
  auto a = Matrix<double>::random(m, m, 21);
  for (index_t i = 0; i < m; ++i) a(i, i) += 4.0;  // well-conditioned
  auto b = Matrix<double>::random(m, n, 22);
  Matrix<double> x = b;
  trsm_left<double>(uplo, trans, diag, a.view(), x.view());
  // Multiply back: op(tri(A)) * x should equal b.
  Matrix<double> back = x;
  trmm_left<double>(uplo, trans, diag, a.view(), back.view());
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i) EXPECT_NEAR(back(i, j), b(i, j), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, TrsmVariants,
    ::testing::Combine(::testing::Values(UpLo::kUpper, UpLo::kLower),
                       ::testing::Values(Trans::kNoTrans, Trans::kTrans),
                       ::testing::Values(Diag::kUnit, Diag::kNonUnit)));

TEST(VectorOps, DotAndAxpy) {
  Matrix<double> x(4, 1), y(4, 1);
  for (index_t i = 0; i < 4; ++i) {
    x(i, 0) = i + 1;  // 1 2 3 4
    y(i, 0) = 1.0;
  }
  EXPECT_DOUBLE_EQ(dot<double>(x.view(), y.view()), 10.0);
  axpy<double>(2.0, x.view(), y.view());
  EXPECT_DOUBLE_EQ(y(3, 0), 9.0);
}

TEST(VectorOps, Nrm2MatchesHypot) {
  Matrix<double> x(3, 1);
  x(0, 0) = 3;
  x(1, 0) = 4;
  x(2, 0) = 12;
  EXPECT_NEAR(nrm2<double>(x.view()), 13.0, 1e-12);
}

TEST(VectorOps, Nrm2AvoidsOverflow) {
  Matrix<double> x(2, 1);
  x(0, 0) = 1e200;
  x(1, 0) = 1e200;
  EXPECT_NEAR(nrm2<double>(x.view()), std::sqrt(2.0) * 1e200, 1e188);
}

TEST(Norms, FrobeniusOfIdentity) {
  auto id = Matrix<double>::identity(9);
  EXPECT_NEAR(norm_frobenius<double>(id.view()), 3.0, 1e-12);
}

TEST(Norms, MaxAbs) {
  Matrix<double> m(2, 2);
  m(0, 0) = -5;
  m(1, 1) = 3;
  EXPECT_DOUBLE_EQ(norm_max<double>(m.view()), 5.0);
}

}  // namespace
}  // namespace tqr::la

namespace tqr::la {
namespace {

class TrsmRightVariants
    : public ::testing::TestWithParam<std::tuple<UpLo, Trans, Diag>> {};

TEST_P(TrsmRightVariants, SolveThenMultiplyRoundTrips) {
  const auto [uplo, trans, diag] = GetParam();
  const index_t m = 5, n = 6;
  auto a = Matrix<double>::random(n, n, 31);
  for (index_t i = 0; i < n; ++i) a(i, i) += 4.0;
  auto b = Matrix<double>::random(m, n, 32);
  Matrix<double> x = b;
  trsm_right<double>(uplo, trans, diag, a.view(), x.view());
  // Multiply back: X * op(tri(A)) must equal B. Build op(tri(A)) densely.
  Matrix<double> tri(n, n);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i) {
      const bool keep = (uplo == UpLo::kUpper) ? (i <= j) : (i >= j);
      tri(i, j) = keep ? a(i, j) : 0.0;
      if (i == j && diag == Diag::kUnit) tri(i, j) = 1.0;
    }
  Matrix<double> back(m, n);
  gemm<double>(Trans::kNoTrans, trans, 1.0, x.view(), tri.view(), 0.0,
               back.view());
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i) EXPECT_NEAR(back(i, j), b(i, j), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, TrsmRightVariants,
    ::testing::Combine(::testing::Values(UpLo::kUpper, UpLo::kLower),
                       ::testing::Values(Trans::kNoTrans, Trans::kTrans),
                       ::testing::Values(Diag::kUnit, Diag::kNonUnit)));

TEST(SyrkLower, MatchesGemmOnLowerTriangle) {
  const index_t n = 6, k = 4;
  auto a = Matrix<double>::random(n, k, 33);
  Matrix<double> c(n, n);
  c.view().fill(2.0);
  Matrix<double> expect = c;
  syrk_lower<double>(Trans::kNoTrans, 1.5, a.view(), 0.5, c.view());
  Matrix<double> aat(n, n);
  gemm<double>(Trans::kNoTrans, Trans::kTrans, 1.0, a.view(), a.view(), 0.0,
               aat.view());
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i) {
      if (i >= j)
        EXPECT_NEAR(c(i, j), 1.5 * aat(i, j) + 0.5 * 2.0, 1e-12);
      else
        EXPECT_EQ(c(i, j), 2.0);  // strictly-upper untouched
    }
}

TEST(SyrkLower, TransposedInput) {
  const index_t n = 5, k = 7;
  auto a = Matrix<double>::random(k, n, 34);
  Matrix<double> c(n, n);
  syrk_lower<double>(Trans::kTrans, 1.0, a.view(), 0.0, c.view());
  Matrix<double> ata(n, n);
  gemm<double>(Trans::kTrans, Trans::kNoTrans, 1.0, a.view(), a.view(), 0.0,
               ata.view());
  for (index_t j = 0; j < n; ++j)
    for (index_t i = j; i < n; ++i) EXPECT_NEAR(c(i, j), ata(i, j), 1e-12);
}

TEST(SyrkLower, ShapeMismatchRejected) {
  Matrix<double> a(4, 3), c(5, 5);
  EXPECT_THROW(
      syrk_lower<double>(Trans::kNoTrans, 1.0, a.view(), 0.0, c.view()),
      InvalidArgument);
}

// ---------------------------------------------------------------------------
// Degenerate / edge cases for the dispatching routines, pinned against plain
// reference triple loops: k = 0, alpha = 0, beta in {0, 1, other}, 1x1, and
// sub-views with non-unit leading dimension. These are the shapes where a
// fast path (packed gemm, blocked trmm) could silently diverge from the
// loop-based semantics.
// ---------------------------------------------------------------------------

struct DegenerateCase {
  index_t m, n, k;
  double alpha, beta;
};

class GemmDegenerate : public ::testing::TestWithParam<DegenerateCase> {};

TEST_P(GemmDegenerate, MatchesScaledReference) {
  const auto p = GetParam();
  auto a = Matrix<double>::random(p.m, p.k, 41);
  auto b = Matrix<double>::random(p.k, p.n, 42);
  const auto c0 = Matrix<double>::random(p.m, p.n, 43);
  Matrix<double> c = c0;
  gemm<double>(Trans::kNoTrans, Trans::kNoTrans, p.alpha, a.view(), b.view(),
               p.beta, c.view());
  for (index_t j = 0; j < p.n; ++j)
    for (index_t i = 0; i < p.m; ++i) {
      double acc = 0;
      for (index_t q = 0; q < p.k; ++q) acc += a(i, q) * b(q, j);
      const double want = p.alpha * acc + p.beta * c0(i, j);
      EXPECT_NEAR(c(i, j), want, 1e-11) << i << "," << j;
    }
}

INSTANTIATE_TEST_SUITE_P(
    EdgeShapes, GemmDegenerate,
    ::testing::Values(DegenerateCase{3, 4, 0, 1.0, 0.5},   // k = 0
                      DegenerateCase{5, 2, 0, 1.0, 0.0},   // k = 0, beta = 0
                      DegenerateCase{4, 4, 4, 0.0, 2.0},   // alpha = 0
                      DegenerateCase{1, 1, 1, 2.0, 3.0},   // 1x1
                      DegenerateCase{1, 7, 5, -1.0, 1.0},  // single row
                      DegenerateCase{7, 1, 5, 1.0, 0.0},   // single column
                      DegenerateCase{33, 29, 31, 1.5, 1.0}));  // packed path

TEST(GemmDegenerate, SubviewsWithNonUnitLd) {
  // All operands are interior blocks of larger matrices; the halo of C must
  // survive untouched for both the naive and the packed path.
  for (index_t s : {5, 40}) {  // below and above the dispatch threshold
    auto abig = Matrix<double>::random(s + 9, s + 6, 51);
    auto bbig = Matrix<double>::random(s + 4, s + 8, 52);
    auto cbig = Matrix<double>::random(s + 7, s + 5, 53);
    const Matrix<double> csnap = cbig;
    const auto a = ConstMatrixView<double>(abig.view()).block(2, 3, s, s);
    const auto b = ConstMatrixView<double>(bbig.view()).block(1, 4, s, s);
    auto c = cbig.view().block(3, 2, s, s);
    gemm<double>(Trans::kNoTrans, Trans::kNoTrans, 1.0, a, b, 1.0, c);
    for (index_t j = 0; j < s; ++j)
      for (index_t i = 0; i < s; ++i) {
        double acc = 0;
        for (index_t q = 0; q < s; ++q) acc += a(i, q) * b(q, j);
        EXPECT_NEAR(c(i, j), acc + csnap(3 + i, 2 + j), 1e-11 * s);
      }
    for (index_t j = 0; j < cbig.cols(); ++j)
      for (index_t i = 0; i < cbig.rows(); ++i)
        if (!(i >= 3 && i < 3 + s && j >= 2 && j < 2 + s))
          ASSERT_EQ(cbig(i, j), csnap(i, j));
  }
}

TEST(TrmmDegenerate, OneByOneAndSubview) {
  // 1x1 triangle.
  Matrix<double> a1(1, 1), b1(1, 1);
  a1(0, 0) = 3.0;
  b1(0, 0) = 2.0;
  trmm_left<double>(UpLo::kUpper, Trans::kNoTrans, Diag::kNonUnit, a1.view(),
                    b1.view());
  EXPECT_DOUBLE_EQ(b1(0, 0), 6.0);
  b1(0, 0) = 2.0;
  trmm_left<double>(UpLo::kUpper, Trans::kNoTrans, Diag::kUnit, a1.view(),
                    b1.view());
  EXPECT_DOUBLE_EQ(b1(0, 0), 2.0);

  // Sub-view with non-unit ld, m large enough for the blocked split.
  const index_t m = 80, n = 6;
  auto abig = Matrix<double>::random(m + 5, m + 5, 61);
  auto bbig = Matrix<double>::random(m + 8, n + 3, 62);
  const Matrix<double> bsnap = bbig;
  const auto a = ConstMatrixView<double>(abig.view()).block(2, 2, m, m);
  auto b = bbig.view().block(4, 1, m, n);
  trmm_left<double>(UpLo::kLower, Trans::kNoTrans, Diag::kUnit, a, b);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i) {
      double acc = bsnap(4 + i, 1 + j);  // unit diagonal
      for (index_t q = 0; q < i; ++q) acc += a(i, q) * bsnap(4 + q, 1 + j);
      ASSERT_NEAR(b(i, j), acc, 1e-10) << i << "," << j;
    }
  for (index_t j = 0; j < bbig.cols(); ++j)
    for (index_t i = 0; i < bbig.rows(); ++i)
      if (!(i >= 4 && i < 4 + m && j >= 1 && j < 1 + n))
        ASSERT_EQ(bbig(i, j), bsnap(i, j));
}

TEST(TrmmDegenerate, BlockedMatchesSmallAcrossSizes) {
  // The dispatching trmm_left (packed, or the recursive split in scalar
  // builds) must agree with the base-case loops for every uplo/trans/diag at
  // sizes straddling the split threshold, and must only read the stored
  // triangle (the other triangle is poisoned with NaN).
  for (index_t m : {31, 32, 33, 64, 97}) {
    for (auto uplo : {UpLo::kUpper, UpLo::kLower})
      for (auto trans : {Trans::kNoTrans, Trans::kTrans})
        for (auto diag : {Diag::kUnit, Diag::kNonUnit}) {
          auto a = Matrix<double>::random(m, m, 71);
          for (index_t j = 0; j < m; ++j)
            for (index_t i = 0; i < m; ++i) {
              const bool stored = (uplo == UpLo::kUpper) ? (i <= j) : (i >= j);
              if (!stored)
                a(i, j) = std::numeric_limits<double>::quiet_NaN();
            }
          auto b0 = Matrix<double>::random(m, 5, 72);
          Matrix<double> got = b0;
          trmm_left<double>(uplo, trans, diag, a.view(), got.view());
          // Reference: explicit dense triangular product.
          Matrix<double> tri(m, m);
          for (index_t j = 0; j < m; ++j)
            for (index_t i = 0; i < m; ++i) {
              const bool keep = (uplo == UpLo::kUpper) ? (i <= j) : (i >= j);
              tri(i, j) = keep ? a(i, j) : 0.0;
              if (i == j && diag == Diag::kUnit) tri(i, j) = 1.0;
            }
          Matrix<double> want(m, 5);
          gemm_naive<double>(trans, Trans::kNoTrans, 1.0, tri.view(),
                             b0.view(), 0.0, want.view());
          for (index_t j = 0; j < 5; ++j)
            for (index_t i = 0; i < m; ++i)
              ASSERT_NEAR(got(i, j), want(i, j), 1e-10 * m)
                  << "m=" << m << " i=" << i << " j=" << j;
        }
  }
}

TEST(TrsmDegenerate, OneByOneAndSubview) {
  Matrix<double> a1(1, 1), b1(1, 1);
  a1(0, 0) = 4.0;
  b1(0, 0) = 2.0;
  trsm_left<double>(UpLo::kUpper, Trans::kNoTrans, Diag::kNonUnit, a1.view(),
                    b1.view());
  EXPECT_DOUBLE_EQ(b1(0, 0), 0.5);
  trsm_right<double>(UpLo::kLower, Trans::kNoTrans, Diag::kNonUnit, a1.view(),
                     b1.view());
  EXPECT_DOUBLE_EQ(b1(0, 0), 0.125);

  // trsm_left and trsm_right on interior sub-views round-trip through trmm.
  const index_t m = 9, n = 7;
  auto abig = Matrix<double>::random(m + 4, m + 4, 81);
  for (index_t i = 0; i < m + 4; ++i) abig(i, i) += 4.0;
  auto bbig = Matrix<double>::random(m + 6, n + 2, 82);
  const Matrix<double> bsnap = bbig;
  const auto a = ConstMatrixView<double>(abig.view()).block(1, 1, m, m);
  auto b = bbig.view().block(2, 1, m, n);
  Matrix<double> rhs(m, n);
  copy<double>(ConstMatrixView<double>(b), rhs.view());
  trsm_left<double>(UpLo::kLower, Trans::kTrans, Diag::kNonUnit, a, b);
  Matrix<double> back(m, n);
  copy<double>(ConstMatrixView<double>(b), back.view());
  trmm_left<double>(UpLo::kLower, Trans::kTrans, Diag::kNonUnit, a,
                    back.view());
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i)
      EXPECT_NEAR(back(i, j), rhs(i, j), 1e-9);
  for (index_t j = 0; j < bbig.cols(); ++j)
    for (index_t i = 0; i < bbig.rows(); ++i)
      if (!(i >= 2 && i < 2 + m && j >= 1 && j < 1 + n))
        ASSERT_EQ(bbig(i, j), bsnap(i, j));
}

TEST(TrsmRightDegenerate, IdentityOperatorAndZeroRhs) {
  // Zero RHS against an identity triangle stays exactly zero.
  Matrix<double> a(3, 3);
  a.view().set_identity();
  Matrix<double> b(4, 3);
  auto bv = b.view().block(0, 0, 4, 3);
  trsm_right<double>(UpLo::kUpper, Trans::kNoTrans, Diag::kUnit, a.view(), bv);
  for (index_t j = 0; j < 3; ++j)
    for (index_t i = 0; i < 4; ++i) EXPECT_EQ(b(i, j), 0.0);
}

// ---------------------------------------------------------------------------
// trmm_left property sweep against an explicit dense triangular product:
// all 8 (uplo, trans, diag) cases, fp32 and fp64, dimensions around
// the micro-kernel's MR and the tile sizes, every operand an interior
// sub-view with ld > rows. A's unstored triangle, its halo and (under kUnit)
// its diagonal hold NaN, so reading any of them poisons the result; B's halo
// must come back bit-identical. The out-of-place left form is checked in
// both its overwrite (beta = 0 over a NaN C) and accumulate (C -= op(A) B)
// uses. Pairs whose reference product exceeds ~129^3 multiply-adds are
// skipped to bound the run time.
// ---------------------------------------------------------------------------

template <typename T>
class TrmmProperty : public ::testing::Test {};
using TrmmTypes = ::testing::Types<float, double>;
TYPED_TEST_SUITE(TrmmProperty, TrmmTypes);

enum class TrmmMode { kInPlace, kOverwrite, kAccumulate };

template <typename T>
std::vector<index_t> trmm_sizes() {
  const index_t mr = mk::RegisterBlocking<T>::mr;
  return {1, mr - 1, mr, mr + 1, 33, 127, 128, 129, 300};
}

/// Runs one trmm on interior sub-views and checks it element-wise against
/// the dense product computed in double.
template <typename T>
::testing::AssertionResult trmm_matches_dense(UpLo uplo, Trans trans,
                                              Diag diag, index_t m, index_t n,
                                              TrmmMode mode) {
  const T nan = std::numeric_limits<T>::quiet_NaN();
  const bool unit = (diag == Diag::kUnit);
  const index_t k = m;
  const auto seed = static_cast<std::uint64_t>(m * 1000 + n);

  // A: k x k at (2, 3) of a NaN-poisoned frame; only the stored triangle
  // (strictly, under kUnit) holds numbers. opa is the dense op(A).
  auto abig = Matrix<T>::random(k + 5, k + 4, seed);
  Matrix<double> opa(k, k);
  for (index_t j = 0; j < abig.cols(); ++j)
    for (index_t i = 0; i < abig.rows(); ++i) {
      const index_t ii = i - 2, jj = j - 3;
      const bool inside = ii >= 0 && ii < k && jj >= 0 && jj < k;
      const bool stored = inside && (uplo == UpLo::kUpper ? ii <= jj : ii >= jj);
      double v = 0;
      if (inside && ii == jj && unit) {
        v = 1;
        abig(i, j) = nan;
      } else if (stored) {
        v = abig(i, j);
      } else {
        abig(i, j) = nan;
      }
      if (inside) (trans == Trans::kNoTrans ? opa(ii, jj) : opa(jj, ii)) = v;
    }
  const auto a = ConstMatrixView<T>(abig.view()).block(2, 3, k, k);

  auto bbig = Matrix<T>::random(m + 5, n + 4, seed + 1);
  auto cbig = Matrix<T>::random(m + 4, n + 6, seed + 2);
  if (mode == TrmmMode::kOverwrite) cbig.view().block(1, 2, m, n).fill(nan);
  const Matrix<T> bsnap = bbig, csnap = cbig;
  auto b = bbig.view().block(2, 3, m, n);
  auto c = cbig.view().block(1, 2, m, n);

  auto out = b;
  if (mode == TrmmMode::kInPlace) {
    trmm_left<T>(uplo, trans, diag, a, b);
  } else {
    const T alpha = mode == TrmmMode::kAccumulate ? T(-1) : T(1);
    const T beta = mode == TrmmMode::kAccumulate ? T(1) : T(0);
    trmm_left<T>(uplo, trans, diag, alpha, a, b, beta, c);
    out = c;
  }

  const double eps = std::numeric_limits<T>::epsilon();
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i) {
      double ref = 0, mag = 0;
      for (index_t p = 0; p < k; ++p) {
        const double term = opa(i, p) * bsnap(2 + p, 3 + j);
        ref += term;
        mag += std::abs(term);
      }
      if (mode == TrmmMode::kAccumulate) {
        ref = csnap(1 + i, 2 + j) - ref;
        mag += std::abs(csnap(1 + i, 2 + j));
      }
      const double got = out(i, j);
      if (!(std::abs(got - ref) <= 2.0 * (k + 2) * eps * mag))
        return ::testing::AssertionFailure()
               << "(" << i << "," << j << ") got " << got << " want " << ref;
    }
  // Nothing outside the destination block moves; B is only read out of
  // place.
  const Matrix<T>& dst = mode == TrmmMode::kInPlace ? bbig : cbig;
  const Matrix<T>& snap = mode == TrmmMode::kInPlace ? bsnap : csnap;
  const index_t i0 = mode == TrmmMode::kInPlace ? 2 : 1;
  const index_t j0 = mode == TrmmMode::kInPlace ? 3 : 2;
  for (index_t j = 0; j < dst.cols(); ++j)
    for (index_t i = 0; i < dst.rows(); ++i)
      if ((i < i0 || i >= i0 + m || j < j0 || j >= j0 + n) &&
          dst(i, j) != snap(i, j))
        return ::testing::AssertionFailure()
               << "halo (" << i << "," << j << ") changed";
  if (mode != TrmmMode::kInPlace)
    for (index_t j = 0; j < bbig.cols(); ++j)
      for (index_t i = 0; i < bbig.rows(); ++i)
        if (bbig(i, j) != bsnap(i, j))
          return ::testing::AssertionFailure() << "B changed at (" << i
                                               << "," << j << ")";
  return ::testing::AssertionSuccess();
}

template <typename T>
void sweep_trmm(TrmmMode mode) {
  for (index_t m : trmm_sizes<T>())
    for (index_t n : trmm_sizes<T>()) {
      if (m * m * n > 129 * 129 * 129) continue;
      for (auto uplo : {UpLo::kUpper, UpLo::kLower})
        for (auto trans : {Trans::kNoTrans, Trans::kTrans})
          for (auto diag : {Diag::kUnit, Diag::kNonUnit})
            ASSERT_TRUE(trmm_matches_dense<T>(uplo, trans, diag, m, n, mode))
                << "m=" << m << " n=" << n << " uplo="
                << (uplo == UpLo::kUpper ? "U" : "L")
                << " trans=" << (trans == Trans::kTrans ? "T" : "N")
                << " diag=" << (diag == Diag::kUnit ? "U" : "N");
    }
}

TYPED_TEST(TrmmProperty, LeftInPlaceMatchesDenseProduct) {
  sweep_trmm<TypeParam>(TrmmMode::kInPlace);
}

TYPED_TEST(TrmmProperty, LeftOverwriteNeverReadsC) {
  sweep_trmm<TypeParam>(TrmmMode::kOverwrite);
}

TYPED_TEST(TrmmProperty, LeftAccumulateSubtractsProduct) {
  sweep_trmm<TypeParam>(TrmmMode::kAccumulate);
}

}  // namespace
}  // namespace tqr::la

// Equivalence suite for the packed register-tiled GEMM engine.
//
// The engine is pinned against a plain reference triple loop (not against
// la::gemm, which itself dispatches into the engine) over:
//   - every fringe shape in [1 .. 2*MR] x [1 .. 2*NR] with k crossing the KC
//     blocking boundary (a shrunken kc makes the sweep exhaustive AND cheap),
//   - all four transpose combinations,
//   - the alpha/beta special cases the write-back path branches on,
//   - sub-views with non-unit leading dimension,
//   - a large multi-panel problem exercising every cache-blocking loop.
//
// Tolerances: the engine reorders the k-summation, so results differ from
// the reference by floating-point non-associativity only. For operands in
// [-1, 1) each output element is a k-term dot product; 32 * eps * max(1, k)
// bounds the reordering error with a wide margin while still failing on any
// real indexing/packing bug (those produce O(1) errors).
#include "la/microkernel.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "la/blas.hpp"
#include "la/matrix.hpp"

namespace tqr::la {
namespace {

constexpr int kMr = mk::RegisterBlocking<double>::mr;
constexpr int kNr = mk::RegisterBlocking<double>::nr;

Matrix<double> reference_gemm(Trans ta, Trans tb, double alpha,
                              ConstMatrixView<double> a,
                              ConstMatrixView<double> b, double beta,
                              ConstMatrixView<double> c0) {
  const index_t m = c0.rows, n = c0.cols;
  const index_t k = (ta == Trans::kNoTrans) ? a.cols : a.rows;
  Matrix<double> c(m, n);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i) {
      double acc = 0;
      for (index_t p = 0; p < k; ++p) {
        const double av = (ta == Trans::kNoTrans) ? a(i, p) : a(p, i);
        const double bv = (tb == Trans::kNoTrans) ? b(p, j) : b(j, p);
        acc += av * bv;
      }
      c(i, j) = alpha * acc + (beta == 0.0 ? 0.0 : beta * c0(i, j));
    }
  return c;
}

double tol_for(index_t k) {
  return 32.0 * std::numeric_limits<double>::epsilon() *
         std::max<double>(1.0, static_cast<double>(k));
}

void expect_packed_matches(Trans ta, Trans tb, double alpha, double beta,
                           index_t m, index_t n, index_t k,
                           const mk::Blocking& bs) {
  const auto a = (ta == Trans::kNoTrans) ? Matrix<double>::random(m, k, 101)
                                         : Matrix<double>::random(k, m, 101);
  const auto b = (tb == Trans::kNoTrans) ? Matrix<double>::random(k, n, 202)
                                         : Matrix<double>::random(n, k, 202);
  const auto c0 = Matrix<double>::random(m, n, 303);
  Matrix<double> c = c0;
  mk::gemm_packed<double>(ta, tb, alpha, a.view(), b.view(), beta, c.view(),
                          bs);
  const auto ref =
      reference_gemm(ta, tb, alpha, a.view(), b.view(), beta, c0.view());
  const double tol = tol_for(k) * std::max(1.0, std::abs(alpha)) *
                     std::max<double>(1.0, k);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i)
      ASSERT_NEAR(c(i, j), ref(i, j), tol)
          << "m=" << m << " n=" << n << " k=" << k << " i=" << i << " j=" << j;
}

TEST(Microkernel, ExhaustiveFringeShapes) {
  // kc = 8 shrinks the blocking so k in [1 .. 16] crosses the KC boundary;
  // mc/nc sized so m/n cross the MC/NC boundaries too.
  const mk::Blocking bs{8, 2 * kMr, 2 * kNr};
  for (index_t m = 1; m <= 2 * kMr; ++m)
    for (index_t n = 1; n <= 2 * kNr; ++n)
      for (index_t k = 1; k <= 2 * bs.kc; k += (k < 4 ? 1 : 3))
        expect_packed_matches(Trans::kNoTrans, Trans::kNoTrans, 1.0, 0.0, m, n,
                              k, bs);
}

TEST(Microkernel, ExhaustiveKSweep) {
  const mk::Blocking bs{8, 2 * kMr, 2 * kNr};
  // Fixed awkward m/n, every k through two full KC slices.
  for (index_t k = 1; k <= 2 * bs.kc; ++k)
    expect_packed_matches(Trans::kNoTrans, Trans::kNoTrans, 1.0, 1.0,
                          kMr + 3, kNr + 1, k, bs);
}

TEST(Microkernel, AllTransCombos) {
  const mk::Blocking bs{8, 2 * kMr, 2 * kNr};
  for (auto ta : {Trans::kNoTrans, Trans::kTrans})
    for (auto tb : {Trans::kNoTrans, Trans::kTrans})
      for (index_t m : {1, kMr - 1, kMr, kMr + 1, 2 * kMr})
        for (index_t n : {1, kNr - 1, kNr, kNr + 1, 2 * kNr})
          expect_packed_matches(ta, tb, 1.0, 0.0, m, n, 11, bs);
}

TEST(Microkernel, AlphaBetaCases) {
  const mk::Blocking bs{8, 2 * kMr, 2 * kNr};
  for (double alpha : {0.0, 1.0, -1.0, 2.5})
    for (double beta : {0.0, 1.0, -0.75})
      expect_packed_matches(Trans::kNoTrans, Trans::kNoTrans, alpha, beta,
                            kMr + 2, kNr + 2, 9, bs);
}

TEST(Microkernel, BetaZeroNeverReadsC) {
  // Seed C with NaN: beta == 0 must overwrite, not accumulate.
  const index_t m = kMr + 1, n = kNr + 1, k = 5;
  const auto a = Matrix<double>::random(m, k, 7);
  const auto b = Matrix<double>::random(k, n, 8);
  Matrix<double> c(m, n);
  c.view().fill(std::numeric_limits<double>::quiet_NaN());
  mk::gemm_packed<double>(Trans::kNoTrans, Trans::kNoTrans, 1.0, a.view(),
                          b.view(), 0.0, c.view(), mk::Blocking{8, 16, 8});
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i) ASSERT_TRUE(std::isfinite(c(i, j)));
}

TEST(Microkernel, TrmmPackedMatchesDenseProduct) {
  // All 8 (uplo, trans, diag) cases, in place (b == c) and accumulating
  // (C -= op(A) B), against gemm on the dense triangle. The small blocking
  // makes the multiply walk several column chunks of B. A's unstored
  // triangle and, under kUnit, its diagonal hold NaN.
  const mk::Blocking bs{8, 2 * kMr, 2 * kNr};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (auto uplo : {UpLo::kUpper, UpLo::kLower})
    for (auto trans : {Trans::kNoTrans, Trans::kTrans})
      for (auto diag : {Diag::kUnit, Diag::kNonUnit})
        for (index_t m : {1, kMr - 1, kMr + 1, 2 * kMr + 3})
          for (index_t n : {1, kNr - 1, kNr + 1, 2 * kNr + 5})
            for (bool accumulate : {false, true}) {
              auto a = Matrix<double>::random(m, m, 31);
              Matrix<double> tri(m, m);
              for (index_t j = 0; j < m; ++j)
                for (index_t i = 0; i < m; ++i) {
                  const bool stored =
                      (uplo == UpLo::kUpper) ? (i <= j) : (i >= j);
                  if (i == j && diag == Diag::kUnit) {
                    tri(i, j) = 1.0;
                    a(i, j) = nan;
                  } else if (stored) {
                    tri(i, j) = a(i, j);
                  } else {
                    a(i, j) = nan;
                  }
                }
              const auto b0 = Matrix<double>::random(m, n, 32);
              const auto c0 = Matrix<double>::random(m, n, 33);
              const double alpha = accumulate ? -1.0 : 1.0;
              const double beta = accumulate ? 1.0 : 0.0;
              const auto ref =
                  reference_gemm(trans, Trans::kNoTrans, alpha, tri.view(),
                                 b0.view(), beta, c0.view());
              Matrix<double> c = accumulate ? c0 : b0;
              mk::trmm_packed<double>(uplo, trans, diag, alpha, a.view(),
                                      accumulate ? b0.view() : c.view(), beta,
                                      c.view(), bs);
              for (index_t j = 0; j < n; ++j)
                for (index_t i = 0; i < m; ++i)
                  ASSERT_NEAR(c(i, j), ref(i, j), tol_for(m) * m)
                      << " m=" << m << " n=" << n
                      << " accumulate=" << accumulate;
            }
}

TEST(Microkernel, NonUnitLeadingDimensionSubviews) {
  // Operate on interior sub-blocks of larger matrices so every view has
  // ld > rows, and check the surrounding halo is untouched.
  const index_t m = kMr + 5, n = kNr + 3, k = 13;
  auto abig = Matrix<double>::random(m + 7, k + 4, 11);
  auto bbig = Matrix<double>::random(k + 6, n + 5, 12);
  auto cbig = Matrix<double>::random(m + 9, n + 8, 13);
  const Matrix<double> csnap = cbig;

  const auto a = ConstMatrixView<double>(abig.view()).block(3, 2, m, k);
  const auto b = ConstMatrixView<double>(bbig.view()).block(4, 1, k, n);
  auto c = cbig.view().block(5, 2, m, n);
  mk::gemm_packed<double>(Trans::kNoTrans, Trans::kNoTrans, 1.0, a, b, 1.0, c,
                          mk::Blocking{8, 16, 8});

  const auto ref = reference_gemm(Trans::kNoTrans, Trans::kNoTrans, 1.0, a, b,
                                  1.0, csnap.view().block(5, 2, m, n));
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i)
      ASSERT_NEAR(c(i, j), ref(i, j), tol_for(k));
  // Halo untouched.
  for (index_t j = 0; j < cbig.cols(); ++j)
    for (index_t i = 0; i < cbig.rows(); ++i) {
      const bool inside = i >= 5 && i < 5 + m && j >= 2 && j < 2 + n;
      if (!inside) ASSERT_EQ(cbig(i, j), csnap(i, j));
    }
}

TEST(Microkernel, LargeMultiPanelProblem) {
  // Big enough that every cache-blocking loop runs more than once with the
  // default blocking, plus ragged edges everywhere.
  const index_t m = 301, n = 157, k = 263;
  expect_packed_matches(Trans::kNoTrans, Trans::kNoTrans, 1.0, -1.0, m, n, k,
                        mk::default_blocking<double>());
}

TEST(Microkernel, FloatEngineMatchesReference) {
  const index_t m = 37, n = 19, k = 23;
  const auto a = Matrix<float>::random(m, k, 21);
  const auto b = Matrix<float>::random(k, n, 22);
  Matrix<float> c(m, n);
  mk::gemm_packed<float>(Trans::kNoTrans, Trans::kNoTrans, 1.0f, a.view(),
                         b.view(), 0.0f, c.view());
  Matrix<float> ref(m, n);
  gemm_naive<float>(Trans::kNoTrans, Trans::kNoTrans, 1.0f, a.view(),
                    b.view(), 0.0f, ref.view());
  const float tol = 32.0f * std::numeric_limits<float>::epsilon() * k;
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i) ASSERT_NEAR(c(i, j), ref(i, j), tol);
}

TEST(Microkernel, DispatchThreshold) {
  // The gemm front door must route tiny problems to the loops (no packing
  // overhead) and tile-sized ones into the engine; both must be correct.
  EXPECT_FALSE(mk::use_packed(4, 4, 4));
  EXPECT_FALSE(mk::use_packed(64, 64, 2));
  EXPECT_TRUE(mk::use_packed(16, 16, 16));
  EXPECT_TRUE(mk::use_packed(256, 256, 256));
  for (index_t s : {4, 8, 16, 32, 64}) {
    const auto a = Matrix<double>::random(s, s, 31);
    const auto b = Matrix<double>::random(s, s, 32);
    Matrix<double> c(s, s);
    gemm<double>(Trans::kNoTrans, Trans::kNoTrans, 1.0, a.view(), b.view(),
                 0.0, c.view());
    const auto ref = reference_gemm(Trans::kNoTrans, Trans::kNoTrans, 1.0,
                                    a.view(), b.view(), 0.0, c.view());
    for (index_t j = 0; j < s; ++j)
      for (index_t i = 0; i < s; ++i)
        ASSERT_NEAR(c(i, j), ref(i, j), tol_for(s));
  }
}

TEST(Microkernel, PackedBuffersAreAligned) {
  // The engine loads vectors from Matrix storage and its packing buffers;
  // both must sit on kMatrixAlignment boundaries.
  Matrix<double> m(33, 17);
  EXPECT_TRUE(is_matrix_aligned(m.data()));
  AlignedVector<double> v(129);
  EXPECT_TRUE(is_matrix_aligned(v.data()));
}

}  // namespace
}  // namespace tqr::la

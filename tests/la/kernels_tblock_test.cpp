// The one T contract of the factor kernels (la/kernels.hpp): geqrt and both
// tpqrt shapes (l = 0 for TS, l = b for TT) leave in T the panels' ib x ib
// diagonal blocks, each matching the block the unblocked kernel builds for
// the same reflectors, and exact zeros everywhere else; unmqr/tpmqrt given
// the same ib reproduce Q and Q^T. tpqrt's panels run the recursive leaf,
// so its T blocks (T12 = -T11 V1^T V2 T22 between halves) are checked
// against the column loop's. Swept over tile widths around the default
// block width, square and taller tiles, seven ib choices and both
// precisions. Also: tiles scaled down into the subnormal range factor to
// finite R and T (larfg's safe-minimum rescale), for the default ib and for
// one full-width panel.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <tuple>

#include "la/checks.hpp"
#include "la/kernels.hpp"

namespace tqr::la {
namespace {

template <typename T>
Matrix<T> nan_filled(index_t rows, index_t cols) {
  Matrix<T> m(rows, cols);
  m.view().fill(std::numeric_limits<T>::quiet_NaN());
  return m;
}

/// Upper-triangular b x b tile with a boosted diagonal, scaled by `scale`.
template <typename T>
Matrix<T> random_triangle(index_t b, std::uint64_t seed, T scale = T(1)) {
  const auto rnd = Matrix<T>::random(b, b, seed);
  Matrix<T> r(b, b);
  for (index_t j = 0; j < b; ++j)
    for (index_t i = 0; i <= j; ++i)
      r(i, j) = (rnd(i, j) + (i == j ? T(2) : T(0))) * scale;
  return r;
}

/// Rows of `top` stacked over rows of `bottom` (same column count).
template <typename T>
Matrix<T> stack(const Matrix<T>& top, const Matrix<T>& bottom) {
  Matrix<T> s(top.rows() + bottom.rows(), top.cols());
  copy<T>(top.view(), s.block(0, 0, top.rows(), top.cols()));
  copy<T>(bottom.view(), s.block(top.rows(), 0, bottom.rows(), top.cols()));
  return s;
}

/// The n x n upper triangle of `a` in an m x n matrix with zero rows below.
template <typename T>
Matrix<T> r_padded(const Matrix<T>& a, index_t m) {
  const index_t n = a.cols();
  Matrix<T> r(m, n);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i <= j; ++i) r(i, j) = a(i, j);
  return r;
}

/// T's nb x nb diagonal blocks (upper triangles) match `t_ref`, the full T
/// of the unblocked kernel, to O(eps); every other entry is exactly zero.
template <typename T>
void expect_block_diagonal(const Matrix<T>& t, const Matrix<T>& t_ref,
                           index_t nb, double tol) {
  const index_t b = t.cols();
  double worst = 0, scale = 1;
  for (index_t j = 0; j < b; ++j)
    for (index_t i = 0; i < b; ++i) {
      if (i / nb == j / nb && i <= j) {
        worst = std::max(worst, std::abs(static_cast<double>(t(i, j)) -
                                         static_cast<double>(t_ref(i, j))));
        scale = std::max(scale, std::abs(static_cast<double>(t_ref(i, j))));
      } else {
        ASSERT_EQ(t(i, j), T(0)) << "T(" << i << "," << j << ") off block";
      }
    }
  EXPECT_LT(worst / scale, tol);
}

/// (tile width b, rows beyond b, ib).
using Case = std::tuple<int, int, int>;

class TBlockContract : public ::testing::TestWithParam<Case> {
 protected:
  template <typename T>
  void check_geqrt() {
    const auto [b, extra, ib] = GetParam();
    const index_t m = b + extra;
    const index_t nb = ib <= 0 ? std::min<index_t>(kPanelBase, b)
                               : std::min<index_t>(ib, b);
    const auto a0 = Matrix<T>::random(m, b, 100 + 7 * b + extra);
    Matrix<T> a = a0, ref = a0;
    Matrix<T> t = nan_filled<T>(b, b), t_ref(b, b);
    geqrt<T>(a.view(), t.view(), ib);
    geqrt_unblocked<T>(ref.view(), t_ref.view());
    expect_block_diagonal(t, t_ref, nb, residual_tolerance<T>(m, 250.0));

    const double tol = residual_tolerance<T>(m);
    Matrix<T> q = Matrix<T>::identity(m);
    unmqr<T>(a.view(), t.view(), q.view(), Trans::kNoTrans, ib);
    EXPECT_LT(orthogonality_residual<T>(q.view()), tol);
    const Matrix<T> r = r_padded(a, m);
    EXPECT_LT(reconstruction_residual<T>(a0.view(), q.view(), r.view()), tol);

    Matrix<T> qta = a0;
    unmqr<T>(a.view(), t.view(), qta.view(), Trans::kTrans, ib);
    EXPECT_LT(relative_error<T>(qta.view(), r.view()), tol);

    const auto c0 = Matrix<T>::random(m, 7, 200 + b);
    Matrix<T> c = c0;
    unmqr<T>(a.view(), t.view(), c.view(), Trans::kTrans, ib);
    unmqr<T>(a.view(), t.view(), c.view(), Trans::kNoTrans, ib);
    EXPECT_LT(relative_error<T>(c.view(), c0.view()), tol);
  }

  template <typename T>
  void check_tsqrt() {
    const auto [b, extra, ib] = GetParam();
    const index_t m2 = b + extra, m = b + m2;
    const index_t nb = ib <= 0 ? std::min<index_t>(kPanelBase, b)
                               : std::min<index_t>(ib, b);
    const Matrix<T> r1_0 = random_triangle<T>(b, 300 + b);
    const auto a2_0 = Matrix<T>::random(m2, b, 400 + 7 * b + extra);
    Matrix<T> r1 = r1_0, a2 = a2_0, r1_ref = r1_0, a2_ref = a2_0;
    Matrix<T> t = nan_filled<T>(b, b), t_ref(b, b);
    tpqrt<T>(r1.view(), a2.view(), t.view(), 0, ib);
    tpqrt_unblocked<T>(r1_ref.view(), a2_ref.view(), t_ref.view(), 0);
    expect_block_diagonal(t, t_ref, nb, residual_tolerance<T>(m, 250.0));

    // Q of the stacked pair, formed by applying it to the identity.
    const double tol = residual_tolerance<T>(m);
    Matrix<T> q = Matrix<T>::identity(m);
    tpmqrt<T>(a2.view(), t.view(), q.block(0, 0, b, m), q.block(b, 0, m2, m), 0,
              Trans::kNoTrans, ib);
    EXPECT_LT(orthogonality_residual<T>(q.view()), tol);
    const Matrix<T> stacked = stack(r1_0, a2_0);
    const Matrix<T> r = r_padded(r1, m);
    EXPECT_LT(reconstruction_residual<T>(stacked.view(), q.view(), r.view()),
              tol);

    Matrix<T> qta = stacked;
    tpmqrt<T>(a2.view(), t.view(), qta.block(0, 0, b, b),
              qta.block(b, 0, m2, b), 0, Trans::kTrans, ib);
    EXPECT_LT(relative_error<T>(qta.view(), r.view()), tol);

    const auto c0 = Matrix<T>::random(m, 7, 500 + b);
    Matrix<T> c = c0;
    tpmqrt<T>(a2.view(), t.view(), c.block(0, 0, b, 7), c.block(b, 0, m2, 7), 0,
              Trans::kTrans, ib);
    tpmqrt<T>(a2.view(), t.view(), c.block(0, 0, b, 7), c.block(b, 0, m2, 7), 0,
              Trans::kNoTrans, ib);
    EXPECT_LT(relative_error<T>(c.view(), c0.view()), tol);
  }

  /// TT shape, l = b: the bottom tile is `extra` dense rows over a b x b
  /// upper triangle (the TT tile itself when extra == 0). Below the triangle
  /// sits a sentinel that neither the factor nor the apply may read or
  /// write.
  template <typename T>
  void check_ttqrt() {
    const auto [b, extra, ib] = GetParam();
    const index_t m2 = b + extra, m = b + m2;
    const index_t nb = ib <= 0 ? std::min<index_t>(kPanelBase, b)
                               : std::min<index_t>(ib, b);
    const T kSentinel = T(-777.25);
    const Matrix<T> r1_0 = random_triangle<T>(b, 800 + b);
    Matrix<T> pent(m2, b), v2_0(m2, b);
    const auto rnd = Matrix<T>::random(m2, b, 900 + 7 * b + extra);
    for (index_t j = 0; j < b; ++j)
      for (index_t i = 0; i < m2; ++i) {
        const bool stored = i <= extra + j;
        pent(i, j) = stored ? rnd(i, j) + (i == extra + j ? T(2) : T(0)) : T(0);
        v2_0(i, j) = stored ? pent(i, j) : kSentinel;
      }
    Matrix<T> r1 = r1_0, v2 = v2_0, r1_ref = r1_0, v2_ref = v2_0;
    Matrix<T> t = nan_filled<T>(b, b), t_ref(b, b);
    tpqrt<T>(r1.view(), v2.view(), t.view(), b, ib);
    tpqrt_unblocked<T>(r1_ref.view(), v2_ref.view(), t_ref.view(), b);
    for (index_t j = 0; j < b; ++j)
      for (index_t i = extra + j + 1; i < m2; ++i)
        ASSERT_EQ(v2(i, j), kSentinel) << "V2(" << i << "," << j << ")";
    expect_block_diagonal(t, t_ref, nb, residual_tolerance<T>(m, 250.0));

    const double tol = residual_tolerance<T>(m);
    Matrix<T> q = Matrix<T>::identity(m);
    tpmqrt<T>(v2.view(), t.view(), q.block(0, 0, b, m), q.block(b, 0, m2, m),
              b, Trans::kNoTrans, ib);
    EXPECT_LT(orthogonality_residual<T>(q.view()), tol);
    const Matrix<T> stacked = stack(r1_0, pent);
    const Matrix<T> r = r_padded(r1, m);
    EXPECT_LT(reconstruction_residual<T>(stacked.view(), q.view(), r.view()),
              tol);

    Matrix<T> qta = stacked;
    tpmqrt<T>(v2.view(), t.view(), qta.block(0, 0, b, b),
              qta.block(b, 0, m2, b), b, Trans::kTrans, ib);
    EXPECT_LT(relative_error<T>(qta.view(), r.view()), tol);

    const auto c0 = Matrix<T>::random(m, 7, 1000 + b);
    Matrix<T> c = c0;
    tpmqrt<T>(v2.view(), t.view(), c.block(0, 0, b, 7), c.block(b, 0, m2, 7),
              b, Trans::kTrans, ib);
    tpmqrt<T>(v2.view(), t.view(), c.block(0, 0, b, 7), c.block(b, 0, m2, 7),
              b, Trans::kNoTrans, ib);
    EXPECT_LT(relative_error<T>(c.view(), c0.view()), tol);
  }
};

TEST_P(TBlockContract, GeqrtFp32) { check_geqrt<float>(); }
TEST_P(TBlockContract, GeqrtFp64) { check_geqrt<double>(); }
TEST_P(TBlockContract, TsqrtFp32) { check_tsqrt<float>(); }
TEST_P(TBlockContract, TsqrtFp64) { check_tsqrt<double>(); }
TEST_P(TBlockContract, TtqrtFp32) { check_ttqrt<float>(); }
TEST_P(TBlockContract, TtqrtFp64) { check_ttqrt<double>(); }

INSTANTIATE_TEST_SUITE_P(
    Tiles, TBlockContract,
    ::testing::Combine(::testing::Values(1, 31, 32, 33, 64, 100, 128, 129,
                                         256),
                       ::testing::Values(0, 17),
                       // 0 = kPanelBase; 512 >= every b = one full-T block,
                       // i.e. the recursive leaf over the whole width. 1 and
                       // 16 keep each panel inside the leaf's column-loop
                       // base; 23 splits it unevenly.
                       ::testing::Values(0, 1, 8, 16, 23, 32, 512)),
    [](const ::testing::TestParamInfo<Case>& info) {
      // Appended piecewise: GCC 12 misreports "literal" + std::string
      // temporaries here under -Wrestrict.
      const int b = std::get<0>(info.param);
      std::string name = "b";
      name += std::to_string(b);
      name += "m";
      name += std::to_string(b + std::get<1>(info.param));
      name += "ib";
      name += std::to_string(std::get<2>(info.param));
      return name;
    });

// ---- Tiles scaled into the subnormal range --------------------------------

template <typename T>
struct TinyScales;
template <>
struct TinyScales<float> {
  static constexpr float kScales[] = {1e-39f, 1e-40f};
  static constexpr int kUp = 100;  // 2^100 lifts the residual check to normal
};
template <>
struct TinyScales<double> {
  static constexpr double kScales[] = {1e-310};
  static constexpr int kUp = 1000;
};

/// ||A - Q R|| / ||A|| on copies of A and R multiplied by 2^up (exact), so
/// the check's own arithmetic does not run in the subnormal range.
template <typename T>
double scaled_reconstruction(const Matrix<T>& a, const Matrix<T>& q,
                             const Matrix<T>& r, int up) {
  Matrix<T> a_up = a, r_up = r;
  for (index_t j = 0; j < a.cols(); ++j)
    for (index_t i = 0; i < a.rows(); ++i) {
      a_up(i, j) = std::ldexp(a(i, j), up);
      r_up(i, j) = std::ldexp(r(i, j), up);
    }
  return reconstruction_residual<T>(a_up.view(), q.view(), r_up.view());
}

template <typename T>
class SubnormalTiles : public ::testing::Test {};
using Precisions = ::testing::Types<float, double>;
TYPED_TEST_SUITE(SubnormalTiles, Precisions);

TYPED_TEST(SubnormalTiles, GeqrtStaysFiniteAndAccurate) {
  using T = TypeParam;
  const index_t b = 128;
  for (const T scale : TinyScales<T>::kScales) {
    Matrix<T> a0 = Matrix<T>::random(b, b, 600);
    for (index_t j = 0; j < b; ++j)
      for (index_t i = 0; i < b; ++i) a0(i, j) *= scale;
    Matrix<T> a = a0, t(b, b);
    geqrt<T>(a.view(), t.view());
    EXPECT_TRUE(all_finite<T>(a.view())) << "scale " << scale;
    EXPECT_TRUE(all_finite<T>(t.view())) << "scale " << scale;

    Matrix<T> q = Matrix<T>::identity(b);
    unmqr<T>(a.view(), t.view(), q.view(), Trans::kNoTrans, 0);
    EXPECT_LT(scaled_reconstruction(a0, q, r_padded(a, b), TinyScales<T>::kUp),
              residual_tolerance<T>(b))
        << "scale " << scale;
  }
}

TYPED_TEST(SubnormalTiles, TsqrtStaysFiniteAndAccurate) {
  using T = TypeParam;
  const index_t b = 128, m = 2 * b;
  for (const index_t ib : {index_t(0), b}) {
    for (const T scale : TinyScales<T>::kScales) {
      const Matrix<T> r1_0 = random_triangle<T>(b, 700, scale);
      Matrix<T> a2_0 = Matrix<T>::random(b, b, 701);
      for (index_t j = 0; j < b; ++j)
        for (index_t i = 0; i < b; ++i) a2_0(i, j) *= scale;
      Matrix<T> r1 = r1_0, a2 = a2_0, t(b, b);
      tpqrt<T>(r1.view(), a2.view(), t.view(), 0, ib);
      EXPECT_TRUE(all_finite<T>(r1.view())) << "scale " << scale;
      EXPECT_TRUE(all_finite<T>(a2.view())) << "scale " << scale;
      EXPECT_TRUE(all_finite<T>(t.view())) << "scale " << scale;

      Matrix<T> q = Matrix<T>::identity(m);
      tpmqrt<T>(a2.view(), t.view(), q.block(0, 0, b, m),
                q.block(b, 0, b, m), 0, Trans::kNoTrans, ib);
      EXPECT_LT(scaled_reconstruction(stack(r1_0, a2_0), q, r_padded(r1, m),
                                      TinyScales<T>::kUp),
                residual_tolerance<T>(m))
          << "scale " << scale << " ib " << ib;
    }
  }
}

TYPED_TEST(SubnormalTiles, TtqrtStaysFiniteAndAccurate) {
  using T = TypeParam;
  const index_t b = 128, m = 2 * b;
  for (const index_t ib : {index_t(0), b}) {
    for (const T scale : TinyScales<T>::kScales) {
      const Matrix<T> r1_0 = random_triangle<T>(b, 710, scale);
      const Matrix<T> r2_0 = random_triangle<T>(b, 711, scale);
      Matrix<T> r1 = r1_0, r2 = r2_0, t(b, b);
      tpqrt<T>(r1.view(), r2.view(), t.view(), b, ib);
      EXPECT_TRUE(all_finite<T>(r1.view())) << "scale " << scale;
      EXPECT_TRUE(all_finite<T>(r2.view())) << "scale " << scale;
      EXPECT_TRUE(all_finite<T>(t.view())) << "scale " << scale;

      Matrix<T> q = Matrix<T>::identity(m);
      tpmqrt<T>(r2.view(), t.view(), q.block(0, 0, b, m),
                q.block(b, 0, b, m), b, Trans::kNoTrans, ib);
      EXPECT_LT(scaled_reconstruction(stack(r1_0, r2_0), q, r_padded(r1, m),
                                      TinyScales<T>::kUp),
                residual_tolerance<T>(m))
          << "scale " << scale << " ib " << ib;
    }
  }
}

}  // namespace
}  // namespace tqr::la

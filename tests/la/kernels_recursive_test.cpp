// Parity of the inner-blocked factor kernels (geqrt and tpqrt panels, TS and
// TT shapes) against the unblocked reference kernels. Both compute the same
// Householder reflectors in the same order, so V, R, and the action of Q
// (T applied with the factor's ib; the unblocked kernels' full T as one
// block) must agree to machine precision — not
// just produce *a* valid QR. Swept over widths that hit every blocking shape
// (ib = 1 narrowest, ib = b degenerate to unblocked) and over fringe /
// tall-skinny tile geometries.
#include <gtest/gtest.h>

#include "la/checks.hpp"
#include "la/kernels.hpp"

namespace tqr::la {
namespace {

template <typename T>
double tolerance(index_t n) {
  return residual_tolerance<T>(n, 250.0);
}

/// Sign-aware elementwise max difference between two factor outputs: row k
/// of each may be negated together with reflector column k (larfg's sign
/// choice can flip under reordered rounding), so rows are compared up to
/// the sign of the diagonal.
template <typename T>
double max_row_sign_diff(const Matrix<T>& a, const Matrix<T>& b) {
  double worst = 0;
  for (index_t i = 0; i < a.rows(); ++i) {
    const index_t d = std::min(i, a.cols() - 1);
    const double sign = (a(i, d) >= 0) == (b(i, d) >= 0) ? 1.0 : -1.0;
    for (index_t j = 0; j < a.cols(); ++j)
      worst = std::max(worst,
                       std::abs(static_cast<double>(a(i, j)) -
                                sign * static_cast<double>(b(i, j))));
  }
  return worst;
}

struct Shape {
  index_t m, n;
};

class RecursiveGeqrt
    : public ::testing::TestWithParam<std::tuple<Shape, int>> {};

TEST_P(RecursiveGeqrt, MatchesUnblocked) {
  const auto [shape, ib_sel] = GetParam();
  const index_t m = shape.m, n = shape.n;
  // ib_sel: 1 and 4 literal, -2 means n/2, -1 means n (degenerate).
  const index_t ib = ib_sel == -2 ? n / 2 : (ib_sel == -1 ? n : ib_sel);

  auto a0 = Matrix<double>::random(m, n, 7000 + 13 * m + n);
  Matrix<double> rec = a0, ref = a0;
  Matrix<double> t_rec(n, n), t_ref(n, n);
  geqrt<double>(rec.view(), t_rec.view(), ib);
  geqrt_unblocked<double>(ref.view(), t_ref.view());

  // V and R live in the same storage; compare the whole tile sign-aware.
  EXPECT_LT(max_row_sign_diff(rec, ref), tolerance<double>(m));

  // T must also match: apply Q^T from each factor set to the original
  // tile; both must reduce it to [R; 0]. The unblocked full T is one block.
  Matrix<double> qa_rec = a0, qa_ref = a0;
  unmqr<double>(rec.view(), t_rec.view(), qa_rec.view(), Trans::kTrans, ib);
  unmqr<double>(ref.view(), t_ref.view(), qa_ref.view(), Trans::kTrans, n);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = n; i < m; ++i) {
      EXPECT_NEAR(qa_rec(i, j), 0.0, tolerance<double>(m)) << i << "," << j;
    }
  EXPECT_LT(relative_error<double>(qa_rec.view(), qa_ref.view()),
            tolerance<double>(m));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RecursiveGeqrt,
    ::testing::Combine(
        // Square, fringe-width (n not a power of two), tall-skinny (m >> n),
        // and a boundary case right at the default leaf width.
        ::testing::Values(Shape{96, 96}, Shape{96, 41}, Shape{200, 48},
                          Shape{130, 96}, Shape{64, 64}),
        ::testing::Values(1, 4, -2, -1)),
    [](const ::testing::TestParamInfo<std::tuple<Shape, int>>& info) {
      const Shape shape = std::get<0>(info.param);
      const int ib_sel = std::get<1>(info.param);
      std::string ib;
      if (ib_sel == -2)
        ib = "half";
      else if (ib_sel == -1)
        ib = "full";
      else
        ib = std::to_string(ib_sel);
      return "m" + std::to_string(shape.m) + "n" + std::to_string(shape.n) +
             "ib" + ib;
    });

class RecursiveWidths : public ::testing::TestWithParam<int> {};

TEST_P(RecursiveWidths, TsqrtMatchesUnblocked) {
  const index_t b = 96;
  const index_t ib = GetParam();
  for (index_t m2 : {b, 2 * b + 5}) {  // square and taller-than-b A2
    Matrix<double> r1_rec(b, b), r1_ref(b, b);
    auto rnd = Matrix<double>::random(b, b, 8000 + m2);
    for (index_t j = 0; j < b; ++j)
      for (index_t i = 0; i <= j; ++i)
        r1_rec(i, j) = r1_ref(i, j) = rnd(i, j) + (i == j ? 2.0 : 0.0);
    auto a2_0 = Matrix<double>::random(m2, b, 8100 + m2);
    Matrix<double> a2_rec = a2_0, a2_ref = a2_0;
    Matrix<double> t_rec(b, b), t_ref(b, b);

    tpqrt<double>(r1_rec.view(), a2_rec.view(), t_rec.view(), 0, ib);
    tpqrt_unblocked<double>(r1_ref.view(), a2_ref.view(), t_ref.view(), 0);

    EXPECT_LT(max_row_sign_diff(r1_rec, r1_ref), tolerance<double>(m2 + b));

    // T parity through the update kernel: same Q^T action on a stacked pair.
    auto c1_0 = Matrix<double>::random(b, b, 8200 + m2);
    auto c2_0 = Matrix<double>::random(m2, b, 8300 + m2);
    Matrix<double> c1_rec = c1_0, c2_rec = c2_0;
    Matrix<double> c1_ref = c1_0, c2_ref = c2_0;
    tpmqrt<double>(a2_rec.view(), t_rec.view(), c1_rec.view(), c2_rec.view(), 0,
                   Trans::kTrans, ib);
    tpmqrt<double>(a2_ref.view(), t_ref.view(), c1_ref.view(), c2_ref.view(), 0,
                   Trans::kTrans, b);
    EXPECT_LT(relative_error<double>(c1_rec.view(), c1_ref.view()),
              tolerance<double>(m2 + b));
    EXPECT_LT(relative_error<double>(c2_rec.view(), c2_ref.view()),
              tolerance<double>(m2 + b));
  }
}

TEST_P(RecursiveWidths, TtqrtMatchesUnblockedAndKeepsVTriangular) {
  const index_t b = 96;
  const index_t ib = GetParam();
  Matrix<double> r1_rec(b, b), r1_ref(b, b), r2_rec(b, b), r2_ref(b, b);
  auto ra = Matrix<double>::random(b, b, 9000);
  auto rb = Matrix<double>::random(b, b, 9001);
  const double kSentinel = -777.25;
  for (index_t j = 0; j < b; ++j)
    for (index_t i = 0; i < b; ++i) {
      if (i <= j) {
        r1_rec(i, j) = r1_ref(i, j) = ra(i, j) + (i == j ? 2.0 : 0.0);
        r2_rec(i, j) = r2_ref(i, j) = rb(i, j) + (i == j ? 2.0 : 0.0);
      } else {
        // The TT contract: strictly-lower entries of R2 are never touched.
        r1_rec(i, j) = r1_ref(i, j) = 0.0;
        r2_rec(i, j) = r2_ref(i, j) = kSentinel;
      }
    }
  Matrix<double> t_rec(b, b), t_ref(b, b);
  tpqrt<double>(r1_rec.view(), r2_rec.view(), t_rec.view(), b, ib);
  tpqrt_unblocked<double>(r1_ref.view(), r2_ref.view(), t_ref.view(), b);

  for (index_t j = 0; j < b; ++j)
    for (index_t i = j + 1; i < b; ++i) {
      ASSERT_EQ(r2_rec(i, j), kSentinel) << "V2 lost triangularity";
    }
  EXPECT_LT(max_row_sign_diff(r1_rec, r1_ref), tolerance<double>(2 * b));

  auto c1_0 = Matrix<double>::random(b, b, 9100);
  auto c2_0 = Matrix<double>::random(b, b, 9101);
  Matrix<double> c1_rec = c1_0, c2_rec = c2_0;
  Matrix<double> c1_ref = c1_0, c2_ref = c2_0;
  // Sentinels must not poison the apply either: tpmqrt reads only the upper
  // triangle of V2.
  tpmqrt<double>(r2_rec.view(), t_rec.view(), c1_rec.view(), c2_rec.view(), b,
                 Trans::kTrans, ib);
  tpmqrt<double>(r2_ref.view(), t_ref.view(), c1_ref.view(), c2_ref.view(), b,
                 Trans::kTrans, b);
  EXPECT_LT(relative_error<double>(c1_rec.view(), c1_ref.view()),
            tolerance<double>(2 * b));
  EXPECT_LT(relative_error<double>(c2_rec.view(), c2_ref.view()),
            tolerance<double>(2 * b));
}

TEST_P(RecursiveWidths, FloatGeqrtBackwardStable) {
  const index_t m = 120, n = 96;
  const index_t ib = GetParam();
  auto a0 = Matrix<float>::random(m, n, 9500);
  Matrix<float> a = a0;
  Matrix<float> t(n, n);
  geqrt<float>(a.view(), t.view(), ib);

  Matrix<float> qa = a0;
  unmqr<float>(a.view(), t.view(), qa.view(), Trans::kTrans, ib);
  // Q^T A = [R; 0] at float precision, R matching the factored triangle.
  double worst = 0;
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i <= j; ++i)
      worst = std::max(worst,
                       std::abs(static_cast<double>(qa(i, j) - a(i, j))));
    for (index_t i = n; i < m; ++i)
      worst = std::max(worst, std::abs(static_cast<double>(qa(i, j))));
  }
  const double afro = norm_frobenius<float>(a0.view());
  EXPECT_LT(worst / afro, tolerance<float>(m));
  // And nowhere near double tolerance — guards against this test silently
  // running in the wrong precision.
  EXPECT_GT(tolerance<float>(m), 1e3 * tolerance<double>(m));
}

INSTANTIATE_TEST_SUITE_P(Widths, RecursiveWidths,
                         ::testing::Values(1, 4, 48, 96));

}  // namespace
}  // namespace tqr::la

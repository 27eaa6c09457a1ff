// The verification tiers in la/checks.hpp are the service's only defense
// against silent result corruption, so their statistical contract is pinned
// here directly: zero false positives on clean factorizations across fuzz
// seeds, and detection of every corruption kind the injector produces
// (NaN/Inf poison, high-bit flips, epsilon-scale perturbation).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "la/checks.hpp"
#include "la/matrix.hpp"
#include "la/reference_qr.hpp"

namespace tqr::la {
namespace {

// Q (R x) computed from a reference factorization: z = [R x; 0], then Q z.
Matrix<double> qrx_of(const ReferenceQr<double>& qr, const Matrix<double>& r,
                      const Matrix<double>& x) {
  Matrix<double> z(qr.rows(), 1);
  for (index_t i = 0; i < r.rows(); ++i) {
    double acc = 0;
    for (index_t j = i; j < r.cols(); ++j) acc += r(i, j) * x(j, 0);
    z(i, 0) = acc;
  }
  qr.apply_q(z.view(), Trans::kNoTrans);
  return z;
}

// Flips one bit of a double's representation (IEEE-754 binary64).
double flip_bit(double v, int bit) {
  std::uint64_t raw;
  std::memcpy(&raw, &v, sizeof raw);
  raw ^= std::uint64_t{1} << bit;
  std::memcpy(&v, &raw, sizeof v);
  return v;
}

// Largest-magnitude entry of the upper triangle — the element the service's
// FaultInjector poisons, so detection tests corrupt the same target.
void max_abs_upper(const Matrix<double>& r, index_t* oi, index_t* oj) {
  double best = -1;
  for (index_t j = 0; j < r.cols(); ++j) {
    for (index_t i = 0; i <= j && i < r.rows(); ++i) {
      if (std::abs(r(i, j)) > best) {
        best = std::abs(r(i, j));
        *oi = i;
        *oj = j;
      }
    }
  }
}

TEST(AllFinite, CleanTrueSinglePoisonFalse) {
  Matrix<double> a = Matrix<double>::random(13, 7, 42);
  EXPECT_TRUE(all_finite<double>(a.view()));
  a(12, 3) = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(all_finite<double>(a.view()));
  a(12, 3) = -std::numeric_limits<double>::infinity();
  EXPECT_FALSE(all_finite<double>(a.view()));
  a(12, 3) = 0.0;
  EXPECT_TRUE(all_finite<double>(a.view()));
}

TEST(RelativeError, IdenticalZeroAndKnownScale) {
  Matrix<double> a = Matrix<double>::random(9, 4, 7);
  EXPECT_EQ(relative_error<double>(a.view(), a.view()), 0.0);
  Matrix<double> b = a;
  for (index_t j = 0; j < b.cols(); ++j)
    for (index_t i = 0; i < b.rows(); ++i) b(i, j) *= 1.5;
  EXPECT_NEAR(relative_error<double>(b.view(), a.view()), 0.5, 1e-12);
  Matrix<double> zero(3, 3), nonzero(3, 3);
  nonzero(1, 1) = 2.0;
  EXPECT_EQ(relative_error<double>(zero.view(), zero.view()), 0.0);
  EXPECT_EQ(relative_error<double>(nonzero.view(), zero.view()), 1.0);
}

TEST(ColumnNormDrift, CleanTinyCorruptedLarge) {
  const index_t m = 48, n = 32;
  Matrix<double> a = Matrix<double>::random(m, n, 11);
  ReferenceQr<double> qr(a);
  Matrix<double> r = qr.r();
  const double tol = verify_tolerance<double>(m);
  EXPECT_LT(column_norm_drift<double>(a.view(), r.view()), tol);

  index_t pi = 0, pj = 0;
  max_abs_upper(r, &pi, &pj);
  Matrix<double> bad = r;
  bad(pi, pj) *= 1.0 + 1e-3;  // the injector's kPerturb, default scale
  EXPECT_GT(column_norm_drift<double>(a.view(), bad.view()), tol);
}

TEST(ScaleSafety, TierStatisticsHoldAtTwoToThePlusMinus1000) {
  // Unscaled sums of squares overflow above ~1e154 and underflow below
  // ~1e-154. At 2^+-1000 each statistic must still read as it does at
  // scale 1: a clean factorization inside tolerance, a corrupted one (the
  // injector's kPerturb) far above it, and a known ratio exactly.
  const index_t m = 48, n = 32;
  const Matrix<double> base = Matrix<double>::random(m, n, 17);
  const double tol = verify_tolerance<double>(m);
  for (const int e : {1000, -1000}) {
    Matrix<double> a = base;
    for (index_t j = 0; j < n; ++j)
      for (index_t i = 0; i < m; ++i) a(i, j) = std::ldexp(a(i, j), e);
    const ReferenceQr<double> qr(a);
    const Matrix<double> r = qr.r();
    index_t pi = 0, pj = 0;
    max_abs_upper(r, &pi, &pj);
    Matrix<double> bad = r;
    bad(pi, pj) *= 1.0 + 1e-3;

    EXPECT_LT(column_norm_drift<double>(a.view(), r.view()), tol) << e;
    EXPECT_GT(column_norm_drift<double>(a.view(), bad.view()), tol) << e;

    const Matrix<double> x = probe_vector<double>(n, 5);
    const double clean =
        probe_residual<double>(a.view(), x.view(), qrx_of(qr, r, x).view());
    EXPECT_GT(clean, 0.0) << e;  // an underflowed statistic reads 0
    EXPECT_LT(clean, tol) << e;
    EXPECT_GT(probe_residual<double>(a.view(), x.view(),
                                     qrx_of(qr, bad, x).view()),
              tol)
        << e;

    Matrix<double> b = a;
    for (index_t j = 0; j < n; ++j)
      for (index_t i = 0; i < m; ++i) b(i, j) *= 1.5;
    EXPECT_NEAR(relative_error<double>(b.view(), a.view()), 0.5, 1e-12) << e;
  }
}

TEST(ProbeResidual, ZeroFalsePositivesAcrossFuzzSeeds) {
  // The acceptance contract: a clean double-precision factorization never
  // trips the probe at verify_tolerance, across shapes and seeds.
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const index_t m = 16 + static_cast<index_t>((seed * 7) % 64);
    const index_t n = 8 + static_cast<index_t>((seed * 5) % (m - 8 + 1));
    Matrix<double> a = Matrix<double>::random(m, n, seed);
    ReferenceQr<double> qr(a);
    const Matrix<double> r = qr.r();
    const Matrix<double> x = probe_vector<double>(n, seed ^ 0x517cc1b7);
    const Matrix<double> qrx = qrx_of(qr, r, x);
    const double res = probe_residual<double>(a.view(), x.view(), qrx.view());
    EXPECT_LT(res, verify_tolerance<double>(m))
        << "false positive at seed " << seed << " (" << m << "x" << n << ")";
  }
}

TEST(ProbeResidual, DetectsEveryInjectorCorruptionKind) {
  // Detection side of the contract: poison the same element the service's
  // injector targets (max-abs upper-triangle entry) with each corruption
  // kind and require the probe to land above tolerance for every seed.
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const index_t m = 16 + static_cast<index_t>((seed * 7) % 64);
    const index_t n = 8 + static_cast<index_t>((seed * 5) % (m - 8 + 1));
    Matrix<double> a = Matrix<double>::random(m, n, seed);
    ReferenceQr<double> qr(a);
    const Matrix<double> r = qr.r();
    const Matrix<double> x = probe_vector<double>(n, seed ^ 0x2545f491);
    const double tol = verify_tolerance<double>(m);
    index_t pi = 0, pj = 0;
    max_abs_upper(r, &pi, &pj);

    Matrix<double> nan_r = r;
    nan_r(pi, pj) = std::numeric_limits<double>::quiet_NaN();
    Matrix<double> flip_r = r;
    flip_r(pi, pj) = flip_bit(flip_r(pi, pj), 44);  // injector's weakest flip
    Matrix<double> pert_r = r;
    pert_r(pi, pj) *= 1.0 + 1e-3;

    for (const auto* bad : {&nan_r, &flip_r, &pert_r}) {
      const Matrix<double> qrx = qrx_of(qr, *bad, x);
      const double res =
          probe_residual<double>(a.view(), x.view(), qrx.view());
      EXPECT_FALSE(res <= tol)  // NaN-safe: NaN compares false
          << "missed corruption at seed " << seed;
    }
  }
}

TEST(VerifyTolerance, SitsBetweenCleanNoiseAndWeakestCorruption) {
  // The ladder the thresholds rely on: clean rounding noise (~eps * n)
  // << verify_tolerance << the weakest injected corruption (bit 44 flip,
  // relative error 2^-8 of the poisoned element).
  const index_t n = 64;
  const double tol = verify_tolerance<double>(n);
  EXPECT_GT(tol, 10.0 * std::numeric_limits<double>::epsilon() *
                     static_cast<double>(n));
  EXPECT_LT(tol, std::ldexp(1.0, -8));
}

}  // namespace
}  // namespace tqr::la

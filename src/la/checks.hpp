// Numerical verification helpers used by tests, examples, benches, and the
// service's silent-data-corruption defense.
//
// The expensive checks (orthogonality / reconstruction residual) verify a
// factorization exactly but cost as much as the factorization itself. The
// cheap tiers below exploit invariants of orthogonal transforms instead:
//   tier 1  all_finite + column_norm_drift — O(output) scans; catch NaN/Inf
//           poison and gross damage to R at negligible cost.
//   tier 2  probe_residual — one random probe vector x pushed through both
//           sides of A = Q R; ~n x cheaper than the full reconstruction
//           residual yet flags any corruption that perturbs the factors'
//           action on a random direction (all but measure-zero cases).
//   tier 3  relative_error of Q R against A — the reconstruction residual.
// These three are scale-safe (see detail::norm_scale): they read the same
// at any finite scale of A, from subnormal entries to 2^1000.
#pragma once

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"
#include "la/blas.hpp"
#include "la/matrix.hpp"

namespace tqr::la {

/// ||Q^T Q - I||_F / n: orthogonality residual.
template <typename T>
double orthogonality_residual(ConstMatrixView<T> q) {
  TQR_REQUIRE(q.rows == q.cols, "orthogonality check expects square Q");
  const index_t n = q.rows;
  Matrix<T> gram(n, n);
  gemm<T>(Trans::kTrans, Trans::kNoTrans, T(1), q, q, T(0), gram.view());
  for (index_t i = 0; i < n; ++i) gram(i, i) -= T(1);
  return norm_frobenius<T>(gram.view()) / static_cast<double>(n);
}

/// ||A - Q R||_F / ||A||_F: reconstruction residual.
template <typename T>
double reconstruction_residual(ConstMatrixView<T> a, ConstMatrixView<T> q,
                               ConstMatrixView<T> r) {
  Matrix<T> qr(a.rows, a.cols);
  gemm<T>(Trans::kNoTrans, Trans::kNoTrans, T(1), q, r, T(0), qr.view());
  for (index_t j = 0; j < a.cols; ++j)
    for (index_t i = 0; i < a.rows; ++i) qr(i, j) -= a(i, j);
  const double denom = norm_frobenius<T>(a);
  return norm_frobenius<T>(qr.view()) / (denom > 0 ? denom : 1.0);
}

/// Max |strictly-lower-triangular entry| of R relative to ||R||_F — tiled QR
/// must leave an upper-triangular R behind.
template <typename T>
double lower_triangle_residual(ConstMatrixView<T> r) {
  double acc = 0;
  for (index_t j = 0; j < r.cols; ++j)
    for (index_t i = j + 1; i < r.rows; ++i)
      acc = std::max(acc, std::abs(static_cast<double>(r(i, j))));
  const double denom = norm_frobenius<T>(r);
  return acc / (denom > 0 ? denom : 1.0);
}

/// Machine-epsilon-scaled tolerance for residual assertions: c * eps * n.
template <typename T>
double residual_tolerance(index_t n, double c = 50.0) {
  return c * static_cast<double>(std::numeric_limits<T>::epsilon()) *
         static_cast<double>(n);
}

/// True when every entry is finite (no NaN, no +-Inf). The tier-1 scan run
/// on each kernel's output tiles; a single poisoned entry fails it, and a
/// clean run can never fail it (zero false positives by construction).
template <typename T>
bool all_finite(ConstMatrixView<T> a) {
  for (index_t j = 0; j < a.cols; ++j)
    for (index_t i = 0; i < a.rows; ++i)
      if (!std::isfinite(static_cast<double>(a(i, j)))) return false;
  return true;
}

namespace detail {

/// 2^-e for the exponent e of max|a| (max|a| in [2^e, 2^(e+1))), or 1 when a
/// is zero or holds an infinity (NaNs are skipped here and propagate through
/// the sums that use the scale). Scaling by a power of two is exact,
/// and scaled entries are at most 2 in magnitude, so sums of their squares
/// neither overflow nor underflow anywhere in the floating-point range. e is
/// clamped at -1022 so the scale itself stays finite when max|a| is
/// subnormal; the scaled max is then still >= 2^-52.
template <typename T>
double norm_scale(ConstMatrixView<T> a) {
  double amax = 0;
  for (index_t j = 0; j < a.cols; ++j)
    for (index_t i = 0; i < a.rows; ++i)
      amax = std::max(amax, std::abs(static_cast<double>(a(i, j))));
  if (!(amax > 0) || !std::isfinite(amax)) return 1.0;
  return std::ldexp(1.0, -std::max(std::ilogb(amax), -1022));
}

}  // namespace detail

/// ||approx - exact||_F / ||exact||_F (1 when exact is zero but approx is
/// not; 0 when both are zero). Shapes must match. Both norms are taken on
/// entries scaled by detail::norm_scale(exact), so the ratio is exact to
/// rounding at any finite scale.
template <typename T>
double relative_error(ConstMatrixView<T> approx, ConstMatrixView<T> exact) {
  TQR_REQUIRE(approx.rows == exact.rows && approx.cols == exact.cols,
              "relative_error: shape mismatch");
  const double s = detail::norm_scale(exact);
  double diff2 = 0, norm2 = 0;
  for (index_t j = 0; j < exact.cols; ++j) {
    for (index_t i = 0; i < exact.rows; ++i) {
      const double e = static_cast<double>(exact(i, j)) * s;
      const double d = static_cast<double>(approx(i, j)) * s - e;
      diff2 += d * d;
      norm2 += e * e;
    }
  }
  if (norm2 == 0) return diff2 == 0 ? 0.0 : 1.0;
  return std::sqrt(diff2) / std::sqrt(norm2);
}

/// Tier-1 invariant: orthogonal transforms preserve column 2-norms, so each
/// column of R must match the corresponding column of A in norm. Returns
/// max_j | ||R_j|| - ||A_j|| | / ||A||_F — normalized by the whole-matrix
/// norm (not per column) so small-norm columns cannot amplify rounding into
/// a false positive. r may be r.rows x n upper-trapezoidal (only entries
/// with i <= j are read); a is m x n. Every norm is taken on entries scaled
/// by detail::norm_scale(a), so the statistic holds at any finite scale.
template <typename T>
double column_norm_drift(ConstMatrixView<T> a, ConstMatrixView<T> r) {
  TQR_REQUIRE(a.cols == r.cols, "column_norm_drift: column count mismatch");
  const double s = detail::norm_scale(a);
  double afro2 = 0;
  double worst = 0;
  for (index_t j = 0; j < a.cols; ++j) {
    double aj2 = 0;
    for (index_t i = 0; i < a.rows; ++i) {
      const double v = static_cast<double>(a(i, j)) * s;
      aj2 += v * v;
    }
    afro2 += aj2;
    double rj2 = 0;
    for (index_t i = 0; i <= j && i < r.rows; ++i) {
      const double v = static_cast<double>(r(i, j)) * s;
      rj2 += v * v;
    }
    const double d = std::abs(std::sqrt(rj2) - std::sqrt(aj2));
    if (std::isnan(d)) return d;  // a NaN in R is drift, never a pass
    worst = std::max(worst, d);
  }
  return afro2 > 0 ? worst / std::sqrt(afro2) : worst;
}

/// Deterministic probe vector for randomized verification: n x 1, entries
/// uniform in [-1, 1), reproducible in the seed (a verification failure can
/// be replayed bit-for-bit).
template <typename T>
Matrix<T> probe_vector(index_t n, std::uint64_t seed) {
  Matrix<T> x(n, 1);
  Rng rng(seed);
  for (index_t i = 0; i < n; ++i)
    x(i, 0) = static_cast<T>(rng.next_double(-1.0, 1.0));
  return x;
}

/// Tier-2 randomized probe residual ||Q (R x) - A x|| / ||A x||: `qrx` is
/// the factorization's answer for A x (apply R, then Q, to the probe x);
/// the reference A x is computed here directly from A. Costs one O(m n)
/// matrix-vector product — about n x cheaper than the full reconstruction
/// residual — yet any corruption of Q or R that changes their action on a
/// random direction moves it far above verify_tolerance.
template <typename T>
double probe_residual(ConstMatrixView<T> a, ConstMatrixView<T> x,
                      ConstMatrixView<T> qrx) {
  TQR_REQUIRE(x.cols == 1 && qrx.cols == 1, "probe vectors must be n x 1");
  TQR_REQUIRE(x.rows == a.cols && qrx.rows == a.rows,
              "probe_residual: shape mismatch");
  Matrix<T> ax(a.rows, 1);
  gemm<T>(Trans::kNoTrans, Trans::kNoTrans, T(1), a, x, T(0), ax.view());
  return relative_error<T>(qrx, ax.view());
}

/// Acceptance threshold for the verification tiers: c * eps * n with a
/// deliberately generous constant. Clean double-precision factorizations
/// land orders of magnitude below it across sizes and seeds (zero false
/// positives), while the smallest corruption the injector produces (a
/// high-mantissa bit flip, relative error >= 2^-8) lands orders of
/// magnitude above it.
template <typename T>
double verify_tolerance(index_t n, double c = 250.0) {
  return residual_tolerance<T>(n, c);
}

// Compiled once, in la/instantiations.cpp (see TQR_LA_BLAS_TEMPLATES).
#define TQR_LA_CHECK_TEMPLATES(EXTERN, T)                                \
  EXTERN template double orthogonality_residual<T>(ConstMatrixView<T>);  \
  EXTERN template double reconstruction_residual<T>(                     \
      ConstMatrixView<T>, ConstMatrixView<T>, ConstMatrixView<T>);

TQR_LA_CHECK_TEMPLATES(extern, float)
TQR_LA_CHECK_TEMPLATES(extern, double)

}  // namespace tqr::la

// Small BLAS-like kernel layer, written from scratch.
//
// Two tiers share one interface: straightforward cache-friendly loops
// (gemm_naive and the vector/triangular routines) and the packed
// register-tiled SIMD engine in la/microkernel.hpp. gemm dispatches between
// them by problem size — the loops win below the packing-amortization
// threshold, the engine runs near hardware FLOP rates above it. trmm_left
// dispatches the same way, into the packed triangular multiply
// mk::trmm_packed; in scalar builds and for tiny triangles it splits
// recursively so the off-diagonal bulk still flows through gemm. Loop orders
// are chosen for column-major locality (j-k-i for gemm).
// All routines validate shapes with TQR_REQUIRE.
#pragma once

#include <cmath>
#include <limits>
#include <type_traits>

#include "la/blas_types.hpp"
#include "la/matrix.hpp"
#include "la/microkernel.hpp"

namespace tqr::la {

/// y += alpha * x (vectors expressed as n x 1 views).
template <typename T>
void axpy(T alpha, ConstMatrixView<T> x, MatrixView<T> y) {
  TQR_REQUIRE(x.rows == y.rows && x.cols == 1 && y.cols == 1,
              "axpy: shape mismatch");
  for (index_t i = 0; i < x.rows; ++i) y(i, 0) += alpha * x(i, 0);
}

/// Dot product of two column vectors.
template <typename T>
T dot(ConstMatrixView<T> x, ConstMatrixView<T> y) {
  TQR_REQUIRE(x.rows == y.rows && x.cols == 1 && y.cols == 1,
              "dot: shape mismatch");
  T acc = T(0);
  for (index_t i = 0; i < x.rows; ++i) acc += x(i, 0) * y(i, 0);
  return acc;
}

/// Euclidean norm of a column vector with scaling to avoid overflow.
template <typename T>
T nrm2(ConstMatrixView<T> x) {
  TQR_REQUIRE(x.cols == 1, "nrm2: expected a column vector");
  // Fast path: one vectorized sum-of-squares pass. Safe whenever the result
  // stays in the normal range (no overflow, no accuracy loss to underflow);
  // extreme inputs fall through to the scaled ordered loop below.
  const T fast = mk::dot<T>(x.rows, x.data, x.data);
  if (std::isfinite(fast) && fast >= std::numeric_limits<T>::min())
    return std::sqrt(fast);
  T scale = T(0), ssq = T(1);
  for (index_t i = 0; i < x.rows; ++i) {
    T xi = std::abs(x(i, 0));
    if (xi == T(0)) continue;
    if (scale < xi) {
      ssq = T(1) + ssq * (scale / xi) * (scale / xi);
      scale = xi;
    } else {
      ssq += (xi / scale) * (xi / scale);
    }
  }
  return scale * std::sqrt(ssq);
}

/// C = alpha * op(A) * op(B) + beta * C via the loop-based path. Kept public
/// (not just as a gemm fallback) so equivalence tests and benches can compare
/// the micro-kernel engine against it regardless of the dispatch threshold.
template <typename T>
void gemm_naive(Trans ta, Trans tb, T alpha, ConstMatrixView<T> a,
                ConstMatrixView<T> b, T beta, MatrixView<T> c) {
  const index_t m = c.rows, n = c.cols;
  const index_t k = (ta == Trans::kNoTrans) ? a.cols : a.rows;
  TQR_REQUIRE(((ta == Trans::kNoTrans) ? a.rows : a.cols) == m,
              "gemm: A/C row mismatch");
  TQR_REQUIRE(((tb == Trans::kNoTrans) ? b.rows : b.cols) == k,
              "gemm: inner dimension mismatch");
  TQR_REQUIRE(((tb == Trans::kNoTrans) ? b.cols : b.rows) == n,
              "gemm: B/C column mismatch");

  for (index_t j = 0; j < n; ++j) {
    if (beta == T(0)) {
      for (index_t i = 0; i < m; ++i) c(i, j) = T(0);
    } else if (beta != T(1)) {
      for (index_t i = 0; i < m; ++i) c(i, j) *= beta;
    }
  }
  if (alpha == T(0)) return;

  if (ta == Trans::kNoTrans && tb == Trans::kNoTrans) {
    // j-k-i: streams down columns of A and C.
    for (index_t j = 0; j < n; ++j)
      for (index_t p = 0; p < k; ++p) {
        const T bpj = alpha * b(p, j);
        if (bpj == T(0)) continue;
        for (index_t i = 0; i < m; ++i) c(i, j) += a(i, p) * bpj;
      }
  } else if (ta == Trans::kTrans && tb == Trans::kNoTrans) {
    // Columns of A and B are contiguous: each output element is a SIMD dot,
    // 4 x 4 of them at a time so every loaded vector feeds four FMAs.
    constexpr index_t kB = 4;
    for (index_t j = 0; j < n; j += kB)
      for (index_t i = 0; i < m; i += kB) {
        const T* x = a.data + static_cast<std::size_t>(i) * a.ld;
        const T* y = b.data + static_cast<std::size_t>(j) * b.ld;
        T* cij = c.data + static_cast<std::size_t>(j) * c.ld + i;
        if (m - i >= kB && n - j >= kB) {
          mk::dot_block<T, kB, kB>(k, x, a.ld, y, b.ld, alpha, cij, c.ld);
          continue;
        }
        for (index_t q = 0; q < std::min(kB, n - j); ++q)
          for (index_t r = 0; r < std::min(kB, m - i); ++r)
            mk::dot_block<T, 1, 1>(
                k, x + static_cast<std::size_t>(r) * a.ld, a.ld,
                y + static_cast<std::size_t>(q) * b.ld, b.ld, alpha,
                cij + static_cast<std::size_t>(q) * c.ld + r, c.ld);
      }
  } else if (ta == Trans::kNoTrans && tb == Trans::kTrans) {
    for (index_t j = 0; j < n; ++j)
      for (index_t p = 0; p < k; ++p) {
        const T bpj = alpha * b(j, p);
        if (bpj == T(0)) continue;
        for (index_t i = 0; i < m; ++i) c(i, j) += a(i, p) * bpj;
      }
  } else {
    for (index_t j = 0; j < n; ++j)
      for (index_t i = 0; i < m; ++i) {
        T acc = T(0);
        for (index_t p = 0; p < k; ++p) acc += a(p, i) * b(j, p);
        c(i, j) += alpha * acc;
      }
  }
}

namespace detail {

/// The packed engine's dispatch rule, shared by gemm and the trmm family:
/// a vectorized float/double build and an m x n x k product above
/// mk::use_packed's threshold.
template <typename T>
bool packs(index_t m, index_t n, index_t k) {
  if constexpr (mk::vectorized() &&
                (std::is_same_v<T, float> || std::is_same_v<T, double>))
    return mk::use_packed(m, n, k);
  return false;
}

/// A^T B with an output below 32 x 32, or fewer rows than one micro-panel,
/// runs faster as gemm_naive's blocked dots over the contiguous columns than
/// through the engine, whose A pack transposes and whose register tile would
/// be mostly padding (EXPERIMENTS.md, "Kernel floor").
template <typename T>
bool tn_dots_win(Trans ta, Trans tb, index_t m, index_t n) {
  return ta == Trans::kTrans && tb == Trans::kNoTrans &&
         (m < mk::RegisterBlocking<T>::mr || m * n < 32 * 32);
}

}  // namespace detail

/// C = alpha * op(A) * op(B) + beta * C. Dispatches to the packed
/// register-tiled engine (la/microkernel.hpp) above the size threshold where
/// packing amortizes; small problems keep the branch-light loops. In scalar
/// micro-kernel builds (TQR_MK_SCALAR / non-GNU compilers) everything stays
/// on the loops: without SIMD the packing overhead has no payoff and the
/// compiler autovectorizes the naive j-k-i loop better.
template <typename T>
void gemm(Trans ta, Trans tb, T alpha, ConstMatrixView<T> a,
          ConstMatrixView<T> b, T beta, MatrixView<T> c) {
  const index_t k = (ta == Trans::kNoTrans) ? a.cols : a.rows;
  if (alpha != T(0) && detail::packs<T>(c.rows, c.cols, k) &&
      !detail::tn_dots_win<T>(ta, tb, c.rows, c.cols)) {
    mk::gemm_packed<T>(ta, tb, alpha, a, b, beta, c);
    return;
  }
  gemm_naive<T>(ta, tb, alpha, a, b, beta, c);
}

namespace detail {

/// Largest triangle handled by the base-case trmm loops; the recursive
/// drivers below split anything bigger that the packed engine does not
/// take, so the axpy temp can live on the stack.
inline constexpr index_t kTrmmSmallMax = 32;

/// Base-case triangular multiply, in place. Only reads the stored triangle
/// of `a` (plus the diagonal when non-unit). Transposed op(A) rows are
/// stored columns of A, so each output element is a contiguous SIMD dot;
/// the no-trans cases accumulate column-axpy style into a stack temp so the
/// inner loops stream down contiguous columns of A.
template <typename T>
void trmm_left_small(UpLo uplo, Trans trans, Diag diag, ConstMatrixView<T> a,
                     MatrixView<T> b) {
  const index_t m = b.rows, n = b.cols;
  TQR_REQUIRE(m <= kTrmmSmallMax, "trmm_left_small: triangle too large");
  const bool unit = (diag == Diag::kUnit);

  // op(A) is effectively lower triangular when (lower, no-trans) or
  // (upper, trans). Row i of a lower op(A)*B reads B rows <= i, so iterating
  // i bottom-up keeps in-place updates correct; upper is the mirror image.
  const bool effective_lower =
      (uplo == UpLo::kLower) == (trans == Trans::kNoTrans);

  if (trans == Trans::kTrans) {
    for (index_t j = 0; j < n; ++j) {
      if (effective_lower) {  // A upper, op(A) lower
        for (index_t i = m - 1; i >= 0; --i) {
          T acc = unit ? b(i, j) : a(i, i) * b(i, j);
          acc += mk::dot<T>(i, &a(0, i), &b(0, j));
          b(i, j) = acc;
        }
      } else {  // A lower, op(A) upper
        for (index_t i = 0; i < m; ++i) {
          T acc = unit ? b(i, j) : a(i, i) * b(i, j);
          if (i + 1 < m)
            acc += mk::dot<T>(m - i - 1, &a(i + 1, i), &b(i + 1, j));
          b(i, j) = acc;
        }
      }
    }
    return;
  }

  T tmp[kTrmmSmallMax];
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < m; ++i) tmp[i] = T(0);
    if (effective_lower) {  // A lower: column p contributes to rows >= p
      for (index_t p = 0; p < m; ++p) {
        const T bpj = b(p, j);
        tmp[p] += unit ? bpj : a(p, p) * bpj;
        for (index_t i = p + 1; i < m; ++i) tmp[i] += a(i, p) * bpj;
      }
    } else {  // A upper: column p contributes to rows <= p
      for (index_t p = 0; p < m; ++p) {
        const T bpj = b(p, j);
        for (index_t i = 0; i < p; ++i) tmp[i] += a(i, p) * bpj;
        tmp[p] += unit ? bpj : a(p, p) * bpj;
      }
    }
    for (index_t i = 0; i < m; ++i) b(i, j) = tmp[i];
  }
}

}  // namespace detail

/// B = op(A) * B with A triangular (left side). In-place. Only the stored
/// triangle of A is read, and its diagonal only when non-unit.
///
/// Under gemm's dispatch rule this runs packed (mk::trmm_packed; see there
/// for how Inf/NaN in B can spread inside a diagonal micro-block). In scalar
/// builds and for tiny triangles it splits 2x2 above a small base size and
/// the off-diagonal rectangular half flows through gemm: for effective-lower
/// op(A), B2 = op(A)22 B2 + op(A)21 B1 with B1 still unmodified, then
/// B1 = op(A)11 B1; effective-upper mirrors it top-down.
template <typename T>
void trmm_left(UpLo uplo, Trans trans, Diag diag, ConstMatrixView<T> a,
               MatrixView<T> b) {
  const index_t m = b.rows, n = b.cols;
  TQR_REQUIRE(a.rows == m && a.cols == m, "trmm_left: A must be m x m");
  if (detail::packs<T>(m, n, m)) {
    mk::trmm_packed<T>(uplo, trans, diag, T(1), a, b, T(0), b);
    return;
  }
  if (m <= detail::kTrmmSmallMax || n == 0) {
    detail::trmm_left_small<T>(uplo, trans, diag, a, b);
    return;
  }
  const index_t m1 = m / 2, m2 = m - m1;
  auto b1 = b.block(0, 0, m1, n);
  auto b2 = b.block(m1, 0, m2, n);
  const bool effective_lower = (uplo == UpLo::kLower) == (trans == Trans::kNoTrans);
  if (effective_lower) {
    trmm_left<T>(uplo, trans, diag, a.block(m1, m1, m2, m2), b2);
    // op(A)21 is A21 (no-trans, lower) or A12^T (trans, upper).
    if (trans == Trans::kNoTrans)
      gemm<T>(Trans::kNoTrans, Trans::kNoTrans, T(1), a.block(m1, 0, m2, m1),
              b1, T(1), b2);
    else
      gemm<T>(Trans::kTrans, Trans::kNoTrans, T(1), a.block(0, m1, m1, m2),
              b1, T(1), b2);
    trmm_left<T>(uplo, trans, diag, a.block(0, 0, m1, m1), b1);
  } else {
    trmm_left<T>(uplo, trans, diag, a.block(0, 0, m1, m1), b1);
    // op(A)12 is A12 (no-trans, upper) or A21^T (trans, lower).
    if (trans == Trans::kNoTrans)
      gemm<T>(Trans::kNoTrans, Trans::kNoTrans, T(1), a.block(0, m1, m1, m2),
              b2, T(1), b1);
    else
      gemm<T>(Trans::kTrans, Trans::kNoTrans, T(1), a.block(m1, 0, m2, m1),
              b2, T(1), b1);
    trmm_left<T>(uplo, trans, diag, a.block(m1, m1, m2, m2), b2);
  }
}

/// C = alpha * op(A) * B + beta * C with A triangular (left side), out of
/// place: B must not overlap C, and beta == 0 never reads C. Lets the
/// compact-WY applies multiply a tile by a triangle, or accumulate the
/// product into a tile, without a copy. Dispatches like the in-place form;
/// the loop fallback streams down op(A)'s columns (j-p-i).
template <typename T>
void trmm_left(UpLo uplo, Trans trans, Diag diag, T alpha,
               ConstMatrixView<T> a, ConstMatrixView<T> b, T beta,
               MatrixView<T> c) {
  const index_t m = c.rows, n = c.cols;
  TQR_REQUIRE(a.rows == m && a.cols == m, "trmm_left: A must be m x m");
  TQR_REQUIRE(b.rows == m && b.cols == n, "trmm_left: B/C shape mismatch");
  if (alpha != T(0) && detail::packs<T>(m, n, m)) {
    mk::trmm_packed<T>(uplo, trans, diag, alpha, a, b, beta, c);
    return;
  }
  const bool unit = (diag == Diag::kUnit);
  const bool lower = (uplo == UpLo::kLower) == (trans == Trans::kNoTrans);
  auto op_a = [&](index_t i, index_t p) {
    return (trans == Trans::kNoTrans) ? a(i, p) : a(p, i);
  };
  for (index_t j = 0; j < n; ++j) {
    if (beta == T(0)) {
      for (index_t i = 0; i < m; ++i) c(i, j) = T(0);
    } else if (beta != T(1)) {
      for (index_t i = 0; i < m; ++i) c(i, j) *= beta;
    }
    if (alpha == T(0)) continue;
    for (index_t p = 0; p < m; ++p) {
      const T bpj = alpha * b(p, j);
      c(p, j) += unit ? bpj : a(p, p) * bpj;
      const index_t lo = lower ? p + 1 : 0, hi = lower ? m : p;
      for (index_t i = lo; i < hi; ++i) c(i, j) += op_a(i, p) * bpj;
    }
  }
}

/// Solves op(A) * X = B in place (X overwrites B), A triangular.
template <typename T>
void trsm_left(UpLo uplo, Trans trans, Diag diag, ConstMatrixView<T> a,
               MatrixView<T> b) {
  const index_t m = b.rows, n = b.cols;
  TQR_REQUIRE(a.rows == m && a.cols == m, "trsm_left: A must be m x m");
  const bool unit = (diag == Diag::kUnit);
  const bool effective_upper =
      (uplo == UpLo::kUpper) == (trans == Trans::kNoTrans);

  for (index_t j = 0; j < n; ++j) {
    if (effective_upper) {
      // Back substitution.
      for (index_t i = m - 1; i >= 0; --i) {
        T acc = b(i, j);
        for (index_t p = i + 1; p < m; ++p) {
          const T aip = (trans == Trans::kNoTrans) ? a(i, p) : a(p, i);
          acc -= aip * b(p, j);
        }
        b(i, j) = unit ? acc : acc / a(i, i);
      }
    } else {
      // Forward substitution.
      for (index_t i = 0; i < m; ++i) {
        T acc = b(i, j);
        for (index_t p = 0; p < i; ++p) {
          const T aip = (trans == Trans::kNoTrans) ? a(i, p) : a(p, i);
          acc -= aip * b(p, j);
        }
        b(i, j) = unit ? acc : acc / a(i, i);
      }
    }
  }
}

/// Solves X * op(A) = B in place (X overwrites B), A triangular (right side).
template <typename T>
void trsm_right(UpLo uplo, Trans trans, Diag diag, ConstMatrixView<T> a,
                MatrixView<T> b) {
  const index_t m = b.rows, n = b.cols;
  TQR_REQUIRE(a.rows == n && a.cols == n, "trsm_right: A must be n x n");
  const bool unit = (diag == Diag::kUnit);
  // X op(A) = B column-by-column: column j of X depends on columns p of X
  // with op(A)(p, j) != 0, p != j. Effective upper op(A): p < j => forward
  // sweep; effective lower: backward sweep.
  const bool effective_upper =
      (uplo == UpLo::kUpper) == (trans == Trans::kNoTrans);
  auto op_a = [&](index_t i, index_t j) {
    return (trans == Trans::kNoTrans) ? a(i, j) : a(j, i);
  };
  for (index_t jj = 0; jj < n; ++jj) {
    const index_t j = effective_upper ? jj : n - 1 - jj;
    const index_t lo = effective_upper ? 0 : j + 1;
    const index_t hi = effective_upper ? j : n;
    for (index_t p = lo; p < hi; ++p) {
      const T apj = op_a(p, j);
      if (apj == T(0)) continue;
      for (index_t i = 0; i < m; ++i) b(i, j) -= b(i, p) * apj;
    }
    if (!unit) {
      const T ajj = op_a(j, j);
      for (index_t i = 0; i < m; ++i) b(i, j) /= ajj;
    }
  }
}

/// Symmetric rank-k update on the lower triangle:
/// C := alpha * op(A) op(A)^T + beta * C (only C's lower triangle written).
template <typename T>
void syrk_lower(Trans trans, T alpha, ConstMatrixView<T> a, T beta,
                MatrixView<T> c) {
  const index_t n = c.rows;
  TQR_REQUIRE(c.cols == n, "syrk_lower: C must be square");
  const index_t k = (trans == Trans::kNoTrans) ? a.cols : a.rows;
  TQR_REQUIRE(((trans == Trans::kNoTrans) ? a.rows : a.cols) == n,
              "syrk_lower: A dimension mismatch");
  for (index_t j = 0; j < n; ++j)
    for (index_t i = j; i < n; ++i) {
      T acc = T(0);
      for (index_t p = 0; p < k; ++p) {
        const T aip = (trans == Trans::kNoTrans) ? a(i, p) : a(p, i);
        const T ajp = (trans == Trans::kNoTrans) ? a(j, p) : a(p, j);
        acc += aip * ajp;
      }
      c(i, j) = alpha * acc + (beta == T(0) ? T(0) : beta * c(i, j));
    }
}

/// Frobenius norm.
template <typename T>
double norm_frobenius(ConstMatrixView<T> a) {
  double acc = 0;
  for (index_t j = 0; j < a.cols; ++j)
    for (index_t i = 0; i < a.rows; ++i) {
      double v = static_cast<double>(a(i, j));
      acc += v * v;
    }
  return std::sqrt(acc);
}

/// Max absolute entry.
template <typename T>
double norm_max(ConstMatrixView<T> a) {
  double acc = 0;
  for (index_t j = 0; j < a.cols; ++j)
    for (index_t i = 0; i < a.rows; ++i)
      acc = std::max(acc, std::abs(static_cast<double>(a(i, j))));
  return acc;
}

// Compiled once, in la/instantiations.cpp, for float and double: every
// other translation unit links that copy instead of instantiating (and
// inlining) its own, so a result's bits never depend on the caller.
#define TQR_LA_BLAS_TEMPLATES(EXTERN, T)                                    \
  EXTERN template void gemm<T>(Trans, Trans, T, ConstMatrixView<T>,         \
                               ConstMatrixView<T>, T, MatrixView<T>);       \
  EXTERN template void trmm_left<T>(UpLo, Trans, Diag, ConstMatrixView<T>,  \
                                    MatrixView<T>);                         \
  EXTERN template void trmm_left<T>(UpLo, Trans, Diag, T,                   \
                                    ConstMatrixView<T>, ConstMatrixView<T>, \
                                    T, MatrixView<T>);                      \
  EXTERN template void trsm_left<T>(UpLo, Trans, Diag, ConstMatrixView<T>,  \
                                    MatrixView<T>);                         \
  EXTERN template double norm_frobenius<T>(ConstMatrixView<T>);

TQR_LA_BLAS_TEMPLATES(extern, float)
TQR_LA_BLAS_TEMPLATES(extern, double)

}  // namespace tqr::la

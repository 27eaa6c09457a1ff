// Tile kernels for tiled QR factorization (PLASMA-style semantics).
//
// All kernels use the compact-WY representation: a factored tile stores the
// Householder vectors V (unit diagonal implicit) together with an upper
// triangular block-reflector factor Tf such that
//
//   Q  = I - V * Tf  * V^T            (product H_0 H_1 ... H_{k-1})
//   Q^T= I - V * Tf^T * V^T
//
// Kernel glossary (paper step in parentheses):
//   geqrt  (T,  triangulation)          QR of one tile; R + V in place, Tf out
//   unmqr  (UT, update for triang.)     apply Q/Q^T of a geqrt tile to a tile
//   tsqrt  (E,  TS elimination)         QR of [R1 (triangular); A2 (square)]
//   tsmqr  (UE, TS update)              apply a tsqrt Q/Q^T to a tile pair
//   ttqrt  (E,  TT elimination)         QR of [R1; R2], both triangular
//   ttmqr  (UE, TT update)              apply a ttqrt Q/Q^T to a tile pair
//
// TS kernels store V2 densely in the eliminated tile; TT kernels keep V2
// upper-triangular, which is what makes tree (TT) elimination cheaper per
// level. The structured top part of V (identity columns) is always implicit.
//
// The factor kernels (geqrt/tsqrt/ttqrt) are recursive-halving
// (Elmroth/Gustavson style): the column range is split in two, each half is
// factored recursively, the right half's columns are updated with the left
// half's compact-WY apply, and the two block reflectors are merged into one
// FULL upper-triangular Tf via
//
//   T12 = -T11 (V1^T V2) T22.
//
// That routes all trailing-submatrix and T-assembly work through
// la::gemm/trmm (micro-kernel eligible) instead of scalar rank-1 loops, and
// — because the merged Tf is the full one — the apply kernels need not know
// how the tile was factored: unmqr/tsmqr/ttmqr work unchanged. The recursion
// leaf width is the `ib` parameter (inner block size); `ib <= 0` selects
// kPanelBase, `ib >= n` degenerates to the unblocked reference kernels
// (geqrt_unblocked & co.), which double as the recursion base case. The TS
// merge exploits the implicit-identity tops (V1^T V2 is a plain gemm of the
// dense blocks); the TT recursion works on pentagonal V sub-blocks (dense
// top + non-unit upper-triangular bottom) and never touches R2 below its
// diagonal.
//
// Numerical contract (asserted by the test suite): for random tiles,
// reconstruction and orthogonality residuals are O(eps * n).
#pragma once

#include <cmath>
#include <vector>

#include "la/blas.hpp"
#include "la/matrix.hpp"

namespace tqr::la {

namespace detail {

/// Householder generation on [alpha; x]: returns tau and beta, scales x into
/// the reflector tail v (v0 = 1 implicit). tau == 0 means H = I.
template <typename T>
T larfg(T& alpha, MatrixView<T> x, T& beta) {
  const T xnorm = nrm2<T>(x);
  if (xnorm == T(0)) {
    beta = alpha;
    return T(0);
  }
  beta = -std::copysign(std::hypot(alpha, xnorm), alpha);
  const T tau = (beta - alpha) / beta;
  const T scale = T(1) / (alpha - beta);
  for (index_t i = 0; i < x.rows; ++i) x(i, 0) *= scale;
  alpha = beta;
  return tau;
}

/// t(0:k, k) = scale * T(0:k, 0:k) * z with T upper triangular. Swept down
/// T's contiguous columns (axpy form) so the inner loop vectorizes, instead
/// of the strided row-dot form.
template <typename T>
void scaled_triu_matvec(MatrixView<T> t, index_t k, const T* z, T scale) {
  T* out = t.data + k * t.ld;
  for (index_t p = 0; p < k; ++p) out[p] = T(0);
  for (index_t q = 0; q < k; ++q) {
    const T zq = z[q] * scale;
    const T* tq = t.data + q * t.ld;
    for (index_t p = 0; p <= q; ++p) out[p] += tq[p] * zq;
  }
}

}  // namespace detail

/// Default recursion leaf width for the factor kernels (the `ib` used when
/// callers pass ib <= 0). The unblocked leaves run SIMD column dots/axpys;
/// below the leaf width the recursion's merges and trailing applies run on
/// the packed gemm/trmm engine, which outruns the leaves once a panel is
/// wider than 32. Swept on avx512f with the packed trmm: 32 beats 64 for
/// geqrt and tsqrt at tile 64-128, 16 ties 32, and all tie at 256.
inline constexpr index_t kPanelBase = 32;

/// Unblocked QR of an m x n tile (m >= n), in place: the scalar reference
/// kernel and the recursion base case. On exit: upper triangle of `a` holds
/// R; below-diagonal holds the Householder vectors V (unit diagonal
/// implicit); `t` (n x n) holds the upper-triangular block reflector factor.
template <typename T>
void geqrt_unblocked(MatrixView<T> a, MatrixView<T> t) {
  const index_t m = a.rows, n = a.cols;
  TQR_REQUIRE(m >= n, "geqrt: require rows >= cols");
  TQR_REQUIRE(t.rows >= n && t.cols >= n, "geqrt: T factor too small");
  t.block(0, 0, n, n).fill(T(0));
  std::vector<T> z(n);

  for (index_t k = 0; k < n; ++k) {
    T beta;
    const T tau =
        detail::larfg(a(k, k), a.block(k + 1, k, m - k - 1, 1), beta);
    t(k, k) = tau;
    if (tau == T(0)) continue;

    // Trailing update: A(k:m, k+1:n) <- H_k * A(k:m, k+1:n). Columns are
    // contiguous, so the reductions run through the SIMD dot.
    T* vk = a.data + (k + 1) + k * a.ld;  // tail of v_k (may be empty)
    for (index_t j = k + 1; j < n; ++j) {
      T* aj = a.data + (k + 1) + j * a.ld;
      T w = a(k, j) + mk::dot<T>(m - k - 1, vk, aj);
      w *= tau;
      a(k, j) -= w;
      mk::axpy<T>(m - k - 1, -w, vk, aj);
    }

    // Tf(0:k, k) = -tau * Tf(0:k, 0:k) * (V(:, 0:k)^T v_k). The triangular
    // product sweeps Tf's contiguous columns (axpy form).
    if (k > 0) {
      for (index_t p = 0; p < k; ++p)
        z[p] = a(k, p) +  // row k of V column p (v_k has 1 at row k)
               mk::dot<T>(m - k - 1, a.data + (k + 1) + p * a.ld, vk);
      detail::scaled_triu_matvec<T>(t, k, z.data(), -tau);
    }
  }
}

/// Below this reflector-block width the compact-WY applies use the original
/// fused element loops: the structured (trmm/gemm) formulation pays extra
/// temporaries and copies that only amortize once the products are big
/// enough for the packed micro-kernel to dominate.
inline constexpr index_t kWyFusedMax = 16;

/// Applies the Q of a geqrt-factored tile to C from the left.
/// `v` is the factored tile (m x k, reflectors below the diagonal),
/// `t` its block reflector factor (k x k). trans == kTrans applies Q^T.
///
/// For k > kWyFusedMax the three compact-WY steps are expressed on V's
/// structure — V = [V1; V2] with V1 unit lower triangular (k x k) and V2
/// dense ((m-k) x k) — so the dense bulk runs as gemm (micro-kernel
/// eligible) and the triangular parts as trmm, instead of branchy element
/// loops:
///   W  = V1^T C1        (unit-lower trmm, out of place)
///   W += V2^T C2        (gemm)
///   W  = op(Tf) W       (upper trmm)
///   C1 -= V1 W          (unit-lower trmm accumulating into C1)
///   C2 -= V2 W          (gemm)
/// trmm only reads the stored triangle, so the R factor above V's diagonal is
/// never touched.
template <typename T>
void unmqr(ConstMatrixView<T> v, ConstMatrixView<T> t, MatrixView<T> c,
           Trans trans) {
  const index_t m = c.rows, n = c.cols, k = v.cols;
  TQR_REQUIRE(v.rows == m, "unmqr: V/C row mismatch");
  TQR_REQUIRE(t.rows >= k && t.cols >= k, "unmqr: T factor too small");

  if (k <= kWyFusedMax) {
    // Fused small path: W = V^T C with V unit lower trapezoidal (garbage
    // above the diagonal of the stored tile must be ignored).
    Matrix<T> w(k, n);
    for (index_t j = 0; j < n; ++j)
      for (index_t p = 0; p < k; ++p)
        w(p, j) = c(p, j) +
                  mk::dot<T>(m - p - 1, v.data + (p + 1) + p * v.ld,
                             c.data + (p + 1) + j * c.ld);
    trmm_left<T>(UpLo::kUpper, trans == Trans::kNoTrans ? Trans::kNoTrans
                                                        : Trans::kTrans,
                 Diag::kNonUnit, t.block(0, 0, k, k), w.view());
    for (index_t j = 0; j < n; ++j)
      for (index_t p = 0; p < k; ++p) {
        const T wpj = w(p, j);
        if (wpj == T(0)) continue;
        c(p, j) -= wpj;
        mk::axpy<T>(m - p - 1, -wpj, v.data + (p + 1) + p * v.ld,
                    c.data + (p + 1) + j * c.ld);
      }
    return;
  }

  const auto v1 = v.block(0, 0, k, k);
  auto c1 = c.block(0, 0, k, n);

  // W = V1^T C1 + V2^T C2.
  Matrix<T> w(k, n);
  trmm_left<T>(UpLo::kLower, Trans::kTrans, Diag::kUnit, T(1), v1, c1, T(0),
               w.view());
  if (m > k)
    gemm<T>(Trans::kTrans, Trans::kNoTrans, T(1), v.block(k, 0, m - k, k),
            c.block(k, 0, m - k, n), T(1), w.view());

  // W = op(Tf) W. Q uses Tf, Q^T uses Tf^T.
  trmm_left<T>(UpLo::kUpper, trans == Trans::kNoTrans ? Trans::kNoTrans
                                                      : Trans::kTrans,
               Diag::kNonUnit, t.block(0, 0, k, k), w.view());

  // C1 -= V1 W, C2 -= V2 W.
  trmm_left<T>(UpLo::kLower, Trans::kNoTrans, Diag::kUnit, T(-1), v1, w.view(),
               T(1), c1);
  if (m > k)
    gemm<T>(Trans::kNoTrans, Trans::kNoTrans, T(-1), v.block(k, 0, m - k, k),
            w.view(), T(1), c.block(k, 0, m - k, n));
}

/// Unblocked TS (triangle-on-top-of-square) QR of [R1; A2]: the scalar
/// reference kernel and the recursion base case. R1 (b x b) is upper
/// triangular and A2 (m2 x b) dense. On exit R1 holds the new R (only its
/// upper triangle is read or written, so the V of a geqrt-factored diagonal
/// tile survives underneath), A2 holds the dense reflector block V2, and `t`
/// the block reflector factor.
template <typename T>
void tsqrt_unblocked(MatrixView<T> r1, MatrixView<T> a2, MatrixView<T> t) {
  const index_t b = r1.cols, m2 = a2.rows;
  TQR_REQUIRE(r1.rows >= b, "tsqrt: R1 must be at least b x b");
  TQR_REQUIRE(a2.cols == b, "tsqrt: A2 column mismatch");
  TQR_REQUIRE(t.rows >= b && t.cols >= b, "tsqrt: T factor too small");
  t.block(0, 0, b, b).fill(T(0));
  std::vector<T> z(b);

  for (index_t k = 0; k < b; ++k) {
    T beta;
    const T tau = detail::larfg(r1(k, k), a2.block(0, k, m2, 1), beta);
    t(k, k) = tau;
    if (tau == T(0)) continue;

    // Trailing update: rows touched are row k of R1 and all of A2.
    T* vk = a2.data + k * a2.ld;
    for (index_t j = k + 1; j < b; ++j) {
      T* aj = a2.data + j * a2.ld;
      T w = r1(k, j) + mk::dot<T>(m2, vk, aj);
      w *= tau;
      r1(k, j) -= w;
      mk::axpy<T>(m2, -w, vk, aj);
    }

    // Tf column; the structured identity top of V contributes nothing
    // (e_p . e_k = 0 for p != k).
    if (k > 0) {
      for (index_t p = 0; p < k; ++p)
        z[p] = mk::dot<T>(m2, a2.data + p * a2.ld, vk);
      detail::scaled_triu_matvec<T>(t, k, z.data(), -tau);
    }
  }
}

/// Applies the Q of a tsqrt factorization to the stacked pair [C1; C2].
/// `v2` is the dense reflector block from tsqrt (m2 x b), `t` its factor.
template <typename T>
void tsmqr(ConstMatrixView<T> v2, ConstMatrixView<T> t, MatrixView<T> c1,
           MatrixView<T> c2, Trans trans) {
  const index_t b = v2.cols, n = c1.cols, m2 = v2.rows;
  TQR_REQUIRE(c1.rows == b, "tsmqr: C1 must have b rows");
  TQR_REQUIRE(c2.rows == m2 && c2.cols == n, "tsmqr: C2 shape mismatch");
  TQR_REQUIRE(t.rows >= b && t.cols >= b, "tsmqr: T factor too small");

  // W = C1 + V2^T C2.
  Matrix<T> w(b, n);
  copy<T>(c1, w.view());
  gemm<T>(Trans::kTrans, Trans::kNoTrans, T(1), v2, c2, T(1), w.view());

  // W = op(Tf) W.
  trmm_left<T>(UpLo::kUpper, trans == Trans::kNoTrans ? Trans::kNoTrans
                                                      : Trans::kTrans,
               Diag::kNonUnit, t.block(0, 0, b, b), w.view());

  // [C1; C2] -= [I; V2] W.
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < b; ++i) c1(i, j) -= w(i, j);
  gemm<T>(Trans::kNoTrans, Trans::kNoTrans, T(-1), v2, w.view(), T(1), c2);
}

/// Unblocked TT (triangle-on-top-of-triangle) QR of [R1; R2], both upper
/// triangular: the scalar reference kernel and the recursion base case. On
/// exit R1 holds the new R, R2 the upper-triangular reflector block V2, `t`
/// the block reflector factor. Column k of V2 has support rows 0..k, which
/// is what the update kernel exploits relative to the dense TS case.
template <typename T>
void ttqrt_unblocked(MatrixView<T> r1, MatrixView<T> r2, MatrixView<T> t) {
  const index_t b = r1.cols;
  TQR_REQUIRE(r1.rows >= b && r2.rows >= b && r2.cols == b,
              "ttqrt: tiles must be b x b");
  TQR_REQUIRE(t.rows >= b && t.cols >= b, "ttqrt: T factor too small");
  t.block(0, 0, b, b).fill(T(0));
  std::vector<T> z(b);

  for (index_t k = 0; k < b; ++k) {
    T beta;
    const T tau = detail::larfg(r1(k, k), r2.block(0, k, k + 1, 1), beta);
    t(k, k) = tau;
    if (tau == T(0)) continue;

    T* vk = r2.data + k * r2.ld;
    for (index_t j = k + 1; j < b; ++j) {
      T* rj = r2.data + j * r2.ld;
      T w = r1(k, j) + mk::dot<T>(k + 1, vk, rj);
      w *= tau;
      r1(k, j) -= w;
      mk::axpy<T>(k + 1, -w, vk, rj);
    }

    if (k > 0) {
      for (index_t p = 0; p < k; ++p)
        z[p] = mk::dot<T>(p + 1, r2.data + p * r2.ld, vk);
      detail::scaled_triu_matvec<T>(t, k, z.data(), -tau);
    }
  }
}

/// Applies the Q of a ttqrt factorization to the stacked pair [C1; C2].
/// `v2` is the upper-triangular reflector block from ttqrt.
template <typename T>
void ttmqr(ConstMatrixView<T> v2, ConstMatrixView<T> t, MatrixView<T> c1,
           MatrixView<T> c2, Trans trans) {
  const index_t b = v2.cols, n = c1.cols;
  TQR_REQUIRE(c1.rows == b && c2.rows == b && c2.cols == n,
              "ttmqr: tiles must be b x b / b x n");
  TQR_REQUIRE(t.rows >= b && t.cols >= b, "ttmqr: T factor too small");

  if (b <= kWyFusedMax) {
    // Fused small path over V2's triangular support (rows 0..j in col j).
    Matrix<T> w(b, n);
    for (index_t j = 0; j < n; ++j)
      for (index_t p = 0; p < b; ++p)
        w(p, j) = c1(p, j) +
                  mk::dot<T>(p + 1, v2.data + p * v2.ld, c2.data + j * c2.ld);
    trmm_left<T>(UpLo::kUpper, trans == Trans::kNoTrans ? Trans::kNoTrans
                                                        : Trans::kTrans,
                 Diag::kNonUnit, t.block(0, 0, b, b), w.view());
    for (index_t j = 0; j < n; ++j) {
      for (index_t i = 0; i < b; ++i) c1(i, j) -= w(i, j);
      // C2 -= V2 W column-axpy style so the inner loop streams down V2's
      // contiguous columns.
      for (index_t p = 0; p < b; ++p) {
        const T wpj = w(p, j);
        if (wpj == T(0)) continue;
        mk::axpy<T>(p + 1, -wpj, v2.data + p * v2.ld, c2.data + j * c2.ld);
      }
    }
    return;
  }

  // W = C1 + V2^T C2 with V2 upper triangular (support rows 0..j in col j):
  // a triangular multiply of C2, so the packed trmm does the O(b^2 n) work.
  Matrix<T> w(b, n);
  trmm_left<T>(UpLo::kUpper, Trans::kTrans, Diag::kNonUnit, T(1), v2, c2, T(0),
               w.view());
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < b; ++i) w(i, j) += c1(i, j);

  trmm_left<T>(UpLo::kUpper, trans == Trans::kNoTrans ? Trans::kNoTrans
                                                      : Trans::kTrans,
               Diag::kNonUnit, t.block(0, 0, b, b), w.view());

  // [C1; C2] -= [I; V2] W, with V2 upper triangular.
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < b; ++i) c1(i, j) -= w(i, j);
  trmm_left<T>(UpLo::kUpper, Trans::kNoTrans, Diag::kNonUnit, T(-1), v2,
               w.view(), T(1), c2);
}

namespace detail {

/// Resolves a caller-supplied inner block size to the recursion leaf width.
inline index_t resolve_panel(index_t ib) {
  return ib <= 0 ? kPanelBase : ib;
}

/// Left-half width for a recursive split of n columns: half of n rounded up
/// to a multiple of the leaf width so the leaves stay uniform.
inline index_t split_cols(index_t n, index_t base) {
  const index_t half = (n + 1) / 2;
  index_t n1 = (half + base - 1) / base * base;
  if (n1 >= n) n1 = half;
  return n1;
}

/// Recursive geqrt: factor the left half, apply its Q^T to the right
/// columns, factor the bottom-right, then merge the two block reflectors
/// into the full Tf via T12 = -T11 (V1^T V2) T22.
template <typename T>
void geqrt_rec(MatrixView<T> a, MatrixView<T> t, index_t base) {
  const index_t m = a.rows, n = a.cols;
  if (n <= base) {
    geqrt_unblocked<T>(a, t);
    return;
  }
  const index_t n1 = split_cols(n, base), n2 = n - n1;
  auto a1 = a.block(0, 0, m, n1);
  auto t11 = t.block(0, 0, n1, n1);
  geqrt_rec<T>(a1, t11, base);
  unmqr<T>(a1, t11, a.block(0, n1, m, n2), Trans::kTrans);
  geqrt_rec<T>(a.block(n1, n1, m - n1, n2), t.block(n1, n1, n2, n2), base);

  // X = V2^T V1b over the shared support rows n1..m (V1's rows above n1 meet
  // only implicit zeros of V2): unit-lower trmm against V2's triangle plus a
  // gemm over the dense remainder. W = V1^T V2 is then X^T.
  Matrix<T> x(n2, n1);
  trmm_left<T>(UpLo::kLower, Trans::kTrans, Diag::kUnit, T(1),
               a.block(n1, n1, n2, n2), a.block(n1, 0, n2, n1), T(0),
               x.view());
  if (m > n1 + n2)
    gemm<T>(Trans::kTrans, Trans::kNoTrans, T(1),
            a.block(n1 + n2, n1, m - n1 - n2, n2),
            a.block(n1 + n2, 0, m - n1 - n2, n1), T(1), x.view());
  auto t12 = t.block(0, n1, n1, n2);
  for (index_t j = 0; j < n2; ++j)
    for (index_t i = 0; i < n1; ++i) t12(i, j) = -x(j, i);
  trmm_left<T>(UpLo::kUpper, Trans::kNoTrans, Diag::kNonUnit, t11, t12);
  trmm_right<T>(UpLo::kUpper, Trans::kNoTrans, Diag::kNonUnit,
                t.block(n1, n1, n2, n2), t12);
}

/// Recursive tsqrt. The implicit-identity tops make the merge cross product
/// V1^T V2 a plain gemm of the dense A2 column blocks.
template <typename T>
void tsqrt_rec(MatrixView<T> r1, MatrixView<T> a2, MatrixView<T> t,
               index_t base) {
  const index_t b = r1.cols, m2 = a2.rows;
  if (b <= base) {
    tsqrt_unblocked<T>(r1, a2, t);
    return;
  }
  const index_t n1 = split_cols(b, base), n2 = b - n1;
  auto v1 = a2.block(0, 0, m2, n1);
  auto t11 = t.block(0, 0, n1, n1);
  tsqrt_rec<T>(r1.block(0, 0, n1, n1), v1, t11, base);
  tsmqr<T>(v1, t11, r1.block(0, n1, n1, n2), a2.block(0, n1, m2, n2),
           Trans::kTrans);
  tsqrt_rec<T>(r1.block(n1, n1, n2, n2), a2.block(0, n1, m2, n2),
               t.block(n1, n1, n2, n2), base);

  auto t12 = t.block(0, n1, n1, n2);
  gemm<T>(Trans::kTrans, Trans::kNoTrans, T(-1), v1,
          a2.block(0, n1, m2, n2), T(0), t12);
  trmm_left<T>(UpLo::kUpper, Trans::kNoTrans, Diag::kNonUnit, t11, t12);
  trmm_right<T>(UpLo::kUpper, Trans::kNoTrans, Diag::kNonUnit,
                t.block(n1, n1, n2, n2), t12);
}

/// Pentagonal ttqrt base case: factors global columns [s, s+w), eliminating
/// R2 rows 0..s+w-1. Column c of V2 has support rows 0..c (the dense top s
/// rows come from reflectors of earlier recursion levels having filled the
/// columns). These are the original ttqrt loops generalized to a column
/// range; trailing updates stay inside the range (outer levels update the
/// rest via the structured pentagon apply).
template <typename T>
void ttqrt_pent_base(MatrixView<T> r1, MatrixView<T> r2, MatrixView<T> t,
                     index_t s, index_t w) {
  std::vector<T> z(w);
  for (index_t kk = 0; kk < w; ++kk) {
    const index_t k = s + kk;
    T beta;
    const T tau = larfg(r1(k, k), r2.block(0, k, k + 1, 1), beta);
    t(k, k) = tau;
    if (tau == T(0)) continue;

    T* vk = r2.data + k * r2.ld;
    for (index_t j = k + 1; j < s + w; ++j) {
      T* rj = r2.data + j * r2.ld;
      T acc = r1(k, j) + mk::dot<T>(k + 1, vk, rj);
      acc *= tau;
      r1(k, j) -= acc;
      mk::axpy<T>(k + 1, -acc, vk, rj);
    }

    if (kk > 0) {
      for (index_t p = s; p < k; ++p)
        z[p - s] = mk::dot<T>(p + 1, r2.data + p * r2.ld, vk);
      scaled_triu_matvec<T>(t.block(s, s, w, w), kk, z.data(), -tau);
    }
  }
}

/// Applies Q^T of the pentagonal reflector block at columns [s, s+w1) to the
/// nc trailing columns starting at s+w1. The V2 sub-block is a pentagon:
/// dense top s rows D plus a non-unit upper-triangular w1 x w1 part U, so
/// the apply is gemm over D and trmm over U — the zero block below U is
/// never touched.
template <typename T>
void ttqrt_pent_apply_qt(MatrixView<T> r1, MatrixView<T> r2,
                         ConstMatrixView<T> t, index_t s, index_t w1,
                         index_t nc) {
  const index_t j0 = s + w1;
  auto c1 = r1.block(s, j0, w1, nc);
  auto c2t = r2.block(0, j0, s, nc);   // rows hit by D (empty when s == 0)
  auto c2m = r2.block(s, j0, w1, nc);  // rows hit by U
  auto d = r2.block(0, s, s, w1);
  auto u = r2.block(s, s, w1, w1);

  // W = C1 + D^T C2top + U^T C2mid.
  Matrix<T> w(w1, nc);
  trmm_left<T>(UpLo::kUpper, Trans::kTrans, Diag::kNonUnit, T(1), u, c2m, T(0),
               w.view());
  for (index_t j = 0; j < nc; ++j)
    for (index_t i = 0; i < w1; ++i) w(i, j) += c1(i, j);
  if (s > 0)
    gemm<T>(Trans::kTrans, Trans::kNoTrans, T(1), d, c2t, T(1), w.view());

  // W = Tf^T W (factor direction only ever needs Q^T).
  trmm_left<T>(UpLo::kUpper, Trans::kTrans, Diag::kNonUnit,
               t.block(s, s, w1, w1), w.view());

  // [C1; C2] -= [I; V2] W over the pentagon's support.
  for (index_t j = 0; j < nc; ++j)
    for (index_t i = 0; i < w1; ++i) c1(i, j) -= w(i, j);
  if (s > 0)
    gemm<T>(Trans::kNoTrans, Trans::kNoTrans, T(-1), d, w.view(), T(1), c2t);
  trmm_left<T>(UpLo::kUpper, Trans::kNoTrans, Diag::kNonUnit, T(-1), u,
               w.view(), T(1), c2m);
}

/// Recursive ttqrt on global columns [s, s+w). Both halves are pentagons in
/// R2 (the right one with dense depth s+w1); the T merge runs the cross
/// product over V1's support rows 0..s+w1-1 as trmm + gemm.
template <typename T>
void ttqrt_rec(MatrixView<T> r1, MatrixView<T> r2, MatrixView<T> t,
               index_t s, index_t w, index_t base) {
  if (w <= base) {
    ttqrt_pent_base<T>(r1, r2, t, s, w);
    return;
  }
  const index_t w1 = split_cols(w, base), w2 = w - w1;
  ttqrt_rec<T>(r1, r2, t, s, w1, base);
  ttqrt_pent_apply_qt<T>(r1, r2, t, s, w1, w2);
  ttqrt_rec<T>(r1, r2, t, s + w1, w2, base);

  // V1^T V2 over rows 0..s+w1-1 of R2 (V1's support; the right block is
  // dense there): U1^T M2 via trmm, plus D1^T D2 via gemm.
  Matrix<T> y(w1, w2);
  trmm_left<T>(UpLo::kUpper, Trans::kTrans, Diag::kNonUnit, T(1),
               r2.block(s, s, w1, w1), r2.block(s, s + w1, w1, w2), T(0),
               y.view());
  if (s > 0)
    gemm<T>(Trans::kTrans, Trans::kNoTrans, T(1), r2.block(0, s, s, w1),
            r2.block(0, s + w1, s, w2), T(1), y.view());
  auto t12 = t.block(s, s + w1, w1, w2);
  for (index_t j = 0; j < w2; ++j)
    for (index_t i = 0; i < w1; ++i) t12(i, j) = -y(i, j);
  trmm_left<T>(UpLo::kUpper, Trans::kNoTrans, Diag::kNonUnit,
               t.block(s, s, w1, w1), t12);
  trmm_right<T>(UpLo::kUpper, Trans::kNoTrans, Diag::kNonUnit,
                t.block(s + w1, s + w1, w2, w2), t12);
}

}  // namespace detail

/// QR factorization of an m x n tile (m >= n), in place, via recursive
/// halving with leaf width `ib` (<= 0 selects kPanelBase, >= n runs the
/// unblocked reference kernel). On exit: upper triangle of `a` holds R;
/// below-diagonal the Householder vectors V (unit diagonal implicit); `t`
/// (n x n) the FULL upper-triangular block reflector factor — applies never
/// need to know `ib`.
template <typename T>
void geqrt(MatrixView<T> a, MatrixView<T> t, index_t ib = 0) {
  const index_t m = a.rows, n = a.cols;
  TQR_REQUIRE(m >= n, "geqrt: require rows >= cols");
  TQR_REQUIRE(t.rows >= n && t.cols >= n, "geqrt: T factor too small");
  const index_t base = detail::resolve_panel(ib);
  if (n <= base) {
    geqrt_unblocked<T>(a, t);
    return;
  }
  t.block(0, 0, n, n).fill(T(0));
  detail::geqrt_rec<T>(a, t, base);
}

/// TS (triangle-on-top-of-square) QR of [R1; A2], recursive with leaf width
/// `ib` (same conventions as geqrt). Storage contract matches
/// tsqrt_unblocked: R in R1's upper triangle (nothing else of R1 touched),
/// dense V2 in A2, full Tf in `t`.
template <typename T>
void tsqrt(MatrixView<T> r1, MatrixView<T> a2, MatrixView<T> t,
           index_t ib = 0) {
  const index_t b = r1.cols;
  TQR_REQUIRE(r1.rows >= b, "tsqrt: R1 must be at least b x b");
  TQR_REQUIRE(a2.cols == b, "tsqrt: A2 column mismatch");
  TQR_REQUIRE(t.rows >= b && t.cols >= b, "tsqrt: T factor too small");
  const index_t base = detail::resolve_panel(ib);
  if (b <= base) {
    tsqrt_unblocked<T>(r1, a2, t);
    return;
  }
  t.block(0, 0, b, b).fill(T(0));
  detail::tsqrt_rec<T>(r1, a2, t, base);
}

/// TT (triangle-on-top-of-triangle) QR of [R1; R2], recursive with leaf
/// width `ib` (same conventions as geqrt). Storage contract matches
/// ttqrt_unblocked: V2 stays upper triangular (column k has support rows
/// 0..k, entries below R2's diagonal are never written), full Tf in `t`.
template <typename T>
void ttqrt(MatrixView<T> r1, MatrixView<T> r2, MatrixView<T> t,
           index_t ib = 0) {
  const index_t b = r1.cols;
  TQR_REQUIRE(r1.rows >= b && r2.rows >= b && r2.cols == b,
              "ttqrt: tiles must be b x b");
  TQR_REQUIRE(t.rows >= b && t.cols >= b, "ttqrt: T factor too small");
  const index_t base = detail::resolve_panel(ib);
  if (b <= base) {
    ttqrt_unblocked<T>(r1, r2, t);
    return;
  }
  t.block(0, 0, b, b).fill(T(0));
  detail::ttqrt_rec<T>(r1, r2, t, 0, b, base);
}

}  // namespace tqr::la

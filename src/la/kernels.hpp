// Tile kernels for tiled QR factorization (PLASMA-style semantics).
//
// All kernels use the compact-WY representation: a factored tile stores the
// Householder vectors V (unit diagonal implicit) together with an upper
// triangular block-reflector factor Tf per block of reflectors such that
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
// Inner blocking (PLASMA's `ib`, Buttari et al.): geqrt and tsqrt factor a
// tile in ib-wide column panels. Each panel runs the unblocked leaf, then one
// single-block compact-WY apply updates the trailing columns. Tf keeps only
// the panels' ib x ib diagonal blocks and is zero everywhere else:
//
//   Q = Q_0 Q_1 ... Q_{p-1},   Q_j = I - V_j Tf_jj V_j^T.
//
// unmqr and tsmqr apply those blocks in turn (ascending for Q^T, descending
// for Q) through one reused W workspace, so they take the `ib` the tile was
// factored with as a required argument. `ib <= 0` selects kPanelBase;
// `ib >= b` is a single block, i.e. the full Tf of the unblocked reference
// kernels (geqrt_unblocked & co.), which are also the panel leaves. A full
// Tf may be applied with any `ib`: its diagonal blocks are exactly the panel
// factors.
//
// ttqrt keeps recursive halving (Elmroth/Gustavson style) with `ib` as the
// leaf width: the two halves' block reflectors merge into one FULL Tf via
// T12 = -T11 (V1^T V2) T22 over pentagonal V sub-blocks (dense top +
// non-unit upper-triangular bottom) that never touch R2 below its diagonal,
// so ttmqr takes no `ib`.
//
// Numerical contract (asserted by the test suite): for random tiles,
// reconstruction and orthogonality residuals are O(eps * n), also for tiles
// scaled down into the subnormal range.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "la/blas.hpp"
#include "la/matrix.hpp"

namespace tqr::la {

/// Default inner block width `ib` (used when callers pass ib <= 0): the
/// panel width of geqrt/tsqrt, hence the Tf block width their applies walk,
/// and the recursion leaf width of ttqrt. The leaves run SIMD column
/// dots/axpys; the trailing updates between panels run on the packed
/// gemm/trmm engine. Swept on avx512f (EXPERIMENTS.md, "Inner-blocked T"):
/// 32 beats 64 for geqrt and tsqrt at tiles 64-256, and 16 drops unmqr onto
/// its fused small path (kWyFusedMax), which runs about 2.5x slower.
inline constexpr index_t kPanelBase = 32;

namespace detail {

/// Householder generation on [alpha; x] (LAPACK dlarfg): returns tau and
/// beta, scales x into the reflector tail v (v0 = 1 implicit). tau == 0 means
/// H = I. A beta below the safe minimum would overflow 1 / (alpha - beta), so
/// [alpha; x] is scaled up first (at most 20 times, as in dlarfg) and beta
/// scaled back at the end.
template <typename T>
T larfg(T& alpha, MatrixView<T> x, T& beta) {
  T xnorm = nrm2<T>(x);
  if (xnorm == T(0)) {
    beta = alpha;
    return T(0);
  }
  beta = -std::copysign(std::hypot(alpha, xnorm), alpha);
  const T safmin = std::numeric_limits<T>::min() /
                   (std::numeric_limits<T>::epsilon() / T(2));
  int knt = 0;
  if (std::abs(beta) < safmin) {
    const T rsafmn = T(1) / safmin;
    do {
      ++knt;
      for (index_t i = 0; i < x.rows; ++i) x(i, 0) *= rsafmn;
      beta *= rsafmn;
      alpha *= rsafmn;
    } while (std::abs(beta) < safmin && knt < 20);
    xnorm = nrm2<T>(x);
    beta = -std::copysign(std::hypot(alpha, xnorm), alpha);
  }
  const T tau = (beta - alpha) / beta;
  const T scale = T(1) / (alpha - beta);
  for (index_t i = 0; i < x.rows; ++i) x(i, 0) *= scale;
  for (int j = 0; j < knt; ++j) beta *= safmin;
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

/// The Tf block width for a caller-supplied `ib` over k reflectors.
inline index_t inner_block_width(index_t ib, index_t k) {
  return std::min(ib <= 0 ? kPanelBase : ib, k);
}

/// Start column of the q-th of `blocks` nb-wide reflector blocks to apply:
/// Q^T = Q_{p-1}^T ... Q_0^T applies block 0 first, Q applies it last.
inline index_t block_start(index_t q, index_t blocks, index_t nb,
                           Trans trans) {
  return (trans == Trans::kTrans ? q : blocks - 1 - q) * nb;
}

}  // namespace detail

/// Unblocked QR of an m x n tile (m >= n), in place: the scalar reference
/// kernel and the panel leaf. On exit: upper triangle of `a` holds R;
/// below-diagonal holds the Householder vectors V (unit diagonal implicit);
/// `t` (n x n) holds the full upper-triangular block reflector factor.
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

/// Applies the Q of a geqrt-factored tile to C from the left; trans ==
/// kTrans applies Q^T. `v` is the factored tile (m x k, reflectors below the
/// diagonal), `t` its block reflector factor and `ib` the inner block width
/// geqrt ran with. Block [s, s+kb) of Q acts on rows s..m of C only.
///
/// For kb > kWyFusedMax the three compact-WY steps are expressed on the
/// block's structure — V = [V1; V2] with V1 unit lower triangular (kb x kb)
/// and V2 dense — so the dense bulk runs as gemm (micro-kernel eligible) and
/// the triangular parts as trmm, instead of branchy element loops:
///   W  = V1^T C1        (unit-lower trmm, out of place)
///   W += V2^T C2        (gemm)
///   W  = op(Tf) W       (upper trmm)
///   C1 -= V1 W          (unit-lower trmm accumulating into C1)
///   C2 -= V2 W          (gemm)
/// trmm only reads the stored triangle, so the R factor above V's diagonal is
/// never touched.
template <typename T>
void unmqr(ConstMatrixView<T> v, ConstMatrixView<T> t, MatrixView<T> c,
           Trans trans, index_t ib) {
  const index_t m = c.rows, n = c.cols, k = v.cols;
  TQR_REQUIRE(v.rows == m, "unmqr: V/C row mismatch");
  TQR_REQUIRE(t.rows >= k && t.cols >= k, "unmqr: T factor too small");
  const index_t nb = detail::inner_block_width(ib, k);
  const index_t blocks = k == 0 ? 0 : (k + nb - 1) / nb;
  const Trans op_t = trans == Trans::kNoTrans ? Trans::kNoTrans : Trans::kTrans;
  Matrix<T> w_buf(nb, n);

  for (index_t q = 0; q < blocks; ++q) {
    const index_t s = detail::block_start(q, blocks, nb, trans);
    const index_t kb = std::min(nb, k - s), mb = m - s;
    const auto vb = v.block(s, s, mb, kb);
    const auto tb = t.block(s, s, kb, kb);
    auto cb = c.block(s, 0, mb, n);
    auto w = w_buf.block(0, 0, kb, n);

    if (kb <= kWyFusedMax) {
      // Fused small path: W = V^T C with V unit lower trapezoidal (garbage
      // above the diagonal of the stored tile must be ignored).
      for (index_t j = 0; j < n; ++j)
        for (index_t p = 0; p < kb; ++p)
          w(p, j) = cb(p, j) +
                    mk::dot<T>(mb - p - 1, vb.data + (p + 1) + p * vb.ld,
                               cb.data + (p + 1) + j * cb.ld);
      trmm_left<T>(UpLo::kUpper, op_t, Diag::kNonUnit, tb, w);
      for (index_t j = 0; j < n; ++j)
        for (index_t p = 0; p < kb; ++p) {
          const T wpj = w(p, j);
          if (wpj == T(0)) continue;
          cb(p, j) -= wpj;
          mk::axpy<T>(mb - p - 1, -wpj, vb.data + (p + 1) + p * vb.ld,
                      cb.data + (p + 1) + j * cb.ld);
        }
      continue;
    }

    const auto v1 = vb.block(0, 0, kb, kb);
    auto c1 = cb.block(0, 0, kb, n);

    // W = V1^T C1 + V2^T C2.
    trmm_left<T>(UpLo::kLower, Trans::kTrans, Diag::kUnit, T(1), v1, c1, T(0),
                 w);
    if (mb > kb)
      gemm<T>(Trans::kTrans, Trans::kNoTrans, T(1),
              vb.block(kb, 0, mb - kb, kb), cb.block(kb, 0, mb - kb, n), T(1),
              w);

    // W = op(Tf) W. Q uses Tf, Q^T uses Tf^T.
    trmm_left<T>(UpLo::kUpper, op_t, Diag::kNonUnit, tb, w);

    // C1 -= V1 W, C2 -= V2 W.
    trmm_left<T>(UpLo::kLower, Trans::kNoTrans, Diag::kUnit, T(-1), v1, w,
                 T(1), c1);
    if (mb > kb)
      gemm<T>(Trans::kNoTrans, Trans::kNoTrans, T(-1),
              vb.block(kb, 0, mb - kb, kb), w, T(1),
              cb.block(kb, 0, mb - kb, n));
  }
}

/// Unblocked TS (triangle-on-top-of-square) QR of [R1; A2]: the scalar
/// reference kernel and the panel leaf. R1 (b x b) is upper triangular and
/// A2 (m2 x b) dense. On exit R1 holds the new R (only its upper triangle is
/// read or written, so the V of a geqrt-factored diagonal tile survives
/// underneath), A2 holds the dense reflector block V2, and `t` the full block
/// reflector factor.
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
/// `v2` is the dense reflector block from tsqrt (m2 x b), `t` its factor and
/// `ib` the inner block width tsqrt ran with. Block [s, s+kb) of Q acts on
/// rows s..s+kb of C1 and all of C2.
template <typename T>
void tsmqr(ConstMatrixView<T> v2, ConstMatrixView<T> t, MatrixView<T> c1,
           MatrixView<T> c2, Trans trans, index_t ib) {
  const index_t b = v2.cols, n = c1.cols, m2 = v2.rows;
  TQR_REQUIRE(c1.rows == b, "tsmqr: C1 must have b rows");
  TQR_REQUIRE(c2.rows == m2 && c2.cols == n, "tsmqr: C2 shape mismatch");
  TQR_REQUIRE(t.rows >= b && t.cols >= b, "tsmqr: T factor too small");
  const index_t nb = detail::inner_block_width(ib, b);
  const index_t blocks = b == 0 ? 0 : (b + nb - 1) / nb;
  const Trans op_t = trans == Trans::kNoTrans ? Trans::kNoTrans : Trans::kTrans;
  Matrix<T> w_buf(nb, n);

  for (index_t q = 0; q < blocks; ++q) {
    const index_t s = detail::block_start(q, blocks, nb, trans);
    const index_t kb = std::min(nb, b - s);
    const auto vb = v2.block(0, s, m2, kb);
    auto c1b = c1.block(s, 0, kb, n);
    auto w = w_buf.block(0, 0, kb, n);

    // W = C1 + V2^T C2.
    copy<T>(c1b, w);
    gemm<T>(Trans::kTrans, Trans::kNoTrans, T(1), vb, c2, T(1), w);

    // W = op(Tf) W.
    trmm_left<T>(UpLo::kUpper, op_t, Diag::kNonUnit, t.block(s, s, kb, kb), w);

    // [C1; C2] -= [I; V2] W.
    for (index_t j = 0; j < n; ++j)
      for (index_t i = 0; i < kb; ++i) c1b(i, j) -= w(i, j);
    gemm<T>(Trans::kNoTrans, Trans::kNoTrans, T(-1), vb, w, T(1), c2);
  }
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
  // Left width: half of w rounded up to a multiple of the leaf width, so the
  // leaves stay uniform.
  index_t w1 = ((w + 1) / 2 + base - 1) / base * base;
  if (w1 >= w) w1 = (w + 1) / 2;
  const index_t w2 = w - w1;
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

/// QR factorization of an m x n tile (m >= n), in place, in `ib`-wide panels
/// (<= 0 selects kPanelBase, >= n runs the unblocked reference kernel). On
/// exit: upper triangle of `a` holds R; below-diagonal the Householder
/// vectors V (unit diagonal implicit); `t` (n x n) the panels' block
/// reflector factors on its diagonal and zeros elsewhere. Apply with
/// unmqr(..., ib) using the same `ib`.
template <typename T>
void geqrt(MatrixView<T> a, MatrixView<T> t, index_t ib = 0) {
  const index_t m = a.rows, n = a.cols;
  TQR_REQUIRE(m >= n, "geqrt: require rows >= cols");
  TQR_REQUIRE(t.rows >= n && t.cols >= n, "geqrt: T factor too small");
  const index_t nb = detail::inner_block_width(ib, n);
  t.block(0, 0, n, n).fill(T(0));
  for (index_t s = 0; s < n; s += nb) {
    const index_t kb = std::min(nb, n - s);
    auto panel = a.block(s, s, m - s, kb);
    geqrt_unblocked<T>(panel, t.block(s, s, kb, kb));
    if (s + kb < n)
      unmqr<T>(panel, t.block(s, s, kb, kb),
               a.block(s, s + kb, m - s, n - s - kb), Trans::kTrans, kb);
  }
}

/// TS (triangle-on-top-of-square) QR of [R1; A2] in `ib`-wide panels (same
/// conventions as geqrt). Storage contract matches tsqrt_unblocked — R in
/// R1's upper triangle (nothing else of R1 touched), dense V2 in A2 — except
/// that `t` holds only the diagonal blocks. Apply with tsmqr(..., ib) using
/// the same `ib`.
template <typename T>
void tsqrt(MatrixView<T> r1, MatrixView<T> a2, MatrixView<T> t,
           index_t ib = 0) {
  const index_t b = r1.cols, m2 = a2.rows;
  TQR_REQUIRE(r1.rows >= b, "tsqrt: R1 must be at least b x b");
  TQR_REQUIRE(a2.cols == b, "tsqrt: A2 column mismatch");
  TQR_REQUIRE(t.rows >= b && t.cols >= b, "tsqrt: T factor too small");
  const index_t nb = detail::inner_block_width(ib, b);
  t.block(0, 0, b, b).fill(T(0));
  for (index_t s = 0; s < b; s += nb) {
    const index_t kb = std::min(nb, b - s);
    auto v2 = a2.block(0, s, m2, kb);
    tsqrt_unblocked<T>(r1.block(s, s, kb, kb), v2, t.block(s, s, kb, kb));
    if (s + kb < b)
      tsmqr<T>(v2, t.block(s, s, kb, kb), r1.block(s, s + kb, kb, b - s - kb),
               a2.block(0, s + kb, m2, b - s - kb), Trans::kTrans, kb);
  }
}

/// TT (triangle-on-top-of-triangle) QR of [R1; R2], recursive with leaf
/// width `ib` (<= 0 selects kPanelBase, >= b runs the unblocked reference
/// kernel). Storage contract matches ttqrt_unblocked: V2 stays upper
/// triangular (column k has support rows 0..k, entries below R2's diagonal
/// are never written), full Tf in `t`.
template <typename T>
void ttqrt(MatrixView<T> r1, MatrixView<T> r2, MatrixView<T> t,
           index_t ib = 0) {
  const index_t b = r1.cols;
  TQR_REQUIRE(r1.rows >= b && r2.rows >= b && r2.cols == b,
              "ttqrt: tiles must be b x b");
  TQR_REQUIRE(t.rows >= b && t.cols >= b, "ttqrt: T factor too small");
  const index_t base = detail::inner_block_width(ib, b);
  if (base >= b) {
    ttqrt_unblocked<T>(r1, r2, t);
    return;
  }
  t.block(0, 0, b, b).fill(T(0));
  detail::ttqrt_rec<T>(r1, r2, t, 0, b, base);
}

}  // namespace tqr::la

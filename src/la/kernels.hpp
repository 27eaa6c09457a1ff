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
//   tpqrt  (E,  elimination)            QR of [R1 (triangular); B]
//   tpmqrt (UE, update for elim.)       apply a tpqrt Q/Q^T to a tile pair
//
// TS and TT elimination are one pentagonal pair (LAPACK tpqrt/tpmqrt) told
// apart by the structural parameter `l`, the number of B's bottom rows that
// are upper triangular:
//   l == 0      TS: B dense (any height m2); V2 is stored densely in B.
//   l == b      TT: B upper triangular (b x b); V2 stays upper triangular,
//               which is what makes tree (TT) elimination cheaper per level.
// The structured top part of V (identity columns) is always implicit, and
// nothing below B's triangle is ever read or written.
//
// One T contract (PLASMA's `ib`, Buttari et al.): every factor kernel works
// in ib-wide column panels. Each panel runs a leaf (geqrt_unblocked for
// geqrt; for tpqrt the recursive detail::tpqrt_leaf, whose base case is
// tpqrt_unblocked), then one single-block compact-WY apply updates the
// trailing columns. Tf keeps only the panels' ib x ib diagonal blocks and is
// zero everywhere else:
//
//   Q = Q_0 Q_1 ... Q_{p-1},   Q_j = I - V_j Tf_jj V_j^T.
//
// unmqr and tpmqrt apply those blocks in turn (ascending for Q^T, descending
// for Q) through a per-thread W workspace, so they take the `ib` the tile was
// factored with as a required argument. `ib <= 0` selects kPanelBase;
// `ib >= b` is a single block, i.e. the full Tf the unblocked reference
// kernels (geqrt_unblocked, tpqrt_unblocked) build. A full Tf may be applied
// with any `ib`: its diagonal blocks are exactly the panel factors.
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
/// panel width of geqrt/tpqrt, hence the Tf block width their applies walk.
/// geqrt's leaf runs SIMD column dots/axpys, tpqrt's splits in halves down
/// to kLeafBase columns of them; the trailing updates between panels run
/// on the packed gemm/trmm engine. Swept on avx512f
/// (EXPERIMENTS.md, "Inner-blocked T"): 32 beats 64 for geqrt and TS tpqrt at
/// tiles 64-256, and 16 drops unmqr onto its fused small path (kWyFusedMax),
/// which runs about 2.5x slower.
inline constexpr index_t kPanelBase = 32;

namespace detail {

/// Householder generation on [alpha; x] (LAPACK dlarfg): returns tau and
/// beta, scales x into the reflector tail v (v0 = 1 implicit). tau == 0 means
/// H = I. A beta below the safe minimum would overflow 1 / (alpha - beta), so
/// [alpha; x] is scaled up first (at most 20 times, as in dlarfg) and beta
/// scaled back at the end.
template <typename T>
T larfg(T& alpha, MatrixView<T> x, T& beta) {
  // Fast path: one vectorized sum of squares gives ||[alpha; x]|| directly
  // while it stays in the normal range; anything else takes the scaled
  // nrm2 and hypot below.
  const T ssq = mk::dot<T>(x.rows, x.data, x.data);
  const T norm2 = alpha * alpha + ssq;
  if (ssq >= std::numeric_limits<T>::min() && std::isfinite(norm2)) {
    beta = -std::copysign(std::sqrt(norm2), alpha);
  } else {
    const T xnorm = nrm2<T>(x);
    if (xnorm == T(0)) {
      beta = alpha;
      return T(0);
    }
    beta = -std::copysign(std::hypot(alpha, xnorm), alpha);
  }
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
    beta = -std::copysign(std::hypot(alpha, nrm2<T>(x)), alpha);
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

/// Columns of C one pass of the compact-WY applies covers. Columns of C are
/// transformed independently, so wider C is walked in chunks of this many
/// columns and the workspace stays bounded by the tile sizes in use.
inline constexpr index_t kApplyColumns = 256;

/// Per-thread workspace of the compact-WY applies (W and op(Tf) W), grown to
/// the largest request seen on the thread and never shrunk, like the packed
/// engine's buffers. The applies never nest, so one buffer serves them all.
template <typename T>
T* apply_workspace(std::size_t n) {
  thread_local AlignedVector<T> buf;
  if (buf.size() < n) buf.resize(n);
  return buf.data();
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
///   TW = op(Tf) W       (upper trmm, out of place)
///   C1 -= V1 TW         (unit-lower trmm accumulating into C1)
///   C2 -= V2 TW         (gemm)
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

  for (index_t j0 = 0; j0 < n; j0 += detail::kApplyColumns) {
    const index_t nj = std::min(detail::kApplyColumns, n - j0);
    T* const ws = detail::apply_workspace<T>(2 * static_cast<std::size_t>(nb) *
                                             static_cast<std::size_t>(nj));
    for (index_t q = 0; q < blocks; ++q) {
      const index_t s = detail::block_start(q, blocks, nb, trans);
      const index_t kb = std::min(nb, k - s), mb = m - s;
      const auto vb = v.block(s, s, mb, kb);
      const auto tb = t.block(s, s, kb, kb);
      auto cb = c.block(s, j0, mb, nj);
      const MatrixView<T> w{ws, kb, nj, kb};

      if (kb <= kWyFusedMax) {
        // Fused small path: W = V^T C with V unit lower trapezoidal (garbage
        // above the diagonal of the stored tile must be ignored).
        for (index_t j = 0; j < nj; ++j)
          for (index_t p = 0; p < kb; ++p)
            w(p, j) = cb(p, j) +
                      mk::dot<T>(mb - p - 1, vb.data + (p + 1) + p * vb.ld,
                                 cb.data + (p + 1) + j * cb.ld);
        trmm_left<T>(UpLo::kUpper, op_t, Diag::kNonUnit, tb, w);
        for (index_t j = 0; j < nj; ++j)
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
      auto c1 = cb.block(0, 0, kb, nj);
      const MatrixView<T> tw{ws + static_cast<std::size_t>(kb) * nj, kb, nj,
                             kb};

      // W = V1^T C1 + V2^T C2.
      trmm_left<T>(UpLo::kLower, Trans::kTrans, Diag::kUnit, T(1), v1, c1,
                   T(0), w);
      if (mb > kb)
        gemm<T>(Trans::kTrans, Trans::kNoTrans, T(1),
                vb.block(kb, 0, mb - kb, kb), cb.block(kb, 0, mb - kb, nj),
                T(1), w);

      // TW = op(Tf) W, out of place so the engine reads W where it lies. Q
      // uses Tf, Q^T uses Tf^T.
      trmm_left<T>(UpLo::kUpper, op_t, Diag::kNonUnit, T(1), tb, w, T(0), tw);

      // C1 -= V1 TW, C2 -= V2 TW.
      trmm_left<T>(UpLo::kLower, Trans::kNoTrans, Diag::kUnit, T(-1), v1, tw,
                   T(1), c1);
      if (mb > kb)
        gemm<T>(Trans::kNoTrans, Trans::kNoTrans, T(-1),
                vb.block(kb, 0, mb - kb, kb), tw, T(1),
                cb.block(kb, 0, mb - kb, nj));
    }
  }
}

namespace detail {

/// Shape checks shared by tpqrt and its leaf. `l` is structural: 0 for a
/// dense B (TS), n for a B whose bottom n rows are upper triangular (TT).
template <typename T>
void require_tp_factor(MatrixView<T> r1, MatrixView<T> b, MatrixView<T> t,
                       index_t l) {
  const index_t n = r1.cols;
  TQR_REQUIRE(r1.rows >= n, "tpqrt: R1 must be at least n x n");
  TQR_REQUIRE(b.cols == n, "tpqrt: B column mismatch");
  TQR_REQUIRE(t.rows >= n && t.cols >= n, "tpqrt: T factor too small");
  TQR_REQUIRE(l == 0 || (l == n && b.rows >= n),
              "tpqrt: l must be 0 (dense B) or n (triangular bottom)");
}

/// Rows of column k of an m2 x n pentagonal B that may be nonzero.
inline index_t tp_rows(index_t m2, index_t n, index_t l, index_t k) {
  return l == 0 ? m2 : m2 - n + k + 1;
}

}  // namespace detail

/// Unblocked pentagonal QR of [R1; B] (LAPACK tpqrt2): the scalar reference
/// kernel and the base case of the recursive panel leaf. R1 (n x n) is
/// upper triangular; B (m2 x n) is dense when l == 0 and has its bottom
/// l == n rows upper triangular otherwise. On exit R1 holds the new R (only
/// its upper triangle is read or written, so the V of a geqrt-factored
/// diagonal tile survives underneath), B the reflector block V2 in the same
/// shape (entries below its triangle are never read or written) and `t` the
/// full block reflector factor.
template <typename T>
void tpqrt_unblocked(MatrixView<T> r1, MatrixView<T> b, MatrixView<T> t,
                     index_t l) {
  detail::require_tp_factor<T>(r1, b, t, l);
  const index_t n = r1.cols, m2 = b.rows;
  t.block(0, 0, n, n).fill(T(0));
  std::vector<T> z(n);

  for (index_t k = 0; k < n; ++k) {
    const index_t p = detail::tp_rows(m2, n, l, k);
    T beta;
    const T tau = detail::larfg(r1(k, k), b.block(0, k, p, 1), beta);
    t(k, k) = tau;
    if (tau == T(0)) continue;

    // Trailing update: row k of R1 and B's rows 0..p (v_k is zero below).
    T* vk = b.data + k * b.ld;
    for (index_t j = k + 1; j < n; ++j) {
      T* bj = b.data + j * b.ld;
      T w = r1(k, j) + mk::dot<T>(p, vk, bj);
      w *= tau;
      r1(k, j) -= w;
      mk::axpy<T>(p, -w, vk, bj);
    }

    // Tf column; the structured identity top of V contributes nothing
    // (e_q . e_k = 0 for q != k), and v_q's support ends within v_k's.
    if (k > 0) {
      for (index_t q = 0; q < k; ++q)
        z[q] = mk::dot<T>(detail::tp_rows(m2, n, l, q), b.data + q * b.ld, vk);
      detail::scaled_triu_matvec<T>(t, k, z.data(), -tau);
    }
  }
}

/// Applies the Q of a tpqrt factorization to the stacked pair [C1; C2];
/// trans == kTrans applies Q^T. `v2` is tpqrt's reflector block (m2 x k,
/// factored with this `l`), `t` its factor and `ib` the inner block width
/// tpqrt ran with. Block [s, s+kb) of Q acts on rows s..s+kb of C1 and on
/// the rows of C2 its V2 block spans: a dense top D (all m2 rows when
/// l == 0) over a kb x kb upper triangle U (when l == k). Per block:
///   W  = C1 + D^T C2d + U^T C2u   (copy, gemm, accumulating trmm)
///   TW = op(Tf) W                 (upper trmm, out of place)
///   C1 -= TW,  C2d -= D TW,  C2u -= U TW
/// so V2's entries below U's diagonal are never read.
template <typename T>
void tpmqrt(ConstMatrixView<T> v2, ConstMatrixView<T> t, MatrixView<T> c1,
            MatrixView<T> c2, index_t l, Trans trans, index_t ib) {
  const index_t k = v2.cols, m2 = v2.rows, n = c1.cols;
  TQR_REQUIRE(c1.rows == k, "tpmqrt: C1 must have k rows");
  TQR_REQUIRE(c2.rows == m2 && c2.cols == n, "tpmqrt: C2 shape mismatch");
  TQR_REQUIRE(t.rows >= k && t.cols >= k, "tpmqrt: T factor too small");
  TQR_REQUIRE(l == 0 || (l == k && m2 >= k),
              "tpmqrt: l must be 0 (dense V2) or k (triangular bottom)");
  const index_t nb = detail::inner_block_width(ib, k);
  const index_t blocks = k == 0 ? 0 : (k + nb - 1) / nb;
  const Trans op_t = trans == Trans::kNoTrans ? Trans::kNoTrans : Trans::kTrans;

  for (index_t j0 = 0; j0 < n; j0 += detail::kApplyColumns) {
    const index_t nj = std::min(detail::kApplyColumns, n - j0);
    T* const ws = detail::apply_workspace<T>(2 * static_cast<std::size_t>(nb) *
                                             static_cast<std::size_t>(nj));
    for (index_t q = 0; q < blocks; ++q) {
      const index_t s = detail::block_start(q, blocks, nb, trans);
      const index_t kb = std::min(nb, k - s);
      const index_t md = l == 0 ? m2 : m2 - k + s;  // D's rows
      const auto d = v2.block(0, s, md, kb);
      auto c2d = c2.block(0, j0, md, nj);
      auto c1b = c1.block(s, j0, kb, nj);
      const MatrixView<T> w{ws, kb, nj, kb};
      const MatrixView<T> tw{ws + static_cast<std::size_t>(kb) * nj, kb, nj,
                             kb};

      // W = C1 + D^T C2d + U^T C2u.
      copy<T>(c1b, w);
      if (md > 0)
        gemm<T>(Trans::kTrans, Trans::kNoTrans, T(1), d, c2d, T(1), w);
      if (l > 0)
        trmm_left<T>(UpLo::kUpper, Trans::kTrans, Diag::kNonUnit, T(1),
                     v2.block(md, s, kb, kb), c2.block(md, j0, kb, nj), T(1),
                     w);

      // TW = op(Tf) W, out of place so the engine reads W where it lies. Q
      // uses Tf, Q^T uses Tf^T.
      trmm_left<T>(UpLo::kUpper, op_t, Diag::kNonUnit, T(1),
                   t.block(s, s, kb, kb), w, T(0), tw);

      // [C1; C2] -= [I; V2] TW over the block's support.
      for (index_t j = 0; j < nj; ++j)
        mk::axpy<T>(kb, T(-1), tw.data + static_cast<std::size_t>(j) * kb,
                    c1b.data + static_cast<std::size_t>(j) * c1b.ld);
      if (md > 0)
        gemm<T>(Trans::kNoTrans, Trans::kNoTrans, T(-1), d, tw, T(1), c2d);
      if (l > 0)
        trmm_left<T>(UpLo::kUpper, Trans::kNoTrans, Diag::kNonUnit, T(-1),
                     v2.block(md, s, kb, kb), tw, T(1),
                     c2.block(md, j0, kb, nj));
    }
  }
}

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

namespace detail {

/// Panel width at or below which the recursive tpqrt leaf runs the column
/// loop of tpqrt_unblocked.
inline constexpr index_t kLeafBase = 16;

/// X = alpha * X * U in place, with U (n x n) upper triangular and X k x n.
/// Column j of the product reads X's columns p <= j only, so the columns are
/// formed right to left.
template <typename T>
void triu_right_multiply(MatrixView<T> x, ConstMatrixView<T> u, T alpha) {
  for (index_t j = x.cols - 1; j >= 0; --j) {
    T* xj = x.data + static_cast<std::size_t>(j) * x.ld;
    const T d = alpha * u(j, j);
    for (index_t i = 0; i < x.rows; ++i) xj[i] *= d;
    for (index_t p = 0; p < j; ++p)
      mk::axpy<T>(x.rows, alpha * u(p, j),
                  x.data + static_cast<std::size_t>(p) * x.ld, xj);
  }
}

/// The tpqrt panel leaf: pentagonal QR of [R1; B] with tpqrt_unblocked's
/// storage contract (full n x n T), recursive in the style of LAPACK
/// dgeqrt3 (Elmroth-Gustavson). The panel splits into halves down to
/// kLeafBase columns: the left half is factored, its Q^T is applied to the
/// right half through tpmqrt, the right half is factored, and T's
/// off-diagonal block is formed as T12 = -T11 (V1^T V2) T22. The identity
/// tops of V1 and V2 are orthogonal, so V1^T V2 is B1^T B2 over the left
/// half's rows, which turns the per-column T dots and trailing rank-1
/// updates of the column loop into gemm and trmm. With l == n each half is
/// itself a pentagon, as in tpqrt's panel loop.
template <typename T>
void tpqrt_leaf(MatrixView<T> r1, MatrixView<T> b, MatrixView<T> t,
                index_t l) {
  const index_t n = r1.cols, m2 = b.rows;
  if (n <= kLeafBase) {
    tpqrt_unblocked<T>(r1, b, t, l);
    return;
  }
  const index_t n1 = n / 2, n2 = n - n1;
  const index_t l1 = l == 0 ? 0 : n1, l2 = l == 0 ? 0 : n2;
  const index_t m1 = l == 0 ? m2 : m2 - n2;  // rows of the left half
  const index_t md = m1 - l1;                 // its dense rows
  const auto v1 = b.block(0, 0, m1, n1);
  const auto t11 = t.block(0, 0, n1, n1), t22 = t.block(n1, n1, n2, n2);
  auto t12 = t.block(0, n1, n1, n2);

  tpqrt_leaf<T>(r1.block(0, 0, n1, n1), v1, t11, l1);
  tpmqrt<T>(v1, t11, r1.block(0, n1, n1, n2), b.block(0, n1, m1, n2), l1,
            Trans::kTrans, n1);
  tpqrt_leaf<T>(r1.block(n1, n1, n2, n2), b.block(0, n1, m2, n2), t22, l2);

  // T12 = V1^T V2 = D1^T B2d + U1^T B2u, then -T11 T12 T22.
  if (md > 0)
    gemm<T>(Trans::kTrans, Trans::kNoTrans, T(1), b.block(0, 0, md, n1),
            b.block(0, n1, md, n2), T(0), t12);
  else
    t12.fill(T(0));
  if (l1 > 0)
    trmm_left<T>(UpLo::kUpper, Trans::kTrans, Diag::kNonUnit, T(1),
                 b.block(md, 0, n1, n1), b.block(md, n1, n1, n2), T(1), t12);
  trmm_left<T>(UpLo::kUpper, Trans::kNoTrans, Diag::kNonUnit, t11, t12);
  triu_right_multiply<T>(t12, t22, T(-1));
  t.block(n1, 0, n2, n1).fill(T(0));
}

}  // namespace detail

/// Pentagonal QR of [R1; B] in `ib`-wide panels (<= 0 selects kPanelBase,
/// >= n runs one panel) through the recursive leaf. Storage contract
/// matches tpqrt_unblocked, except that `t` holds only the panels' ib x ib
/// diagonal blocks and zeros elsewhere. With l == n each panel [s, s+kb) is
/// itself a pentagon (B's dense rows above its kb x kb diagonal triangle,
/// plus that triangle), so no panel reaches below B's diagonal.
/// Apply with tpmqrt(..., l, trans, ib) using the same `l` and `ib`.
template <typename T>
void tpqrt(MatrixView<T> r1, MatrixView<T> b, MatrixView<T> t, index_t l,
           index_t ib) {
  detail::require_tp_factor<T>(r1, b, t, l);
  const index_t n = r1.cols, m2 = b.rows;
  const index_t nb = detail::inner_block_width(ib, n);
  t.block(0, 0, n, n).fill(T(0));
  for (index_t s = 0; s < n; s += nb) {
    const index_t kb = std::min(nb, n - s);
    const index_t lb = l == 0 ? 0 : kb;
    const index_t mb = l == 0 ? m2 : m2 - n + s + kb;
    auto panel = b.block(0, s, mb, kb);
    detail::tpqrt_leaf<T>(r1.block(s, s, kb, kb), panel,
                          t.block(s, s, kb, kb), lb);
    if (s + kb < n)
      tpmqrt<T>(panel, t.block(s, s, kb, kb),
                r1.block(s, s + kb, kb, n - s - kb),
                b.block(0, s + kb, mb, n - s - kb), lb, Trans::kTrans, kb);
  }
}

// Compiled once, in la/instantiations.cpp, for float and double (see
// TQR_LA_BLAS_TEMPLATES): fp32 R is the same bits from every caller.
#define TQR_LA_KERNEL_TEMPLATES(EXTERN, T)                                  \
  EXTERN template void geqrt<T>(MatrixView<T>, MatrixView<T>, index_t);     \
  EXTERN template void geqrt_unblocked<T>(MatrixView<T>, MatrixView<T>);    \
  EXTERN template void unmqr<T>(ConstMatrixView<T>, ConstMatrixView<T>,     \
                                MatrixView<T>, Trans, index_t);             \
  EXTERN template void tpqrt<T>(MatrixView<T>, MatrixView<T>, MatrixView<T>,\
                                index_t, index_t);                          \
  EXTERN template void tpqrt_unblocked<T>(MatrixView<T>, MatrixView<T>,     \
                                          MatrixView<T>, index_t);          \
  EXTERN template void tpmqrt<T>(ConstMatrixView<T>, ConstMatrixView<T>,    \
                                 MatrixView<T>, MatrixView<T>, index_t,     \
                                 Trans, index_t);

TQR_LA_KERNEL_TEMPLATES(extern, float)
TQR_LA_KERNEL_TEMPLATES(extern, double)

}  // namespace tqr::la

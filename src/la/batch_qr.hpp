// Batched small-QR storage and kernels: SIMD lanes run over the *batch*
// dimension, not within one matrix.
//
// At tile sizes 8-64 a single Householder QR is dominated by fringe cost:
// short columns leave most of a vector register empty and the per-column
// scalar work (norm, pivot, tau) cannot vectorize at all. Packing W
// same-shape problems into an interleaved chunk turns every one of those
// loops into a dense stride-1 sweep across the batch:
//
//   chunk c holds problems [c*W, (c+1)*W); element (i, j) of lane w lives at
//       chunk_ptr[(j*rows + i) * W + w]
//
// so the innermost loop is always `for w in [0, W)` over contiguous memory
// and auto-vectorizes to full-width arithmetic regardless of how tiny the
// matrices are. W is the SIMD width for T (la::batch_width<T>()); problem
// counts that are not a multiple of W pad the final chunk with zero lanes,
// which the factorization treats as identity reflectors (tau = 0).
//
// This is the same engine shape as batched/team QR in Kokkos-lineage kernels
// (one team per chunk, vector lanes across the batch); here the "team" is a
// service lane and the chunk loop is sequential within one job.
//
// Numerics: the per-lane Householder recipe matches la::detail::larfg except
// that the column norm is sqrt(sum of squares) rather than hypot-accumulated,
// because the latter serializes the lane loop, and that there is no
// safe-minimum rescale. For the |a_ij| <= O(1),
// rows <= a few hundred regime this engine targets, the difference is a few
// ulps; parity with the single-matrix path is within verify tolerance, not
// bitwise.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "common/error.hpp"
#include "la/matrix.hpp"
#include "la/microkernel.hpp"

namespace tqr::la {

/// Interleave width for element type T: one full vector register of lanes.
/// Scalar builds (TQR_MK_SCALAR) still interleave by 4 so the compiler can
/// unroll, and so layout-dependent tests exercise padding everywhere.
template <typename T>
constexpr index_t batch_width() {
  constexpr index_t lanes =
      mk::detail::kVecBytes / static_cast<index_t>(sizeof(T));
  return lanes < 4 ? 4 : lanes;
}

/// Owning chunk-interleaved storage for `problems` matrices of one shape.
template <typename T>
class BatchMatrix {
 public:
  static constexpr index_t kWidth = batch_width<T>();

  BatchMatrix() = default;
  BatchMatrix(index_t rows, index_t cols, index_t problems)
      : rows_(rows), cols_(cols), problems_(problems) {
    TQR_REQUIRE(rows >= 0 && cols >= 0 && problems >= 0,
                "BatchMatrix dimensions must be non-negative");
    checked_extent(rows, cols);
    chunks_ = (problems + kWidth - 1) / kWidth;
    const std::uint64_t total = static_cast<std::uint64_t>(chunks_) *
                                chunk_stride();
    TQR_REQUIRE(total <= (std::uint64_t{1} << 40),
                "BatchMatrix is too large");
    data_.assign(static_cast<std::size_t>(total), T(0));
  }

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  index_t problems() const { return problems_; }
  index_t chunks() const { return chunks_; }
  /// Elements per chunk: rows*cols matrices interleaved across kWidth lanes.
  std::size_t chunk_stride() const {
    return static_cast<std::size_t>(rows_) * cols_ * kWidth;
  }
  std::size_t size() const { return data_.size(); }
  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }

  T* chunk(index_t c) { return data_.data() + c * chunk_stride(); }
  const T* chunk(index_t c) const { return data_.data() + c * chunk_stride(); }

  T& at(index_t i, index_t j, index_t p) {
    return data_[offset(i, j, p)];
  }
  const T& at(index_t i, index_t j, index_t p) const {
    return data_[offset(i, j, p)];
  }

  /// Scatters one dense column-major problem into its lane. The source may
  /// be a wider type (fp32 batches load from fp64 specs by narrowing).
  /// Returns whether every loaded value is finite (checked in the same
  /// pass; out-of-range narrowing shows up as Inf).
  template <typename U>
  bool load(index_t p, ConstMatrixView<U> src) {
    TQR_REQUIRE(src.rows == rows_ && src.cols == cols_,
                "BatchMatrix::load shape mismatch");
    int finite = 1;
    for (index_t j = 0; j < cols_; ++j)
      for (index_t i = 0; i < rows_; ++i) {
        const T v = static_cast<T>(src(i, j));
        at(i, j, p) = v;
        finite &= v - v == T(0);
      }
    return finite != 0;
  }

  /// Gathers lane p back into dense column-major storage (widening is fine).
  template <typename U>
  void extract(index_t p, MatrixView<U> dst) const {
    TQR_REQUIRE(dst.rows == rows_ && dst.cols == cols_,
                "BatchMatrix::extract shape mismatch");
    for (index_t j = 0; j < cols_; ++j)
      for (index_t i = 0; i < rows_; ++i)
        dst(i, j) = static_cast<U>(at(i, j, p));
  }

  /// Zeroes lane p (pad lanes of the final chunk, so recycled pool storage
  /// never feeds stale data into a factorization).
  void clear(index_t p) {
    for (index_t j = 0; j < cols_; ++j)
      for (index_t i = 0; i < rows_; ++i) at(i, j, p) = T(0);
  }

  void fill(T value) { std::fill(data_.begin(), data_.end(), value); }

 private:
  std::size_t offset(index_t i, index_t j, index_t p) const {
    return (p / kWidth) * chunk_stride() +
           (static_cast<std::size_t>(j) * rows_ + i) * kWidth +
           static_cast<std::size_t>(p % kWidth);
  }

  index_t rows_ = 0;
  index_t cols_ = 0;
  index_t problems_ = 0;
  index_t chunks_ = 0;
  AlignedVector<T> data_;
};

namespace batch {

namespace detail {

/// Rescales lane w of column k of the interleaved chunk `a` by 2^-e, with
/// 2^e the largest power of two not above the max-abs entry of [alpha; x]
/// (rows k..m): x is scaled in place, and alpha, ||x||^2 and
/// alpha^2 + ||x||^2 are recomputed on the scaled values; `unscale` becomes
/// 2^e. The diagonal entry itself and a zero or non-finite column are left
/// as they are.
template <typename T>
void rescale_lane(index_t m, index_t k, T* a, index_t w, T& alpha, T& xnorm2,
                  T& norm2, T& unscale) {
  constexpr index_t W = batch_width<T>();
  auto at = [&](index_t i) -> T& {
    return a[(static_cast<std::size_t>(k) * m + i) * W + w];
  };
  T amax = T(0);
  for (index_t i = k; i < m; ++i) amax = std::max(amax, std::abs(at(i)));
  if (!(amax > T(0)) || !std::isfinite(amax)) return;
  const int e = std::ilogb(amax);
  xnorm2 = T(0);
  for (index_t i = k + 1; i < m; ++i) {
    at(i) = std::ldexp(at(i), -e);
    xnorm2 += at(i) * at(i);
  }
  alpha = std::ldexp(at(k), -e);
  norm2 = alpha * alpha + xnorm2;
  unscale = std::ldexp(T(1), e);
}

}  // namespace detail

/// In-place Householder QR of every lane in one chunk. On return the upper
/// triangle of each lane holds its R, the strict lower triangle holds the
/// reflector vectors V (unit diagonal implied), and tau[k*W + w] holds lane
/// w's k-th Householder scalar. Zero lanes (padding) produce tau = 0
/// throughout — the identity — with no special casing.
template <typename T>
void qr_factor_chunk(index_t m, index_t n, T* a, T* tau) {
  constexpr index_t W = batch_width<T>();
  auto col = [&](index_t i, index_t j) {
    return a + (static_cast<std::size_t>(j) * m + i) * W;
  };
  alignas(64) T xnorm2[W], norm2[W], alphas[W], unscale[W], tk[W], scale[W],
      wacc[W];
  for (index_t k = 0; k < n; ++k) {
    for (index_t w = 0; w < W; ++w) xnorm2[w] = T(0);
    for (index_t i = k + 1; i < m; ++i) {
      const T* ai = col(i, k);
      for (index_t w = 0; w < W; ++w) xnorm2[w] += ai[w] * ai[w];
    }
    T* akk = col(k, k);
    T* tauk = tau + static_cast<std::size_t>(k) * W;
    for (index_t w = 0; w < W; ++w) {
      alphas[w] = akk[w];
      norm2[w] = akk[w] * akk[w] + xnorm2[w];
      unscale[w] = T(1);
    }
    // The fast sum of squares overflows on huge columns and underflows on
    // tiny ones, where it can even hide a live column. Such a lane is redone
    // on its column scaled by a power of two near its max-abs entry (exact),
    // and beta scaled back; v and tau do not depend on the scale.
    for (index_t w = 0; w < W; ++w)
      if (!(norm2[w] >= std::numeric_limits<T>::min() &&
            norm2[w] <= std::numeric_limits<T>::max()))
        detail::rescale_lane(m, k, a, w, alphas[w], xnorm2[w], norm2[w],
                             unscale[w]);
    for (index_t w = 0; w < W; ++w) {
      const T alpha = alphas[w];
      const T norm = std::sqrt(norm2[w]);
      const T beta = alpha >= T(0) ? -norm : norm;
      // Dead column: H_k = I. The guarded divisions produce values the
      // selects below discard (IEEE, no traps).
      const bool live = xnorm2[w] > T(0);
      tk[w] = live ? (beta - alpha) / beta : T(0);
      scale[w] = live ? T(1) / (alpha - beta) : T(0);
      akk[w] = live ? beta * unscale[w] : akk[w];
    }
    for (index_t w = 0; w < W; ++w) tauk[w] = tk[w];
    for (index_t i = k + 1; i < m; ++i) {
      T* ai = col(i, k);
      for (index_t w = 0; w < W; ++w) ai[w] *= scale[w];
    }
    // Trailing update: a_j -= tau * v (v^T a_j) with v = [1; a(k+1:m, k)].
    for (index_t j = k + 1; j < n; ++j) {
      T* akj = col(k, j);
      for (index_t w = 0; w < W; ++w) wacc[w] = akj[w];
      for (index_t i = k + 1; i < m; ++i) {
        const T* vi = col(i, k);
        const T* aij = col(i, j);
        for (index_t w = 0; w < W; ++w) wacc[w] += vi[w] * aij[w];
      }
      for (index_t w = 0; w < W; ++w) {
        wacc[w] *= tk[w];
        akj[w] -= wacc[w];
      }
      for (index_t i = k + 1; i < m; ++i) {
        const T* vi = col(i, k);
        T* aij = col(i, j);
        for (index_t w = 0; w < W; ++w) aij[w] -= wacc[w] * vi[w];
      }
    }
  }
}

namespace detail {

/// Applies reflector k of every lane to c (m x nrhs interleaved).
template <typename T>
inline void apply_reflector_chunk(index_t m, index_t n, const T* a,
                                  const T* tau, T* c, index_t nrhs,
                                  index_t k) {
  constexpr index_t W = batch_width<T>();
  (void)n;
  auto va = [&](index_t i, index_t j) {
    return a + (static_cast<std::size_t>(j) * m + i) * W;
  };
  auto vc = [&](index_t i, index_t j) {
    return c + (static_cast<std::size_t>(j) * m + i) * W;
  };
  const T* tauk = tau + static_cast<std::size_t>(k) * W;
  alignas(64) T wacc[W];
  for (index_t j = 0; j < nrhs; ++j) {
    T* ckj = vc(k, j);
    for (index_t w = 0; w < W; ++w) wacc[w] = ckj[w];
    for (index_t i = k + 1; i < m; ++i) {
      const T* vi = va(i, k);
      const T* cij = vc(i, j);
      for (index_t w = 0; w < W; ++w) wacc[w] += vi[w] * cij[w];
    }
    for (index_t w = 0; w < W; ++w) {
      wacc[w] *= tauk[w];
      ckj[w] -= wacc[w];
    }
    for (index_t i = k + 1; i < m; ++i) {
      const T* vi = va(i, k);
      T* cij = vc(i, j);
      for (index_t w = 0; w < W; ++w) cij[w] -= wacc[w] * vi[w];
    }
  }
}

}  // namespace detail

/// c <- Q^T c per lane, with Q from qr_factor_chunk's factors (a: m x n
/// interleaved, tau: n x W). c is m x nrhs interleaved.
template <typename T>
void apply_qt_chunk(index_t m, index_t n, const T* a, const T* tau, T* c,
                    index_t nrhs) {
  for (index_t k = 0; k < n; ++k)
    detail::apply_reflector_chunk(m, n, a, tau, c, nrhs, k);
}

/// c <- Q c per lane (reflectors replayed in reverse).
template <typename T>
void apply_q_chunk(index_t m, index_t n, const T* a, const T* tau, T* c,
                   index_t nrhs) {
  for (index_t k = n - 1; k >= 0; --k)
    detail::apply_reflector_chunk(m, n, a, tau, c, nrhs, k);
}

/// c <- Q_p c for problem p alone: its reflectors, read in place from the
/// factored storage (vr from qr_factor_chunk, tau n x 1 per problem),
/// replayed in reverse by scalar code. c is rows x k. For residuals and
/// verification, where one problem is the unit of work and interleaving
/// buys nothing.
template <typename T>
void apply_q_member(const BatchMatrix<T>& vr, const BatchMatrix<T>& tau,
                    index_t p, MatrixView<T> c) {
  constexpr index_t W = BatchMatrix<T>::kWidth;
  const index_t m = vr.rows();
  TQR_REQUIRE(c.rows == m, "apply_q_member: c must have the problem's rows");
  const T* lane = vr.chunk(p / W) + p % W;
  auto v = [&](index_t i, index_t k) {
    return lane[(static_cast<std::size_t>(k) * m + i) * W];
  };
  for (index_t k = vr.cols() - 1; k >= 0; --k) {
    const T tk = tau.at(k, 0, p);
    for (index_t j = 0; j < c.cols; ++j) {
      T w = c(k, j);
      for (index_t i = k + 1; i < m; ++i) w += v(i, k) * c(i, j);
      w *= tk;
      c(k, j) -= w;
      for (index_t i = k + 1; i < m; ++i) c(i, j) -= w * v(i, k);
    }
  }
}

/// Back-substitutes R x = c(0:n, :) per lane, writing x over c(0:n, :).
/// A lane whose R has a zero diagonal yields inf/nan for that lane only —
/// detecting that is the caller's verification tier, not this kernel's.
template <typename T>
void back_solve_chunk(index_t m, index_t n, const T* a, T* c, index_t nrhs) {
  constexpr index_t W = batch_width<T>();
  auto vr = [&](index_t i, index_t j) {
    return a + (static_cast<std::size_t>(j) * m + i) * W;
  };
  auto vc = [&](index_t i, index_t j) {
    return c + (static_cast<std::size_t>(j) * m + i) * W;
  };
  for (index_t j = 0; j < nrhs; ++j) {
    for (index_t i = n - 1; i >= 0; --i) {
      T* cij = vc(i, j);
      for (index_t l = i + 1; l < n; ++l) {
        const T* ril = vr(i, l);
        const T* clj = vc(l, j);
        for (index_t w = 0; w < W; ++w) cij[w] -= ril[w] * clj[w];
      }
      const T* rii = vr(i, i);
      for (index_t w = 0; w < W; ++w) cij[w] /= rii[w];
    }
  }
}

}  // namespace batch
}  // namespace tqr::la

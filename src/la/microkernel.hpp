// Register-tiled, SIMD-vectorized small-GEMM and triangular-multiply engine
// (BLIS-style).
//
// The loop-based substrate in la/blas.hpp streams whole operands through the
// cache for every output column; at tile sizes the paper sweeps that leaves
// the compact-WY applies (UNMQR/TSMQR/TTMQR — the UT/UE steps that dominate
// the tiled-QR runtime) an order of magnitude below machine FLOP rates. This
// engine closes that gap the way every production BLAS does:
//
//   1. Cache blocking: C is computed in MC x NC panels over KC-deep slices of
//      the inner dimension, so the packed A panel (MC x KC) lives in L2 and
//      the packed B micro-panel (KC x NR) lives in L1 while they are reused.
//   2. Packing: op(A) sub-panels are copied once into contiguous,
//      64-byte-aligned buffers laid out exactly in the order the inner kernel
//      reads them (MR-row interleaved), turning every inner-loop access into
//      an aligned unit-stride load and absorbing the transpose and the alpha
//      scaling. A non-transposed B already holds each NR-column panel as NR
//      contiguous columns, so its full panels are read where they lie; a
//      transposed B and a ragged last panel are packed NR-column interleaved
//      and zero-padded, so the micro-kernel never branches on shape. Full
//      MR x NR blocks of C are stored straight from the registers.
//   3. Register tiling: an MR x NR block of C is held entirely in vector
//      registers across the KC loop — each A/B element loaded from L1/L2 is
//      used NR/MR times, which is what moves the kernel from memory-bound to
//      FLOP-bound.
//
// The same pipeline runs the triangular multiply (trmm_packed, behind
// la::trmm_left): the triangle is packed once into the
// micro-kernel's panel format with explicit zeros, each panel runs only over
// its nonzero k-span, and the multiplied operand is read in place, or, for
// an in-place product, packed before its C block is written, so in-place
// and accumulating products both work.
//
// The micro-kernel itself is portable: with GCC/Clang vector extensions it
// compiles to whatever the target ISA offers (SSE2/AVX/AVX-512 chosen at
// compile time from the -m flags); defining TQR_MK_SCALAR — or building with
// a compiler without vector extensions — selects a plain scalar inner loop
// with identical semantics (the equivalence suite runs against both).
//
// Threading: the engine is single-threaded by design; parallelism in this
// codebase lives above the tile kernels (the DAG executor runs many tile
// kernels concurrently), so each worker thread gets its own packing buffers
// via thread_local storage.
#pragma once

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "la/aligned.hpp"
#include "la/blas_types.hpp"
#include "la/matrix.hpp"

#if !defined(TQR_MK_SCALAR) && (defined(__GNUC__) || defined(__clang__))
#define TQR_MK_VECTORIZED 1
#else
#define TQR_MK_VECTORIZED 0
#endif

namespace tqr::la::mk {

namespace detail {
#if TQR_MK_VECTORIZED
#if defined(__AVX512F__)
inline constexpr int kVecBytes = 64;
#elif defined(__AVX__)
inline constexpr int kVecBytes = 32;
#else
inline constexpr int kVecBytes = 16;
#endif
#else
inline constexpr int kVecBytes = static_cast<int>(sizeof(double));
#endif
}  // namespace detail

/// Compile-time register-tile shape per scalar type. MR spans the vector
/// direction (rows, unit stride in column-major C) and covers two vector
/// registers so the kernel carries 2*NR independent FMA chains — enough to
/// hide FMA latency on two issue ports. NR = 6 gives 12 accumulators plus 2
/// A vectors and a B broadcast, which fits the 16-register AVX2 file; the
/// 32-register AVX-512 file takes NR = 8 (16 accumulators), which also
/// divides the 16-, 32- and 128-wide operands of the tile kernels into whole
/// panels. NR does not change any element's summation order.
template <typename T>
struct RegisterBlocking {
  static constexpr int mr = 4;
  static constexpr int nr = 4;
};
template <>
struct RegisterBlocking<double> {
  static constexpr int lanes =
      detail::kVecBytes / static_cast<int>(sizeof(double));
  static constexpr int mr = lanes > 1 ? 2 * lanes : 8;
  static constexpr int nr = detail::kVecBytes >= 64 ? 8 : 6;
};
template <>
struct RegisterBlocking<float> {
  static constexpr int lanes =
      detail::kVecBytes / static_cast<int>(sizeof(float));
  static constexpr int mr = lanes > 1 ? 2 * lanes : 8;
  static constexpr int nr = detail::kVecBytes >= 64 ? 8 : 6;
};

/// Cache-level blocking, runtime-adjustable (tests shrink kc to make
/// exhaustive fringe sweeps tractable; benches sweep it).
struct Blocking {
  index_t kc = 256;  // depth of one packed slice (B micro-panel height, L1)
  index_t mc = 128;  // rows of the packed A panel (L2 resident)
  index_t nc = 1024; // columns of the packed B panel (L3 resident)
};

template <typename T>
inline Blocking default_blocking() {
  // Sized for ~48 KiB L1d / 2 MiB L2: A panel mc*kc*sizeof(T) <= ~1/2 L2,
  // B micro-panel kc*nr*sizeof(T) <= ~1/4 L1d.
  if constexpr (sizeof(T) <= 4) return Blocking{384, 192, 2048};
  return Blocking{256, 128, 1024};
}

/// Dispatch threshold used by la::gemm: below this the packing overhead is
/// not worth it and the straightforward loops win.
inline bool use_packed(index_t m, index_t n, index_t k) {
  if (m < 8 || n < 4 || k < 8) return false;
  return static_cast<double>(m) * static_cast<double>(n) *
             static_cast<double>(k) >=
         4096.0;
}

/// True when this build's micro-kernel uses SIMD vector extensions (the
/// scalar fallback is selected by TQR_MK_SCALAR or a non-GNU compiler).
constexpr bool vectorized() { return TQR_MK_VECTORIZED != 0; }

/// Human-readable ISA the micro-kernel was compiled for (bench metadata).
const char* isa_name();

namespace detail {

#if TQR_MK_VECTORIZED
/// may_alias lets us load vectors straight from packed T buffers without
/// violating strict aliasing.
template <typename T>
struct VecOf {
  static constexpr int lanes = kVecBytes / static_cast<int>(sizeof(T));
  typedef T type __attribute__((vector_size(kVecBytes), may_alias));
};

/// Element-aligned variant of VecOf: loads through it compile to unaligned
/// vector moves, so it can read from any offset inside a column (matrix
/// columns are only guaranteed element-aligned once a view offsets into
/// them).
template <typename T>
struct UnalignedVecOf {
  static constexpr index_t lanes = kVecBytes / static_cast<index_t>(sizeof(T));
  typedef T type __attribute__((vector_size(kVecBytes), may_alias,
                                aligned(alignof(T))));
};
#endif  // TQR_MK_VECTORIZED

/// Inner kernel: C(MR x NR) = Ap * B over a KC-deep slice, stored with the
/// k-slice beta rule (beta == 0 never reads C, beta == 1 accumulates). Ap is
/// an MR-row interleaved panel (element (i, p) at p*MR + i), zero-padded to
/// full MR. B is either an NR-column interleaved packed panel (element
/// (p, j) at p*NR + j) or, with kInPlaceB, NR columns of a column-major
/// matrix read where they lie (element (p, j) at j*ldb + p). Both feed the
/// same FMA sequence, so they give bitwise equal results. C is column-major
/// with leading dimension ldc and needs only element alignment.
template <typename T, bool kInPlaceB>
inline void micro_kernel(index_t kc, const T* __restrict ap,
                         const T* __restrict b, index_t ldb, T* __restrict c,
                         index_t ldc, T beta) {
  constexpr int MR = RegisterBlocking<T>::mr;
  constexpr int NR = RegisterBlocking<T>::nr;
  auto b_at = [&](index_t p, int j) {
    return kInPlaceB ? b[j * static_cast<std::size_t>(ldb) + p] : b[p * NR + j];
  };
#if TQR_MK_VECTORIZED
  using V = typename VecOf<T>::type;
  using U = typename UnalignedVecOf<T>::type;
  constexpr int L = VecOf<T>::lanes;
  if constexpr (std::is_floating_point_v<T> && MR % L == 0 &&
                (MR * sizeof(T)) % kVecBytes == 0) {
    constexpr int MV = MR / L;
    V acc[MV][NR]{};
#pragma GCC unroll 4
    for (index_t p = 0; p < kc; ++p) {
      V av[MV];
      for (int u = 0; u < MV; ++u)
        av[u] = *reinterpret_cast<const V*>(ap + p * MR + u * L);
      for (int j = 0; j < NR; ++j) {
        const T bs = b_at(p, j);
        for (int u = 0; u < MV; ++u) acc[u][j] += av[u] * bs;
      }
    }
    for (int j = 0; j < NR; ++j)
      for (int u = 0; u < MV; ++u) {
        U* dst = reinterpret_cast<U*>(c + j * static_cast<std::size_t>(ldc) +
                                      u * L);
        if (beta == T(0))
          *dst = acc[u][j];
        else if (beta == T(1))
          *dst += acc[u][j];
        else
          *dst = beta * *dst + acc[u][j];
      }
    return;
  }
#endif  // TQR_MK_VECTORIZED
  T acc[MR * NR]{};
  for (index_t p = 0; p < kc; ++p)
    for (int j = 0; j < NR; ++j) {
      const T bs = b_at(p, j);
      for (int i = 0; i < MR; ++i) acc[j * MR + i] += ap[p * MR + i] * bs;
    }
  for (int j = 0; j < NR; ++j)
    for (int i = 0; i < MR; ++i) {
      T& dst = c[j * static_cast<std::size_t>(ldc) + i];
      if (beta == T(0))
        dst = acc[j * MR + i];
      else if (beta == T(1))
        dst += acc[j * MR + i];
      else
        dst = beta * dst + acc[j * MR + i];
    }
}

/// Packs op(A)(ic:ic+mc, pc:pc+kc) into MR-row interleaved panels, folding in
/// alpha and zero-padding the last panel to a full MR rows.
template <typename T>
void pack_a(T* __restrict dst, ConstMatrixView<T> a, Trans ta, T alpha,
            index_t ic, index_t pc, index_t mc, index_t kc) {
  constexpr int MR = RegisterBlocking<T>::mr;
  const T* const base = a.data;
  const index_t ld = a.ld;
  for (index_t ir = 0; ir < mc; ir += MR) {
    const index_t mr_eff = mc - ir < MR ? mc - ir : MR;
    T* d = dst + static_cast<std::size_t>(ir) * kc;
    if (ta == Trans::kNoTrans) {
      for (index_t p = 0; p < kc; ++p) {
        const T* col = base + static_cast<std::size_t>(pc + p) * ld + ic + ir;
        index_t i = 0;
        for (; i < mr_eff; ++i) d[p * MR + i] = alpha * col[i];
        for (; i < MR; ++i) d[p * MR + i] = T(0);
      }
    } else {
      for (index_t p = 0; p < kc; ++p) {
        const T* row = base + static_cast<std::size_t>(ic + ir) * ld + pc + p;
        index_t i = 0;
        for (; i < mr_eff; ++i) d[p * MR + i] = alpha * row[i * ld];
        for (; i < MR; ++i) d[p * MR + i] = T(0);
      }
    }
  }
}

/// Packs op(B)(pc:pc+kc, jc:jc+nc) into NR-column interleaved panels,
/// zero-padding the last panel to a full NR columns.
template <typename T>
void pack_b(T* __restrict dst, ConstMatrixView<T> b, Trans tb, index_t pc,
            index_t jc, index_t kc, index_t nc) {
  constexpr int NR = RegisterBlocking<T>::nr;
  const T* const base = b.data;
  const index_t ld = b.ld;
  for (index_t jr = 0; jr < nc; jr += NR) {
    const index_t nr_eff = nc - jr < NR ? nc - jr : NR;
    T* d = dst + static_cast<std::size_t>(jr) * kc;
    if (tb == Trans::kNoTrans) {
      for (index_t p = 0; p < kc; ++p) {
        const T* row = base + static_cast<std::size_t>(jc + jr) * ld + pc + p;
        index_t j = 0;
        for (; j < nr_eff; ++j) d[p * NR + j] = row[j * ld];
        for (; j < NR; ++j) d[p * NR + j] = T(0);
      }
    } else {
      // op(B)(p, j) = B(jc + jr + j, pc + p): unit stride in j.
      for (index_t p = 0; p < kc; ++p) {
        const T* col = base + static_cast<std::size_t>(pc + p) * ld + jc + jr;
        index_t j = 0;
        for (; j < nr_eff; ++j) d[p * NR + j] = col[j];
        for (; j < NR; ++j) d[p * NR + j] = T(0);
      }
    }
  }
}

/// acc (MR-ld column-major) -> C block with the k-slice beta rule:
/// the first KC slice applies the caller's beta (never reading C when
/// beta == 0), later slices accumulate.
template <typename T>
inline void write_back(const T* __restrict acc, T* __restrict c, index_t ldc,
                       index_t mr_eff, index_t nr_eff, T beta) {
  constexpr int MR = RegisterBlocking<T>::mr;
  if (beta == T(0)) {
    for (index_t j = 0; j < nr_eff; ++j)
      for (index_t i = 0; i < mr_eff; ++i)
        c[j * static_cast<std::size_t>(ldc) + i] = acc[j * MR + i];
  } else if (beta == T(1)) {
    for (index_t j = 0; j < nr_eff; ++j)
      for (index_t i = 0; i < mr_eff; ++i)
        c[j * static_cast<std::size_t>(ldc) + i] += acc[j * MR + i];
  } else {
    for (index_t j = 0; j < nr_eff; ++j)
      for (index_t i = 0; i < mr_eff; ++i)
        c[j * static_cast<std::size_t>(ldc) + i] =
            beta * c[j * static_cast<std::size_t>(ldc) + i] + acc[j * MR + i];
  }
}

/// One MR x NR block of C over a KC-deep slice: a full block is stored
/// straight from the registers, a ragged fringe block goes through an
/// aligned MR x NR temporary and write_back.
template <typename T, bool kInPlaceB>
inline void block_kernel(index_t kc, const T* ap, const T* b, index_t ldb,
                         T* c, index_t ldc, index_t mr_eff, index_t nr_eff,
                         T beta) {
  constexpr int MR = RegisterBlocking<T>::mr;
  constexpr int NR = RegisterBlocking<T>::nr;
  if (mr_eff == MR && nr_eff == NR) {
    micro_kernel<T, kInPlaceB>(kc, ap, b, ldb, c, ldc, beta);
    return;
  }
  alignas(kMatrixAlignment) T acc[MR * NR];
  micro_kernel<T, kInPlaceB>(kc, ap, b, ldb, acc, MR, T(0));
  write_back<T>(acc, c, ldc, mr_eff, nr_eff, beta);
}

/// The MR-row blocks of one NR-column panel of C over a KC-deep slice:
/// Ap holds mc packed rows of op(A), B the panel's slice (packed, or read in
/// place with kInPlaceB).
template <typename T, bool kInPlaceB>
void column_panel(index_t kc, index_t mc, const T* ap, const T* b,
                  index_t ldb, T* c, index_t ldc, index_t nr_eff, T beta) {
  constexpr int MR = RegisterBlocking<T>::mr;
  for (index_t ir = 0; ir < mc; ir += MR)
    block_kernel<T, kInPlaceB>(kc, ap + static_cast<std::size_t>(ir) * kc, b,
                               ldb, c + ir, ldc, std::min<index_t>(MR, mc - ir),
                               nr_eff, beta);
}

/// Per-thread packing buffers: each DAG-executor worker drives its own tile
/// kernels, so the buffers are thread_local and grow to the largest blocking
/// seen on that thread.
template <typename T>
inline std::vector<T, AlignedAllocator<T>>& pack_buffer(int which) {
  thread_local std::vector<T, AlignedAllocator<T>> buf[2];
  return buf[which];
}

/// pack_buffer(which) grown to at least n elements. Never shrinks: a
/// shrink-then-grow round trip through resize() would re-zero the tail on
/// every call once gemm_packed and trmm_packed alternate on one thread.
template <typename T>
inline T* pack_storage(int which, std::size_t n) {
  auto& buf = pack_buffer<T>(which);
  if (buf.size() < n) buf.resize(n);
  return buf.data();
}

/// Nonzero column span [first, second) of rows r0 .. r0+R-1 of an m x m
/// triangle: the micro-panels outside it are all zero and never computed.
inline std::pair<index_t, index_t> tri_span(bool lower, index_t r0, index_t R,
                                            index_t m) {
  return lower ? std::pair<index_t, index_t>{0, std::min(r0 + R, m)}
               : std::pair<index_t, index_t>{r0, m};
}

/// Elements pack_tri writes for an m x m triangle in R-row panels.
inline std::size_t tri_packed_size(bool lower, index_t R, index_t m) {
  std::size_t n = 0;
  for (index_t r0 = 0; r0 < m; r0 += R) {
    const auto [lo, hi] = tri_span(lower, r0, R, m);
    n += static_cast<std::size_t>(hi - lo) * R;
  }
  return n;
}

/// Packs the rows of the triangular M = op(A) (m x m, lower when `lower`)
/// into R-row interleaved panels with alpha folded in. Each panel keeps only
/// its tri_span, so panel r0 starts where the previous one ended and holds
/// M(r0 + i, p) at (p - lo) * R + i. Entries outside the triangle are written
/// as explicit zeros and a unit diagonal as alpha; neither is read from A,
/// so the other triangle and a unit diagonal may hold anything (unmqr's V1
/// tile holds R there). A transposed op(A) is packed along A's contiguous
/// columns.
template <typename T, int R>
void pack_tri(T* __restrict dst, ConstMatrixView<T> a, bool lower,
              Trans trans, bool unit, T alpha) {
  const index_t m = a.rows;
  for (index_t r0 = 0; r0 < m; r0 += R) {
    const auto [lo, hi] = tri_span(lower, r0, R, m);
    const index_t rows = std::min<index_t>(R, m - r0);
    if (trans == Trans::kNoTrans) {
      // Column p of M is column p of A: rows above its diagonal entry
      // (panel row p - r0) are the upper part, rows below the lower part.
      for (index_t p = lo; p < hi; ++p) {
        const T* col = a.data + static_cast<std::size_t>(p) * a.ld + r0;
        T* d = dst + (p - lo) * R;
        const index_t dg = p - r0;
        const index_t above = std::clamp<index_t>(dg, 0, rows);
        const index_t below = std::clamp<index_t>(dg + 1, 0, rows);
        for (index_t i = 0; i < above; ++i)
          d[i] = lower ? T(0) : alpha * col[i];
        if (above < below) d[dg] = unit ? alpha : alpha * col[dg];
        for (index_t i = below; i < rows; ++i)
          d[i] = lower ? alpha * col[i] : T(0);
        for (index_t i = rows; i < R; ++i) d[i] = T(0);
      }
    } else {
      // Row r of M is column r of A; its diagonal entry always lies in the
      // panel's span.
      for (index_t i = 0; i < R; ++i) {
        T* d = dst + i;
        if (i >= rows) {
          for (index_t p = lo; p < hi; ++p) d[(p - lo) * R] = T(0);
          continue;
        }
        const index_t r = r0 + i;
        const T* col = a.data + static_cast<std::size_t>(r) * a.ld;
        for (index_t p = lo; p < r; ++p)
          d[(p - lo) * R] = lower ? alpha * col[p] : T(0);
        d[(r - lo) * R] = unit ? alpha : alpha * col[r];
        for (index_t p = r + 1; p < hi; ++p)
          d[(p - lo) * R] = lower ? T(0) : alpha * col[p];
      }
    }
    dst += (hi - lo) * R;
  }
}

/// The MR-row panels of one NR-column panel of C = op(A) * B with op(A)
/// packed by pack_tri (MR-row panels, each over its tri_span only) and B the
/// panel's m rows (packed, or read in place with kInPlaceB).
template <typename T, bool kInPlaceB>
void tri_column_panel(index_t m, bool lower, const T* ap, const T* b,
                      index_t ldb, T* c, index_t ldc, index_t nr_eff,
                      T beta) {
  constexpr int MR = RegisterBlocking<T>::mr;
  constexpr int NR = RegisterBlocking<T>::nr;
  for (index_t ir = 0; ir < m; ir += MR) {
    const auto [lo, hi] = tri_span(lower, ir, MR, m);
    block_kernel<T, kInPlaceB>(hi - lo, ap, b + lo * (kInPlaceB ? 1 : NR), ldb,
                               c + ir, ldc, std::min<index_t>(MR, m - ir),
                               nr_eff, beta);
    ap += (hi - lo) * MR;
  }
}

}  // namespace detail

/// C = alpha * op(A) * op(B) + beta * C through the packed register-tiled
/// pipeline. Semantics match la::gemm exactly (including never reading C when
/// beta == 0); summation order differs, so results agree with the loop-based
/// path to O(k * eps), not bitwise. A non-transposed B is read in place, so
/// B must not overlap C.
template <typename T>
void gemm_packed(Trans ta, Trans tb, T alpha, ConstMatrixView<T> a,
                 ConstMatrixView<T> b, T beta, MatrixView<T> c,
                 const Blocking& bs = default_blocking<T>()) {
  static_assert(std::is_floating_point_v<T>,
                "gemm_packed supports float/double");
  constexpr int MR = RegisterBlocking<T>::mr;
  constexpr int NR = RegisterBlocking<T>::nr;
  const index_t m = c.rows, n = c.cols;
  const index_t k = (ta == Trans::kNoTrans) ? a.cols : a.rows;
  TQR_REQUIRE(((ta == Trans::kNoTrans) ? a.rows : a.cols) == m,
              "gemm_packed: A/C row mismatch");
  TQR_REQUIRE(((tb == Trans::kNoTrans) ? b.rows : b.cols) == k,
              "gemm_packed: inner dimension mismatch");
  TQR_REQUIRE(((tb == Trans::kNoTrans) ? b.cols : b.rows) == n,
              "gemm_packed: B/C column mismatch");
  TQR_REQUIRE(bs.kc > 0 && bs.mc > 0 && bs.nc > 0,
              "gemm_packed: blocking must be positive");

  if (alpha == T(0) || k == 0) {
    // Pure C scaling; keep the beta == 0 no-read contract.
    for (index_t j = 0; j < n; ++j)
      for (index_t i = 0; i < m; ++i)
        c(i, j) = (beta == T(0)) ? T(0) : beta * c(i, j);
    return;
  }

  auto round_up = [](index_t x, index_t q) { return (x + q - 1) / q * q; };
  T* const abuf = detail::pack_storage<T>(
      0, static_cast<std::size_t>(round_up(std::min(bs.mc, m), MR)) * bs.kc);
  T* const bbuf = detail::pack_storage<T>(
      1, static_cast<std::size_t>(round_up(std::min(bs.nc, n), NR)) * bs.kc);

  // A non-transposed B is already column-major: its full NR-column panels
  // feed the micro-kernel where they lie, and only a ragged last panel is
  // packed (zero-padded). A transposed B is packed whole.
  const bool in_place_b = (tb == Trans::kNoTrans);
  for (index_t jc = 0; jc < n; jc += bs.nc) {
    const index_t nc_eff = std::min(bs.nc, n - jc);
    const index_t nc_in_place = in_place_b ? nc_eff / NR * NR : 0;
    for (index_t pc = 0; pc < k; pc += bs.kc) {
      const index_t kc_eff = std::min(bs.kc, k - pc);
      if (nc_in_place < nc_eff)
        detail::pack_b<T>(bbuf + static_cast<std::size_t>(nc_in_place) * kc_eff,
                          b, tb, pc, jc + nc_in_place, kc_eff,
                          nc_eff - nc_in_place);
      const T beta_eff = (pc == 0) ? beta : T(1);
      for (index_t ic = 0; ic < m; ic += bs.mc) {
        const index_t mc_eff = std::min(bs.mc, m - ic);
        detail::pack_a<T>(abuf, a, ta, alpha, ic, pc, mc_eff, kc_eff);
        for (index_t jr = 0; jr < nc_eff; jr += NR) {
          const index_t nr_eff = std::min<index_t>(NR, nc_eff - jr);
          T* const cj =
              c.data + static_cast<std::size_t>(jc + jr) * c.ld + ic;
          if (jr < nc_in_place)
            detail::column_panel<T, true>(
                kc_eff, mc_eff, abuf,
                b.data + static_cast<std::size_t>(jc + jr) * b.ld + pc, b.ld,
                cj, c.ld, nr_eff, beta_eff);
          else
            detail::column_panel<T, false>(
                kc_eff, mc_eff, abuf,
                bbuf + static_cast<std::size_t>(jr) * kc_eff, 0, cj, c.ld,
                nr_eff, beta_eff);
        }
      }
    }
  }
}

// Compiled in microkernel.cpp for the supported scalar types; downstream
// translation units link instead of re-instantiating the whole engine.
extern template void gemm_packed<float>(Trans, Trans, float,
                                        ConstMatrixView<float>,
                                        ConstMatrixView<float>, float,
                                        MatrixView<float>, const Blocking&);
extern template void gemm_packed<double>(Trans, Trans, double,
                                         ConstMatrixView<double>,
                                         ConstMatrixView<double>, double,
                                         MatrixView<double>, const Blocking&);

/// C = alpha * op(A) * B + beta * C with A (m x m) triangular, through the
/// packed register-tiled pipeline. op(A)'s stored triangle is packed once
/// with explicit zeros (pack_tri), and each row panel of op(A) runs only over
/// its nonzero k-span, so all-zero micro-panels are skipped. Out of place,
/// B's full column panels are read where they lie. In place (b == c, beta ==
/// 0), B is packed one column chunk at a time, before the C block it feeds
/// is written; any other overlap of b and c is unsafe. beta == 0 never reads
/// C, and beta == 1 accumulates.
///
/// The explicit zeros differ from the loop version in one way: inside a
/// diagonal micro-block, an Inf or NaN in B reaches rows whose op(A) entry
/// is a structural zero (0 * Inf = NaN), which the loops never touch. Finite
/// inputs are unaffected. Only the packing buffers of gemm_packed are used.
template <typename T>
void trmm_packed(UpLo uplo, Trans trans, Diag diag, T alpha,
                 ConstMatrixView<T> a, ConstMatrixView<T> b, T beta,
                 MatrixView<T> c, const Blocking& bs = default_blocking<T>()) {
  static_assert(std::is_floating_point_v<T>,
                "trmm_packed supports float/double");
  constexpr int MR = RegisterBlocking<T>::mr;
  constexpr int NR = RegisterBlocking<T>::nr;
  const index_t m = c.rows, n = c.cols;
  TQR_REQUIRE(a.rows == m && a.cols == m, "trmm_packed: A must be m x m");
  TQR_REQUIRE(b.rows == m && b.cols == n, "trmm_packed: B/C shape mismatch");
  if (m == 0 || n == 0) return;
  const bool unit = (diag == Diag::kUnit);
  const bool op_lower = (uplo == UpLo::kLower) == (trans == Trans::kNoTrans);

  T* const ap =
      detail::pack_storage<T>(0, detail::tri_packed_size(op_lower, MR, m));
  detail::pack_tri<T, MR>(ap, a, op_lower, trans, unit, alpha);
  // Out of place, B's full NR-column panels feed the micro-kernel where they
  // lie. In place (b == c), and for a ragged last panel, B is packed one
  // column chunk at a time before the C block it feeds is written.
  const index_t n_in_place = b.data != c.data ? n / NR * NR : 0;
  for (index_t jr = 0; jr < n_in_place; jr += NR)
    detail::tri_column_panel<T, true>(
        m, op_lower, ap, b.data + static_cast<std::size_t>(jr) * b.ld, b.ld,
        c.data + static_cast<std::size_t>(jr) * c.ld, c.ld, NR, beta);
  if (n_in_place == n) return;
  // Column chunks of B no larger than gemm_packed's kc x nc B panel.
  const index_t chunk = std::max<index_t>(NR, bs.kc * bs.nc / m / NR * NR);
  T* const bp = detail::pack_storage<T>(
      1, static_cast<std::size_t>(
             (std::min(chunk, n - n_in_place) + NR - 1) / NR * NR) * m);
  for (index_t jc = n_in_place; jc < n; jc += chunk) {
    const index_t nc_eff = std::min(chunk, n - jc);
    detail::pack_b<T>(bp, b, Trans::kNoTrans, 0, jc, m, nc_eff);
    for (index_t jr = 0; jr < nc_eff; jr += NR)
      detail::tri_column_panel<T, false>(
          m, op_lower, ap, bp + static_cast<std::size_t>(jr) * m, 0,
          c.data + static_cast<std::size_t>(jc + jr) * c.ld, c.ld,
          std::min<index_t>(NR, nc_eff - jr), beta);
  }
}

extern template void trmm_packed<float>(UpLo, Trans, Diag, float,
                                        ConstMatrixView<float>,
                                        ConstMatrixView<float>, float,
                                        MatrixView<float>, const Blocking&);
extern template void trmm_packed<double>(UpLo, Trans, Diag, double,
                                         ConstMatrixView<double>,
                                         ConstMatrixView<double>, double,
                                         MatrixView<double>, const Blocking&);

/// SIMD dot product over contiguous arrays. The panel factor kernels and the
/// small-triangle BLAS base cases are built out of column dots that the
/// compiler cannot auto-vectorize (FP reduction reassociation is not allowed
/// without fast-math); this helper makes the reduction order explicitly
/// vectorized, matching the packed engine's unordered-accumulation
/// semantics. Scalar builds (TQR_MICROKERNEL_SCALAR) fall back to the plain
/// ordered loop.
template <typename T>
inline T dot(index_t n, const T* __restrict x, const T* __restrict y) {
#if TQR_MK_VECTORIZED
  if constexpr (std::is_floating_point_v<T>) {
    using V = typename detail::UnalignedVecOf<T>::type;
    constexpr index_t L = detail::UnalignedVecOf<T>::lanes;
    if (n >= 2 * L) {
      V a0{}, a1{}, a2{}, a3{};
      index_t i = 0;
      for (; i + 4 * L <= n; i += 4 * L) {
        a0 += *reinterpret_cast<const V*>(x + i) *
              *reinterpret_cast<const V*>(y + i);
        a1 += *reinterpret_cast<const V*>(x + i + L) *
              *reinterpret_cast<const V*>(y + i + L);
        a2 += *reinterpret_cast<const V*>(x + i + 2 * L) *
              *reinterpret_cast<const V*>(y + i + 2 * L);
        a3 += *reinterpret_cast<const V*>(x + i + 3 * L) *
              *reinterpret_cast<const V*>(y + i + 3 * L);
      }
      for (; i + 2 * L <= n; i += 2 * L) {
        a0 += *reinterpret_cast<const V*>(x + i) *
              *reinterpret_cast<const V*>(y + i);
        a1 += *reinterpret_cast<const V*>(x + i + L) *
              *reinterpret_cast<const V*>(y + i + L);
      }
      if (i + L <= n) {
        a0 += *reinterpret_cast<const V*>(x + i) *
              *reinterpret_cast<const V*>(y + i);
        i += L;
      }
      a0 += a1 + a2 + a3;
      T acc = T(0);
      for (index_t l = 0; l < L; ++l) acc += a0[l];
      for (; i < n; ++i) acc += x[i] * y[i];
      return acc;
    }
    if (n >= L) {  // one vector + scalar tail: still beats the scalar chain
      V a0 = *reinterpret_cast<const V*>(x) * *reinterpret_cast<const V*>(y);
      T acc = T(0);
      for (index_t l = 0; l < L; ++l) acc += a0[l];
      for (index_t i = L; i < n; ++i) acc += x[i] * y[i];
      return acc;
    }
  }
#endif  // TQR_MK_VECTORIZED
  T acc = T(0);
  for (index_t i = 0; i < n; ++i) acc += x[i] * y[i];
  return acc;
}

/// C(i, j) += alpha * x_i . y_j over an MB x NB block of column pairs, with
/// x_i = x + i * ldx and y_j = y + j * ldy contiguous and n long: mk::dot
/// register-blocked so that every vector loaded from x feeds NB FMAs and
/// every vector loaded from y feeds MB. It is the A^T B of a product whose
/// output is too small to pay for packing A transposed.
template <typename T, int MB, int NB>
inline void dot_block(index_t n, const T* x, index_t ldx, const T* y,
                      index_t ldy, T alpha, T* c, index_t ldc) {
#if TQR_MK_VECTORIZED
  if constexpr (std::is_floating_point_v<T>) {
    using V = typename detail::UnalignedVecOf<T>::type;
    constexpr index_t L = detail::UnalignedVecOf<T>::lanes;
    V acc[MB][NB];
    for (int i = 0; i < MB; ++i)
      for (int j = 0; j < NB; ++j) acc[i][j] = V{};
    index_t p = 0;
    for (; p + L <= n; p += L) {
      V xv[MB], yv[NB];
      for (int i = 0; i < MB; ++i)
        xv[i] = *reinterpret_cast<const V*>(
            x + i * static_cast<std::size_t>(ldx) + p);
      for (int j = 0; j < NB; ++j)
        yv[j] = *reinterpret_cast<const V*>(
            y + j * static_cast<std::size_t>(ldy) + p);
      for (int i = 0; i < MB; ++i)
        for (int j = 0; j < NB; ++j) acc[i][j] += xv[i] * yv[j];
    }
    for (int j = 0; j < NB; ++j)
      for (int i = 0; i < MB; ++i) {
        T s = T(0);
        for (index_t l = 0; l < L; ++l) s += acc[i][j][l];
        for (index_t q = p; q < n; ++q)
          s += x[i * static_cast<std::size_t>(ldx) + q] *
               y[j * static_cast<std::size_t>(ldy) + q];
        c[j * static_cast<std::size_t>(ldc) + i] += alpha * s;
      }
    return;
  }
#endif  // TQR_MK_VECTORIZED
  for (int j = 0; j < NB; ++j)
    for (int i = 0; i < MB; ++i) {
      T s = T(0);
      for (index_t q = 0; q < n; ++q)
        s += x[i * static_cast<std::size_t>(ldx) + q] *
             y[j * static_cast<std::size_t>(ldy) + q];
      c[j * static_cast<std::size_t>(ldc) + i] += alpha * s;
    }
}

/// y += alpha * x over contiguous arrays. Unlike dot this is not a
/// reduction, but making the vectorization explicit spares the compiler's
/// runtime alias versioning between two columns of the same matrix (the
/// dominant pattern in the panel kernels' rank-1 updates).
template <typename T>
inline void axpy(index_t n, T alpha, const T* __restrict x, T* __restrict y) {
#if TQR_MK_VECTORIZED
  if constexpr (std::is_floating_point_v<T>) {
    using V = typename detail::UnalignedVecOf<T>::type;
    constexpr index_t L = detail::UnalignedVecOf<T>::lanes;
    if (n >= L) {
      V va{};
      va += alpha;  // broadcast
      index_t i = 0;
      for (; i + 2 * L <= n; i += 2 * L) {
        *reinterpret_cast<V*>(y + i) +=
            va * *reinterpret_cast<const V*>(x + i);
        *reinterpret_cast<V*>(y + i + L) +=
            va * *reinterpret_cast<const V*>(x + i + L);
      }
      if (i + L <= n) {
        *reinterpret_cast<V*>(y + i) +=
            va * *reinterpret_cast<const V*>(x + i);
        i += L;
      }
      for (; i < n; ++i) y[i] += alpha * x[i];
      return;
    }
  }
#endif  // TQR_MK_VECTORIZED
  for (index_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

}  // namespace tqr::la::mk

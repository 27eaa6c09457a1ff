// Tile-major storage for tiled algorithms.
//
// A TiledMatrix partitions an m x n matrix into h x b tiles (h == b unless
// asked otherwise), each stored contiguously (column-major inside the tile,
// ld == h). Tile-contiguous storage is what makes per-tile device transfers
// a single contiguous copy — the communication model in src/sim charges
// exactly these b*b*sizeof(T) blocks of the matrix, matching Eq. 11 of the
// paper. Flat tiles (h < b) hold the compact T factors of a factored tile
// grid: one nb x b factor per tile (la/kernels.hpp, t_plane).
//
// Matrix dimensions must be multiples of the tile dimensions; pad_to_tiles()
// embeds an arbitrary matrix into the smallest padded one (identity diagonal
// on the pad so QR of the padded matrix restricts to QR of the original).
#pragma once

#include <algorithm>
#include <cstdint>

#include "la/matrix.hpp"

namespace tqr::la {

template <typename T>
class TiledMatrix {
 public:
  TiledMatrix() = default;

  /// Zero-initialized rows x cols matrix with tile size b.
  TiledMatrix(index_t rows, index_t cols, index_t b)
      : TiledMatrix(rows, cols, b, b) {}

  /// Zero-initialized rows x cols matrix of h x b tiles (h rows, b columns).
  TiledMatrix(index_t rows, index_t cols, index_t h, index_t b)
      : rows_(rows), cols_(cols), h_(h), b_(b) {
    TQR_REQUIRE(h > 0 && b > 0, "tile size must be positive");
    // Validates sign and index_t overflow before sizing the buffer (the
    // tile-grid footprint equals rows * cols elements exactly).
    const std::size_t count = checked_extent(rows, cols);
    TQR_REQUIRE(rows % h == 0 && cols % b == 0,
                "matrix dimensions must be multiples of the tile size "
                "(use pad_to_tiles)");
    mt_ = rows / h;
    nt_ = cols / b;
    data_.assign(count, T(0));
  }

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  index_t tile_size() const { return b_; }    // tile width (columns)
  index_t tile_height() const { return h_; }  // tile rows; == b unless flat
  index_t tile_rows() const { return mt_; }   // number of tile rows (M)
  index_t tile_cols() const { return nt_; }   // number of tile columns (N)

  /// Mutable view of tile (i, j); h x b, contiguous, ld == h.
  MatrixView<T> tile(index_t i, index_t j) {
    return MatrixView<T>{tile_data(i, j), h_, b_, h_};
  }
  ConstMatrixView<T> tile(index_t i, index_t j) const {
    return ConstMatrixView<T>{tile_data(i, j), h_, b_, h_};
  }

  /// Raw pointer to a tile's storage (used by the transfer accounting).
  T* tile_data(index_t i, index_t j) {
    TQR_ASSERT(i >= 0 && i < mt_ && j >= 0 && j < nt_, "tile out of range");
    return data_.data() +
           (static_cast<std::size_t>(j) * mt_ + i) * h_ * b_;
  }
  const T* tile_data(index_t i, index_t j) const {
    TQR_ASSERT(i >= 0 && i < mt_ && j >= 0 && j < nt_, "tile out of range");
    return data_.data() +
           (static_cast<std::size_t>(j) * mt_ + i) * h_ * b_;
  }

  /// Bytes in one tile; the unit of every device-to-device transfer.
  std::size_t tile_bytes() const {
    return static_cast<std::size_t>(h_) * b_ * sizeof(T);
  }

  /// The whole tile-major buffer (rows * cols elements, tile (i, j) at
  /// tile_data(i, j)). Two tiled matrices of one shape share this layout
  /// whatever their element type, so element-wise maps are one flat loop.
  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }
  std::size_t size() const { return data_.size(); }

  /// Column j, rows [i0, i0 + h), of the tile holding element (i0, j);
  /// i0 must be a multiple of the tile height. Contiguous.
  T* column_segment(index_t i0, index_t j) {
    return tile_data(i0 / h_, j / b_) + static_cast<std::size_t>(j % b_) * h_;
  }
  const T* column_segment(index_t i0, index_t j) const {
    return tile_data(i0 / h_, j / b_) + static_cast<std::size_t>(j % b_) * h_;
  }

  /// Element access across tile boundaries (slow: a div and a mod per call;
  /// for tests and scattered single elements — bulk moves go tile-wise).
  T& at(index_t i, index_t j) {
    return tile(i / h_, j / b_)(i % h_, j % b_);
  }
  const T& at(index_t i, index_t j) const {
    return tile(i / h_, j / b_)(i % h_, j % b_);
  }

  /// Overwrites every element (all tiles) with `value`. Used by the
  /// workspace pool to scrub storage returned by failed jobs, so stale or
  /// corrupted factor data can never leak into a later lease.
  void fill(T value) { std::fill(data_.begin(), data_.end(), value); }

  /// Conversion from/to dense column-major layout, one contiguous
  /// tile-height column segment at a time.
  static TiledMatrix from_dense(ConstMatrixView<T> a, index_t b) {
    TiledMatrix t(a.rows, a.cols, b);
    for (index_t j = 0; j < a.cols; ++j)
      for (index_t i0 = 0; i0 < a.rows; i0 += b)
        std::copy_n(&a(i0, j), b, t.column_segment(i0, j));
    return t;
  }
  static TiledMatrix from_dense(const Matrix<T>& a, index_t b) {
    return from_dense(a.view(), b);
  }

  Matrix<T> to_dense() const {
    Matrix<T> a(rows_, cols_);
    for (index_t j = 0; j < cols_; ++j)
      for (index_t i0 = 0; i0 < rows_; i0 += h_)
        std::copy_n(column_segment(i0, j), h_, &a(i0, j));
    return a;
  }

 private:
  index_t rows_ = 0, cols_ = 0, h_ = 0, b_ = 0, mt_ = 0, nt_ = 0;
  // Aligned so tile(0, 0) starts on a cache line; tiles whose footprint is a
  // multiple of kMatrixAlignment (any h, b with h*b*sizeof(T) % 64 == 0, e.g.
  // every even square tile size for doubles) all start aligned.
  AlignedVector<T> data_;
};

/// dst[i] = D(src[i]) for i < n; returns whether every dst[i] is finite. The
/// check rides the copy (v - v is 0 for finite v, NaN for Inf and NaN), so
/// packing paths get it without a second pass over the data.
template <typename S, typename D>
bool copy_finite(const S* src, std::size_t n, D* dst) {
  int finite = 1;
  for (std::size_t i = 0; i < n; ++i) {
    const D v = static_cast<D>(src[i]);
    dst[i] = v;
    finite &= v - v == D(0);
  }
  return finite != 0;
}

/// Embeds `a` into the smallest (ceil to tile) padded matrix. The pad block
/// gets an identity diagonal, so the padded matrix stays full-rank and its QR
/// factors restrict to those of `a` (R's leading block is R of `a` up to the
/// pad columns).
template <typename T>
Matrix<T> pad_to_tiles(ConstMatrixView<T> a, index_t b) {
  const index_t pr = (a.rows + b - 1) / b * b;
  const index_t pc = (a.cols + b - 1) / b * b;
  Matrix<T> p(pr, pc);
  for (index_t j = 0; j < a.cols; ++j)
    for (index_t i = 0; i < a.rows; ++i) p(i, j) = a(i, j);
  for (index_t d = 0; d + a.cols < pc && d + a.rows < pr; ++d)
    p(a.rows + d, a.cols + d) = T(1);
  return p;
}

/// Loads `src` into `dst` with pad_to_tiles semantics: `src` in the leading
/// block, zeros elsewhere, and the identity diagonal on the pad. Writes every
/// element of `dst`, so recycled (uncleared) storage is safe to load into.
/// Moves whole column segments, so the cost is one pass over `dst`. Returns
/// whether every element of `src` is finite, checked in that same pass.
template <typename T>
bool load_padded(TiledMatrix<T>& dst, ConstMatrixView<T> src) {
  TQR_REQUIRE(src.rows <= dst.rows() && src.cols <= dst.cols(),
              "load_padded: source larger than the tile grid");
  const index_t h = dst.tile_height();
  bool finite = true;
  for (index_t j = 0; j < dst.cols(); ++j)
    for (index_t i0 = 0; i0 < dst.rows(); i0 += h) {
      T* seg = dst.column_segment(i0, j);
      const index_t n =
          j < src.cols ? std::clamp<index_t>(src.rows - i0, 0, h) : 0;
      if (n > 0) finite &= copy_finite(&src(i0, j), n, seg);
      std::fill(seg + n, seg + h, T(0));
    }
  for (index_t d = 0; d + src.cols < dst.cols() && d + src.rows < dst.rows();
       ++d)
    dst.at(src.rows + d, src.cols + d) = T(1);
  return finite;
}

/// The n x n upper triangle of `a`'s leading block (zeros below the
/// diagonal): R of a factored tile grid. n <= min(rows, cols).
template <typename T>
Matrix<T> upper_triangle(const TiledMatrix<T>& a, index_t n) {
  TQR_REQUIRE(n >= 0 && n <= a.rows() && n <= a.cols(),
              "upper_triangle: n exceeds the tile grid");
  Matrix<T> r(n, n);
  const index_t h = a.tile_height();
  for (index_t j = 0; j < n; ++j)
    for (index_t i0 = 0; i0 <= j; i0 += h)
      std::copy_n(a.column_segment(i0, j), std::min(h, j + 1 - i0), &r(i0, j));
  return r;
}

/// dst(i, j) = D(src(i, j)) over two tile grids of one shape: one flat pass,
/// since both share the tile-major layout. Returns whether every converted
/// value is finite (a narrowing conversion overflows to Inf out of range).
template <typename D, typename S>
bool convert(const TiledMatrix<S>& src, TiledMatrix<D>& dst) {
  TQR_REQUIRE(src.rows() == dst.rows() && src.cols() == dst.cols() &&
                  src.tile_height() == dst.tile_height() &&
                  src.tile_size() == dst.tile_size(),
              "convert: tile grids differ in shape");
  return copy_finite(src.data(), src.size(), dst.data());
}

}  // namespace tqr::la

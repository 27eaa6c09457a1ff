#include "la/tiled_matrix.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>

namespace tqr::la {
namespace {

TEST(TiledMatrix, GeometryAccessors) {
  TiledMatrix<double> t(12, 8, 4);
  EXPECT_EQ(t.rows(), 12);
  EXPECT_EQ(t.cols(), 8);
  EXPECT_EQ(t.tile_size(), 4);
  EXPECT_EQ(t.tile_rows(), 3);
  EXPECT_EQ(t.tile_cols(), 2);
  EXPECT_EQ(t.tile_bytes(), 4u * 4u * sizeof(double));
}

TEST(TiledMatrix, FlatTilesHoldHeightByWidthColumnMajor) {
  // 3 x 2 tiles of 2 x 4 (a compact T plane's shape: nb x b per tile).
  TiledMatrix<double> t(6, 8, 2, 4);
  EXPECT_EQ(t.tile_height(), 2);
  EXPECT_EQ(t.tile_size(), 4);
  EXPECT_EQ(t.tile_rows(), 3);
  EXPECT_EQ(t.tile_cols(), 2);
  EXPECT_EQ(t.size(), 48u);
  EXPECT_EQ(t.tile_bytes(), 2u * 4u * sizeof(double));
  auto tile = t.tile(2, 1);
  EXPECT_EQ(tile.rows, 2);
  EXPECT_EQ(tile.cols, 4);
  EXPECT_EQ(tile.ld, 2);
  tile(1, 3) = 9.0;
  EXPECT_EQ(t.at(2 * 2 + 1, 4 + 3), 9.0);
  EXPECT_EQ(t.tile_data(2, 1)[3 * 2 + 1], 9.0);
  EXPECT_EQ(t.tile_data(2, 1) - t.data(), (1 * 3 + 2) * 8);
  EXPECT_EQ(t.column_segment(4, 7), &tile(0, 3));
  EXPECT_EQ(t.to_dense()(5, 7), 9.0);
  EXPECT_THROW(TiledMatrix<double>(5, 8, 2, 4), InvalidArgument);
}

TEST(TiledMatrix, NonDivisibleSizeRejected) {
  EXPECT_THROW(TiledMatrix<double>(10, 8, 4), InvalidArgument);
  EXPECT_THROW(TiledMatrix<double>(8, 10, 4), InvalidArgument);
}

TEST(TiledMatrix, DenseRoundTrip) {
  auto dense = Matrix<double>::random(12, 12, 17);
  auto tiled = TiledMatrix<double>::from_dense(dense, 4);
  auto back = tiled.to_dense();
  for (index_t j = 0; j < 12; ++j)
    for (index_t i = 0; i < 12; ++i) EXPECT_EQ(back(i, j), dense(i, j));
}

TEST(TiledMatrix, AtMatchesDense) {
  auto dense = Matrix<double>::random(8, 8, 18);
  auto tiled = TiledMatrix<double>::from_dense(dense, 4);
  for (index_t j = 0; j < 8; ++j)
    for (index_t i = 0; i < 8; ++i) EXPECT_EQ(tiled.at(i, j), dense(i, j));
}

TEST(TiledMatrix, TilesAreContiguousColumnMajor) {
  TiledMatrix<double> t(8, 8, 4);
  auto tile = t.tile(1, 1);
  tile(0, 0) = 1.0;
  tile(3, 3) = 2.0;
  const double* base = t.tile_data(1, 1);
  EXPECT_EQ(base[0], 1.0);
  EXPECT_EQ(base[15], 2.0);
  EXPECT_EQ(tile.ld, 4);
}

TEST(TiledMatrix, TileViewWritesVisibleThroughAt) {
  TiledMatrix<double> t(8, 8, 4);
  t.tile(1, 0)(2, 3) = 5.5;
  EXPECT_EQ(t.at(4 + 2, 3), 5.5);
}

TEST(PadToTiles, AlreadyAlignedUnchanged) {
  auto a = Matrix<double>::random(8, 8, 19);
  auto p = pad_to_tiles<double>(a.view(), 4);
  EXPECT_EQ(p.rows(), 8);
  EXPECT_EQ(p.cols(), 8);
  for (index_t j = 0; j < 8; ++j)
    for (index_t i = 0; i < 8; ++i) EXPECT_EQ(p(i, j), a(i, j));
}

TEST(PadToTiles, PadsUpAndEmbedsIdentity) {
  auto a = Matrix<double>::random(6, 5, 20);
  auto p = pad_to_tiles<double>(a.view(), 4);
  EXPECT_EQ(p.rows(), 8);
  EXPECT_EQ(p.cols(), 8);
  // Original block preserved.
  for (index_t j = 0; j < 5; ++j)
    for (index_t i = 0; i < 6; ++i) EXPECT_EQ(p(i, j), a(i, j));
  // Identity diagonal on the pad.
  EXPECT_EQ(p(6, 5), 1.0);
  EXPECT_EQ(p(7, 6), 1.0);
  // Rest of pad zero.
  EXPECT_EQ(p(0, 7), 0.0);
  EXPECT_EQ(p(7, 0), 0.0);
}

// ---- Tile-wise pack/unpack against element-wise references ----------------
//
// Each reference is the one-at()-per-element loop the tile-wise helper
// replaced; the helpers must reproduce it bit for bit, pad included.

struct Ragged {
  index_t rows, cols, b;
};

void PrintTo(const Ragged& s, std::ostream* os) {
  *os << s.rows << "x" << s.cols << " b=" << s.b;
}

class TiledPack : public ::testing::TestWithParam<Ragged> {
 protected:
  /// Random input with a negative zero and a subnormal planted, so a
  /// value-preserving but bit-changing copy would show.
  Matrix<double> input() const {
    const Ragged s = GetParam();
    Matrix<double> a = Matrix<double>::random(s.rows, s.cols, 41);
    a(0, 0) = -0.0;
    a(s.rows - 1, s.cols - 1) = std::numeric_limits<double>::denorm_min();
    return a;
  }
  index_t padded(index_t n) const {
    const index_t b = GetParam().b;
    return (n + b - 1) / b * b;
  }
};

template <typename T>
bool same_bits(const TiledMatrix<T>& x, const TiledMatrix<T>& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(T)) == 0;
}

template <typename T>
bool same_bits(const Matrix<T>& x, const Matrix<T>& y) {
  if (x.rows() != y.rows() || x.cols() != y.cols()) return false;
  for (index_t j = 0; j < x.cols(); ++j)
    for (index_t i = 0; i < x.rows(); ++i)
      if (std::memcmp(&x(i, j), &y(i, j), sizeof(T)) != 0) return false;
  return true;
}

TEST_P(TiledPack, LoadPaddedMatchesElementwiseIntoDirtyStorage) {
  const Matrix<double> a = input();
  const index_t pr = padded(a.rows()), pc = padded(a.cols());
  const index_t b = GetParam().b;

  TiledMatrix<double> ref(pr, pc, b);
  for (index_t j = 0; j < pc; ++j)
    for (index_t i = 0; i < pr; ++i)
      ref.at(i, j) = (i < a.rows() && j < a.cols()) ? a(i, j) : 0.0;
  for (index_t d = 0; d + a.cols() < pc && d + a.rows() < pr; ++d)
    ref.at(a.rows() + d, a.cols() + d) = 1.0;

  // A recycled workspace: every element must be overwritten.
  TiledMatrix<double> got(pr, pc, b);
  got.fill(std::numeric_limits<double>::quiet_NaN());
  load_padded(got, a.view());
  EXPECT_TRUE(same_bits(got, ref));

  // The padded grid is exactly pad_to_tiles' dense matrix.
  const Matrix<double> dense = pad_to_tiles<double>(a.view(), b);
  EXPECT_TRUE(same_bits(got.to_dense(), dense));
}

TEST_P(TiledPack, UpperTriangleMatchesElementwise) {
  const Matrix<double> a = input();
  const index_t b = GetParam().b;
  TiledMatrix<double> t(padded(a.rows()), padded(a.cols()), b);
  load_padded(t, a.view());
  for (index_t n : {a.cols(), t.cols()}) {
    Matrix<double> ref(n, n);
    for (index_t j = 0; j < n; ++j)
      for (index_t i = 0; i <= j; ++i) ref(i, j) = t.at(i, j);
    EXPECT_TRUE(same_bits(upper_triangle(t, n), ref)) << "n = " << n;
  }
}

TEST_P(TiledPack, DenseConversionsMatchElementwise) {
  const index_t b = GetParam().b;
  const Matrix<double> dense =
      pad_to_tiles<double>(input().view(), b);  // tile-aligned
  TiledMatrix<double> ref(dense.rows(), dense.cols(), b);
  for (index_t j = 0; j < dense.cols(); ++j)
    for (index_t i = 0; i < dense.rows(); ++i) ref.at(i, j) = dense(i, j);
  const TiledMatrix<double> got = TiledMatrix<double>::from_dense(dense, b);
  EXPECT_TRUE(same_bits(got, ref));

  Matrix<double> back_ref(dense.rows(), dense.cols());
  for (index_t j = 0; j < dense.cols(); ++j)
    for (index_t i = 0; i < dense.rows(); ++i) back_ref(i, j) = ref.at(i, j);
  EXPECT_TRUE(same_bits(got.to_dense(), back_ref));
}

TEST_P(TiledPack, PrecisionConversionMatchesElementwise) {
  const Matrix<double> a = input();
  const index_t b = GetParam().b;
  TiledMatrix<double> wide(padded(a.rows()), padded(a.cols()), b);
  load_padded(wide, a.view());

  TiledMatrix<float> narrow_ref(wide.rows(), wide.cols(), b);
  for (index_t j = 0; j < wide.cols(); ++j)
    for (index_t i = 0; i < wide.rows(); ++i)
      narrow_ref.at(i, j) = static_cast<float>(wide.at(i, j));
  TiledMatrix<float> narrow(wide.rows(), wide.cols(), b);
  convert(wide, narrow);
  EXPECT_TRUE(same_bits(narrow, narrow_ref));

  TiledMatrix<double> widen_ref(wide.rows(), wide.cols(), b);
  for (index_t j = 0; j < wide.cols(); ++j)
    for (index_t i = 0; i < wide.rows(); ++i)
      widen_ref.at(i, j) = static_cast<double>(narrow.at(i, j));
  TiledMatrix<double> widened(wide.rows(), wide.cols(), b);
  widened.fill(std::numeric_limits<double>::quiet_NaN());
  convert(narrow, widened);
  EXPECT_TRUE(same_bits(widened, widen_ref));

  TiledMatrix<float> other_shape(wide.rows() + b, wide.cols(), b);
  EXPECT_THROW(convert(wide, other_shape), InvalidArgument);
}

TEST(TiledPack, LoadPaddedRejectsOversizedSource) {
  TiledMatrix<double> t(8, 8, 4);
  const Matrix<double> big(9, 8);
  EXPECT_THROW(load_padded(t, big.view()), InvalidArgument);
}

// Ragged shapes: row pad only, column pad only, both, one tile, a tall
// multi-tile-column grid, and an exactly tile-aligned control.
INSTANTIATE_TEST_SUITE_P(
    Shapes, TiledPack,
    ::testing::Values(Ragged{13, 7, 4}, Ragged{16, 13, 4}, Ragged{17, 16, 4},
                      Ragged{5, 5, 8}, Ragged{130, 130, 64},
                      Ragged{1000, 300, 128}, Ragged{64, 64, 16}),
    [](const ::testing::TestParamInfo<Ragged>& info) {
      return std::to_string(info.param.rows) + "x" +
             std::to_string(info.param.cols) + "_b" +
             std::to_string(info.param.b);
    });

}  // namespace
}  // namespace tqr::la

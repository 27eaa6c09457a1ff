#include "core/batched_qr.hpp"

#include <cstddef>

#include "common/error.hpp"
#include "la/checks.hpp"

namespace tqr::core {

template <typename T>
BatchedQr<T> BatchedQr<T>::factor(const std::vector<la::Matrix<T>>& problems) {
  TQR_REQUIRE(!problems.empty(), "BatchedQr: batch must be non-empty");
  const la::index_t m = problems.front().rows();
  const la::index_t n = problems.front().cols();
  TQR_REQUIRE(m >= 1 && n >= 1, "BatchedQr: problems must be non-empty");
  TQR_REQUIRE(m >= n, "BatchedQr: requires rows >= cols");
  for (const auto& a : problems)
    TQR_REQUIRE(a.rows() == m && a.cols() == n,
                "BatchedQr: every problem must share one shape");
  const la::index_t count = static_cast<la::index_t>(problems.size());

  BatchedQr<T> qr;
  qr.vr_ = la::BatchMatrix<T>(m, n, count);
  qr.tau_ = la::BatchMatrix<T>(n, 1, count);
  for (la::index_t p = 0; p < count; ++p) qr.vr_.load(p, problems[p].view());
  for (la::index_t c = 0; c < qr.vr_.chunks(); ++c)
    la::batch::qr_factor_chunk<T>(m, n, qr.vr_.chunk(c), qr.tau_.chunk(c));
  return qr;
}

template <typename T>
la::Matrix<T> BatchedQr<T>::r(la::index_t p) const {
  TQR_REQUIRE(p >= 0 && p < problems(), "BatchedQr::r: problem out of range");
  const la::index_t n = cols();
  la::Matrix<T> out(n, n);
  for (la::index_t j = 0; j < n; ++j)
    for (la::index_t i = 0; i <= j; ++i) out(i, j) = vr_.at(i, j, p);
  return out;
}

template <typename T>
std::vector<la::Matrix<T>> BatchedQr<T>::solve(
    const std::vector<la::Matrix<T>>& rhs) const {
  const la::index_t m = rows();
  const la::index_t n = cols();
  TQR_REQUIRE(static_cast<la::index_t>(rhs.size()) == problems(),
              "BatchedQr::solve: one rhs per problem");
  const la::index_t nrhs = rhs.front().cols();
  for (const auto& b : rhs)
    TQR_REQUIRE(b.rows() == m && b.cols() == nrhs,
                "BatchedQr::solve: rhs must be rows x nrhs");

  la::BatchMatrix<T> c(m, nrhs, problems());
  for (la::index_t p = 0; p < problems(); ++p) c.load(p, rhs[p].view());
  for (la::index_t ch = 0; ch < c.chunks(); ++ch) {
    la::batch::apply_qt_chunk<T>(m, n, vr_.chunk(ch), tau_.chunk(ch),
                                 c.chunk(ch), nrhs);
    la::batch::back_solve_chunk<T>(m, n, vr_.chunk(ch), c.chunk(ch), nrhs);
  }
  std::vector<la::Matrix<T>> out;
  out.reserve(static_cast<std::size_t>(problems()));
  for (la::index_t p = 0; p < problems(); ++p) {
    la::Matrix<T> x(n, nrhs);
    for (la::index_t j = 0; j < nrhs; ++j)
      for (la::index_t i = 0; i < n; ++i) x(i, j) = c.at(i, j, p);
    out.push_back(std::move(x));
  }
  return out;
}

template <typename T>
double BatchedQr<T>::residual(la::index_t p, const la::Matrix<T>& a) const {
  TQR_REQUIRE(p >= 0 && p < problems(),
              "BatchedQr::residual: problem out of range");
  const la::index_t m = rows();
  const la::index_t n = cols();
  TQR_REQUIRE(a.rows() == m && a.cols() == n,
              "BatchedQr::residual: matrix shape mismatch");
  la::Matrix<T> qr(m, n);  // [R; 0], then Q applied in place
  for (la::index_t j = 0; j < n; ++j)
    for (la::index_t i = 0; i <= j; ++i) qr(i, j) = vr_.at(i, j, p);
  la::batch::apply_q_member(vr_, tau_, p, qr.view());
  return la::relative_error<T>(qr.view(), a.view());
}

template class BatchedQr<double>;
template class BatchedQr<float>;

}  // namespace tqr::core

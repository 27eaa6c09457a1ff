#include "core/tiled_qr.hpp"

#include "common/error.hpp"

namespace tqr::core {

namespace {

/// tpqrt/tpmqrt's `l`: 0 for a TS op's dense bottom tile, the tile size for
/// a TT op's triangular one.
template <typename T>
la::index_t tp_l(dag::Op op, const la::TiledMatrix<T>& a) {
  return op == dag::Op::kTtqrt || op == dag::Op::kTtmqr ? a.tile_size() : 0;
}

}  // namespace

template <typename T>
void execute_task(const dag::Task& task, la::TiledMatrix<T>& a,
                  la::TiledMatrix<T>& tg, la::TiledMatrix<T>& te,
                  la::index_t inner_block) {
  using dag::Op;
  switch (task.op) {
    case Op::kGeqrt:
      la::geqrt<T>(a.tile(task.i, task.k), tg.tile(task.i, task.k),
                   inner_block);
      break;
    case Op::kUnmqr:
      la::unmqr<T>(a.tile(task.i, task.k), tg.tile(task.i, task.k),
                   a.tile(task.i, task.j), la::Trans::kTrans, inner_block);
      break;
    case Op::kTsqrt:
    case Op::kTtqrt:
      la::tpqrt<T>(a.tile(task.p, task.k), a.tile(task.i, task.k),
                   te.tile(task.i, task.k), tp_l(task.op, a), inner_block);
      break;
    case Op::kTsmqr:
    case Op::kTtmqr:
      la::tpmqrt<T>(a.tile(task.i, task.k), te.tile(task.i, task.k),
                    a.tile(task.p, task.j), a.tile(task.i, task.j),
                    tp_l(task.op, a), la::Trans::kTrans, inner_block);
      break;
    default:
      TQR_ASSERT(false, "non-QR task routed to the QR driver");
  }
}

template <typename T>
TiledQrFactorization<T> TiledQrFactorization<T>::factor(
    const la::Matrix<T>& a, int b, const Options& options) {
  TQR_REQUIRE(a.rows() >= a.cols(), "tiled QR requires rows >= cols");
  la::TiledMatrix<T> tiles = la::TiledMatrix<T>::from_dense(a, b);
  la::TiledMatrix<T> tg(tiles.rows(), tiles.cols(), b);
  la::TiledMatrix<T> te(tiles.rows(), tiles.cols(), b);
  dag::TaskGraph graph =
      dag::build_tiled_qr_graph(tiles.tile_rows(), tiles.tile_cols(),
                                options.elim, options.hier_groups);
  for (const dag::Task& task : graph.tasks())
    execute_task<T>(task, tiles, tg, te, options.inner_block);
  return TiledQrFactorization<T>(std::move(tiles), std::move(tg),
                                 std::move(te), std::move(graph), options.elim,
                                 options.inner_block);
}

template <typename T>
la::Matrix<T> TiledQrFactorization<T>::r() const {
  return la::upper_triangle(a_, a_.cols());
}

template <typename T>
void apply_q_tiles(const dag::TaskGraph& graph, const la::TiledMatrix<T>& a,
                   const la::TiledMatrix<T>& tg, const la::TiledMatrix<T>& te,
                   la::MatrixView<T> c, la::Trans trans,
                   la::index_t inner_block) {
  TQR_REQUIRE(c.rows == a.rows(), "apply_q: row mismatch");
  const la::index_t b = a.tile_size();
  auto row_block = [&](std::int32_t i) {
    return c.block(i * b, 0, b, c.cols);
  };
  auto apply_one = [&](const dag::Task& task) {
    switch (task.op) {
      case dag::Op::kGeqrt:
        la::unmqr<T>(a.tile(task.i, task.k), tg.tile(task.i, task.k),
                     row_block(task.i), trans, inner_block);
        break;
      case dag::Op::kTsqrt:
      case dag::Op::kTtqrt:
        la::tpmqrt<T>(a.tile(task.i, task.k), te.tile(task.i, task.k),
                      row_block(task.p), row_block(task.i),
                      tp_l(task.op, a), trans, inner_block);
        break;
      default:
        break;  // update tasks carry no reflectors
    }
  };
  const auto& tasks = graph.tasks();
  if (trans == la::Trans::kTrans) {
    // Q^T = P_last ... P_first: forward replay.
    for (const dag::Task& task : tasks) apply_one(task);
  } else {
    // Q = P_first^{-1} ... : reverse replay.
    for (auto it = tasks.rbegin(); it != tasks.rend(); ++it) apply_one(*it);
  }
}

template <typename T>
void TiledQrFactorization<T>::apply_q(la::MatrixView<T> c,
                                      la::Trans trans) const {
  apply_q_tiles<T>(graph_, a_, tg_, te_, c, trans, inner_block_);
}

template <typename T>
la::Matrix<T> TiledQrFactorization<T>::form_q() const {
  la::Matrix<T> q = la::Matrix<T>::identity(a_.rows());
  apply_q(q.view(), la::Trans::kNoTrans);
  return q;
}

template <typename T>
la::Matrix<T> TiledQrFactorization<T>::form_q_thin() const {
  la::Matrix<T> q(a_.rows(), a_.cols());
  for (std::int32_t i = 0; i < a_.cols(); ++i) q(i, i) = T(1);
  apply_q(q.view(), la::Trans::kNoTrans);
  return q;
}

template <typename T>
la::Matrix<T> TiledQrFactorization<T>::solve_refined(
    const la::Matrix<T>& a, const la::Matrix<T>& rhs, int iterations) const {
  TQR_REQUIRE(a.rows() == a_.rows() && a.cols() == a_.cols(),
              "solve_refined: matrix shape does not match the factorization");
  la::Matrix<T> x = solve(rhs);
  for (int it = 0; it < iterations; ++it) {
    la::Matrix<T> resid = rhs;
    la::gemm<T>(la::Trans::kNoTrans, la::Trans::kNoTrans, T(-1), a.view(),
                x.view(), T(1), resid.view());
    la::Matrix<T> dx = solve(resid);
    for (std::int32_t j = 0; j < x.cols(); ++j)
      for (std::int32_t i = 0; i < x.rows(); ++i) x(i, j) += dx(i, j);
  }
  return x;
}

template <typename T>
la::Matrix<T> TiledQrFactorization<T>::solve(const la::Matrix<T>& rhs) const {
  TQR_REQUIRE(rhs.rows() == a_.rows(), "solve: rhs row mismatch");
  la::Matrix<T> qtb = rhs;
  apply_q(qtb.view(), la::Trans::kTrans);
  const std::int32_t n = a_.cols();
  la::Matrix<T> x(n, rhs.cols());
  la::copy<T>(qtb.block(0, 0, n, rhs.cols()), x.view());
  la::Matrix<T> rr = r();
  la::trsm_left<T>(la::UpLo::kUpper, la::Trans::kNoTrans, la::Diag::kNonUnit,
                   rr.view(), x.view());
  return x;
}

template <typename T>
la::Matrix<T> qr_solve(const la::Matrix<T>& a, const la::Matrix<T>& b,
                       int tile_size, dag::Elimination elim) {
  typename TiledQrFactorization<T>::Options opts;
  opts.elim = elim;
  return TiledQrFactorization<T>::factor(a, tile_size, opts).solve(b);
}

namespace {

// Elementwise precision conversions for the mixed solver. Kept local: the
// solver is the only place the library crosses precisions, and keeping the
// narrowing explicit here makes that boundary easy to audit.
la::Matrix<float> to_f32(const la::Matrix<double>& a) {
  la::Matrix<float> out(a.rows(), a.cols());
  for (std::int32_t j = 0; j < a.cols(); ++j)
    for (std::int32_t i = 0; i < a.rows(); ++i)
      out(i, j) = static_cast<float>(a(i, j));
  return out;
}

}  // namespace

MixedSolveResult qr_solve_mixed(const la::Matrix<double>& a,
                                const la::Matrix<double>& b, int tile_size,
                                dag::Elimination elim, int max_iterations,
                                double tolerance, la::index_t inner_block) {
  TQR_REQUIRE(a.rows() == b.rows(), "qr_solve_mixed: rhs row mismatch");
  const std::int32_t n = a.cols();
  if (tolerance <= 0)
    tolerance = la::verify_tolerance<double>(std::max(a.rows(), n));

  // One fp32 factorization, reused for the initial solve and every
  // correction solve.
  typename TiledQrFactorization<float>::Options opts;
  opts.elim = elim;
  opts.inner_block = inner_block;
  const auto f32 =
      TiledQrFactorization<float>::factor(to_f32(a), tile_size, opts);

  const double a_fro = la::norm_frobenius<double>(a.view());
  const double b_fro = la::norm_frobenius<double>(b.view());

  MixedSolveResult result;
  {
    const la::Matrix<float> x32 = f32.solve(to_f32(b));
    result.x = la::Matrix<double>(n, b.cols());
    for (std::int32_t j = 0; j < b.cols(); ++j)
      for (std::int32_t i = 0; i < n; ++i)
        result.x(i, j) = static_cast<double>(x32(i, j));
  }

  for (int it = 0; it <= max_iterations; ++it) {
    // fp64 residual of the current iterate.
    la::Matrix<double> resid = b;
    la::gemm<double>(la::Trans::kNoTrans, la::Trans::kNoTrans, -1.0, a.view(),
                     result.x.view(), 1.0, resid.view());
    const double x_fro = la::norm_frobenius<double>(result.x.view());
    const double denom = a_fro * x_fro + b_fro;
    result.residual = denom > 0
                          ? la::norm_frobenius<double>(resid.view()) / denom
                          : la::norm_frobenius<double>(resid.view());
    if (result.residual <= tolerance) {
      result.converged = true;
      break;
    }
    if (it == max_iterations) break;  // budget spent; report unconverged
    // fp32 correction solve, fp64 accumulation.
    const la::Matrix<float> dx32 = f32.solve(to_f32(resid));
    for (std::int32_t j = 0; j < result.x.cols(); ++j)
      for (std::int32_t i = 0; i < n; ++i)
        result.x(i, j) += static_cast<double>(dx32(i, j));
    result.iterations = it + 1;
  }
  return result;
}

// Explicit instantiations.
template void execute_task<float>(const dag::Task&, la::TiledMatrix<float>&,
                                  la::TiledMatrix<float>&,
                                  la::TiledMatrix<float>&, la::index_t);
template void execute_task<double>(const dag::Task&, la::TiledMatrix<double>&,
                                   la::TiledMatrix<double>&,
                                   la::TiledMatrix<double>&, la::index_t);
template void apply_q_tiles<float>(const dag::TaskGraph&,
                                   const la::TiledMatrix<float>&,
                                   const la::TiledMatrix<float>&,
                                   const la::TiledMatrix<float>&,
                                   la::MatrixView<float>, la::Trans,
                                   la::index_t);
template void apply_q_tiles<double>(const dag::TaskGraph&,
                                    const la::TiledMatrix<double>&,
                                    const la::TiledMatrix<double>&,
                                    const la::TiledMatrix<double>&,
                                    la::MatrixView<double>, la::Trans,
                                    la::index_t);
template class TiledQrFactorization<float>;
template class TiledQrFactorization<double>;
template la::Matrix<float> qr_solve<float>(const la::Matrix<float>&,
                                           const la::Matrix<float>&, int,
                                           dag::Elimination);
template la::Matrix<double> qr_solve<double>(const la::Matrix<double>&,
                                             const la::Matrix<double>&, int,
                                             dag::Elimination);

}  // namespace tqr::core

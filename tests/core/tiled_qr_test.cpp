// Functional correctness of the full tiled QR factorization: residuals
// against machine precision, equivalence with the reference Householder QR,
// TS/TT equivalence, and solve paths. Schedule-independence under the
// threaded executor is covered in depth by
// tests/runtime/schedule_invariance_test.cpp.
#include "core/tiled_qr.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <utility>

#include "core/plan.hpp"
#include "la/reference_qr.hpp"
#include "runtime/dag_executor.hpp"

namespace tqr::core {
namespace {

using la::index_t;
using la::Matrix;
using la::Trans;

struct Case {
  int rows, cols, b;
  dag::Elimination elim;
};

void PrintTo(const Case& c, std::ostream* os) {
  *os << c.rows << "x" << c.cols << "/b" << c.b
      << (c.elim == dag::Elimination::kTs ? "/TS" : "/TT");
}

class TiledQrCases : public ::testing::TestWithParam<Case> {};

TEST_P(TiledQrCases, FactorizationResidualsAtMachinePrecision) {
  const Case c = GetParam();
  auto a = Matrix<double>::random(c.rows, c.cols, 7000 + c.rows + c.b);
  typename TiledQrFactorization<double>::Options opts;
  opts.elim = c.elim;
  auto f = TiledQrFactorization<double>::factor(a, c.b, opts);

  auto q = f.form_q();
  EXPECT_LT(la::orthogonality_residual<double>(q.view()),
            la::residual_tolerance<double>(c.rows));

  auto r = f.r();
  EXPECT_LT(la::lower_triangle_residual<double>(r.view()), 1e-13);

  Matrix<double> r_full(c.rows, c.cols);
  for (index_t j = 0; j < c.cols; ++j)
    for (index_t i = 0; i <= j; ++i) r_full(i, j) = r(i, j);
  EXPECT_LT(la::reconstruction_residual<double>(a.view(), q.view(),
                                                r_full.view()),
            la::residual_tolerance<double>(c.rows));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TiledQrCases,
    ::testing::Values(Case{4, 4, 4, dag::Elimination::kTs},    // single tile
                      Case{8, 8, 4, dag::Elimination::kTs},
                      Case{8, 8, 4, dag::Elimination::kTt},
                      Case{16, 16, 4, dag::Elimination::kTs},
                      Case{16, 16, 4, dag::Elimination::kTt},
                      Case{32, 32, 8, dag::Elimination::kTs},
                      Case{32, 32, 8, dag::Elimination::kTt},
                      Case{48, 16, 8, dag::Elimination::kTs},  // tall
                      Case{48, 16, 8, dag::Elimination::kTt},
                      Case{64, 64, 16, dag::Elimination::kTt},
                      Case{40, 40, 8, dag::Elimination::kTt},
                      Case{56, 24, 8, dag::Elimination::kTt}));

TEST(TiledQr, MatchesReferenceR) {
  // R is unique up to row signs for a full-rank matrix.
  const int n = 24, b = 8;
  auto a = Matrix<double>::random(n, n, 99);
  auto f = TiledQrFactorization<double>::factor(a, b);
  auto r_tiled = f.r();
  la::ReferenceQr<double> ref(a);
  auto r_ref = ref.r();
  for (index_t i = 0; i < n; ++i) {
    const double sign =
        (r_tiled(i, i) >= 0) == (r_ref(i, i) >= 0) ? 1.0 : -1.0;
    for (index_t j = i; j < n; ++j)
      EXPECT_NEAR(r_tiled(i, j), sign * r_ref(i, j), 1e-9)
          << "at (" << i << "," << j << ")";
  }
}

TEST(TiledQr, TsAndTtProduceSameRUpToSigns) {
  const int n = 32, b = 8;
  auto a = Matrix<double>::random(n, n, 123);
  typename TiledQrFactorization<double>::Options ts, tt;
  ts.elim = dag::Elimination::kTs;
  tt.elim = dag::Elimination::kTt;
  auto rts = TiledQrFactorization<double>::factor(a, b, ts).r();
  auto rtt = TiledQrFactorization<double>::factor(a, b, tt).r();
  for (index_t i = 0; i < n; ++i) {
    const double sign = (rts(i, i) >= 0) == (rtt(i, i) >= 0) ? 1.0 : -1.0;
    for (index_t j = i; j < n; ++j)
      EXPECT_NEAR(rts(i, j), sign * rtt(i, j), 1e-9);
  }
}

TEST(TiledQr, HierEliminationMatchesTsUpToSigns) {
  // The hierarchical reduction tree reorders the eliminations but must
  // produce the same R (up to row signs) on a tall-skinny matrix.
  const int rows = 64, cols = 16, b = 8;
  auto a = Matrix<double>::random(rows, cols, 321);
  typename TiledQrFactorization<double>::Options ts, hier;
  ts.elim = dag::Elimination::kTs;
  hier.elim = dag::Elimination::kHier;
  hier.hier_groups = 2;
  auto rts = TiledQrFactorization<double>::factor(a, b, ts).r();
  auto rh = TiledQrFactorization<double>::factor(a, b, hier).r();
  for (index_t i = 0; i < cols; ++i) {
    const double sign = (rts(i, i) >= 0) == (rh(i, i) >= 0) ? 1.0 : -1.0;
    for (index_t j = i; j < cols; ++j)
      EXPECT_NEAR(rts(i, j), sign * rh(i, j), 1e-9);
  }
}

TEST(TiledQr, ApplyQThenQtRoundTrips) {
  const int n = 24, b = 8;
  auto a = Matrix<double>::random(n, n, 5);
  auto f = TiledQrFactorization<double>::factor(a, b);
  auto c0 = Matrix<double>::random(n, 3, 6);
  Matrix<double> c = c0;
  f.apply_q(c.view(), Trans::kTrans);
  f.apply_q(c.view(), Trans::kNoTrans);
  for (index_t j = 0; j < 3; ++j)
    for (index_t i = 0; i < n; ++i) EXPECT_NEAR(c(i, j), c0(i, j), 1e-10);
}

TEST(TiledQr, QtAEqualsR) {
  const int n = 24, b = 8;
  auto a = Matrix<double>::random(n, n, 15);
  auto f = TiledQrFactorization<double>::factor(a, b);
  Matrix<double> qta = a;
  f.apply_q(qta.view(), Trans::kTrans);
  auto r = f.r();
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i <= j; ++i) EXPECT_NEAR(qta(i, j), r(i, j), 1e-9);
    for (index_t i = j + 1; i < n; ++i) EXPECT_NEAR(qta(i, j), 0.0, 1e-9);
  }
}

TEST(TiledQr, SolveRecoversKnownSolution) {
  const int n = 32, b = 8;
  auto a = Matrix<double>::random(n, n, 20);
  for (index_t i = 0; i < n; ++i) a(i, i) += 6.0;
  auto x_true = Matrix<double>::random(n, 2, 21);
  Matrix<double> rhs(n, 2);
  la::gemm<double>(Trans::kNoTrans, Trans::kNoTrans, 1.0, a.view(),
                   x_true.view(), 0.0, rhs.view());
  auto f = TiledQrFactorization<double>::factor(a, b);
  auto x = f.solve(rhs);
  for (index_t j = 0; j < 2; ++j)
    for (index_t i = 0; i < n; ++i)
      EXPECT_NEAR(x(i, j), x_true(i, j), 1e-8);
}

TEST(TiledQr, QrSolveConvenienceMatchesReference) {
  const int n = 16, b = 4;
  auto a = Matrix<double>::random(n, n, 30);
  for (index_t i = 0; i < n; ++i) a(i, i) += 5.0;
  auto rhs = Matrix<double>::random(n, 1, 31);
  auto x_tiled = qr_solve<double>(a, rhs, b);
  la::ReferenceQr<double> ref(a);
  auto x_ref = ref.solve(rhs);
  for (index_t i = 0; i < n; ++i)
    EXPECT_NEAR(x_tiled(i, 0), x_ref(i, 0), 1e-9);
}

TEST(TiledQr, LeastSquaresOverdetermined) {
  const int m = 48, n = 16, b = 8;
  auto a = Matrix<double>::random(m, n, 40);
  auto rhs = Matrix<double>::random(m, 1, 41);
  auto f = TiledQrFactorization<double>::factor(a, b);
  auto x = f.solve(rhs);
  // Normal equations residual: A^T (b - A x) = 0.
  Matrix<double> resid = rhs;
  la::gemm<double>(Trans::kNoTrans, Trans::kNoTrans, -1.0, a.view(), x.view(),
                   1.0, resid.view());
  Matrix<double> atr(n, 1);
  la::gemm<double>(Trans::kTrans, Trans::kNoTrans, 1.0, a.view(),
                   resid.view(), 0.0, atr.view());
  for (index_t i = 0; i < n; ++i) EXPECT_NEAR(atr(i, 0), 0.0, 1e-8);
}

TEST(TiledQr, FloatPrecisionFactorization) {
  const int n = 32, b = 8;
  auto a = Matrix<float>::random(n, n, 50);
  auto f = TiledQrFactorization<float>::factor(a, b);
  auto q = f.form_q();
  EXPECT_LT(la::orthogonality_residual<float>(q.view()),
            la::residual_tolerance<float>(n));
}

TEST(TiledQr, HostDefaultEliminationIsTs) {
  EXPECT_EQ(TiledQrFactorization<double>::Options{}.elim,
            dag::Elimination::kTs);
  EXPECT_EQ(TiledQrFactorization<float>::Options{}.elim,
            dag::Elimination::kTs);
  // The modeled node keeps the paper's tree.
  EXPECT_EQ(PlanConfig{}.elim, dag::Elimination::kTt);
}

TEST(TiledQr, ParallelExecutionMatchesSequentialBitwise) {
  // The DAG enforces all orderings that matter; a threaded run of the
  // plan's tree must produce the exact same factors as factor()'s
  // sequential replay.
  const int n = 48, b = 8;
  auto a = Matrix<double>::random(n, n, 60);

  const sim::Platform platform = sim::paper_platform();
  PlanConfig pc;
  pc.tile_size = b;
  Plan plan(platform, n / b, n / b, pc);

  typename TiledQrFactorization<double>::Options seq_opts;
  seq_opts.elim = plan.config().elim;
  seq_opts.hier_groups = plan.hier_groups();
  auto f_seq = TiledQrFactorization<double>::factor(a, b, seq_opts);

  auto tiles = la::TiledMatrix<double>::from_dense(a, b);
  la::TiledMatrix<double> tg(n, n, b), te(n, n, b);
  runtime::DagExecutor::Options eopts;
  eopts.threads_per_device = {2};
  runtime::DagExecutor engine(eopts);
  engine.execute(
      f_seq.graph(), [](dag::task_id, const dag::Task&) { return 0; },
      [&](dag::task_id, const dag::Task& task, int) {
        execute_task<double>(task, tiles, tg, te, f_seq.inner_block());
      });

  const auto& ts = f_seq.tiles();
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i)
      EXPECT_EQ(ts.at(i, j), tiles.at(i, j))
          << "tiles differ at " << i << "," << j;
}

TEST(TiledQr, SquareTPlanesMatchCompactBitwise) {
  // execute_task accepts square b x b T tiles as well as la::t_plane's
  // compact nb x b ones: the factors land in the top nb rows, A comes out
  // bit-identical, and Q replays the same from either.
  const int mt = 5, nt = 3, b = 40;
  for (const la::index_t ib : {la::index_t(0), la::index_t(16),
                               la::index_t(b)})
    for (dag::Elimination elim :
         {dag::Elimination::kTs, dag::Elimination::kTt}) {
      const auto dense = Matrix<double>::random(mt * b, nt * b, 61 + ib);
      const dag::TaskGraph graph = dag::build_tiled_qr_graph(mt, nt, elim);
      auto a_sq = la::TiledMatrix<double>::from_dense(dense, b);
      auto a_cp = a_sq;
      la::TiledMatrix<double> tg_sq(mt * b, nt * b, b), te_sq = tg_sq;
      auto tg_cp = la::t_plane<double>(mt * b, nt * b, b, ib);
      auto te_cp = tg_cp;
      for (const dag::Task& task : graph.tasks()) {
        execute_task<double>(task, a_sq, tg_sq, te_sq, ib);
        execute_task<double>(task, a_cp, tg_cp, te_cp, ib);
      }
      const la::index_t nb = la::inner_block_width(ib, b);
      ASSERT_EQ(tg_cp.tile_height(), nb);
      EXPECT_EQ(std::memcmp(a_sq.data(), a_cp.data(),
                            a_sq.size() * sizeof(double)),
                0);
      for (auto [sq, cp] : {std::pair{&tg_sq, &tg_cp}, {&te_sq, &te_cp}})
        for (int tj = 0; tj < nt; ++tj)
          for (int ti = 0; ti < mt; ++ti)
            for (la::index_t j = 0; j < b; ++j)
              EXPECT_EQ(std::memcmp(&sq->tile(ti, tj)(0, j),
                                    &cp->tile(ti, tj)(0, j),
                                    nb * sizeof(double)),
                        0)
                  << "T tile (" << ti << "," << tj << ") column " << j;
      auto c_sq = Matrix<double>::random(mt * b, 3, 62);
      auto c_cp = c_sq;
      apply_q_tiles<double>(graph, a_sq, tg_sq, te_sq, c_sq.view(),
                            Trans::kNoTrans, ib);
      apply_q_tiles<double>(graph, a_cp, tg_cp, te_cp, c_cp.view(),
                            Trans::kNoTrans, ib);
      EXPECT_EQ(std::memcmp(c_sq.data(), c_cp.data(),
                            static_cast<std::size_t>(mt) * b * 3 *
                                sizeof(double)),
                0);
    }
}

TEST(TiledQr, WideMatrixRejected) {
  auto a = Matrix<double>::random(8, 16, 70);
  EXPECT_THROW(TiledQrFactorization<double>::factor(a, 4),
               tqr::InvalidArgument);
}

TEST(TiledQr, NonDivisibleSizeRejected) {
  auto a = Matrix<double>::random(10, 10, 71);
  EXPECT_THROW(TiledQrFactorization<double>::factor(a, 4),
               tqr::InvalidArgument);
}

TEST(TiledQr, PaddedFactorizationOfOddSize) {
  // pad_to_tiles lets callers factor non-multiple sizes: QR of the padded
  // matrix restricts to QR of the original in the leading block.
  const int m = 10, n = 10, b = 4;
  auto a = Matrix<double>::random(m, n, 72);
  auto padded = la::pad_to_tiles<double>(a.view(), b);
  auto f = TiledQrFactorization<double>::factor(padded, b);
  auto q = f.form_q();
  EXPECT_LT(la::orthogonality_residual<double>(q.view()), 1e-12);
  auto r = f.r();
  // Reconstruct the original block.
  Matrix<double> qr(padded.rows(), padded.cols());
  Matrix<double> r_full(padded.rows(), padded.cols());
  for (index_t j = 0; j < padded.cols(); ++j)
    for (index_t i = 0; i <= j && i < padded.rows(); ++i)
      r_full(i, j) = r(i, j);
  la::gemm<double>(Trans::kNoTrans, Trans::kNoTrans, 1.0, q.view(),
                   r_full.view(), 0.0, qr.view());
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i) EXPECT_NEAR(qr(i, j), a(i, j), 1e-10);
}

}  // namespace
}  // namespace tqr::core

#include "core/tiled_cholesky.hpp"

#include <gtest/gtest.h>

#include "core/simulate.hpp"
#include "la/checks.hpp"
#include "sim/platform.hpp"

namespace tqr::core {
namespace {

using la::index_t;
using la::Matrix;

Matrix<double> random_spd(index_t n, std::uint64_t seed) {
  auto b = Matrix<double>::random(n, n, seed);
  Matrix<double> a(n, n);
  la::gemm<double>(la::Trans::kNoTrans, la::Trans::kTrans, 1.0, b.view(),
                   b.view(), 0.0, a.view());
  for (index_t i = 0; i < n; ++i) a(i, i) += static_cast<double>(n);
  return a;
}

class CholeskyGrids : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(CholeskyGrids, FactorReassembles) {
  const auto [n, b] = GetParam();
  auto a = random_spd(n, 10 + n);
  auto f = TiledCholesky<double>::factor(a, b);
  auto l = f.l();
  Matrix<double> llt(n, n);
  la::gemm<double>(la::Trans::kNoTrans, la::Trans::kTrans, 1.0, l.view(),
                   l.view(), 0.0, llt.view());
  for (index_t j = 0; j < n; ++j)
    for (index_t i = j; i < n; ++i)
      EXPECT_NEAR(llt(i, j), a(i, j), 1e-8) << i << "," << j;
}

TEST_P(CholeskyGrids, MatchesBlockedPotrf) {
  const auto [n, b] = GetParam();
  auto a = random_spd(n, 20 + n);
  auto f = TiledCholesky<double>::factor(a, b);
  Matrix<double> reference = a;
  la::potrf_lower<double>(reference.view(), 8);
  auto l = f.l();
  for (index_t j = 0; j < n; ++j)
    for (index_t i = j; i < n; ++i)
      EXPECT_NEAR(l(i, j), reference(i, j), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Grids, CholeskyGrids,
                         ::testing::Values(std::pair{8, 4}, std::pair{16, 4},
                                           std::pair{32, 8},
                                           std::pair{48, 16},
                                           std::pair{40, 8}));

TEST(TiledCholesky, SolveRecoversKnownSolution) {
  const int n = 32, b = 8;
  auto a = random_spd(n, 30);
  auto x_true = Matrix<double>::random(n, 2, 31);
  Matrix<double> rhs(n, 2);
  la::gemm<double>(la::Trans::kNoTrans, la::Trans::kNoTrans, 1.0, a.view(),
                   x_true.view(), 0.0, rhs.view());
  auto f = TiledCholesky<double>::factor(a, b);
  auto x = f.solve(rhs);
  for (index_t j = 0; j < 2; ++j)
    for (index_t i = 0; i < n; ++i)
      EXPECT_NEAR(x(i, j), x_true(i, j), 1e-8);
}

TEST(TiledCholesky, GraphCountsMatchClosedForm) {
  for (int nt : {1, 2, 4, 7}) {
    auto g = dag::build_tiled_cholesky_graph(nt);
    EXPECT_TRUE(g.validate());
    const auto c = dag::cholesky_task_counts(nt);
    std::int64_t potrf = 0, trsm = 0, syrk = 0, gemm = 0;
    for (const auto& t : g.tasks()) {
      switch (t.op) {
        case dag::Op::kPotrf: ++potrf; break;
        case dag::Op::kTrsm: ++trsm; break;
        case dag::Op::kSyrk: ++syrk; break;
        case dag::Op::kGemm: ++gemm; break;
        default: FAIL() << "unexpected op in Cholesky graph";
      }
    }
    EXPECT_EQ(potrf, c.potrf);
    EXPECT_EQ(trsm, c.trsm);
    EXPECT_EQ(syrk, c.syrk);
    EXPECT_EQ(gemm, c.gemm);
  }
}

TEST(TiledCholesky, SimulatesOnThePaperPlatform) {
  const int nt = 20;
  auto g = dag::build_tiled_cholesky_graph(nt);
  const sim::Platform platform = sim::paper_platform();
  PlanConfig pc;
  pc.tile_size = 16;
  pc.main_policy = MainPolicy::kFixed;
  pc.fixed_main = 1;
  pc.count_policy = CountPolicy::kAll;
  Plan plan(platform, nt, nt, pc);
  const auto result = simulate_on_graph(g, plan, platform);
  EXPECT_GT(result.makespan_s, 0);
  EXPECT_EQ(result.tasks, static_cast<std::int64_t>(g.size()));
  // Panel work landed on the main device, updates spread across GPUs.
  EXPECT_GT(result.busy_s[1], 0);
  EXPECT_GT(result.busy_s[2] + result.busy_s[3], 0);
}

TEST(TiledCholesky, IndefiniteMatrixThrows) {
  const int n = 16, b = 8;
  Matrix<double> a = Matrix<double>::identity(n);
  a(5, 5) = -2.0;
  EXPECT_THROW(TiledCholesky<double>::factor(a, b), tqr::Error);
}

TEST(TiledCholesky, NonSquareRejected) {
  auto a = Matrix<double>::random(16, 8, 50);
  EXPECT_THROW(TiledCholesky<double>::factor(a, 8), tqr::InvalidArgument);
}

TEST(TiledCholesky, FloatPrecision) {
  const int n = 24, b = 8;
  auto ad = random_spd(n, 60);
  Matrix<float> a(n, n);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i) a(i, j) = static_cast<float>(ad(i, j));
  auto f = TiledCholesky<float>::factor(a, b);
  auto l = f.l();
  Matrix<float> llt(n, n);
  la::gemm<float>(la::Trans::kNoTrans, la::Trans::kTrans, 1.0f, l.view(),
                  l.view(), 0.0f, llt.view());
  for (index_t j = 0; j < n; ++j)
    for (index_t i = j; i < n; ++i)
      EXPECT_NEAR(llt(i, j), a(i, j), 2e-3f);
}

}  // namespace
}  // namespace tqr::core

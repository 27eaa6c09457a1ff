// Schedule invariance on the real execution path: runtime::DagExecutor
// driving core::execute_task / core::execute_cholesky_task with 1, 2 and 4
// workers must reproduce the sequential replay bit for bit. The DAG orders
// every pair of tasks that touch the same tile, so no worker count or steal
// pattern may change a single bit of the factors. Part of test_runtime, so
// scripts/check.sh also runs it under ThreadSanitizer.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "core/tiled_cholesky.hpp"
#include "core/tiled_qr.hpp"
#include "dag/tiled_cholesky_dag.hpp"
#include "dag/tiled_qr_dag.hpp"
#include "la/generators.hpp"
#include "runtime/dag_executor.hpp"

namespace tqr::runtime {
namespace {

using la::index_t;
using la::TiledMatrix;

::testing::AssertionResult bitwise_equal(const TiledMatrix<double>& x,
                                         const TiledMatrix<double>& y) {
  for (index_t j = 0; j < x.cols(); ++j)
    for (index_t i = 0; i < x.rows(); ++i)
      if (std::bit_cast<std::uint64_t>(x.at(i, j)) !=
          std::bit_cast<std::uint64_t>(y.at(i, j)))
        return ::testing::AssertionFailure()
               << "differs at (" << i << "," << j << "): " << x.at(i, j)
               << " vs " << y.at(i, j);
  return ::testing::AssertionSuccess();
}

/// Runs `kernel` over every task of `graph` on a fresh `workers`-thread
/// engine.
void run_parallel(const dag::TaskGraph& graph, int workers,
                  const DagExecutor::Kernel& kernel) {
  DagExecutor::Options opts;
  opts.threads_per_device = {workers};
  DagExecutor engine(opts);
  engine.execute(graph, [](dag::task_id, const dag::Task&) { return 0; },
                 kernel);
}

/// The factor's three tile planes: R/V tiles and both T-factor planes.
struct QrTiles {
  TiledMatrix<double> a, tg, te;
  QrTiles(const la::Matrix<double>& dense, int b)
      : a(TiledMatrix<double>::from_dense(dense, b)),
        tg(dense.rows(), dense.cols(), b),
        te(dense.rows(), dense.cols(), b) {}
  void run(const dag::Task& task) { core::execute_task<double>(task, a, tg, te); }
};

TEST(ScheduleInvariance, ThreadCountDoesNotChangeFactors) {
  const int b = 8;
  struct Grid {
    int mt, nt;
  };
  for (dag::Elimination elim : {dag::Elimination::kTs, dag::Elimination::kTt})
    for (Grid grid : {Grid{6, 6}, Grid{9, 3}}) {
      const auto dense =
          la::graded_rows<double>(grid.mt * b, grid.nt * b, 4.0, 57);
      const dag::TaskGraph graph =
          dag::build_tiled_qr_graph(grid.mt, grid.nt, elim);
      QrTiles seq(dense, b);
      for (const dag::Task& task : graph.tasks()) seq.run(task);
      for (int workers : {1, 2, 4}) {
        const std::string where = std::string(dag::elimination_name(elim)) +
                                  " " + std::to_string(grid.mt) + "x" +
                                  std::to_string(grid.nt) + " workers=" +
                                  std::to_string(workers);
        QrTiles par(dense, b);
        run_parallel(graph, workers,
                     [&](dag::task_id, const dag::Task& task, int) {
                       par.run(task);
                     });
        EXPECT_TRUE(bitwise_equal(par.a, seq.a)) << where << " (R/V tiles)";
        EXPECT_TRUE(bitwise_equal(par.tg, seq.tg)) << where << " (GEQRT T)";
        EXPECT_TRUE(bitwise_equal(par.te, seq.te)) << where << " (elim T)";
      }
    }
}

TEST(ScheduleInvariance, ThreadCountDoesNotChangeCholeskyFactors) {
  const int n = 64, b = 8;
  auto g = la::Matrix<double>::random(n, n, 40);
  la::Matrix<double> spd(n, n);
  la::gemm<double>(la::Trans::kNoTrans, la::Trans::kTrans, 1.0, g.view(),
                   g.view(), 0.0, spd.view());
  for (index_t i = 0; i < n; ++i) spd(i, i) += static_cast<double>(n);

  const dag::TaskGraph graph = dag::build_tiled_cholesky_graph(n / b);
  auto seq = TiledMatrix<double>::from_dense(spd, b);
  for (const dag::Task& task : graph.tasks())
    core::execute_cholesky_task<double>(task, seq);
  for (int workers : {1, 2, 4}) {
    auto par = TiledMatrix<double>::from_dense(spd, b);
    run_parallel(graph, workers,
                 [&](dag::task_id, const dag::Task& task, int) {
                   core::execute_cholesky_task<double>(task, par);
                 });
    EXPECT_TRUE(bitwise_equal(par, seq)) << "workers=" << workers;
  }
}

}  // namespace
}  // namespace tqr::runtime

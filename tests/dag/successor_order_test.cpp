// Every successor range a TaskGraph stores is strictly ascending. The
// executor relies on it: it pushes a release batch in reverse successor
// order, so the owner's LIFO pop dispatches the lowest task id (the
// panel-major order) first without sorting anything.
#include <gtest/gtest.h>

#include <string>

#include "dag/tiled_cholesky_dag.hpp"
#include "dag/tiled_qr_dag.hpp"

namespace tqr::dag {
namespace {

::testing::AssertionResult successors_ascending(const TaskGraph& g) {
  for (task_id t = 0; t < static_cast<task_id>(g.size()); ++t)
    for (const task_id* it = g.successors_begin(t);
         it != g.successors_end(t); ++it)
      if (it + 1 != g.successors_end(t) && !(*it < *(it + 1)))
        return ::testing::AssertionFailure()
               << "task " << t << ": successor " << *it << " before "
               << *(it + 1);
  return ::testing::AssertionSuccess();
}

TEST(SuccessorOrder, QrGraphsUnderEveryEliminationTree) {
  struct Grid {
    int mt, nt;
  };
  for (Elimination elim : {Elimination::kTs, Elimination::kTt,
                           Elimination::kTtFlat, Elimination::kHier})
    for (Grid grid : {Grid{1, 1}, Grid{4, 4}, Grid{7, 3}, Grid{12, 12},
                      Grid{64, 2}}) {
      const int groups = elim == Elimination::kHier ? 4 : 0;
      EXPECT_TRUE(successors_ascending(
          build_tiled_qr_graph(grid.mt, grid.nt, elim, groups)))
          << elimination_name(elim) << " " << grid.mt << "x" << grid.nt;
    }
}

TEST(SuccessorOrder, CholeskyGraphs) {
  for (int nt : {1, 2, 5, 16})
    EXPECT_TRUE(successors_ascending(build_tiled_cholesky_graph(nt)))
        << "nt=" << nt;
}

}  // namespace
}  // namespace tqr::dag

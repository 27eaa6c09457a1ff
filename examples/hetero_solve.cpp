// Heterogeneous solve: plan a factorization for the paper's CPU + 3 GPU
// node, simulate that schedule for timing, then factor the plan's
// elimination tree on the host and solve a least-squares problem — the full
// workflow a downstream user would run.
//
//   ./hetero_solve [--size 256] [--tile 16] [--rhs 4]
#include <cstdio>

#include "common/cli.hpp"
#include "core/simulate.hpp"
#include "core/tiled_qr.hpp"
#include "la/checks.hpp"

int main(int argc, char** argv) {
  using namespace tqr;
  Cli cli;
  cli.flag("size", "matrix rows (multiple of tile)", "256");
  cli.flag("tile", "tile size", "16");
  cli.flag("rhs", "number of right-hand sides", "4");
  if (!cli.parse(argc, argv)) return 0;
  const int m = static_cast<int>(cli.get_int("size", 256));
  const int b = static_cast<int>(cli.get_int("tile", 16));
  const int nrhs = static_cast<int>(cli.get_int("rhs", 4));
  const int n = m / 2 / b * b;  // overdetermined system

  const sim::Platform platform = sim::paper_platform();
  std::printf("heterogeneous least-squares solve: %d x %d, %d rhs\n", m, n,
              nrhs);

  // 1. Plan with the paper's full policy stack.
  core::PlanConfig pc;
  pc.tile_size = b;
  core::Plan plan(platform, m / b, n / b, pc);
  std::printf("%s\n", plan.summary(platform).c_str());

  // 2. Simulate the schedule on the modeled devices.
  const auto sim_result = core::simulate_on_graph(
      dag::build_tiled_qr_graph(m / b, n / b, pc.elim), plan, platform);
  std::printf("simulated makespan on the paper node: %.3f ms "
              "(comm share %.1f%%)\n",
              sim_result.makespan_s * 1e3, sim_result.comm_fraction() * 100);

  // 3. Factor the plan's elimination tree on the host.
  auto a = la::Matrix<double>::random(m, n, 11);
  typename core::TiledQrFactorization<double>::Options opts;
  opts.elim = plan.config().elim;
  opts.hier_groups = plan.hier_groups();
  auto f = core::TiledQrFactorization<double>::factor(a, b, opts);

  // 4. Solve and report least-squares optimality (A^T residual = 0).
  auto rhs = la::Matrix<double>::random(m, nrhs, 12);
  auto x = f.solve(rhs);
  la::Matrix<double> resid = rhs;
  la::gemm<double>(la::Trans::kNoTrans, la::Trans::kNoTrans, -1.0, a.view(),
                   x.view(), 1.0, resid.view());
  la::Matrix<double> atr(n, nrhs);
  la::gemm<double>(la::Trans::kTrans, la::Trans::kNoTrans, 1.0, a.view(),
                   resid.view(), 0.0, atr.view());
  std::printf("||A^T (b - A x)||_max = %.3e (0 => optimal least squares)\n",
              la::norm_max<double>(atr.view()));
  return 0;
}

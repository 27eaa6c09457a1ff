// End-to-end integration: plan -> graph -> (host factorization + simulation),
// checking that the paper's qualitative claims hold on the simulated
// platform and that numerics survive the full pipeline.
#include <gtest/gtest.h>

#include "core/simulate.hpp"
#include "core/tiled_qr.hpp"
#include "la/checks.hpp"
#include "sim/platform.hpp"

namespace tqr::core {
namespace {

PlanConfig base_config(int b = 16) {
  PlanConfig c;
  c.tile_size = b;
  return c;
}

TEST(Integration, SimulateTiledQrEndToEnd) {
  const SimRun run =
      simulate_tiled_qr(sim::paper_platform(), 640, 640, base_config());
  EXPECT_GT(run.result.makespan_s, 0);
  EXPECT_EQ(run.result.tasks,
            static_cast<std::int64_t>(
                dag::build_tiled_qr_graph(40, 40, dag::Elimination::kTt)
                    .size()));
  EXPECT_GT(run.result.comm_s, 0);
}

TEST(Integration, MoreGpusHelpLargeMatrices) {
  // Fig. 6 / Fig. 8 shape: at 3200^2 every added GPU reduces the makespan.
  PlanConfig pc = base_config();
  pc.count_policy = CountPolicy::kAll;
  double prev = 1e100;
  for (int gpus = 1; gpus <= 3; ++gpus) {
    const auto run = simulate_tiled_qr(sim::paper_platform_with_gpus(gpus),
                                       3200, 3200, pc);
    EXPECT_LT(run.result.makespan_s, prev) << gpus << " GPUs";
    prev = run.result.makespan_s;
  }
}

TEST(Integration, SingleGpuBeatsThreeOnTinyMatrices) {
  // Fig. 6(b): for small sizes the transfer overhead outweighs parallelism.
  PlanConfig one = base_config();
  one.count_policy = CountPolicy::kFixed;
  one.fixed_count = 1;
  PlanConfig three = base_config();
  three.count_policy = CountPolicy::kFixed;
  three.fixed_count = 3;
  const auto r1 = simulate_tiled_qr(sim::paper_platform(), 160, 160, one);
  const auto r3 = simulate_tiled_qr(sim::paper_platform(), 160, 160, three);
  EXPECT_LT(r1.result.makespan_s, r3.result.makespan_s);
}

TEST(Integration, CpuAsMainIsCatastrophic) {
  // Fig. 9: CPU-as-main is an order of magnitude slower than GTX580-as-main.
  PlanConfig ours = base_config();
  PlanConfig cpu = base_config();
  cpu.main_policy = MainPolicy::kFixed;
  cpu.fixed_main = 0;
  const auto r_ours = simulate_tiled_qr(sim::paper_platform(), 1280, 1280, ours);
  const auto r_cpu = simulate_tiled_qr(sim::paper_platform(), 1280, 1280, cpu);
  EXPECT_GT(r_cpu.result.makespan_s, 5.0 * r_ours.result.makespan_s);
}

TEST(Integration, GuideArrayBeatsEvenDistributionOnLargeMatrices) {
  // Fig. 10 shape.
  PlanConfig guide = base_config();
  PlanConfig even = base_config();
  even.dist_policy = DistPolicy::kEven;
  guide.count_policy = even.count_policy = CountPolicy::kFixed;
  guide.fixed_count = even.fixed_count = 3;
  const auto rg = simulate_tiled_qr(sim::paper_platform(), 2560, 2560, guide);
  const auto re = simulate_tiled_qr(sim::paper_platform(), 2560, 2560, even);
  EXPECT_LT(rg.result.makespan_s, re.result.makespan_s);
}

TEST(Integration, CommShareOfWorkShrinksWithMatrixSize) {
  // Fig. 5 shape: communication relative to computation decreases as
  // matrices grow (volume ~M per panel vs compute ~M^2 per panel).
  PlanConfig pc = base_config();
  pc.count_policy = CountPolicy::kAll;
  const auto small = simulate_tiled_qr(sim::paper_platform(), 320, 320, pc);
  const auto large = simulate_tiled_qr(sim::paper_platform(), 2560, 2560, pc);
  EXPECT_GT(small.result.comm_fraction_of_work(),
            large.result.comm_fraction_of_work());
}

TEST(Integration, SmallMatricesPayProportionallyMoreCommOnTheCriticalPath) {
  // Fig. 5's small end: at 160..320 the bus occupies a significant share of
  // the run (> 10%) because panels are tiny relative to per-panel sync and
  // per-transfer overheads.
  PlanConfig pc = base_config();
  pc.count_policy = CountPolicy::kAll;
  const auto tiny = simulate_tiled_qr(sim::paper_platform(), 320, 320, pc);
  EXPECT_GT(tiny.result.comm_fraction(), 0.10);
}

TEST(Integration, FunctionalHeterogeneousSolveIsAccurate) {
  // Full pipeline: auto plan + host factorization of the plan's tree +
  // solve.
  const int n = 64, b = 16;
  auto a = la::Matrix<double>::random(n, n, 77);
  for (la::index_t i = 0; i < n; ++i) a(i, i) += 8.0;
  auto x_true = la::Matrix<double>::random(n, 1, 78);
  la::Matrix<double> rhs(n, 1);
  la::gemm<double>(la::Trans::kNoTrans, la::Trans::kNoTrans, 1.0, a.view(),
                   x_true.view(), 0.0, rhs.view());

  const sim::Platform platform = sim::paper_platform();
  PlanConfig pc = base_config(b);
  Plan plan(platform, n / b, n / b, pc);
  typename TiledQrFactorization<double>::Options opts;
  opts.elim = plan.config().elim;
  opts.hier_groups = plan.hier_groups();
  auto f = TiledQrFactorization<double>::factor(a, b, opts);
  auto x = f.solve(rhs);
  for (la::index_t i = 0; i < n; ++i)
    EXPECT_NEAR(x(i, 0), x_true(i, 0), 1e-8);
}

}  // namespace
}  // namespace tqr::core

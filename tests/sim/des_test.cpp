#include "sim/des.hpp"

#include <gtest/gtest.h>

#include "dag/tiled_qr_dag.hpp"

namespace tqr::sim {
namespace {

using dag::Elimination;

/// A uniform synthetic device: every kernel takes the same time, making
/// makespans predictable by hand.
DeviceSpec uniform_device(double kernel_us, int slots,
                          const std::string& name = "uni") {
  DeviceSpec d;
  d.name = name;
  d.kind = DeviceKind::kGpu;
  d.cores = slots;
  d.slots = slots;
  // latency carries the whole cost; flop rate effectively infinite.
  d.geqrt = {kernel_us, 0.0, 1e18};
  d.elim = {kernel_us, 0.0, 1e18};
  d.update = {kernel_us, 0.0, 1e18};
  return d;
}

Platform uniform_platform(int n_devices, double kernel_us, int slots) {
  Platform p;
  for (int i = 0; i < n_devices; ++i)
    p.devices.push_back(uniform_device(kernel_us, slots));
  p.comm = CommModel{0.0, 1e9, true};  // free communication by default
  return p;
}

std::vector<std::uint8_t> all_on(const dag::TaskGraph& g, int dev) {
  return std::vector<std::uint8_t>(g.size(), static_cast<std::uint8_t>(dev));
}

TEST(Des, SingleTaskTakesKernelTime) {
  dag::TaskGraph g = dag::build_tiled_qr_graph(1, 1, Elimination::kTs);
  Platform p = uniform_platform(1, 100.0, 1);
  SimResult r = simulate(g, all_on(g, 0), p, 1, 1, SimOptions{});
  EXPECT_NEAR(r.makespan_s, 100e-6, 1e-12);
  EXPECT_EQ(r.tasks, 1);
  EXPECT_EQ(r.transfers, 0);
}

TEST(Des, ChainSerializesOnOneDevice) {
  // 2x1 TS grid: GEQRT -> TSQRT chain of 2 tasks.
  dag::TaskGraph g = dag::build_tiled_qr_graph(2, 1, Elimination::kTs);
  ASSERT_EQ(g.size(), 2u);
  Platform p = uniform_platform(1, 50.0, 4);
  SimResult r = simulate(g, all_on(g, 0), p, 2, 1, SimOptions{});
  EXPECT_NEAR(r.makespan_s, 100e-6, 1e-12);
}

TEST(Des, SlotsBoundConcurrency) {
  // TT panel of an 8x1 grid: 8 independent GEQRTs then a 3-level tree.
  dag::TaskGraph g = dag::build_tiled_qr_graph(8, 1, Elimination::kTt);
  Platform p1 = uniform_platform(1, 10.0, 1);
  Platform p8 = uniform_platform(1, 10.0, 8);
  SimResult serial = simulate(g, all_on(g, 0), p1, 8, 1, SimOptions{});
  SimResult wide = simulate(g, all_on(g, 0), p8, 8, 1, SimOptions{});
  // Serial: 15 tasks x 10us. Wide: 8 parallel geqrt (10) + tree 4+2+1 (30).
  EXPECT_NEAR(serial.makespan_s, 150e-6, 1e-12);
  EXPECT_NEAR(wide.makespan_s, 40e-6, 1e-12);
}

TEST(Des, BusySecondsEqualSumOfKernelTimes) {
  dag::TaskGraph g = dag::build_tiled_qr_graph(4, 4, Elimination::kTs);
  Platform p = uniform_platform(2, 25.0, 4);
  std::vector<std::uint8_t> assign(g.size());
  for (std::size_t t = 0; t < g.size(); ++t) assign[t] = t % 2;
  SimResult r = simulate(g, assign, p, 4, 4, SimOptions{});
  EXPECT_NEAR(r.total_busy_s(), g.size() * 25e-6, 1e-9);
  EXPECT_GT(r.busy_s[0], 0);
  EXPECT_GT(r.busy_s[1], 0);
}

TEST(Des, StepBusyPartitionsTotal) {
  dag::TaskGraph g = dag::build_tiled_qr_graph(5, 5, Elimination::kTt);
  Platform p = uniform_platform(1, 10.0, 16);
  SimResult r = simulate(g, all_on(g, 0), p, 5, 5, SimOptions{});
  const double steps = r.step_busy_s[0] + r.step_busy_s[1] +
                       r.step_busy_s[2] + r.step_busy_s[3];
  EXPECT_NEAR(steps, r.total_busy_s(), 1e-9);
  for (double s : r.step_busy_s) EXPECT_GT(s, 0);
}

TEST(Des, NoTransfersOnSingleDevice) {
  dag::TaskGraph g = dag::build_tiled_qr_graph(4, 4, Elimination::kTt);
  Platform p = uniform_platform(1, 10.0, 4);
  SimResult r = simulate(g, all_on(g, 0), p, 4, 4, SimOptions{});
  EXPECT_EQ(r.transfers, 0);
  EXPECT_EQ(r.bytes_moved, 0);
  EXPECT_DOUBLE_EQ(r.comm_s, 0.0);
}

TEST(Des, CrossDeviceAssignmentMovesBytes) {
  dag::TaskGraph g = dag::build_tiled_qr_graph(4, 4, Elimination::kTs);
  Platform p = uniform_platform(2, 10.0, 4);
  p.comm = CommModel{1.0, 1.0, true};
  // Panel work on device 0, all updates on device 1.
  std::vector<std::uint8_t> assign(g.size());
  for (std::size_t t = 0; t < g.size(); ++t) {
    const auto step = dag::step_of(g.task(t).op);
    assign[t] = (step == dag::Step::kTriangulation ||
                 step == dag::Step::kElimination)
                    ? 0
                    : 1;
  }
  SimOptions opts;
  opts.tile_size = 16;
  opts.element_bytes = 4;
  SimResult r = simulate(g, assign, p, 4, 4, opts);
  EXPECT_GT(r.transfers, 0);
  EXPECT_GT(r.bytes_moved, 0);
  EXPECT_GT(r.comm_s, 0.0);
  // Every transfer is a whole number of 1KB tiles.
  EXPECT_EQ(r.bytes_moved % (16 * 16 * 4), 0);
}

TEST(Des, CommCostIncreasesMakespan) {
  dag::TaskGraph g = dag::build_tiled_qr_graph(6, 6, Elimination::kTs);
  Platform cheap = uniform_platform(2, 10.0, 4);
  Platform pricey = uniform_platform(2, 10.0, 4);
  pricey.comm = CommModel{100.0, 0.001, true};
  std::vector<std::uint8_t> assign(g.size());
  for (std::size_t t = 0; t < g.size(); ++t) assign[t] = g.task(t).j >= 0 ? (g.task(t).j % 2) : 0;
  SimResult fast = simulate(g, assign, cheap, 6, 6, SimOptions{});
  SimResult slow = simulate(g, assign, pricey, 6, 6, SimOptions{});
  EXPECT_GT(slow.makespan_s, fast.makespan_s);
  EXPECT_GT(slow.comm_fraction(), fast.comm_fraction());
}

TEST(Des, FasterSecondDeviceShortensMakespan) {
  dag::TaskGraph g = dag::build_tiled_qr_graph(6, 6, Elimination::kTt);
  Platform one = uniform_platform(1, 20.0, 2);
  Platform two = uniform_platform(2, 20.0, 2);
  std::vector<std::uint8_t> split(g.size());
  for (std::size_t t = 0; t < g.size(); ++t)
    split[t] = g.task(t).j >= 0 ? (g.task(t).j % 2) : 0;
  SimResult r1 = simulate(g, all_on(g, 0), one, 6, 6, SimOptions{});
  SimResult r2 = simulate(g, split, two, 6, 6, SimOptions{});
  EXPECT_LT(r2.makespan_s, r1.makespan_s);
}

TEST(Des, MakespanAtLeastCriticalPathAndAtMostSerial) {
  dag::TaskGraph g = dag::build_tiled_qr_graph(5, 5, Elimination::kTs);
  Platform p = uniform_platform(1, 10.0, 8);
  SimResult r = simulate(g, all_on(g, 0), p, 5, 5, SimOptions{});
  const double cp = g.critical_path([](const dag::Task&) { return 10e-6; });
  EXPECT_GE(r.makespan_s, cp - 1e-12);
  EXPECT_LE(r.makespan_s, g.size() * 10e-6 + 1e-12);
}

TEST(Des, DeterministicAcrossRuns) {
  dag::TaskGraph g = dag::build_tiled_qr_graph(6, 6, Elimination::kTt);
  Platform p = uniform_platform(3, 13.0, 4);
  p.comm = CommModel{2.0, 3.0, true};
  std::vector<std::uint8_t> assign(g.size());
  for (std::size_t t = 0; t < g.size(); ++t)
    assign[t] = g.task(t).j >= 0 ? (g.task(t).j % 3) : 0;
  SimResult a = simulate(g, assign, p, 6, 6, SimOptions{});
  SimResult b = simulate(g, assign, p, 6, 6, SimOptions{});
  EXPECT_DOUBLE_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.transfers, b.transfers);
}

TEST(Des, TraceCoversAllTasksWithConsistentIntervals) {
  dag::TaskGraph g = dag::build_tiled_qr_graph(4, 4, Elimination::kTs);
  Platform p = uniform_platform(2, 10.0, 2);
  runtime::Trace trace;
  SimOptions opts;
  opts.trace = &trace;
  std::vector<std::uint8_t> assign(g.size());
  for (std::size_t t = 0; t < g.size(); ++t) assign[t] = t % 2;
  SimResult r = simulate(g, assign, p, 4, 4, opts);
  ASSERT_EQ(trace.events().size(), g.size());
  for (const auto& e : trace.events()) {
    EXPECT_GE(e.start_s, 0.0);
    EXPECT_GT(e.end_s, e.start_s);
    EXPECT_LE(e.end_s, r.makespan_s + 1e-12);
    EXPECT_EQ(e.device, assign[static_cast<std::size_t>(e.task)]);
  }
}

TEST(Des, AssignmentSizeMismatchRejected) {
  dag::TaskGraph g = dag::build_tiled_qr_graph(2, 2, Elimination::kTs);
  Platform p = uniform_platform(1, 10.0, 1);
  std::vector<std::uint8_t> bad(g.size() - 1, 0);
  EXPECT_THROW(simulate(g, bad, p, 2, 2, SimOptions{}),
               tqr::InvalidArgument);
}

}  // namespace
}  // namespace tqr::sim

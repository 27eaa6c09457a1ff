// Randomized consistency fuzzing: for random task graphs over random tile
// accesses, the threaded executor and the discrete-event simulator must both
// respect every dependence the builder inferred, and a sequential replay of
// shared-counter increments must match the parallel one. This guards the
// dependence analysis and both schedulers against each other.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>

#include "common/rng.hpp"
#include "dag/graph.hpp"
#include "runtime/dag_executor.hpp"
#include "sim/des.hpp"

namespace tqr {
namespace {

using dag::Task;
using dag::task_id;
using Builder = dag::TaskGraph::Builder;
using Mode = Builder::Mode;

/// Builds a random graph over a small tile grid; returns the graph plus the
/// access list per task so the test can replay writes.
struct FuzzCase {
  dag::TaskGraph graph;
  // Per task: list of (resource index 0..R-1, writes?).
  std::vector<std::vector<std::pair<int, bool>>> accesses;
  int resources;
};

FuzzCase make_case(std::uint64_t seed, int n_tasks) {
  const int grid = 3;
  Builder b(grid, grid);
  Rng rng(seed);
  FuzzCase fc{dag::TaskGraph{}, {}, 4 * grid * grid};
  std::vector<std::vector<std::pair<int, bool>>> accs;
  for (int t = 0; t < n_tasks; ++t) {
    // Coordinates must stay inside the tile grid: the simulator's transfer
    // model dereferences the tiles named by (k, i, p, j).
    Task task;
    task.op = static_cast<dag::Op>(rng.next_below(6));
    task.k = static_cast<std::int16_t>(rng.next_below(grid));
    task.i = static_cast<std::int16_t>(rng.next_below(grid));
    task.p = static_cast<std::int16_t>(rng.next_below(grid));
    task.j = static_cast<std::int16_t>(rng.next_below(grid));
    const int n_acc = 1 + static_cast<int>(rng.next_below(3));
    std::vector<Builder::Access> access;
    std::vector<std::pair<int, bool>> recorded;
    for (int a = 0; a < n_acc; ++a) {
      const int i = static_cast<int>(rng.next_below(grid));
      const int j = static_cast<int>(rng.next_below(grid));
      const int kind = static_cast<int>(rng.next_below(4));
      int res = 0;
      switch (kind) {
        case 0: res = b.upper(i, j); break;
        case 1: res = b.lower(i, j); break;
        case 2: res = b.t_geqrt(i, j); break;
        default: res = b.t_elim(i, j); break;
      }
      const int mode = static_cast<int>(rng.next_below(3));
      const Mode m = mode == 0 ? Mode::kRead
                               : (mode == 1 ? Mode::kWrite : Mode::kReadWrite);
      access.push_back({res, m});
      recorded.push_back({res, m != Mode::kRead});
    }
    b.add_task(task, {access.begin(), access.end()});
    accs.push_back(std::move(recorded));
  }
  fc.graph = std::move(b).build();
  fc.accesses = std::move(accs);
  return fc;
}

class ConsistencyFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ConsistencyFuzz, GraphIsValidTopologicalDag) {
  const FuzzCase fc = make_case(1000 + GetParam(), 60);
  EXPECT_TRUE(fc.graph.validate());
}

TEST_P(ConsistencyFuzz, ParallelWriteHistoryMatchesSequential) {
  // Each write appends the task id to its resource's history. Dependences
  // must force every pair of conflicting writes into the same order as the
  // sequential replay.
  const FuzzCase fc = make_case(2000 + GetParam(), 80);

  std::vector<std::vector<int>> sequential(fc.resources);
  for (task_id t = 0; t < static_cast<task_id>(fc.graph.size()); ++t)
    for (const auto& [res, writes] : fc.accesses[t])
      if (writes) sequential[res].push_back(t);

  for (int trial = 0; trial < 3; ++trial) {
    std::vector<std::vector<int>> parallel(fc.resources);
    std::mutex m;
    runtime::DagExecutor::Options opts;
    opts.threads_per_device = {6};
    runtime::DagExecutor engine(opts);
    engine.execute(
        fc.graph, [](task_id, const Task&) { return 0; },
        [&](task_id t, const Task&, int) {
          std::lock_guard<std::mutex> lock(m);
          for (const auto& [res, writes] : fc.accesses[t])
            if (writes) parallel[res].push_back(t);
        });
    EXPECT_EQ(parallel, sequential) << "trial " << trial;
  }
}

TEST_P(ConsistencyFuzz, SimulatorRespectsEveryDependence) {
  const FuzzCase fc = make_case(3000 + GetParam(), 80);
  sim::Platform p;
  for (int d = 0; d < 3; ++d) {
    sim::DeviceSpec dev = sim::make_gtx580();
    dev.slots = 2;
    p.devices.push_back(dev);
  }
  std::vector<std::uint8_t> assign(fc.graph.size());
  Rng rng(4000 + GetParam());
  for (auto& a : assign) a = static_cast<std::uint8_t>(rng.next_below(3));
  runtime::Trace trace;
  sim::SimOptions opts;
  opts.trace = &trace;
  opts.time_jitter = 0.3;  // noise must not break ordering
  sim::simulate(fc.graph, assign, p, 3, 3, opts);
  std::vector<double> start(fc.graph.size()), end(fc.graph.size());
  for (const auto& e : trace.events()) {
    start[e.task] = e.start_s;
    end[e.task] = e.end_s;
  }
  for (task_id t = 0; t < static_cast<task_id>(fc.graph.size()); ++t)
    for (auto it = fc.graph.predecessors_begin(t);
         it != fc.graph.predecessors_end(t); ++it)
      EXPECT_GE(start[t], end[*it] - 1e-15)
          << "task " << t << " started before dep " << *it;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConsistencyFuzz, ::testing::Range(0, 8));

}  // namespace
}  // namespace tqr

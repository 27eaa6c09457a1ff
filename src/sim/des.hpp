// Discrete-event simulation of a tiled QR schedule on a modeled platform.
//
// Executes a TaskGraph under a fixed task->device assignment:
//  - each device is a multi-server queue with `slots` concurrent kernels;
//  - within a device, ready tasks are served lowest-task-id-first (panel
//    order, a critical-path-friendly priority);
//  - data moves at whole-tile granularity with MSI-style copy tracking:
//    a task pulls every input tile its device does not hold; pulls from the
//    same source at one scheduling point coalesce into one transfer; writes
//    invalidate remote copies;
//  - transfers serialize on the shared PCIe bus (CommModel), matching the
//    additive communication model of the paper's Eq. 11.
//
// The simulator is purely timing — no numerics. Functional execution of the
// same task graph is the job of core::TiledQrFactorization (sequential) and
// runtime::DagExecutor (threaded, no device routing).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "dag/graph.hpp"
#include "runtime/trace.hpp"
#include "sim/platform.hpp"

namespace tqr::sim {

/// Order in which a device serves its ready queue.
enum class QueuePolicy : std::uint8_t {
  kPanelOrder,    // lowest task id first (panel-major; the default)
  kFifo,          // insertion order (what a naive worker loop does)
  kCriticalPath,  // longest remaining weighted path first
};

/// Assignment value marking a task for dynamic (runtime) placement instead
/// of the static plan: the simulator assigns it at dispatch time to the
/// free device with the earliest estimated finish (greedy list scheduling,
/// the Agullo/StarPU-style alternative the paper's §VII contrasts with).
inline constexpr std::uint8_t kDynamicDevice = 0xFF;

struct SimOptions {
  int tile_size = 16;
  int element_bytes = 4;  // paper uses single precision
  QueuePolicy queue_policy = QueuePolicy::kPanelOrder;
  /// Per-dynamic-dispatch scheduling cost (the paper's "device monitoring
  /// overhead" argument against runtime placement). Only charged for tasks
  /// marked kDynamicDevice.
  double monitor_overhead_us = 5.0;
  /// Multiplicative kernel-time noise: each task's duration is scaled by a
  /// deterministic pseudo-random factor in [1 - jitter, 1 + jitter].
  /// Models run-to-run timing variability; used by the robustness study.
  double time_jitter = 0.0;
  std::uint64_t jitter_seed = 1;
  /// Optional trace sink for small runs (nullptr to skip).
  runtime::Trace* trace = nullptr;
};

struct SimResult {
  double makespan_s = 0;
  /// Kernel-busy seconds per device.
  std::vector<double> busy_s;
  /// Kernel-busy seconds per paper step (T, E, UT, UE).
  std::array<double, 4> step_busy_s{0, 0, 0, 0};
  /// Total bus occupancy (sum of transfer durations).
  double comm_s = 0;
  std::int64_t transfers = 0;
  std::int64_t bytes_moved = 0;
  std::int64_t tasks = 0;

  /// Total kernel-busy seconds over all devices.
  double total_busy_s() const {
    double t = 0;
    for (double b : busy_s) t += b;
    return t;
  }
  /// Communication share of the run: bus occupancy over the makespan — the
  /// paper's Fig. 5 "proportion normalized by the total operation time".
  double comm_fraction() const {
    return makespan_s > 0 ? comm_s / makespan_s : 0;
  }
  /// Communication share of total work (aggregate kernel seconds + bus
  /// seconds); a device-time-weighted alternative view.
  double comm_fraction_of_work() const {
    const double total = total_busy_s() + comm_s;
    return total > 0 ? comm_s / total : 0;
  }
};

/// Runs the simulation. `assignment[t]` is the device executing task t;
/// `mt`/`nt` give the tile grid (for the tile-location tables).
SimResult simulate(const dag::TaskGraph& graph,
                   const std::vector<std::uint8_t>& assignment,
                   const Platform& platform, std::int32_t mt, std::int32_t nt,
                   const SimOptions& options);

}  // namespace tqr::sim

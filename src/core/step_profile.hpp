// Per-device step timing profile: the time_i(op) quantities of Eq. 10.
//
// The paper measures these by microbenchmark (its Fig. 4); here they come
// from the device model, which plays the same role. `amortized` times are
// per-tile times at device saturation (kernel_time / slots) — the relevant
// quantity when a device processes a batch of independent tiles, which is
// how every step other than a lone kernel runs.
#pragma once

#include <algorithm>
#include <vector>

#include "dag/task.hpp"
#include "sim/platform.hpp"

namespace tqr::core {

struct StepTimes {
  double t = 0;   // triangulation (geqrt), seconds per tile
  double e = 0;   // elimination (ts/ttqrt)
  double ut = 0;  // update for triangulation (unmqr)
  double ue = 0;  // update for elimination (ts/ttmqr)

  double update_sum() const { return ut + ue; }
};

/// Profile of one device at a fixed tile size.
struct DeviceProfile {
  int device = -1;
  int slots = 1;        // concurrent kernels the device can serve
  StepTimes kernel;     // single-kernel times (Fig. 4 curves)
  StepTimes amortized;  // kernel / slots (saturated per-tile times)
  double update_throughput = 0;  // tiles per second, saturated
  /// Kernel inner block width the profile was measured/modeled at
  /// (0 = library default). A profile is only valid for schedules executed
  /// with the same ib; PlanConfig::inner_block carries it forward.
  la::index_t inner_block = 0;

  /// Time to process `tiles` independent kernels of per-kernel cost
  /// `kernel_s`: waves of min(tiles, slots) kernels. This is the honest
  /// batch estimate for small batches, where dividing by the full slot
  /// count would overstate the device.
  double batch_time_s(double tiles, double kernel_s) const {
    if (tiles <= 0) return 0;
    const double eff = std::min(tiles, static_cast<double>(slots));
    return tiles * kernel_s / eff;
  }
};

/// Profiles every device of the platform for tile size b and elimination
/// variant `elim` (TS and TT elimination kernels have different costs).
std::vector<DeviceProfile> profile_platform(const sim::Platform& platform,
                                            int b, dag::Elimination elim);

}  // namespace tqr::core

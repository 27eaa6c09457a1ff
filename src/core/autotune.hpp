// Measured step profiles — the paper's Fig. 4 methodology as a library
// feature.
//
// The scheduling algorithms (Alg. 2-4) consume per-device, per-step kernel
// times. On the simulated platform these come from the device model; for a
// *real* host deployment they must be measured. measure_host_profile() runs
// each tile kernel a few times on this machine and returns a DeviceProfile
// usable everywhere a modeled profile is (main selection, device count,
// guide ratios), which is exactly how the paper bootstrapped its numbers.
#pragma once

#include "core/step_profile.hpp"

namespace tqr::core {

struct MeasureOptions {
  int tile_size = 16;
  int repetitions = 5;   // per kernel; minimum is kept
  int slots = 1;         // concurrency the host device should be modeled at
  dag::Elimination elim = dag::Elimination::kTt;
  /// Inner block width for the tile kernels (0 = library default). Must
  /// match what execution will use — the measured profile is stamped with
  /// it (DeviceProfile::inner_block) so consumers can check.
  la::index_t inner_block = 0;
  std::uint64_t seed = 1234;
};

/// Measures the four step kernels on the calling host (single-threaded
/// kernels; `options.slots` models how many would run concurrently) and
/// returns a profile with device id `device_id`.
DeviceProfile measure_host_profile(int device_id,
                                   const MeasureOptions& options);

}  // namespace tqr::core

// Execution planning: turns (platform, matrix geometry, policy knobs) into a
// concrete schedule — main device, participating devices, per-column owners,
// and the task -> device routing shared by the real executor and the
// simulator.
//
// The default policy stack is the paper's: Algorithm 2 main selection,
// Algorithm 3 device-count optimization, Algorithm 4 guide-array column
// distribution. Every stage can be overridden for the baseline comparisons
// in the evaluation (Fig. 9 main-device variants, Table III fixed device
// counts, Fig. 10 distribution variants).
#pragma once

#include <cstdint>
#include <vector>

#include "core/device_count.hpp"
#include "core/guide_array.hpp"
#include "core/main_selection.hpp"
#include "core/step_profile.hpp"
#include "dag/graph.hpp"
#include "dag/tiled_qr_dag.hpp"
#include "sim/platform.hpp"

namespace tqr::core {

enum class MainPolicy : std::uint8_t {
  kAuto,   // Algorithm 2
  kFixed,  // config.fixed_main
  kNone,   // no dedicated main: each column's owner does its own T/E
};

enum class CountPolicy : std::uint8_t {
  kAuto,   // Algorithm 3
  kFixed,  // config.fixed_count devices from the head of the ordered list
  kAll,    // every device participates
};

enum class DistPolicy : std::uint8_t {
  kGuideArray,         // Algorithm 4 (the paper's method)
  kCoresProportional,  // Fig. 10 baseline: ratio = core counts
  kEven,               // Fig. 10 baseline: round-robin
  kBlock,              // ablation: contiguous blocks by throughput ratio
};

struct PlanConfig {
  int tile_size = 16;
  int element_bytes = 4;
  dag::Elimination elim = dag::Elimination::kTt;
  MainPolicy main_policy = MainPolicy::kAuto;
  int fixed_main = -1;
  CountPolicy count_policy = CountPolicy::kAuto;
  int fixed_count = -1;
  DistPolicy dist_policy = DistPolicy::kGuideArray;
  /// Row groups for Elimination::kHier (ignored otherwise); 0 = one group
  /// per platform node. Clamped to [1, mt].
  int hier_groups = 0;
  /// Inner block width `ib` the tile kernels will run with (0 = library
  /// default). Scheduling on the modeled platform is
  /// ib-agnostic, but the plan records the kernel configuration its timings
  /// assume so executors can read it back — keeping calibration and
  /// execution on the same kernel configuration by construction.
  la::index_t inner_block = 0;
};

/// A fully-resolved schedule for an mt x nt tile grid on a platform.
class Plan {
 public:
  /// Builds the plan; throws ConfigError on impossible configurations.
  Plan(const sim::Platform& platform, std::int32_t mt, std::int32_t nt,
       const PlanConfig& config);

  const PlanConfig& config() const { return config_; }
  int main_device() const { return main_device_; }
  /// Participating device ids; index 0 is the main device.
  const std::vector<int>& participants() const { return participants_; }
  /// Per tile column: index into participants().
  const std::vector<int>& column_owner() const { return column_owner_; }
  const std::vector<std::int64_t>& ratios() const { return ratios_; }
  const std::vector<int>& guide_array() const { return guide_array_; }
  /// Device-count optimizer diagnostics (empty unless CountPolicy::kAuto or
  /// explicitly computed).
  const DeviceCountChoice& count_choice() const { return count_choice_; }
  const MainSelection& main_selection() const { return main_selection_; }

  std::int32_t mt() const { return mt_; }
  std::int32_t nt() const { return nt_; }

  /// Resolved kHier row-group count (1 unless config.elim == kHier). Pass
  /// this to dag::build_tiled_qr_graph so routing matches graph structure.
  std::int32_t hier_groups() const { return hier_groups_; }
  /// Per-group panel device under kHier (empty otherwise); group 0's local
  /// main is the global main device.
  const std::vector<int>& hier_local_mains() const {
    return hier_local_main_;
  }

  /// Device executing a task: T/E -> main (or column owner under
  /// MainPolicy::kNone, or the row group's local main under kHier);
  /// UT/UE -> owner of target column j.
  int device_for(const dag::Task& task) const {
    const dag::Step step = dag::step_of(task.op);
    if (step == dag::Step::kTriangulation ||
        step == dag::Step::kElimination) {
      if (config_.elim == dag::Elimination::kHier) {
        // T factors row i; E combines row i into surviving row p. Routing
        // by the *surviving* row keeps the intra-group fold and the head's
        // side of the tree on its own node, so only the absorbed triangle
        // ever crosses the network.
        const std::int32_t row =
            step == dag::Step::kTriangulation ? task.i : task.p;
        return hier_local_main_[dag::hier_group_of(row, mt_, hier_groups_)];
      }
      if (config_.main_policy == MainPolicy::kNone)
        return participants_[column_owner_[task.k]];
      return main_device_;
    }
    return participants_[column_owner_[task.j]];
  }

  /// Materializes the per-task device assignment for a graph.
  std::vector<std::uint8_t> assignment(const dag::TaskGraph& graph) const;

  /// Human-readable one-line summary for logs/bench headers.
  std::string summary(const sim::Platform& platform) const;

  /// Per-participant device-memory footprint estimate: owned columns plus
  /// the transient panel working set (pulled reflectors). Addresses the
  /// paper's §VIII "very large matrix" concern — callers can check fits
  /// before launching.
  struct MemoryEstimate {
    int device = -1;
    std::size_t bytes_needed = 0;
    std::size_t capacity = 0;
    bool fits = true;
  };
  std::vector<MemoryEstimate> memory_estimates(
      const sim::Platform& platform) const;

  /// True when every participant's estimate fits its device memory.
  bool fits_in_memory(const sim::Platform& platform) const;

 private:
  PlanConfig config_;
  std::int32_t mt_ = 0, nt_ = 0;
  int main_device_ = -1;
  std::vector<int> participants_;
  std::vector<int> column_owner_;
  std::vector<std::int64_t> ratios_;
  std::vector<int> guide_array_;
  DeviceCountChoice count_choice_;
  MainSelection main_selection_;
  std::int32_t hier_groups_ = 1;
  std::vector<int> hier_local_main_;
};

}  // namespace tqr::core

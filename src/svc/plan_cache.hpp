// Memoization of the task graph per request shape: (shape, tile,
// elimination) -> dag::TaskGraph.
//
// Building a factorization's DAG runs full dependence analysis — fixed cost
// that is identical for every job of the same shape. The cache hands repeat
// shapes a shared immutable entry so steady-state jobs skip it entirely
// (PLASMA-lineage runtimes amortize the same way across calls). Entries are
// shared_ptr<const ...>: eviction never invalidates a graph a lane is
// executing.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "dag/graph.hpp"
#include "dag/task.hpp"
#include "la/matrix.hpp"

namespace tqr::svc {

/// Identity of a cacheable request: everything the task graph depends on.
/// No member defaults: every field comes from the job, so the default
/// elimination lives in one place (JobSpec::elim).
struct PlanKey {
  la::index_t rows;  // padded (tile-aligned) dimensions
  la::index_t cols;
  int tile_size;
  dag::Elimination elim;

  bool operator==(const PlanKey&) const = default;
};

struct PlanKeyHash {
  std::size_t operator()(const PlanKey& k) const {
    std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a
    auto mix = [&h](std::uint64_t v) {
      h ^= v;
      h *= 0x100000001b3ull;
    };
    mix(static_cast<std::uint64_t>(k.rows));
    mix(static_cast<std::uint64_t>(k.cols));
    mix(static_cast<std::uint64_t>(k.tile_size));
    mix(static_cast<std::uint64_t>(k.elim));
    return static_cast<std::size_t>(h);
  }
};

/// The factorization DAG of `key`'s padded tile grid.
dag::TaskGraph build_graph(const PlanKey& key);

/// Thread-safe LRU cache with hit/miss/eviction counters.
///
/// Concurrent misses on the same key may build the graph more than once
/// (builds run outside the lock so distinct shapes never serialize on each
/// other); the first insert wins and the losers adopt it, so callers always
/// share one graph per key afterwards.
class PlanCache {
 public:
  explicit PlanCache(std::size_t capacity);

  /// Returns the cached graph for `key`, building (and inserting) it with
  /// build_graph on a miss. `hit`, when non-null, reports whether this call
  /// was served from cache.
  std::shared_ptr<const dag::TaskGraph> get_or_build(const PlanKey& key,
                                                     bool* hit = nullptr);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::size_t size = 0;
    std::size_t capacity = 0;
    double hit_rate() const {
      const double total = static_cast<double>(hits + misses);
      return total > 0 ? static_cast<double>(hits) / total : 0.0;
    }
  };
  Stats stats() const;

  void clear();

 private:
  struct Slot {
    std::shared_ptr<const dag::TaskGraph> graph;
    std::list<PlanKey>::iterator lru_pos;
  };

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::unordered_map<PlanKey, Slot, PlanKeyHash> map_;
  std::list<PlanKey> lru_;  // front = most recently used
  std::uint64_t hits_ = 0, misses_ = 0, evictions_ = 0;
};

}  // namespace tqr::svc

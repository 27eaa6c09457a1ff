#include "svc/plan_cache.hpp"

#include "common/error.hpp"
#include "dag/tiled_qr_dag.hpp"

namespace tqr::svc {

dag::TaskGraph build_graph(const PlanKey& key) {
  return dag::build_tiled_qr_graph(key.rows / key.tile_size,
                                   key.cols / key.tile_size, key.elim);
}

PlanCache::PlanCache(std::size_t capacity) : capacity_(capacity) {
  TQR_REQUIRE(capacity > 0, "plan cache needs capacity >= 1");
}

std::shared_ptr<const dag::TaskGraph> PlanCache::get_or_build(
    const PlanKey& key, bool* hit) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = map_.find(key);
    if (it != map_.end()) {
      ++hits_;
      lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
      if (hit) *hit = true;
      return it->second.graph;
    }
    ++misses_;
  }
  if (hit) *hit = false;

  // Build outside the lock: one shape's build must not block lanes that
  // are hitting (or building) other shapes.
  auto graph = std::make_shared<const dag::TaskGraph>(build_graph(key));

  std::lock_guard<std::mutex> lock(mutex_);
  auto it = map_.find(key);
  if (it != map_.end()) {
    // A concurrent miss won the insert race; adopt its graph.
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    return it->second.graph;
  }
  lru_.push_front(key);
  map_.emplace(key, Slot{graph, lru_.begin()});
  while (map_.size() > capacity_) {
    map_.erase(lru_.back());
    lru_.pop_back();
    ++evictions_;
  }
  return graph;
}

PlanCache::Stats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.size = map_.size();
  s.capacity = capacity_;
  return s;
}

void PlanCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  map_.clear();
  lru_.clear();
}

}  // namespace tqr::svc

#include "svc/workspace_pool.hpp"

#include "common/error.hpp"
#include "la/kernels.hpp"

namespace tqr::svc {

void WorkspacePool::Lease::release() {
  if (pool_ && ws_) pool_->release(std::move(ws_), scrub_);
  pool_ = nullptr;
  ws_.reset();
  scrub_ = false;
}

void WorkspacePool::BatchLease::release() {
  if (pool_ && ws_) pool_->release_batch(std::move(ws_), scrub_);
  pool_ = nullptr;
  ws_.reset();
  scrub_ = false;
}

WorkspacePool::WorkspacePool(std::size_t max_retained_bytes)
    : max_retained_bytes_(max_retained_bytes) {}

WorkspacePool::Lease WorkspacePool::acquire(la::index_t rows, la::index_t cols,
                                            la::index_t b, la::index_t ib,
                                            bool fp32) {
  TQR_REQUIRE(rows > 0 && cols > 0 && b > 0 && rows % b == 0 && cols % b == 0,
              "workspace dimensions must be positive tile multiples");
  const ShapeKey key{rows, cols, b, la::inner_block_width(ib, b), fp32};
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = by_shape_.find(key);
    if (it != by_shape_.end() && !it->second.empty()) {
      auto free_it = it->second.front();
      it->second.pop_front();
      if (it->second.empty()) by_shape_.erase(it);
      std::unique_ptr<Workspace> ws = std::move(free_it->ws);
      stats_.bytes_retained -= ws->bytes();
      free_.erase(free_it);
      ++stats_.reused;
      ++stats_.outstanding;
      return Lease(this, std::move(ws));
    }
    ++stats_.allocated;
    ++stats_.outstanding;
  }
  // Allocate outside the lock; TiledMatrix zero-fills, which is the bulk of
  // the cost being amortized.
  auto ws = std::make_unique<Workspace>();
  ws->a = la::TiledMatrix<double>(rows, cols, b);
  ws->tg = la::t_plane<double>(rows, cols, b, ib);
  ws->te = la::t_plane<double>(rows, cols, b, ib);
  if (fp32) {
    ws->a32 = la::TiledMatrix<float>(rows, cols, b);
    ws->tg32 = la::t_plane<float>(rows, cols, b, ib);
    ws->te32 = la::t_plane<float>(rows, cols, b, ib);
  }
  return Lease(this, std::move(ws));
}

void WorkspacePool::release(std::unique_ptr<Workspace> ws, bool scrub) {
  const std::size_t bytes = ws->bytes();
  // A workspace over the cap is about to be freed, so its contents are
  // unreachable either way — only scrub (outside the lock; it is an O(m n)
  // pass) when the storage will actually be parked for reuse.
  if (scrub && bytes <= max_retained_bytes_) {
    ws->a.fill(0.0);
    ws->tg.fill(0.0);
    ws->te.fill(0.0);
    ws->a32.fill(0.0f);
    ws->tg32.fill(0.0f);
    ws->te32.fill(0.0f);
  }
  std::lock_guard<std::mutex> lock(mutex_);
  --stats_.outstanding;
  if (bytes > max_retained_bytes_) {  // covers the pooling-disabled case (0)
    ++stats_.dropped;
    return;
  }
  if (scrub) ++stats_.scrubbed;
  const ShapeKey key{ws->rows(), ws->cols(), ws->tile_size(), ws->t_rows(),
                     ws->fp32()};
  free_.push_front(FreeEntry{key, std::move(ws)});
  by_shape_[key].push_front(free_.begin());
  stats_.bytes_retained += bytes;
  evict_over_cap_locked(/*batch_first=*/false);
}

WorkspacePool::BatchLease WorkspacePool::acquire_batch(la::index_t rows,
                                                       la::index_t cols,
                                                       la::index_t problems) {
  TQR_REQUIRE(rows > 0 && cols > 0 && problems > 0,
              "batch workspace dimensions must be positive");
  const ShapeKey key{rows, cols, problems};
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = batch_by_shape_.find(key);
    if (it != batch_by_shape_.end() && !it->second.empty()) {
      auto free_it = it->second.front();
      it->second.pop_front();
      if (it->second.empty()) batch_by_shape_.erase(it);
      std::unique_ptr<BatchWorkspace> ws = std::move(free_it->ws);
      stats_.bytes_retained -= ws->bytes();
      batch_free_.erase(free_it);
      ++stats_.reused;
      ++stats_.outstanding;
      return BatchLease(this, std::move(ws));
    }
    ++stats_.allocated;
    ++stats_.outstanding;
  }
  auto ws = std::make_unique<BatchWorkspace>(
      BatchWorkspace{la::BatchMatrix<double>(rows, cols, problems),
                     la::BatchMatrix<double>(cols, 1, problems)});
  return BatchLease(this, std::move(ws));
}

void WorkspacePool::release_batch(std::unique_ptr<BatchWorkspace> ws,
                                  bool scrub) {
  const std::size_t bytes = ws->bytes();
  if (scrub && bytes <= max_retained_bytes_) {
    ws->vr.fill(0.0);
    ws->tau.fill(0.0);
  }
  std::lock_guard<std::mutex> lock(mutex_);
  --stats_.outstanding;
  if (bytes > max_retained_bytes_) {
    ++stats_.dropped;
    return;
  }
  if (scrub) ++stats_.scrubbed;
  const ShapeKey key{ws->rows(), ws->cols(), ws->problems()};
  batch_free_.push_front(BatchFreeEntry{key, std::move(ws)});
  batch_by_shape_[key].push_front(batch_free_.begin());
  stats_.bytes_retained += bytes;
  evict_over_cap_locked(/*batch_first=*/true);
}

void WorkspacePool::evict_over_cap_locked(bool batch_first) {
  auto evict_batch = [&] {
    while (stats_.bytes_retained > max_retained_bytes_ &&
           !batch_free_.empty()) {
      auto victim = std::prev(batch_free_.end());
      auto& shape_list = batch_by_shape_[victim->key];
      shape_list.remove(victim);
      if (shape_list.empty()) batch_by_shape_.erase(victim->key);
      stats_.bytes_retained -= victim->ws->bytes();
      batch_free_.erase(victim);
      ++stats_.dropped;
    }
  };
  auto evict_tiled = [&] {
    while (stats_.bytes_retained > max_retained_bytes_ && !free_.empty()) {
      auto victim = std::prev(free_.end());
      auto& shape_list = by_shape_[victim->key];
      shape_list.remove(victim);
      if (shape_list.empty()) by_shape_.erase(victim->key);
      stats_.bytes_retained -= victim->ws->bytes();
      free_.erase(victim);
      ++stats_.dropped;
    }
  };
  // Shed the releasing kind's own parked storage first, then the other's.
  if (batch_first) {
    evict_batch();
    evict_tiled();
  } else {
    evict_tiled();
    evict_batch();
  }
}

WorkspacePool::Stats WorkspacePool::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void WorkspacePool::trim() {
  std::lock_guard<std::mutex> lock(mutex_);
  free_.clear();
  by_shape_.clear();
  batch_free_.clear();
  batch_by_shape_.clear();
  stats_.bytes_retained = 0;
}

}  // namespace tqr::svc

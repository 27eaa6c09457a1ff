// Recycling pool for factorization tile workspaces.
//
// One QR job needs three tile-grid allocations: the rows x cols matrix tiles
// plus the two block-reflector planes (tg, te), which hold one compact
// nb x b factor per tile (la::t_plane; nb = la::inner_block_width(ib, b)).
// An fp32 job also leases the float twins of all three, which its kernels
// run on. In steady state a service sees the same few shapes over and over,
// so the pool keeps returned workspaces on a free list keyed by (rows, cols,
// tile, nb, precision) and hands them back on the next acquire — eliminating
// the allocate/zero/fault cost from the hot path. Retained bytes are capped;
// over the cap the least-recently-returned workspace is dropped (shapes that
// fell out of the traffic mix release their memory).
//
// Recycled storage from a *clean* job is not cleared: a job fully overwrites
// the matrix tiles when it loads its input, and the Q-replay only reads
// reflector tiles the factorization's own tasks wrote, so stale tg/te content
// is never observed. A failed, cancelled, or corruption-flagged job is
// different — its workspace may hold half-written or poisoned factors, and
// "never observed" now rests on the *failed* run's control flow, which is
// exactly what just proved untrustworthy. Such leases are marked
// scrub_on_release() and the pool zero-fills every plane before parking
// them, so the next acquire (including the same job's retry) starts from the
// same all-zero state a fresh allocation gives.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>

#include "la/batch_qr.hpp"
#include "la/tiled_matrix.hpp"

namespace tqr::svc {

class WorkspacePool {
 public:
  /// Tile storage for one factorization job.
  struct Workspace {
    la::TiledMatrix<double> a;   // matrix tiles (input, then factors)
    la::TiledMatrix<double> tg;  // geqrt block reflectors (compact)
    la::TiledMatrix<double> te;  // elimination block reflectors (compact)
    // fp32 leases only (empty otherwise): the planes the fp32 kernels factor
    // in, same shapes as a, tg and te.
    la::TiledMatrix<float> a32, tg32, te32;

    la::index_t rows() const { return a.rows(); }
    la::index_t cols() const { return a.cols(); }
    la::index_t tile_size() const { return a.tile_size(); }
    la::index_t t_rows() const { return tg.tile_height(); }  // nb
    bool fp32() const { return a32.size() > 0; }
    std::size_t bytes() const {
      return (a.size() + tg.size() + te.size()) * sizeof(double) +
             (a32.size() + tg32.size() + te32.size()) * sizeof(float);
    }
  };

  /// RAII handle; returns the workspace to the pool on destruction.
  class Lease {
   public:
    Lease() = default;
    Lease(WorkspacePool* pool, std::unique_ptr<Workspace> ws)
        : pool_(pool), ws_(std::move(ws)) {}
    ~Lease() { release(); }
    Lease(Lease&& other) noexcept
        : pool_(other.pool_),
          ws_(std::move(other.ws_)),
          scrub_(other.scrub_) {
      other.pool_ = nullptr;
      other.scrub_ = false;
    }
    Lease& operator=(Lease&& other) noexcept {
      if (this != &other) {
        release();
        pool_ = other.pool_;
        ws_ = std::move(other.ws_);
        scrub_ = other.scrub_;
        other.pool_ = nullptr;
        other.scrub_ = false;
      }
      return *this;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    Workspace& operator*() { return *ws_; }
    Workspace* operator->() { return ws_.get(); }
    explicit operator bool() const { return ws_ != nullptr; }

    /// When set, the pool zero-fills the workspace before parking it. The
    /// service arms this on acquire and disarms it only when the attempt
    /// completes cleanly, so every abnormal exit path (throw, cancel,
    /// verification failure) scrubs by default.
    void scrub_on_release(bool scrub) { scrub_ = scrub; }

   private:
    void release();
    WorkspacePool* pool_ = nullptr;
    std::unique_ptr<Workspace> ws_;
    bool scrub_ = false;
  };

  /// max_retained_bytes caps memory parked on the free lists (leased
  /// workspaces are not counted). 0 disables recycling entirely: every
  /// acquire allocates and every release frees — the cold-allocation
  /// baseline the serve bench compares against.
  explicit WorkspacePool(std::size_t max_retained_bytes);

  /// Hands out a workspace for a rows x cols grid with tile size b whose
  /// T planes fit factors run with inner block `ib` (<= 0 = la::kPanelBase),
  /// plus the float planes when `fp32`; recycled when a matching one is
  /// parked, freshly allocated otherwise.
  Lease acquire(la::index_t rows, la::index_t cols, la::index_t b,
                la::index_t ib = 0, bool fp32 = false);

  /// Chunk-interleaved storage for one batched job (la/batch_qr.hpp): the
  /// factor plane (R upper / V lower per lane) plus the tau plane. fp64 —
  /// fp32 batched jobs factor in transient float planes and widen into it.
  struct BatchWorkspace {
    la::BatchMatrix<double> vr;   // rows x cols x problems
    la::BatchMatrix<double> tau;  // cols x 1 x problems

    la::index_t rows() const { return vr.rows(); }
    la::index_t cols() const { return vr.cols(); }
    la::index_t problems() const { return vr.problems(); }
    std::size_t bytes() const {
      return (vr.size() + tau.size()) * sizeof(double);
    }
  };

  /// RAII handle for a BatchWorkspace; same parking/scrub contract as Lease.
  class BatchLease {
   public:
    BatchLease() = default;
    BatchLease(WorkspacePool* pool, std::unique_ptr<BatchWorkspace> ws)
        : pool_(pool), ws_(std::move(ws)) {}
    ~BatchLease() { release(); }
    BatchLease(BatchLease&& other) noexcept
        : pool_(other.pool_),
          ws_(std::move(other.ws_)),
          scrub_(other.scrub_) {
      other.pool_ = nullptr;
      other.scrub_ = false;
    }
    BatchLease& operator=(BatchLease&& other) noexcept {
      if (this != &other) {
        release();
        pool_ = other.pool_;
        ws_ = std::move(other.ws_);
        scrub_ = other.scrub_;
        other.pool_ = nullptr;
        other.scrub_ = false;
      }
      return *this;
    }
    BatchLease(const BatchLease&) = delete;
    BatchLease& operator=(const BatchLease&) = delete;

    BatchWorkspace& operator*() { return *ws_; }
    BatchWorkspace* operator->() { return ws_.get(); }
    explicit operator bool() const { return ws_ != nullptr; }

    void scrub_on_release(bool scrub) { scrub_ = scrub; }

   private:
    void release();
    WorkspacePool* pool_ = nullptr;
    std::unique_ptr<BatchWorkspace> ws_;
    bool scrub_ = false;
  };

  /// One lease per batched job: rows x cols x problems interleaved factor
  /// storage, recycled by exact shape. Shares the retained-byte cap and
  /// Stats counters with the tiled workspaces.
  BatchLease acquire_batch(la::index_t rows, la::index_t cols,
                           la::index_t problems);

  struct Stats {
    std::uint64_t allocated = 0;  // fresh workspace builds
    std::uint64_t reused = 0;     // acquires served from the free list
    std::uint64_t dropped = 0;    // releases discarded over the byte cap
    std::uint64_t scrubbed = 0;   // releases zero-filled (abnormal exits)
    std::size_t bytes_retained = 0;
    std::size_t outstanding = 0;  // leases currently held
  };
  Stats stats() const;

  /// Frees everything parked on the free lists.
  void trim();

 private:
  friend class Lease;
  friend class BatchLease;
  struct ShapeKey {
    la::index_t rows, cols, b;
    la::index_t nb = 0;  // T plane tile height (tiled leases only)
    bool fp32 = false;
    auto operator<=>(const ShapeKey&) const = default;
  };
  struct FreeEntry {
    ShapeKey key;
    std::unique_ptr<Workspace> ws;
  };
  struct BatchFreeEntry {
    ShapeKey key;  // b slot carries the problem count
    std::unique_ptr<BatchWorkspace> ws;
  };

  void release(std::unique_ptr<Workspace> ws, bool scrub);
  void release_batch(std::unique_ptr<BatchWorkspace> ws, bool scrub);
  /// Drops least-recently-returned parked storage (own-kind list first)
  /// until retained bytes fit the cap again; mutex_ held.
  void evict_over_cap_locked(bool batch_first);

  const std::size_t max_retained_bytes_;
  mutable std::mutex mutex_;
  /// Front = most recently returned; eviction pops from the back.
  std::list<FreeEntry> free_;
  std::map<ShapeKey, std::list<std::list<FreeEntry>::iterator>> by_shape_;
  std::list<BatchFreeEntry> batch_free_;
  std::map<ShapeKey, std::list<std::list<BatchFreeEntry>::iterator>>
      batch_by_shape_;
  Stats stats_;
};

}  // namespace tqr::svc

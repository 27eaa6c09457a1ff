#include "svc/workspace_pool.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace tqr::svc {
namespace {

constexpr std::size_t kMB = std::size_t{1} << 20;

TEST(WorkspacePool, AcquireAllocatesCorrectShapes) {
  WorkspacePool pool(64 * kMB);
  auto ws = pool.acquire(64, 32, 16);
  EXPECT_EQ(ws->a.rows(), 64);
  EXPECT_EQ(ws->a.cols(), 32);
  EXPECT_EQ(ws->tg.tile_size(), 16);
  EXPECT_EQ(ws->te.rows(), 64);
  EXPECT_EQ(pool.stats().allocated, 1u);
  EXPECT_EQ(pool.stats().outstanding, 1u);
}

TEST(WorkspacePool, LeaseHoldsAPlusTwoCompactTPlanes) {
  // An 8192 x 256 job at b = 128, ib = 32: A (16 MiB) plus two T planes of
  // one 32 x 128 factor per tile (4 MiB each), 25.2 MB in all — not three
  // full 16 MiB planes (50.3 MB).
  WorkspacePool pool(256 * kMB);
  auto ws = pool.acquire(8192, 256, 128, 32);
  EXPECT_EQ(ws->tg.tile_height(), 32);
  EXPECT_EQ(ws->te.tile_size(), 128);
  EXPECT_EQ(ws->te.rows(), 64 * 32);
  EXPECT_EQ(ws->te.cols(), 256);
  EXPECT_FALSE(ws->fp32());
  const std::size_t a_bytes = std::size_t{8192} * 256 * sizeof(double);
  const std::size_t t_bytes = std::size_t{64} * 2 * 32 * 128 * sizeof(double);
  EXPECT_EQ(ws->bytes(), a_bytes + 2 * t_bytes);
  EXPECT_EQ(ws->bytes(), 25165824u);

  // fp32 leases add the float twins of all three planes.
  auto ws32 = pool.acquire(8192, 256, 128, 32, /*fp32=*/true);
  EXPECT_TRUE(ws32->fp32());
  EXPECT_EQ(ws32->tg32.tile_height(), 32);
  EXPECT_EQ(ws32->bytes(), 25165824u + 25165824u / 2);
}

TEST(WorkspacePool, InnerBlockAndPrecisionArePartOfTheShape) {
  WorkspacePool pool(64 * kMB);
  { auto ws = pool.acquire(64, 64, 32, 8); }
  { auto ws = pool.acquire(64, 64, 32, 16); }  // other nb: fresh
  { auto ws = pool.acquire(64, 64, 32, 8, /*fp32=*/true); }  // fresh
  EXPECT_EQ(pool.stats().allocated, 3u);
  auto ws = pool.acquire(64, 64, 32, 8);
  EXPECT_EQ(pool.stats().reused, 1u);
  EXPECT_EQ(ws->tg.tile_height(), 8);
  EXPECT_FALSE(ws->fp32());
}

TEST(WorkspacePool, ReleaseThenAcquireRecycles) {
  WorkspacePool pool(64 * kMB);
  double* data = nullptr;
  {
    auto ws = pool.acquire(64, 64, 16);
    data = ws->a.tile_data(0, 0);
  }
  EXPECT_GT(pool.stats().bytes_retained, 0u);
  auto ws = pool.acquire(64, 64, 16);
  EXPECT_EQ(ws->a.tile_data(0, 0), data);  // same storage came back
  EXPECT_EQ(pool.stats().reused, 1u);
  EXPECT_EQ(pool.stats().allocated, 1u);
}

TEST(WorkspacePool, MismatchedShapeAllocatesFresh) {
  WorkspacePool pool(64 * kMB);
  { auto ws = pool.acquire(64, 64, 16); }
  auto ws = pool.acquire(128, 64, 16);
  EXPECT_EQ(pool.stats().reused, 0u);
  EXPECT_EQ(pool.stats().allocated, 2u);
}

TEST(WorkspacePool, ByteCapDropsOverflow) {
  // One 64x64 double workspace = 3 * 64*64*8 = 96 KiB. Cap at ~one.
  // Both leases must be live at once so two allocations exist; releasing
  // the second pushes retained bytes over the cap.
  WorkspacePool pool(100 * 1024);
  {
    auto a = pool.acquire(64, 64, 16);
    auto b = pool.acquire(64, 64, 16);
  }
  const auto s = pool.stats();
  EXPECT_EQ(s.allocated, 2u);
  EXPECT_EQ(s.dropped, 1u);
  EXPECT_LE(s.bytes_retained, 100u * 1024u);
}

TEST(WorkspacePool, ZeroCapDisablesRecycling) {
  WorkspacePool pool(0);
  { auto ws = pool.acquire(64, 64, 16); }
  EXPECT_EQ(pool.stats().bytes_retained, 0u);
  EXPECT_EQ(pool.stats().dropped, 1u);
  auto ws = pool.acquire(64, 64, 16);
  EXPECT_EQ(pool.stats().reused, 0u);
  EXPECT_EQ(pool.stats().allocated, 2u);
}

TEST(WorkspacePool, TrimFreesParkedMemory) {
  WorkspacePool pool(64 * kMB);
  { auto ws = pool.acquire(64, 64, 16); }
  EXPECT_GT(pool.stats().bytes_retained, 0u);
  pool.trim();
  EXPECT_EQ(pool.stats().bytes_retained, 0u);
  // Next acquire is a fresh allocation.
  auto ws = pool.acquire(64, 64, 16);
  EXPECT_EQ(pool.stats().reused, 0u);
}

TEST(WorkspacePool, LeaseMoveTransfersOwnership) {
  WorkspacePool pool(64 * kMB);
  auto a = pool.acquire(64, 64, 16);
  WorkspacePool::Lease b = std::move(a);
  EXPECT_FALSE(a);
  EXPECT_TRUE(b);
  EXPECT_EQ(pool.stats().outstanding, 1u);
}

TEST(WorkspacePool, InvalidShapeRejected) {
  WorkspacePool pool(64 * kMB);
  EXPECT_THROW(pool.acquire(60, 64, 16), tqr::InvalidArgument);
  EXPECT_THROW(pool.acquire(0, 64, 16), tqr::InvalidArgument);
}

TEST(WorkspacePool, OversizedWorkspaceDroppedNotParked) {
  // Cap (200 KiB) holds a 64x64 workspace (96 KiB) but not a 128x128 one
  // (384 KiB): the small one stays parked, the big one is dropped outright.
  WorkspacePool pool(200 * 1024);
  { auto a = pool.acquire(64, 64, 16); }
  { auto b = pool.acquire(128, 128, 16); }
  const auto s = pool.stats();
  EXPECT_EQ(s.dropped, 1u);
  EXPECT_EQ(s.bytes_retained, 3u * 64u * 64u * sizeof(double));
  // The parked 64x64 is still recyclable.
  auto c = pool.acquire(64, 64, 16);
  EXPECT_EQ(pool.stats().reused, 1u);
}

TEST(WorkspacePool, ScrubOnReleaseZeroFillsRecycledStorage) {
  // A failed/cancelled/corrupted job's lease is marked for scrubbing: the
  // recycled workspace must come back all-zero in every plane, exactly like
  // a fresh allocation, so poisoned factors cannot leak into the next job.
  WorkspacePool pool(64 * kMB);
  double* data = nullptr;
  {
    auto ws = pool.acquire(64, 64, 16);
    data = ws->a.tile_data(0, 0);
    ws->a.tile(0, 0)(3, 3) = 1e30;  // "poisoned" content
    ws->tg.tile(0, 0)(0, 0) = 7.0;
    ws->te.tile(1, 0)(5, 5) = -2.5;
    ws.scrub_on_release(true);
  }
  EXPECT_EQ(pool.stats().scrubbed, 1u);
  auto ws = pool.acquire(64, 64, 16);
  ASSERT_EQ(ws->a.tile_data(0, 0), data);  // same storage, recycled
  EXPECT_EQ(pool.stats().reused, 1u);
  EXPECT_EQ(ws->a.tile(0, 0)(3, 3), 0.0);
  EXPECT_EQ(ws->tg.tile(0, 0)(0, 0), 0.0);
  EXPECT_EQ(ws->te.tile(1, 0)(5, 5), 0.0);
}

TEST(WorkspacePool, CleanReleaseSkipsScrub) {
  WorkspacePool pool(64 * kMB);
  {
    auto ws = pool.acquire(64, 64, 16);
    ws->a.tile(0, 0)(1, 1) = 4.0;
  }  // default: no scrub (clean jobs fully overwrite their input anyway)
  EXPECT_EQ(pool.stats().scrubbed, 0u);
  auto ws = pool.acquire(64, 64, 16);
  EXPECT_EQ(ws->a.tile(0, 0)(1, 1), 4.0);  // stale content is tolerated
}

TEST(WorkspacePool, ScrubDisarmedByCleanFinishAndMovedWithLease) {
  WorkspacePool pool(64 * kMB);
  {
    auto ws = pool.acquire(64, 64, 16);
    ws->a.tile(0, 0)(0, 0) = 9.0;
    ws.scrub_on_release(true);
    WorkspacePool::Lease moved = std::move(ws);  // scrub intent must travel
    moved.scrub_on_release(false);               // ... and be revocable
  }
  EXPECT_EQ(pool.stats().scrubbed, 0u);
  auto ws = pool.acquire(64, 64, 16);
  EXPECT_EQ(ws->a.tile(0, 0)(0, 0), 9.0);
}

TEST(WorkspacePool, LeasedTileStorageIsAligned) {
  // Tile kernels run SIMD loads against leased workspaces, so every plane of
  // a fresh AND a recycled lease must sit on kMatrixAlignment boundaries.
  WorkspacePool pool(64u << 20);
  for (int round = 0; round < 2; ++round) {  // fresh, then recycled
    auto ws = pool.acquire(64, 32, 16);
    EXPECT_TRUE(la::is_matrix_aligned(ws->a.tile_data(0, 0)));
    EXPECT_TRUE(la::is_matrix_aligned(ws->tg.tile_data(0, 0)));
    EXPECT_TRUE(la::is_matrix_aligned(ws->te.tile_data(0, 0)));
  }
  EXPECT_EQ(pool.stats().reused, 1u);
}

}  // namespace
}  // namespace tqr::svc

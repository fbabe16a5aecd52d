#include <gtest/gtest.h>

#include <cstdint>

#include "rt/for_each.hpp"
#include "rt/host_backend.hpp"
#include "rt/parallel.hpp"

namespace pblpar::rt {
namespace {

TEST(PoolSnapshotTest, CountsRegionsWorkersAndIdleState) {
  const PoolSnapshot before = pool_snapshot();
  parallel(ParallelConfig::host(4), [](TeamContext&) {});
  parallel(ParallelConfig::host(4), [](TeamContext&) {});
  const PoolSnapshot after = pool_snapshot();
  EXPECT_GE(after.pooled_regions + after.spawned_regions,
            before.pooled_regions + before.spawned_regions + 2);
  // A 4-wide pooled region spawns (at least) 3 persistent workers.
  EXPECT_GE(after.workers, 3);
  // No traced region is running, so the live cut reports inactive.
  EXPECT_FALSE(after.live.active);
  EXPECT_EQ(after.live.iterations, 0);
}

TEST(PoolSnapshotTest, LiveTotalsGiveCoherentCutOfTracedRegion) {
  constexpr std::int64_t kIterations = 1000;
  ParallelConfig config = ParallelConfig::host(2).traced();
  LiveTotals seen;
  parallel(config, [&](TeamContext& tc) {
    for_each(tc, Range::upto(kIterations), Schedule::dynamic(64),
             [](std::int64_t) {});
    // The for_each end barrier published every chunk's counters; the
    // other member may still be mid-publish of its barrier counter, so
    // retry the wait-free sample until a coherent cut lands.
    if (tc.thread_num() == 0) {
      seen = pool_snapshot().live;
      for (int attempt = 0; attempt < 100 && !seen.coherent; ++attempt) {
        seen = pool_snapshot().live;
      }
    }
    tc.barrier();
  });
  EXPECT_TRUE(seen.active);
  EXPECT_TRUE(seen.coherent);
  EXPECT_EQ(seen.num_threads, 2);
  EXPECT_EQ(seen.iterations, kIterations);
  EXPECT_GT(seen.chunks, 0u);
  EXPECT_EQ(seen.spills, 0u);
  EXPECT_EQ(seen.merges, 0u);
  // The region has ended, so the observer must have let go.
  EXPECT_FALSE(pool_snapshot().live.active);
}

TEST(PoolSnapshotTest, SnapshotNeverBlocksUntracedRegions) {
  // Untraced regions never attach a recorder; sampling concurrently with
  // them must stay inactive and cheap rather than deadlock or throw.
  parallel(ParallelConfig::host(2), [](TeamContext& tc) {
    for_each(tc, Range::upto(100), Schedule::steal(), [](std::int64_t) {
      const PoolSnapshot snap = pool_snapshot();
      EXPECT_FALSE(snap.live.active);
    });
  });
}

}  // namespace
}  // namespace pblpar::rt

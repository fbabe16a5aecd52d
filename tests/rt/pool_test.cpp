// Persistent worker-pool coverage: host regions reuse parked teams
// across calls, so these tests pin down exactly the properties reuse
// could break — thread identity across regions, worksharing/barrier
// state re-arming, exception propagation leaving the pool usable, team
// width shrinking and regrowing, and a pool of their own for nested or
// concurrent regions. The stress cases double as the TSan workload for
// the handoff protocol (this file runs under the rt ctest label, which
// the tsan preset includes).

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "rt/for_each.hpp"
#include "rt/host_backend.hpp"
#include "rt/parallel.hpp"
#include "rt/trace.hpp"

namespace pblpar::rt {
namespace {

/// Map of tid -> OS thread id observed inside one pooled region.
std::map<int, std::thread::id> region_thread_ids(int num_threads) {
  std::map<int, std::thread::id> ids;
  std::mutex mu;
  parallel(ParallelConfig::host(num_threads), [&](TeamContext& tc) {
    std::lock_guard guard(mu);
    ids[tc.thread_num()] = std::this_thread::get_id();
  });
  return ids;
}

TEST(TeamPoolTest, CallerIsAlwaysMemberZero) {
  for (const int threads : {1, 2, 4}) {
    const auto ids = region_thread_ids(threads);
    ASSERT_EQ(ids.size(), static_cast<std::size_t>(threads));
    EXPECT_EQ(ids.at(0), std::this_thread::get_id())
        << "pooled region must run tid 0 on the calling thread";
  }
}

TEST(TeamPoolTest, ThreadIdsAreStableAcrossBackToBackRegions) {
  const auto first = region_thread_ids(4);
  const auto second = region_thread_ids(4);
  const auto third = region_thread_ids(4);
  EXPECT_EQ(first, second)
      << "back-to-back pooled regions must reuse the same OS threads";
  EXPECT_EQ(first, third);
}

TEST(TeamPoolTest, ShrinkAndRegrowBetweenRegions) {
  std::thread::id wide_worker;
  for (const int threads : {4, 2, 8, 1, 3}) {
    const auto ids = region_thread_ids(threads);
    ASSERT_EQ(ids.size(), static_cast<std::size_t>(threads));
    std::set<std::thread::id> distinct;
    for (const auto& [tid, os_id] : ids) {
      EXPECT_GE(tid, 0);
      EXPECT_LT(tid, threads);
      distinct.insert(os_id);
    }
    EXPECT_EQ(distinct.size(), ids.size())
        << "every member must run on its own OS thread";
    if (threads == 8) {
      wide_worker = ids.at(7);
    }
    if (threads == 3) {
      // The workers parked by the shrink are the same ones a wider later
      // region would wake; meanwhile narrow regions must not touch them.
      EXPECT_EQ(ids.count(7), 0u);
    }
  }
  // Regrowing to the widest width again reuses the previously spawned
  // high-slot worker rather than spawning a new one.
  EXPECT_EQ(region_thread_ids(8).at(7), wide_worker);
}

TEST(TeamPoolTest, WorksharingStateResetsAcrossRegions) {
  // Same loop/single ids in consecutive regions: stale counters or
  // single-arrival flags from region 1 would starve region 2.
  for (int round = 0; round < 3; ++round) {
    std::atomic<std::int64_t> sum{0};
    std::atomic<int> single_runs{0};
    parallel(ParallelConfig::host(4), [&](TeamContext& tc) {
      for_each(tc, Range::upto(100), Schedule::dynamic(1),
               [&](std::int64_t i) {
                 sum.fetch_add(i, std::memory_order_relaxed);
               });
      tc.single([&] { single_runs.fetch_add(1); });
      for_each(tc, Range::upto(64), Schedule::steal(), [&](std::int64_t i) {
        sum.fetch_add(i, std::memory_order_relaxed);
      });
    });
    EXPECT_EQ(sum.load(), 100 * 99 / 2 + 64 * 63 / 2) << "round " << round;
    EXPECT_EQ(single_runs.load(), 1) << "round " << round;
  }
}

TEST(TeamPoolTest, ExceptionPropagatesAndPoolStaysUsable) {
  // A member throwing aborts the region's barrier; a pooled team must
  // re-arm that barrier, so throw repeatedly and interleave healthy
  // regions to prove nothing stays poisoned.
  for (int round = 0; round < 3; ++round) {
    EXPECT_THROW(
        parallel(ParallelConfig::host(4),
                 [&](TeamContext& tc) {
                   if (tc.thread_num() == 2) {
                     throw std::runtime_error("member 2 failed");
                   }
                   tc.barrier();  // released by the abort, not a hang
                 }),
        std::runtime_error);

    std::atomic<std::int64_t> sum{0};
    parallel(ParallelConfig::host(4), [&](TeamContext& tc) {
      for_each(tc, Range::upto(1000), Schedule::static_block(),
               [&](std::int64_t i) {
                 sum.fetch_add(i, std::memory_order_relaxed);
               });
    });
    EXPECT_EQ(sum.load(), 1000 * 999 / 2) << "round " << round;
  }
}

TEST(TeamPoolTest, NestedRegionRunsFromEveryMember) {
  // An inner host region started while the outer one holds its pool must
  // still work (on a pool of its own) from any member.
  std::atomic<std::int64_t> inner_total{0};
  parallel(ParallelConfig::host(2), [&](TeamContext& outer) {
    std::atomic<std::int64_t> inner_sum{0};
    parallel(ParallelConfig::host(2), [&](TeamContext& inner) {
      inner_sum.fetch_add(inner.thread_num() + 1,
                          std::memory_order_relaxed);
    });
    EXPECT_EQ(inner_sum.load(), 3);  // tids 0 and 1, each once
    inner_total.fetch_add(inner_sum.load(), std::memory_order_relaxed);
    outer.barrier();
  });
  EXPECT_EQ(inner_total.load(), 6);  // both outer members ran an inner region
}

TEST(TeamPoolTest, NestedRegionRunsMemberZeroOnTheCaller) {
  // Each outer member is member 0 of its inner region, and a 1-wide
  // inner region runs on the caller alone.
  std::atomic<int> inner_on_caller{0};
  std::atomic<int> narrow_on_caller{0};
  parallel(ParallelConfig::host(2), [&](TeamContext&) {
    const std::thread::id caller = std::this_thread::get_id();
    parallel(ParallelConfig::host(2), [&](TeamContext& inner) {
      if (inner.thread_num() == 0 && std::this_thread::get_id() == caller) {
        inner_on_caller.fetch_add(1);
      }
    });
    parallel(ParallelConfig::host(1), [&](TeamContext&) {
      if (std::this_thread::get_id() == caller) {
        narrow_on_caller.fetch_add(1);
      }
    });
  });
  EXPECT_EQ(inner_on_caller.load(), 2);
  EXPECT_EQ(narrow_on_caller.load(), 2);
}

TEST(TeamPoolTest, RepeatedNestedRegionStartsNoThreads) {
  // A 2x2 nested region whose two inner regions always overlap: the first
  // run builds a pool per inner region, the second reuses them.
  auto nested = [] {
    std::atomic<int> inner_running{0};
    parallel(ParallelConfig::host(2), [&](TeamContext&) {
      parallel(ParallelConfig::host(2), [&](TeamContext& inner) {
        if (inner.thread_num() == 0) {
          inner_running.fetch_add(1);
          while (inner_running.load() < 2) {
            std::this_thread::yield();
          }
        }
      });
    });
  };
  nested();
  const std::uint64_t spawned = pool_snapshot().spawned_regions;
  nested();
  EXPECT_EQ(pool_snapshot().spawned_regions, spawned);
}

TEST(TeamPoolTest, ConcurrentRegionsFromIndependentThreadsStayCorrect) {
  // Two plain std::threads each run a stream of host regions, each on
  // whichever idle pool it takes; every region must compute the right
  // answer.
  constexpr int kRegions = 25;
  std::atomic<int> wrong{0};
  auto stream = [&] {
    for (int r = 0; r < kRegions; ++r) {
      std::atomic<std::int64_t> sum{0};
      parallel(ParallelConfig::host(2), [&](TeamContext& tc) {
        for_each(tc, Range::upto(500), Schedule::dynamic(7),
                 [&](std::int64_t i) {
                   sum.fetch_add(i, std::memory_order_relaxed);
                 });
      });
      if (sum.load() != 500 * 499 / 2) {
        wrong.fetch_add(1);
      }
    }
  };
  std::thread a(stream);
  std::thread b(stream);
  a.join();
  b.join();
  EXPECT_EQ(wrong.load(), 0);
}

TEST(TeamPoolTest, ConcurrentCallersStartNoThreadsAfterOneOverlappingRound) {
  // Warm-up round: both callers hold a 2-wide region at the same time, so
  // two pools with a worker each end up on top of the idle stack. After
  // that, two colliding streams of 2-wide regions only ever take those
  // two, and no region pays thread creation.
  std::atomic<int> holding{0};
  auto overlap = [&] {
    parallel(ParallelConfig::host(2), [&](TeamContext& tc) {
      if (tc.thread_num() == 0) {
        holding.fetch_add(1);
        while (holding.load() < 2) {
          std::this_thread::yield();
        }
      }
    });
  };
  std::thread warm_a(overlap);
  std::thread warm_b(overlap);
  warm_a.join();
  warm_b.join();

  const std::uint64_t spawned = pool_snapshot().spawned_regions;
  constexpr int kRegions = 25;
  auto stream = [] {
    for (int r = 0; r < kRegions; ++r) {
      parallel(ParallelConfig::host(2), [](TeamContext&) {});
    }
  };
  std::thread a(stream);
  std::thread b(stream);
  a.join();
  b.join();
  EXPECT_EQ(pool_snapshot().spawned_regions, spawned);
}

TEST(TeamPoolTest, WarmUpIsIdempotentAndRegionsRunAfterIt) {
  warm_up(ParallelConfig::host(4));
  warm_up(ParallelConfig::host(2));  // narrower: no-op
  warm_up(ParallelConfig::sim_pi(4));  // sim: no-op
  std::atomic<int> members{0};
  parallel(ParallelConfig::host(4),
           [&](TeamContext&) { members.fetch_add(1); });
  EXPECT_EQ(members.load(), 4);
}

TEST(TeamPoolTest, TracedPooledRegionProducesFullProfile) {
  const RunResult run = parallel_for(
      ParallelConfig::host(3).traced(), Range::upto(300),
      Schedule::dynamic(10), [](std::int64_t) {});
  ASSERT_NE(run.profile, nullptr);
  EXPECT_EQ(run.profile->num_threads, 3);
  EXPECT_EQ(run.profile->clock, TraceClock::HostSteady);
  std::int64_t iterations = 0;
  for (const ChunkEvent& chunk : run.profile->chunks) {
    EXPECT_EQ(chunk.iterations(), 10);
    iterations += chunk.iterations();
  }
  EXPECT_EQ(iterations, 300);
}

TEST(TeamPoolStressTest, ChurningWidthsSchedulesAndFailuresStaysExactlyOnce) {
  // The TSan workload: hammer the handoff protocol with width changes,
  // every schedule family, criticals, singles and periodic member
  // failures, checking exactly-once iteration delivery each region.
  constexpr std::int64_t kIterations = 257;
  const int widths[] = {1, 2, 4, 8, 3};
  const Schedule schedules[] = {Schedule::static_block(), Schedule::dynamic(1),
                                Schedule::guided(1), Schedule::steal()};
  for (int round = 0; round < 40; ++round) {
    const int threads = widths[round % 5];
    const Schedule schedule = schedules[round % 4];
    if (round % 7 == 6 && threads > 1) {
      EXPECT_THROW(parallel(ParallelConfig::host(threads),
                            [&](TeamContext& tc) {
                              if (tc.thread_num() == threads - 1) {
                                throw std::runtime_error("injected");
                              }
                              tc.barrier();
                            }),
                   std::runtime_error);
      continue;
    }
    std::vector<std::atomic<int>> counts(kIterations);
    for (auto& count : counts) {
      count.store(0, std::memory_order_relaxed);
    }
    std::atomic<int> singles{0};
    parallel(ParallelConfig::host(threads), [&](TeamContext& tc) {
      for_each(tc, Range::upto(kIterations), schedule, [&](std::int64_t i) {
        counts[static_cast<std::size_t>(i)].fetch_add(
            1, std::memory_order_relaxed);
      });
      tc.single([&] { singles.fetch_add(1); });
      tc.critical([&] {});
    });
    for (std::int64_t i = 0; i < kIterations; ++i) {
      ASSERT_EQ(counts[static_cast<std::size_t>(i)].load(), 1)
          << "iteration " << i << " in round " << round;
    }
    ASSERT_EQ(singles.load(), 1) << "round " << round;
  }
}

}  // namespace
}  // namespace pblpar::rt

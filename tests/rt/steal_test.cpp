// Schedule::steal: deque partitioning helpers, exactly-once execution
// under host stress, deterministic replay on the sim backend, the
// steal-event trace schema, and the templated for_each driver that the
// steal path (and everything else) runs through.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "rt/for_each.hpp"
#include "rt/parallel.hpp"
#include "rt/trace.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace pblpar::rt {
namespace {

// --- Deque partitioning helpers ---------------------------------------

TEST(StealChunkSizeTest, ExplicitChunkWinsButIsClampedToLoop) {
  EXPECT_EQ(steal_chunk_size(Schedule::steal(8), 1000, 4), 8);
  EXPECT_EQ(steal_chunk_size(Schedule::steal(8), 5, 4), 5);
}

TEST(StealChunkSizeTest, AutoChunkTargetsSixteenChunksPerThread) {
  // 1024 iterations over 4 threads -> 64 chunks of 16.
  EXPECT_EQ(steal_chunk_size(Schedule::steal(), 1024, 4), 16);
  // Tiny loops degenerate to chunk 1 (never 0).
  EXPECT_EQ(steal_chunk_size(Schedule::steal(), 3, 4), 1);
  EXPECT_EQ(steal_chunk_size(Schedule::steal(), 0, 4), 1);
}

TEST(StealSpanTest, InitialSpansTileTheChunkIndexSpace) {
  // 10 chunks over 4 threads: blocks of 3,3,2,2 — contiguous, disjoint,
  // covering [0, 10).
  const std::int64_t total = 100;
  const std::int64_t chunk = 10;
  std::int64_t next = 0;
  for (int tid = 0; tid < 4; ++tid) {
    const StealSpan span = steal_initial_span(total, chunk, 4, tid);
    EXPECT_EQ(span.lo, next);
    next = span.hi;
  }
  EXPECT_EQ(next, 10);
}

TEST(StealSpanTest, EmptyLoopDealsEmptySpans) {
  for (int tid = 0; tid < 4; ++tid) {
    EXPECT_TRUE(steal_initial_span(0, 4, 4, tid).empty());
  }
}

TEST(StealSpanTest, ClaimMapsChunkIndexToIterationsAndClampsTheTail) {
  const StealClaim middle = steal_claim_for(2, 8, 100, 3);
  EXPECT_EQ(middle.begin, 16);
  EXPECT_EQ(middle.count, 8);
  EXPECT_EQ(middle.victim, 3);
  const StealClaim tail = steal_claim_for(12, 8, 100, 0);
  EXPECT_EQ(tail.begin, 96);
  EXPECT_EQ(tail.count, 4);
}

TEST(StealSpanTest, OutOfRangeChunkIndexIsRejected) {
  EXPECT_THROW(steal_claim_for(13, 8, 100, 0), util::PreconditionError);
}

TEST(StealSpanTest, OwnerTakesItsSpanInAscendingOrder) {
  StealSpan span{3, 7};
  std::int64_t chunk_index = 0;
  for (std::int64_t expected = 3; expected < 7; ++expected) {
    ASSERT_TRUE(span.take(&chunk_index));
    EXPECT_EQ(chunk_index, expected);
  }
  EXPECT_FALSE(span.take(&chunk_index));
  EXPECT_FALSE(span.take(&chunk_index));  // stays empty
}

TEST(StealSpanTest, ThievesStealFromTheTopAndReportEmpty) {
  StealSpan span{0, 3};
  std::int64_t chunk_index = 0;
  for (std::int64_t expected = 2; expected >= 0; --expected) {
    ASSERT_TRUE(span.steal(&chunk_index));
    EXPECT_EQ(chunk_index, expected);
  }
  EXPECT_FALSE(span.steal(&chunk_index));
  EXPECT_TRUE(span.empty());
}

TEST(StealSpanTest, ClearEmptiesAndReinstallRearms) {
  StealSpan span{0, 5};
  span = StealSpan{};
  std::int64_t chunk_index = 0;
  EXPECT_FALSE(span.take(&chunk_index));
  EXPECT_FALSE(span.steal(&chunk_index));
  span = StealSpan{10, 12};
  ASSERT_TRUE(span.take(&chunk_index));
  EXPECT_EQ(chunk_index, 10);
}

// --- Exactly-once execution -------------------------------------------

/// Every iteration of a steal loop must run exactly once, whatever the
/// interleaving of local pops and steals.
void expect_exactly_once_host(int threads, std::int64_t total,
                              Schedule schedule) {
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(total));
  for (auto& hit : hits) {
    hit.store(0, std::memory_order_relaxed);
  }
  parallel(ParallelConfig::host(threads), [&](TeamContext& tc) {
    for_each(tc, Range::upto(total), schedule, [&](std::int64_t i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1,
                                                  std::memory_order_relaxed);
    });
  });
  for (std::int64_t i = 0; i < total; ++i) {
    ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
        << "iteration " << i << " with " << threads << " threads";
  }
}

TEST(StealHostTest, EveryIterationRunsExactlyOnce) {
  for (const int threads : {1, 2, 4, 8}) {
    expect_exactly_once_host(threads, 1000, Schedule::steal());
    expect_exactly_once_host(threads, 1000, Schedule::steal(7));
  }
  // One-iteration chunks maximise claims per thread, so owners and
  // thieves contend on every span.
  expect_exactly_once_host(8, 5000, Schedule::steal(1));
}

TEST(StealHostTest, EdgeShapes) {
  // Empty loop, fewer iterations than threads, chunk larger than the
  // loop, single iteration.
  expect_exactly_once_host(4, 0, Schedule::steal());
  expect_exactly_once_host(8, 3, Schedule::steal());
  expect_exactly_once_host(4, 10, Schedule::steal(64));
  expect_exactly_once_host(4, 1, Schedule::steal());
}

TEST(StealHostTest, StressSkewedWorkManyRounds) {
  // Skewed per-iteration work provokes migration; repeated rounds give
  // the thread scheduler chances to produce nasty interleavings (under
  // TSan this is also the race coverage for the deque locking).
  for (int round = 0; round < 20; ++round) {
    const std::int64_t total = 257;  // prime: uneven deal every round
    std::vector<std::atomic<int>> hits(static_cast<std::size_t>(total));
    for (auto& hit : hits) {
      hit.store(0, std::memory_order_relaxed);
    }
    std::atomic<std::int64_t> sum{0};
    parallel(ParallelConfig::host(4), [&](TeamContext& tc) {
      for_each(tc, Range::upto(total), Schedule::steal(2),
               [&](std::int64_t i) {
                 volatile double sink = 0.0;
                 for (std::int64_t k = 0; k < (i % 16) * 8; ++k) {
                   sink = sink + 1.0;
                 }
                 hits[static_cast<std::size_t>(i)].fetch_add(
                     1, std::memory_order_relaxed);
                 sum.fetch_add(i, std::memory_order_relaxed);
               });
    });
    for (std::int64_t i = 0; i < total; ++i) {
      ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1);
    }
    ASSERT_EQ(sum.load(), total * (total - 1) / 2);
  }
}

TEST(StealHostTest, TwoStealLoopsInOneRegion) {
  constexpr std::int64_t kN = 300;
  std::vector<std::atomic<int>> first(kN);
  std::vector<std::atomic<int>> second(kN);
  for (std::int64_t i = 0; i < kN; ++i) {
    first[static_cast<std::size_t>(i)].store(0);
    second[static_cast<std::size_t>(i)].store(0);
  }
  parallel(ParallelConfig::host(4), [&](TeamContext& tc) {
    for_each(tc, Range::upto(kN), Schedule::steal(), [&](std::int64_t i) {
      first[static_cast<std::size_t>(i)].fetch_add(1);
    });
    for_each(tc, Range::upto(kN), Schedule::steal(5), [&](std::int64_t i) {
      second[static_cast<std::size_t>(i)].fetch_add(1);
    });
  });
  for (std::int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(first[static_cast<std::size_t>(i)].load(), 1);
    ASSERT_EQ(second[static_cast<std::size_t>(i)].load(), 1);
  }
}

TEST(StealHostTest, RangeOffsetIsRespected) {
  // for_each hands out global indices: range [100, 164).
  std::vector<std::atomic<int>> hits(64);
  for (auto& hit : hits) {
    hit.store(0);
  }
  parallel(ParallelConfig::host(4), [&](TeamContext& tc) {
    for_each(tc, Range{100, 164}, Schedule::steal(4), [&](std::int64_t i) {
      ASSERT_GE(i, 100);
      ASSERT_LT(i, 164);
      hits[static_cast<std::size_t>(i - 100)].fetch_add(1);
    });
  });
  for (const auto& hit : hits) {
    ASSERT_EQ(hit.load(), 1);
  }
}

// --- Sim backend: determinism and cost modelling -----------------------

/// A compact fingerprint of a traced run: every chunk and steal event in
/// claim order plus the makespan, so two runs can be compared exactly.
std::string fingerprint(const RunResult& run) {
  std::string out = std::to_string(run.elapsed_seconds());
  for (const ChunkEvent& chunk : run.profile->chunks) {
    out += ";c" + std::to_string(chunk.tid) + ":" +
           std::to_string(chunk.begin) + "-" + std::to_string(chunk.end) +
           "@" + std::to_string(chunk.start_s);
  }
  for (const StealEvent& steal : run.profile->steals) {
    out += ";s" + std::to_string(steal.thief_tid) + "<" +
           std::to_string(steal.victim_tid) + ":" +
           std::to_string(steal.begin) + "-" + std::to_string(steal.end);
  }
  return out;
}

RunResult sim_steal_run(std::uint64_t workload_seed) {
  util::Rng rng(workload_seed);
  std::vector<double> ops;
  for (int i = 0; i < 96; ++i) {
    ops.push_back(1e4 * static_cast<double>(1 + rng.next_below(64)));
  }
  CostModel cost;
  cost.ops_fn = [ops](std::int64_t i) {
    return ops[static_cast<std::size_t>(i)];
  };
  return parallel(ParallelConfig::sim_pi(4).traced(), [&](TeamContext& tc) {
    for_each(tc, Range::upto(96), Schedule::steal(2), [](std::int64_t) {},
             cost);
  });
}

TEST(StealSimTest, ReplaysBitForBitAcrossRunsAndSeeds) {
  for (const std::uint64_t seed : {1u, 7u, 2018u}) {
    const std::string first = fingerprint(sim_steal_run(seed));
    const std::string second = fingerprint(sim_steal_run(seed));
    EXPECT_EQ(first, second) << "workload seed " << seed;
    EXPECT_NE(first.find(";s"), std::string::npos)
        << "expected at least one steal for workload seed " << seed;
  }
}

TEST(StealSimTest, EveryIterationRunsExactlyOnceInVirtualTime) {
  constexpr std::int64_t kN = 200;
  std::vector<int> hits(static_cast<std::size_t>(kN), 0);
  CostModel cost;
  cost.ops_fn = [](std::int64_t i) {
    return i % 7 == 0 ? 5e5 : 1e3;  // spiky: forces migration
  };
  parallel(ParallelConfig::sim_pi(4), [&](TeamContext& tc) {
    for_each(tc, Range::upto(kN), Schedule::steal(), [&](std::int64_t i) {
      // The simulator serializes real code, so plain writes are safe.
      ++hits[static_cast<std::size_t>(i)];
    }, cost);
  });
  for (std::int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[static_cast<std::size_t>(i)], 1);
  }
}

TEST(StealSimTest, BalancesASkewedLoopBetterThanStatic) {
  CostModel cost;
  cost.ops_fn = [](std::int64_t i) {
    return i >= 48 ? 2e6 : 1e4;  // heavy tail lands in the last block
  };
  const auto makespan = [&](Schedule schedule) {
    return parallel(ParallelConfig::sim_pi(4), [&](TeamContext& tc) {
             for_each(tc, Range::upto(64), schedule, [](std::int64_t) {},
                      cost);
           })
        .elapsed_seconds();
  };
  EXPECT_LT(makespan(Schedule::steal(1)),
            makespan(Schedule::static_block()) * 0.6);
}

// --- Trace schema ------------------------------------------------------

TEST(StealTraceTest, StealEventsLinkToChunkEventsByClaimOrder) {
  const RunResult run = sim_steal_run(2018);
  const RunProfile& profile = *run.profile;
  ASSERT_FALSE(profile.steals.empty());
  for (const StealEvent& steal : profile.steals) {
    EXPECT_NE(steal.thief_tid, steal.victim_tid);
    EXPECT_LT(steal.begin, steal.end);
    // The thief records a chunk event with the same claim order covering
    // exactly the stolen range.
    bool linked = false;
    for (const ChunkEvent& chunk : profile.chunks) {
      if (chunk.claim_order == steal.claim_order) {
        EXPECT_EQ(chunk.tid, steal.thief_tid);
        EXPECT_EQ(chunk.begin, steal.begin);
        EXPECT_EQ(chunk.end, steal.end);
        EXPECT_EQ(chunk.loop_id, steal.loop_id);
        linked = true;
      }
    }
    EXPECT_TRUE(linked);
  }
  // Sorted by claim order, as documented.
  for (std::size_t i = 1; i < profile.steals.size(); ++i) {
    EXPECT_LE(profile.steals[i - 1].claim_order,
              profile.steals[i].claim_order);
  }
}

TEST(StealTraceTest, PerThreadAggregatesCountStolenWork) {
  const RunResult run = sim_steal_run(2018);
  const RunProfile& profile = *run.profile;
  std::uint64_t steals = 0;
  std::int64_t stolen_iterations = 0;
  for (const ThreadProfile& thread : profile.per_thread()) {
    steals += thread.steals;
    stolen_iterations += thread.stolen_iterations;
  }
  EXPECT_EQ(steals, profile.steals.size());
  std::int64_t expected_iterations = 0;
  for (const StealEvent& steal : profile.steals) {
    expected_iterations += steal.iterations();
  }
  EXPECT_EQ(stolen_iterations, expected_iterations);
}

TEST(StealTraceTest, JsonAndTimelineCarrySteals) {
  const RunResult run = sim_steal_run(2018);
  const std::string json = run.profile->to_json();
  EXPECT_NE(json.find("\"steals\":[{\"loop\":"), std::string::npos);
  EXPECT_NE(json.find("\"thief\":"), std::string::npos);
  EXPECT_NE(json.find("\"victim\":"), std::string::npos);
  EXPECT_NE(json.find("\"stolen_iterations\":"), std::string::npos);
  const std::string chart = run.profile->timeline_chart(0);
  EXPECT_NE(chart.find("steal t"), std::string::npos);
  EXPECT_NE(run.profile->summary().find("stolen"), std::string::npos);
}

TEST(StealTraceTest, NonStealLoopsRecordNoSteals) {
  const RunResult run =
      parallel(ParallelConfig::sim_pi(4).traced(), [&](TeamContext& tc) {
        for_each(tc, Range::upto(64), Schedule::dynamic(2),
                 [](std::int64_t) {}, CostModel::uniform(1e4));
      });
  EXPECT_TRUE(run.profile->steals.empty());
  for (const ThreadProfile& thread : run.profile->per_thread()) {
    EXPECT_EQ(thread.steals, 0u);
    EXPECT_EQ(thread.stolen_iterations, 0);
  }
}

// --- for_each (devirtualized driver) -----------------------------------

TEST(ForEachTest, MatchesForLoopAcrossSchedules) {
  constexpr std::int64_t kN = 500;
  for (const Schedule schedule :
       {Schedule::static_block(), Schedule::static_chunk(3),
        Schedule::dynamic(4), Schedule::guided(1), Schedule::steal(8)}) {
    std::vector<std::atomic<std::int64_t>> each(
        static_cast<std::size_t>(kN));
    std::vector<std::atomic<std::int64_t>> loop(
        static_cast<std::size_t>(kN));
    for (std::int64_t i = 0; i < kN; ++i) {
      each[static_cast<std::size_t>(i)].store(0);
      loop[static_cast<std::size_t>(i)].store(0);
    }
    parallel(ParallelConfig::host(4), [&](TeamContext& tc) {
      for_each(tc, Range::upto(kN), schedule, [&](std::int64_t i) {
        each[static_cast<std::size_t>(i)].fetch_add(i + 1);
      });
    });
    parallel(ParallelConfig::host(4), [&](TeamContext& tc) {
      for_loop(tc, Range::upto(kN), schedule, [&](std::int64_t i) {
        loop[static_cast<std::size_t>(i)].fetch_add(i + 1);
      });
    });
    for (std::int64_t i = 0; i < kN; ++i) {
      ASSERT_EQ(each[static_cast<std::size_t>(i)].load(),
                loop[static_cast<std::size_t>(i)].load())
          << "schedule " << schedule.to_string();
    }
  }
}

TEST(ForEachTest, BodyIsNotCopiedPerIteration) {
  // The body is forwarded once per member, never per iteration — a
  // mutable lambda's state survives across its thread's iterations.
  std::atomic<std::int64_t> total{0};
  parallel(ParallelConfig::host(4), [&](TeamContext& tc) {
    std::int64_t local = 0;
    for_each(tc, Range::upto(1000), Schedule::steal(),
             [&local](std::int64_t) { ++local; });
    total.fetch_add(local);
  });
  EXPECT_EQ(total.load(), 1000);
}

TEST(StealScheduleTest, ToStringRoundTrip) {
  EXPECT_EQ(Schedule::steal().to_string(), "steal");
  EXPECT_EQ(Schedule::steal(4).to_string(), "steal,4");
  EXPECT_THROW(Schedule::steal(-1), util::PreconditionError);
}

}  // namespace
}  // namespace pblpar::rt

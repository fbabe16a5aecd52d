// The lock-free core: the hand-made RwLock (mutual exclusion, shared
// readers) and the wait-free live-snapshot path (RegionObserver sampling
// a running host region). Work-stealing claims are mutex-guarded and
// tested in steal_test.cpp.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "rt/for_each.hpp"
#include "rt/loops.hpp"
#include "rt/parallel.hpp"
#include "rt/rwlock.hpp"
#include "rt/trace.hpp"

namespace pblpar::rt {
namespace {

// --- RwLock -----------------------------------------------------------

TEST(RwLockTest, WritersAreMutuallyExclusive) {
  constexpr int kWriters = 4;
  constexpr int kIncrements = 5000;
  RwLock lock;
  // Two plain (non-atomic) counters: only writer mutual exclusion keeps
  // them equal and un-torn. TSan would flag any overlap.
  std::int64_t a = 0;
  std::int64_t b = 0;
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) {
        WriteLock guard(lock);
        ++a;
        ++b;
      }
    });
  }
  for (std::thread& writer : writers) {
    writer.join();
  }
  EXPECT_EQ(a, kWriters * kIncrements);
  EXPECT_EQ(b, kWriters * kIncrements);
}

TEST(RwLockTest, ReadersShareTheLock) {
  RwLock lock;
  std::atomic<int> inside{0};
  std::atomic<bool> both_inside{false};
  constexpr int kReaders = 2;
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      ReadLock guard(lock);
      inside.fetch_add(1);
      // Wait (bounded) for the other reader to also be inside the lock:
      // proof the read side admits concurrent holders.
      for (int spin = 0; spin < 200000; ++spin) {
        if (inside.load() == kReaders) {
          both_inside.store(true);
          break;
        }
        std::this_thread::yield();
      }
    });
  }
  for (std::thread& reader : readers) {
    reader.join();
  }
  EXPECT_TRUE(both_inside.load());
}

TEST(RwLockTest, ReadersAndWritersInterleaveConsistently) {
  RwLock lock;
  std::int64_t a = 0;
  std::int64_t b = 0;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      ReadLock guard(lock);
      // Under the read lock no writer can be mid-update.
      EXPECT_EQ(a, b);
      std::this_thread::yield();
    }
  });
  for (int i = 0; i < 5000; ++i) {
    WriteLock guard(lock);
    ++a;
    ++b;
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(a, 5000);
}

// --- RegionObserver / live snapshots ----------------------------------

TEST(RegionObserverTest, DetachedObserverReportsInactive) {
  RegionObserver observer;
  const LiveSnapshot snapshot = observer.snapshot();
  EXPECT_FALSE(snapshot.active);
  EXPECT_EQ(snapshot.num_threads, 0);
  EXPECT_TRUE(snapshot.threads.empty());
}

TEST(RegionObserverTest, SamplesARunningRegionWithoutCorruption) {
  const auto observer = std::make_shared<RegionObserver>();
  constexpr std::int64_t kTotal = 8000;
  std::atomic<bool> stop{false};
  std::atomic<bool> saw_active{false};
  std::atomic<bool> sampler_ok{true};

  std::thread sampler([&] {
    std::int64_t last_iterations = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const LiveSnapshot snapshot = observer->snapshot();
      if (!snapshot.active) {
        continue;
      }
      saw_active.store(true, std::memory_order_relaxed);
      const std::int64_t iterations = snapshot.total_iterations();
      // Counters are cumulative within the region: monotone, and never
      // beyond the loop's total. A torn read would break both.
      if (iterations < last_iterations || iterations > kTotal ||
          snapshot.total_chunks() >
              static_cast<std::uint64_t>(kTotal)) {
        sampler_ok.store(false, std::memory_order_relaxed);
      }
      last_iterations = iterations;
      std::this_thread::yield();
    }
  });

  // Re-run the (short) region until the sampler caught it live — on a
  // loaded host one region may finish before the sampler gets a slice.
  const ParallelConfig config = ParallelConfig::host(2).observed(observer);
  for (int attempt = 0; attempt < 200; ++attempt) {
    std::atomic<std::int64_t> sum{0};
    parallel(config, [&](TeamContext& tc) {
      for_each(tc, Range{0, kTotal}, Schedule::dynamic(1),
               [&](std::int64_t i) {
                 sum.fetch_add(i % 3, std::memory_order_relaxed);
               });
    });
    if (saw_active.load(std::memory_order_relaxed)) {
      break;
    }
  }
  stop.store(true, std::memory_order_release);
  sampler.join();

  EXPECT_TRUE(saw_active.load());
  EXPECT_TRUE(sampler_ok.load());
  // The region is over and the backend detached its recorder.
  EXPECT_FALSE(observer->snapshot().active);
}

TEST(RegionObserverTest, ObservedImpliesTracing) {
  const auto observer = std::make_shared<RegionObserver>();
  const ParallelConfig config = ParallelConfig::host(2).observed(observer);
  EXPECT_TRUE(config.record_trace);
  const RunResult result = parallel(config, [](TeamContext& tc) {
    for_each(tc, Range{0, 100}, Schedule::steal(), [](std::int64_t) {});
  });
  ASSERT_NE(result.profile, nullptr);
  std::int64_t iterations = 0;
  for (const ChunkEvent& chunk : result.profile->chunks) {
    iterations += chunk.iterations();
  }
  EXPECT_EQ(iterations, 100);
}

}  // namespace
}  // namespace pblpar::rt

#include "rt/cancel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "rt/host_backend.hpp"
#include "rt/parallel.hpp"
#include "rt/reduce.hpp"
#include "rt/trace.hpp"
#include "util/error.hpp"

namespace pblpar::rt {
namespace {

/// A follow-up region on the same (pooled) configuration must be fully
/// correct — this is the "cancellation leaves the team reusable" check.
void expect_pool_still_works(const ParallelConfig& config) {
  constexpr std::int64_t kN = 97;
  std::vector<std::atomic<int>> counts(kN);
  parallel_for(config, Range::upto(kN), Schedule::dynamic(2),
               [&](std::int64_t i) {
                 counts[static_cast<std::size_t>(i)].fetch_add(1);
               });
  for (std::int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(counts[static_cast<std::size_t>(i)].load(), 1) << "i=" << i;
  }
}

TEST(CancelTest, TokenCancelOnPooledHostLeavesPoolReusable) {
  const ParallelConfig base = ParallelConfig::host(4);
  CancelSource source;
  std::atomic<bool> started{false};
  std::thread canceller([&] {
    while (!started.load()) {
      std::this_thread::yield();
    }
    source.cancel();
  });
  std::atomic<std::int64_t> body_runs{0};
  try {
    parallel_for(base.cancellable(source.token()), Range::upto(1 << 22),
                 Schedule::dynamic(1), [&](std::int64_t) {
                   started.store(true);
                   body_runs.fetch_add(1);
                 });
    canceller.join();
    FAIL() << "expected rt::Cancelled";
  } catch (const Cancelled& cancelled) {
    canceller.join();
    EXPECT_EQ(cancelled.cause(), CancelCause::Token);
    EXPECT_EQ(cancelled.completed_iterations().size(), 4u);
    EXPECT_LT(cancelled.total_completed(), std::int64_t{1} << 22);
  }
  expect_pool_still_works(base);
}

TEST(CancelTest, PreCancelledNestedRegionCancelsOnItsOwnTeam) {
  // Each member of a running outer region starts a pre-cancelled inner
  // region on a second team: every inner member stops at its first claim,
  // and only the inner regions throw.
  CancelSource source;
  source.cancel();
  std::atomic<int> inner_cancelled{0};
  parallel(ParallelConfig::host(2), [&](TeamContext&) {
    try {
      parallel_for(ParallelConfig::host(3).cancellable(source.token()),
                   Range::upto(1000), Schedule::dynamic(1),
                   [](std::int64_t) {});
    } catch (const Cancelled& cancelled) {
      EXPECT_EQ(cancelled.cause(), CancelCause::Token);
      EXPECT_EQ(cancelled.completed_iterations().size(), 3u);
      EXPECT_EQ(cancelled.total_completed(), 0);
      inner_cancelled.fetch_add(1);
    }
  });
  EXPECT_EQ(inner_cancelled.load(), 2);
  expect_pool_still_works(ParallelConfig::host(3));
}

TEST(CancelTest, DeadlineFiresOnHost) {
  try {
    parallel_for(ParallelConfig::host(2).deadline(std::chrono::milliseconds(2)),
                 Range::upto(std::int64_t{1} << 40), Schedule::dynamic(64),
                 [](std::int64_t) {});
    FAIL() << "expected rt::Cancelled";
  } catch (const Cancelled& cancelled) {
    EXPECT_EQ(cancelled.cause(), CancelCause::Deadline);
  }
}

TEST(CancelTest, CompletedCountsMatchIterationsActuallyRun) {
  CancelSource source;
  std::atomic<std::int64_t> body_runs{0};
  std::atomic<bool> started{false};
  std::thread canceller([&] {
    while (!started.load()) {
      std::this_thread::yield();
    }
    source.cancel();
  });
  try {
    parallel_for(ParallelConfig::host(4).cancellable(source.token()),
                 Range::upto(1 << 22), Schedule::dynamic(4),
                 [&](std::int64_t) {
                   started.store(true);
                   body_runs.fetch_add(1);
                 });
    canceller.join();
    FAIL() << "expected rt::Cancelled";
  } catch (const Cancelled& cancelled) {
    canceller.join();
    // Members stop only at chunk boundaries, so every claimed chunk ran
    // to completion and the per-thread counts are exact.
    EXPECT_EQ(cancelled.total_completed(), body_runs.load());
  }
}

TEST(CancelTest, StaticBlockScheduleStopsAtItsOneBoundary) {
  // static_block has exactly one chunk boundary per member, so a
  // pre-cancelled token means zero iterations run anywhere.
  CancelSource source;
  source.cancel();
  try {
    parallel_for(ParallelConfig::host(4).cancellable(source.token()),
                 Range::upto(1000), Schedule::static_block(),
                 [](std::int64_t) { FAIL() << "body must not run"; });
    FAIL() << "expected rt::Cancelled";
  } catch (const Cancelled& cancelled) {
    EXPECT_EQ(cancelled.total_completed(), 0);
  }
}

TEST(CancelTest, InvalidConfigArgumentsThrowLoudly) {
  const ParallelConfig config = ParallelConfig::host(2);
  EXPECT_THROW(config.cancellable(CancelToken{}), util::PreconditionError);
  EXPECT_THROW(config.deadline(0.0), util::PreconditionError);
  EXPECT_THROW(config.deadline(-1.0), util::PreconditionError);
  EXPECT_THROW(config.deadline(std::nan("")), util::PreconditionError);
  ChaosPlan bad_probability;
  bad_probability.throw_probability = 2.0;
  EXPECT_THROW(config.with_chaos(bad_probability), util::PreconditionError);
  ChaosPlan bad_delay;
  bad_delay.delay_probability = 0.5;
  bad_delay.delay_s = -1.0;
  EXPECT_THROW(config.with_chaos(bad_delay), util::PreconditionError);
}

TEST(CancelTest, SimDeadlineIsDeterministic) {
  const auto run_once = [] {
    try {
      parallel_for(ParallelConfig::sim_pi(4).traced().deadline(0.002),
                   Range::upto(100000), Schedule::dynamic(8),
                   [](std::int64_t) {}, CostModel::uniform(200.0));
      ADD_FAILURE() << "expected rt::Cancelled";
      return std::make_pair(std::string{}, std::vector<std::int64_t>{});
    } catch (const Cancelled& cancelled) {
      EXPECT_EQ(cancelled.cause(), CancelCause::Deadline);
      EXPECT_NE(cancelled.profile(), nullptr);
      return std::make_pair(cancelled.profile()->to_json(),
                            cancelled.completed_iterations());
    }
  };
  const auto first = run_once();
  const auto second = run_once();
  EXPECT_FALSE(first.first.empty());
  EXPECT_EQ(first.first, second.first);    // byte-stable event fingerprint
  EXPECT_EQ(first.second, second.second);  // identical salvaged progress
}

TEST(CancelTest, SimChaosDelaysAreDeterministicAndTraced) {
  ChaosPlan plan;
  plan.delay_probability = 0.5;
  plan.delay_s = 1e-4;
  plan.seed = 42;
  const auto run_once = [&plan] {
    const RunResult result = parallel_for(
        ParallelConfig::sim_pi(4).traced().with_chaos(plan),
        Range::upto(64), Schedule::dynamic(1), [](std::int64_t) {},
        CostModel::uniform(100.0));
    EXPECT_NE(result.profile, nullptr);
    return result;
  };
  const RunResult first = run_once();
  const RunResult second = run_once();
  ASSERT_NE(first.profile, nullptr);
  EXPECT_FALSE(first.profile->injects.empty());
  EXPECT_EQ(first.profile->to_json(), second.profile->to_json());
  EXPECT_NE(first.profile->timeline_chart().find("inject"),
            std::string::npos);
  EXPECT_NE(first.profile->to_json().find("\"injects\""), std::string::npos);
}

TEST(CancelTest, HostChaosThrowInjectionDrainsLikeAUserException) {
  ChaosPlan plan;
  plan.throw_probability = 1.0;  // first claim on some member throws
  const ParallelConfig base = ParallelConfig::host(4);
  EXPECT_THROW(parallel_for(base.with_chaos(plan), Range::upto(10000),
                            Schedule::dynamic(1), [](std::int64_t) {}),
               ChaosInjected);
  expect_pool_still_works(base);
}

TEST(CancelTest, CancelledCarriesTraceWithCancelEvents) {
  CancelSource source;
  try {
    // Cancelling from inside the body guarantees at least one chunk ran
    // (and is traced) before the members observe the request.
    parallel_for(ParallelConfig::host(2).traced().cancellable(source.token()),
                 Range::upto(100), Schedule::dynamic(1),
                 [&](std::int64_t) { source.cancel(); });
    FAIL() << "expected rt::Cancelled";
  } catch (const Cancelled& cancelled) {
    ASSERT_NE(cancelled.profile(), nullptr);
    EXPECT_FALSE(cancelled.profile()->cancels.empty());
    for (const CancelEvent& event : cancelled.profile()->cancels) {
      EXPECT_EQ(event.cause, "token");
    }
    EXPECT_NE(cancelled.profile()->timeline_chart().find("cancel t"),
              std::string::npos);
    EXPECT_NE(cancelled.profile()->to_json().find("\"cancels\""),
              std::string::npos);
  }
}

TEST(CancelTest, ReduceSalvageRescuesPerThreadPartials) {
  CancelSource source;
  std::atomic<bool> started{false};
  std::thread canceller([&] {
    while (!started.load()) {
      std::this_thread::yield();
    }
    source.cancel();
  });
  std::vector<std::optional<std::int64_t>> salvage(4);
  try {
    parallel_reduce<std::int64_t>(
        ParallelConfig::host(4).cancellable(source.token()),
        Range::upto(1 << 22), Schedule::dynamic(4), 0,
        [&](std::int64_t) -> std::int64_t {
          started.store(true);
          return 1;
        },
        [](std::int64_t a, std::int64_t b) { return a + b; }, {},
        ReduceStrategy::PerThreadPartials, &salvage);
    canceller.join();
    FAIL() << "expected rt::Cancelled";
  } catch (const Cancelled& cancelled) {
    canceller.join();
    // With map(i) == 1 the salvaged partials count iterations, so their
    // sum must equal the exception's own completed-iterations total.
    std::int64_t salvaged = 0;
    for (const std::optional<std::int64_t>& slot : salvage) {
      salvaged += slot.value_or(0);
    }
    EXPECT_EQ(salvaged, cancelled.total_completed());
  }
}

TEST(CancelTest, ReduceSalvageRequiresOneSlotPerMember) {
  std::vector<std::optional<int>> too_small(1);
  EXPECT_THROW(parallel_reduce<int>(
                   ParallelConfig::host(2), Range::upto(10),
                   Schedule::dynamic(1), 0, [](std::int64_t) { return 1; },
                   [](int a, int b) { return a + b; }, {},
                   ReduceStrategy::PerThreadPartials, &too_small),
               util::PreconditionError);
}

TEST(CancelTest, AbortableBarrierAbortThenResetIsReusable) {
  AbortableBarrier barrier(2);
  std::atomic<bool> waiter_aborted{false};
  std::thread waiter([&] {
    try {
      barrier.arrive_and_wait();
    } catch (const TeamAborted&) {
      waiter_aborted.store(true);
    }
  });
  barrier.abort();
  waiter.join();
  EXPECT_TRUE(waiter_aborted.load());

  // Re-armed, the same object must run a clean two-party rendezvous.
  barrier.reset(2);
  std::atomic<int> passed{0};
  std::thread a([&] {
    barrier.arrive_and_wait();
    passed.fetch_add(1);
  });
  std::thread b([&] {
    barrier.arrive_and_wait();
    passed.fetch_add(1);
  });
  a.join();
  b.join();
  EXPECT_EQ(passed.load(), 2);
}

TEST(CancelTest, PoolSurvivesChurnOfCancelledFailingAndNormalRegions) {
  const ParallelConfig base = ParallelConfig::host(4);
  for (int round = 0; round < 12; ++round) {
    CancelSource source;
    source.cancel();
    EXPECT_THROW(
        parallel_for(base.cancellable(source.token()), Range::upto(256),
                     Schedule::dynamic(1), [](std::int64_t) {}),
        Cancelled);
    EXPECT_THROW(
        parallel_for(base, Range::upto(256), Schedule::dynamic(1),
                     [round](std::int64_t i) {
                       if (i == round) {
                         throw std::runtime_error("boom");
                       }
                     }),
        std::runtime_error);
    expect_pool_still_works(base);
  }
}

}  // namespace
}  // namespace pblpar::rt

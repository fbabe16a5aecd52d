#include "cluster/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "mp/world.hpp"
#include "util/error.hpp"

namespace pblpar::cluster {
namespace {

std::vector<std::vector<std::byte>> index_tasks(int count) {
  std::vector<std::vector<std::byte>> tasks;
  for (int i = 0; i < count; ++i) {
    Writer writer;
    writer.i32(i);
    tasks.push_back(writer.take());
  }
  return tasks;
}

/// Square the task index, charging `ops_per_task` of modelled work in
/// four slices with heartbeat points between.
TaskFn square_task(double ops_per_task) {
  return [ops_per_task](TaskContext& ctx, int, mp::ByteView payload) {
    Reader reader(payload);
    const std::int32_t value = reader.i32();
    for (int s = 0; s < 4; ++s) {
      ctx.charge(ops_per_task / 4);
      ctx.progress();
    }
    Writer writer;
    writer.i32(value * value);
    return writer.take();
  };
}

void expect_squares(const std::vector<mp::Buffer>& results) {
  for (std::size_t i = 0; i < results.size(); ++i) {
    Reader reader(results[i]);
    EXPECT_EQ(reader.i32(), static_cast<std::int32_t>(i * i)) << "task " << i;
  }
}

void expect_identical_results(const std::vector<mp::Buffer>& a,
                              const std::vector<mp::Buffer>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const mp::ByteView va = a[i];
    const mp::ByteView vb = b[i];
    ASSERT_EQ(va.size(), vb.size()) << "task " << i;
    EXPECT_TRUE(std::equal(va.begin(), va.end(), vb.begin())) << "task " << i;
  }
}

TEST(ClusterEngineTest, CleanRunCompletesEveryTask) {
  const SimClusterRun run =
      run_sim_cluster(4, index_tasks(9), square_task(1e7));
  ASSERT_EQ(run.results.size(), 9u);
  expect_squares(run.results);
  EXPECT_TRUE(run.dead_workers.empty());
  EXPECT_EQ(run.profile.stats.tasks, 9);
  EXPECT_EQ(run.profile.stats.workers, 3);
  EXPECT_GE(run.profile.stats.attempts, 9);
  EXPECT_EQ(run.profile.stats.requeues, 0);
  EXPECT_EQ(run.profile.stats.dead_workers, 0);
  EXPECT_GT(run.profile.stats.completion_s, 0.0);
  EXPECT_GE(run.profile.stats.makespan_s, run.profile.stats.completion_s);
}

TEST(ClusterEngineTest, SingleRankWorldRunsTasksInline) {
  const SimClusterRun run =
      run_sim_cluster(1, index_tasks(5), square_task(1e6));
  ASSERT_EQ(run.results.size(), 5u);
  expect_squares(run.results);
  EXPECT_EQ(run.profile.stats.workers, 0);
  EXPECT_EQ(run.profile.stats.attempts, 5);
}

TEST(ClusterEngineTest, CrashMidTaskIsDetectedAndReExecuted) {
  FaultPlan faults;
  faults.crashes.push_back(CrashFault{2, 1});  // rank 2 dies in its 2nd task
  ClusterOptions options;
  options.max_live_attempts = 1;  // no speculation: recovery must requeue
  const SimClusterRun run =
      run_sim_cluster(4, index_tasks(8), square_task(1e7), options, &faults);
  ASSERT_EQ(run.results.size(), 8u);
  expect_squares(run.results);
  ASSERT_EQ(run.dead_workers.size(), 1u);
  EXPECT_EQ(run.dead_workers.front(), 2);
  EXPECT_EQ(run.profile.stats.dead_workers, 1);
  EXPECT_GE(run.profile.stats.requeues, 1);
  EXPECT_GT(run.profile.stats.attempts, 8);
}

TEST(ClusterEngineTest, StragglerIsSpeculatedAndFirstFinisherWins) {
  FaultPlan faults;
  faults.stragglers.push_back(StragglerFault{1, 60.0});
  const SimClusterRun run =
      run_sim_cluster(4, index_tasks(6), square_task(1e7), {}, &faults);
  ASSERT_EQ(run.results.size(), 6u);
  expect_squares(run.results);
  // An idle fast worker duplicated the straggler's task and finished
  // first; the straggler was never declared dead (it heartbeats).
  EXPECT_GE(run.profile.stats.speculative_attempts, 1);
  EXPECT_TRUE(run.dead_workers.empty());
  bool superseded_duplicate = false;
  for (const ClusterEvent& e : run.profile.events) {
    if (e.kind == "dup-done") {
      superseded_duplicate = true;
    }
  }
  EXPECT_TRUE(superseded_duplicate);
}

TEST(ClusterEngineTest, AllWorkersDeadIsAClearErrorNotAHang) {
  FaultPlan faults;
  faults.crashes.push_back(CrashFault{1, 0});
  try {
    run_sim_cluster(2, index_tasks(3), square_task(1e7), {}, &faults);
    FAIL() << "expected ClusterError";
  } catch (const ClusterError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("worker(s) dead"), std::string::npos) << what;
    EXPECT_NE(what.find("outstanding"), std::string::npos) << what;
  }
}

TEST(ClusterEngineTest, ForgedDoneWithOutOfRangeTaskIdIsAClusterError) {
  const std::vector<std::vector<std::byte>> tasks = index_tasks(3);
  try {
    mp::SimWorld::run(2, [&](mp::SimComm& comm) {
      if (comm.rank() == 0) {
        run_cluster_tasks(comm, tasks, square_task(1e6));
        return;
      }
      // A raw rank speaking the engine protocol: a Done for the task id
      // one past the end of the task list.
      Writer writer;
      writer.i32(static_cast<std::int32_t>(tasks.size()));
      writer.u64(1);  // claim
      writer.u32(0);  // empty result blob
      comm.send_raw(0, detail::kTagDone,
                    mp::type_hash_of<std::vector<std::byte>>(), writer.take());
    });
    FAIL() << "expected ClusterError";
  } catch (const ClusterError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("rank 1"), std::string::npos) << what;
    EXPECT_NE(what.find("task id 3"), std::string::npos) << what;
  }
}

TEST(ClusterEngineTest, LostResultIsDetectedAndRequeued) {
  FaultPlan faults;
  faults.drops.push_back(DropResultFault{1, 0});
  const SimClusterRun run =
      run_sim_cluster(2, index_tasks(3), square_task(1e7), {}, &faults);
  ASSERT_EQ(run.results.size(), 3u);
  expect_squares(run.results);
  EXPECT_EQ(run.profile.stats.lost_results, 1);
  EXPECT_GE(run.profile.stats.requeues, 1);
  EXPECT_TRUE(run.dead_workers.empty());
}

TEST(ClusterEngineTest, PoisonousTaskExhaustsItsAttemptBudget) {
  FaultPlan faults;
  for (int nth = 0; nth < 10; ++nth) {
    faults.drops.push_back(DropResultFault{1, nth});
  }
  EXPECT_THROW(
      run_sim_cluster(2, index_tasks(1), square_task(1e6), {}, &faults),
      ClusterError);
}

TEST(ClusterEngineTest, FaultInjectionIsDeterministic) {
  const auto run_once = [] {
    FaultPlan faults;
    faults.stragglers.push_back(StragglerFault{3, 25.0});
    faults.crashes.push_back(CrashFault{4, 2});
    faults.delay_jitter_s = 1e-3;
    faults.seed = 42;
    return run_sim_cluster(5, index_tasks(12), square_task(1e7), {}, &faults);
  };
  const SimClusterRun a = run_once();
  const SimClusterRun b = run_once();
  EXPECT_EQ(a.profile.event_log(), b.profile.event_log());
  EXPECT_EQ(a.profile.to_json(), b.profile.to_json());
  EXPECT_DOUBLE_EQ(a.report.machine.makespan_s, b.report.machine.makespan_s);
  expect_identical_results(a.results, b.results);
  expect_squares(a.results);
}

TEST(ClusterEngineTest, ProfileRecordsScheduleAndEventLog) {
  const SimClusterRun run =
      run_sim_cluster(3, index_tasks(4), square_task(1e7));
  ASSERT_NE(run.profile.schedule, nullptr);
  EXPECT_FALSE(run.profile.schedule->timeline_chart(0).empty());
  const std::string log = run.profile.event_log();
  EXPECT_NE(log.find("assign"), std::string::npos);
  EXPECT_NE(log.find("done"), std::string::npos);
  EXPECT_NE(log.find("all-done"), std::string::npos);
  EXPECT_NE(run.profile.summary().find("4 task(s)"), std::string::npos);
  EXPECT_NE(run.profile.to_json().find("\"schema\":\"pblpar.cluster.v1\""),
            std::string::npos);
}

TEST(ClusterEngineTest, RunsOnTheHostWorldToo) {
  std::vector<mp::Buffer> results;
  ClusterProfile profile;
  mp::World::run(3, [&](mp::Comm& comm) {
    ClusterRunResult result = run_cluster_tasks(
        comm, index_tasks(6), square_task(0.0), {}, nullptr,
        comm.rank() == 0 ? &profile : nullptr);
    if (result.is_master) {
      results = std::move(result.results);
    }
  });
  ASSERT_EQ(results.size(), 6u);
  expect_squares(results);
  EXPECT_EQ(profile.stats.tasks, 6);
  EXPECT_EQ(profile.stats.workers, 2);
}

TEST(ClusterEngineTest, Validation) {
  EXPECT_THROW(run_sim_cluster(0, index_tasks(1), square_task(0.0)),
               util::PreconditionError);
  EXPECT_THROW(run_sim_cluster(2, index_tasks(1), nullptr),
               util::PreconditionError);
  ClusterOptions bad;
  bad.heartbeat_interval_s = 1.0;
  bad.heartbeat_timeout_s = 0.5;
  EXPECT_THROW(run_sim_cluster(2, index_tasks(1), square_task(0.0), bad),
               util::PreconditionError);
}

TEST(ClusterEngineTest, OptionsValidateIsLoudOnEveryField) {
  const auto expect_invalid = [](const ClusterOptions& options) {
    EXPECT_THROW(options.validate(), util::PreconditionError);
  };
  ClusterOptions ok;
  EXPECT_NO_THROW(ok.validate());

  ClusterOptions nan_deadline;
  nan_deadline.job_deadline_s = std::numeric_limits<double>::quiet_NaN();
  expect_invalid(nan_deadline);
  ClusterOptions negative_deadline;
  negative_deadline.job_deadline_s = -1.0;
  expect_invalid(negative_deadline);
  ClusterOptions infinite_deadline;
  infinite_deadline.job_deadline_s = std::numeric_limits<double>::infinity();
  expect_invalid(infinite_deadline);

  ClusterOptions nan_heartbeat;
  nan_heartbeat.heartbeat_interval_s = std::numeric_limits<double>::quiet_NaN();
  expect_invalid(nan_heartbeat);
  ClusterOptions negative_timeout;
  negative_timeout.task_timeout_s = -0.5;
  expect_invalid(negative_timeout);
  ClusterOptions nan_tick;
  nan_tick.tick_s = std::numeric_limits<double>::quiet_NaN();
  expect_invalid(nan_tick);
  ClusterOptions negative_speculation;
  negative_speculation.speculation_age_s = -2.0;
  expect_invalid(negative_speculation);
  ClusterOptions zero_attempts;
  zero_attempts.max_attempts_per_task = 0;
  expect_invalid(zero_attempts);
  ClusterOptions zero_live;
  zero_live.max_live_attempts = 0;
  expect_invalid(zero_live);
}

TEST(ClusterEngineTest, JobDeadlineCancelsTheRemainderDeterministically) {
  // Calibrate against an unconstrained run so the deadline lands mid-job
  // regardless of the machine model's absolute speed.
  const SimClusterRun clean =
      run_sim_cluster(3, index_tasks(8), square_task(2e7));
  ASSERT_FALSE(clean.job_cancelled);
  EXPECT_TRUE(clean.incomplete_tasks.empty());

  ClusterOptions options;
  options.job_deadline_s = clean.profile.stats.completion_s / 2.0;
  const auto run_once = [&options] {
    return run_sim_cluster(3, index_tasks(8), square_task(2e7), options);
  };
  const SimClusterRun run = run_once();
  EXPECT_TRUE(run.job_cancelled);
  ASSERT_FALSE(run.incomplete_tasks.empty());
  EXPECT_LT(run.incomplete_tasks.size(), 8u);
  EXPECT_EQ(run.profile.stats.cancelled_tasks,
            static_cast<int>(run.incomplete_tasks.size()));
  // Tasks that finished before the deadline keep their results; the
  // cancelled ones come back empty.
  for (std::size_t t = 0; t < run.results.size(); ++t) {
    const bool incomplete =
        std::find(run.incomplete_tasks.begin(), run.incomplete_tasks.end(),
                  static_cast<int>(t)) != run.incomplete_tasks.end();
    if (incomplete) {
      EXPECT_TRUE(run.results[t].empty()) << "task " << t;
    } else {
      Reader reader(run.results[t]);
      EXPECT_EQ(reader.i32(), static_cast<std::int32_t>(t * t))
          << "task " << t;
    }
  }
  const std::string log = run.profile.event_log();
  EXPECT_NE(log.find("job-deadline"), std::string::npos) << log;
  EXPECT_NE(log.find("cancel"), std::string::npos) << log;
  EXPECT_NE(run.profile.summary().find("cancelled at the job deadline"),
            std::string::npos);
  EXPECT_NE(run.profile.to_json().find("\"cancelled_tasks\""),
            std::string::npos);

  // Same deadline, same tasks: the drained schedule is bit-identical.
  const SimClusterRun again = run_once();
  EXPECT_EQ(run.profile.event_log(), again.profile.event_log());
  EXPECT_EQ(run.profile.to_json(), again.profile.to_json());
  expect_identical_results(run.results, again.results);
  EXPECT_EQ(run.incomplete_tasks, again.incomplete_tasks);
}

TEST(ClusterEngineTest, SerialRunHonoursTheJobDeadlineBetweenTasks) {
  const SimClusterRun clean =
      run_sim_cluster(1, index_tasks(4), square_task(1e7));
  ClusterOptions options;
  options.job_deadline_s = clean.profile.stats.completion_s / 2.0;
  const SimClusterRun run =
      run_sim_cluster(1, index_tasks(4), square_task(1e7), options);
  EXPECT_TRUE(run.job_cancelled);
  ASSERT_FALSE(run.incomplete_tasks.empty());
  // The task already in flight when the deadline passed still completed:
  // the serial path only polls between tasks.
  EXPECT_LT(run.incomplete_tasks.size(), 4u);
  Reader reader(run.results[0]);
  EXPECT_EQ(reader.i32(), 0);
  EXPECT_NE(run.profile.event_log().find("job-deadline"), std::string::npos);
}

TEST(ClusterFaultPlanTest, ValidateRejectsMalformedPlans) {
  FaultPlan ok;
  ok.crashes.push_back(CrashFault{1, 0});
  ok.stragglers.push_back(StragglerFault{2, 10.0});
  ok.drops.push_back(DropResultFault{3, 1});
  ok.delay_jitter_s = 1e-3;
  EXPECT_NO_THROW(ok.validate());

  FaultPlan negative_rank;
  negative_rank.crashes.push_back(CrashFault{-1, 0});
  EXPECT_THROW(negative_rank.validate(), util::PreconditionError);

  FaultPlan duplicate;
  duplicate.crashes.push_back(CrashFault{1, 0});
  duplicate.crashes.push_back(CrashFault{1, 2});
  EXPECT_THROW(duplicate.validate(), util::PreconditionError);

  FaultPlan jitter;
  jitter.delay_jitter_s = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(jitter.validate(), util::PreconditionError);

  FaultPlan slowdown;
  slowdown.stragglers.push_back(StragglerFault{1, 0.0});
  EXPECT_THROW(slowdown.validate(), util::PreconditionError);

  FaultPlan drop;
  drop.drops.push_back(DropResultFault{1, -1});
  EXPECT_THROW(drop.validate(), util::PreconditionError);
}

TEST(ClusterEngineTest, MalformedFaultPlanIsRejectedBeforeTheRunStarts) {
  FaultPlan faults;
  faults.crashes.push_back(CrashFault{-2, 0});
  EXPECT_THROW(
      run_sim_cluster(2, index_tasks(1), square_task(0.0), {}, &faults),
      util::PreconditionError);
}

}  // namespace
}  // namespace pblpar::cluster

#include "cluster/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cluster/jobs.hpp"
#include "mapreduce/jobs.hpp"
#include "mp/sim_world.hpp"
#include "rt/cancel.hpp"
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

/// Task ids that run B restored, and a check that none of them was ever
/// assigned again.
std::set<int> restored_and_never_reassigned(const ClusterProfile& profile) {
  std::set<int> restored;
  for (const ClusterEvent& e : profile.events) {
    if (e.kind == "restore") {
      restored.insert(e.task);
    }
  }
  for (const ClusterEvent& e : profile.events) {
    if (e.kind == "assign" || e.kind == "spec-assign") {
      EXPECT_EQ(restored.count(e.task), 0u)
          << "restored task " << e.task << " was re-run:\n"
          << profile.event_log();
    }
  }
  return restored;
}

TEST(ClusterCheckpointTest, KilledMasterResumesWithoutRerunningDoneTasks) {
  constexpr int kTasks = 8;
  // Calibrate a deadline that lands mid-job, so the "killed" master's
  // wind-down checkpoint holds a strict subset of the results.
  const SimClusterRun clean =
      run_sim_cluster(3, index_tasks(kTasks), square_task(2e7));

  ClusterCheckpoint checkpoint;
  ClusterOptions options_a;
  options_a.job_deadline_s = clean.profile.stats.completion_s / 2.0;
  options_a.checkpoint_interval_s = 1e-3;
  options_a.on_checkpoint = [&checkpoint](const ClusterCheckpoint& snapshot) {
    checkpoint = snapshot;  // keep the latest
  };
  const SimClusterRun run_a =
      run_sim_cluster(3, index_tasks(kTasks), square_task(2e7), options_a);
  ASSERT_TRUE(run_a.job_cancelled);
  ASSERT_FALSE(checkpoint.empty());
  EXPECT_GE(run_a.profile.stats.checkpoints, 1);
  EXPECT_NE(run_a.profile.event_log().find("checkpoint"), std::string::npos);
  // The wind-down snapshot captured exactly the results that landed.
  const int done_in_a = checkpoint.completed_tasks();
  ASSERT_GT(done_in_a, 0);
  ASSERT_LT(done_in_a, kTasks);
  EXPECT_EQ(checkpoint.task_count(), kTasks);
  EXPECT_EQ(done_in_a,
            kTasks - static_cast<int>(run_a.incomplete_tasks.size()));

  // "Restart the master": a fresh engine run resumes from the snapshot.
  ClusterOptions options_b;
  options_b.restart_from = &checkpoint;
  const SimClusterRun run_b =
      run_sim_cluster(3, index_tasks(kTasks), square_task(2e7), options_b);
  EXPECT_FALSE(run_b.job_cancelled);
  EXPECT_EQ(run_b.profile.stats.restored_tasks, done_in_a);
  expect_squares(run_b.results);

  const std::set<int> restored =
      restored_and_never_reassigned(run_b.profile);
  EXPECT_EQ(static_cast<int>(restored.size()), done_in_a);
}

TEST(ClusterCheckpointTest, FullCheckpointRestoresEverythingInstantly) {
  constexpr int kTasks = 5;
  ClusterCheckpoint checkpoint;
  ClusterOptions options;
  options.checkpoint_interval_s = 1e-3;
  options.on_checkpoint = [&checkpoint](const ClusterCheckpoint& snapshot) {
    checkpoint = snapshot;
  };
  const SimClusterRun run_a =
      run_sim_cluster(3, index_tasks(kTasks), square_task(1e6), options);
  expect_squares(run_a.results);
  ASSERT_EQ(checkpoint.completed_tasks(), kTasks);

  ClusterOptions restart;
  restart.restart_from = &checkpoint;
  const SimClusterRun run_b =
      run_sim_cluster(3, index_tasks(kTasks), square_task(1e6), restart);
  EXPECT_EQ(run_b.profile.stats.restored_tasks, kTasks);
  EXPECT_EQ(run_b.profile.stats.attempts, 0);
  expect_squares(run_b.results);
  restored_and_never_reassigned(run_b.profile);
}

TEST(ClusterCheckpointTest, SerialMasterCheckpointsAndRestores) {
  constexpr int kTasks = 6;
  ClusterCheckpoint checkpoint;
  ClusterOptions options;
  options.checkpoint_interval_s = 1e-6;  // every task boundary
  options.on_checkpoint = [&checkpoint](const ClusterCheckpoint& snapshot) {
    checkpoint = snapshot;
  };
  const SimClusterRun run_a =
      run_sim_cluster(1, index_tasks(kTasks), square_task(1e6), options);
  expect_squares(run_a.results);
  EXPECT_GE(run_a.profile.stats.checkpoints, 2);
  ASSERT_EQ(checkpoint.completed_tasks(), kTasks);

  ClusterOptions restart;
  restart.restart_from = &checkpoint;
  const SimClusterRun run_b =
      run_sim_cluster(1, index_tasks(kTasks), square_task(1e6), restart);
  EXPECT_EQ(run_b.profile.stats.restored_tasks, kTasks);
  EXPECT_EQ(run_b.profile.stats.attempts, 0);
  expect_squares(run_b.results);
}

TEST(ClusterCheckpointTest, CheckpointAndRestartReplayDeterministically) {
  ClusterCheckpoint checkpoint;
  ClusterOptions options;
  options.job_deadline_s = 0.05;
  options.checkpoint_interval_s = 1e-3;
  options.on_checkpoint = [&checkpoint](const ClusterCheckpoint& snapshot) {
    checkpoint = snapshot;
  };
  const auto run_once = [&] {
    const SimClusterRun a =
        run_sim_cluster(3, index_tasks(8), square_task(2e7), options);
    ClusterOptions restart;
    restart.restart_from = &checkpoint;
    const SimClusterRun b =
        run_sim_cluster(3, index_tasks(8), square_task(2e7), restart);
    return std::make_pair(a.profile.event_log() + b.profile.event_log(),
                          checkpoint.bytes);
  };
  const auto first = run_once();
  const auto second = run_once();
  EXPECT_EQ(first.first, second.first);
  EXPECT_EQ(first.second, second.second);
  EXPECT_NE(first.first.find("checkpoint"), std::string::npos);
  EXPECT_NE(first.first.find("restore"), std::string::npos);
}

TEST(ClusterCancelTokenTest, TokenFiredFromATaskBodyCancelsTheRun) {
  rt::CancelSource source;
  ClusterOptions options;
  options.cancel = source.token();
  // The third task to start pulls the plug mid-job; the master notices
  // at its next tick and drains.
  int started = 0;
  const TaskFn task_fn = [&](TaskContext& ctx, int task_id,
                             mp::ByteView payload) {
    if (++started == 3) {
      source.cancel();
    }
    return square_task(2e7)(ctx, task_id, payload);
  };
  const SimClusterRun run =
      run_sim_cluster(3, index_tasks(8), task_fn, options);
  EXPECT_TRUE(run.job_cancelled);
  EXPECT_FALSE(run.incomplete_tasks.empty());
  const std::string log = run.profile.event_log();
  EXPECT_NE(log.find("job-cancel"), std::string::npos) << log;
  EXPECT_EQ(log.find("job-deadline"), std::string::npos) << log;
}

TEST(ClusterCancelTokenTest, SerialRunHonoursTheTokenBetweenTasks) {
  rt::CancelSource source;
  ClusterOptions options;
  options.cancel = source.token();
  int executed = 0;
  const TaskFn task_fn = [&](TaskContext& ctx, int task_id,
                             mp::ByteView payload) {
    if (++executed == 2) {
      source.cancel();
    }
    return square_task(1e6)(ctx, task_id, payload);
  };
  const SimClusterRun run = run_sim_cluster(1, index_tasks(5), task_fn, options);
  EXPECT_TRUE(run.job_cancelled);
  EXPECT_EQ(executed, 2);
  EXPECT_EQ(run.incomplete_tasks.size(), 3u);
  EXPECT_NE(run.profile.event_log().find("job-cancel"), std::string::npos);
}

TEST(ClusterCancelTokenTest, UnfiredTokenChangesNothing) {
  rt::CancelSource source;
  ClusterOptions with_token;
  with_token.cancel = source.token();
  const SimClusterRun run =
      run_sim_cluster(3, index_tasks(6), square_task(1e7), with_token);
  EXPECT_FALSE(run.job_cancelled);
  expect_squares(run.results);
}

TEST(ClusterOptionsTest, ValidateRejectsBadCheckpointAndReliabilityKnobs) {
  const auto expect_invalid = [](const ClusterOptions& options) {
    EXPECT_THROW(options.validate(), util::PreconditionError);
  };
  {
    ClusterOptions options;
    options.checkpoint_interval_s = -1.0;
    expect_invalid(options);
  }
  {
    ClusterOptions options;
    options.checkpoint_interval_s = std::numeric_limits<double>::quiet_NaN();
    expect_invalid(options);
  }
  {
    ClusterOptions options;
    options.on_checkpoint = [](const ClusterCheckpoint&) {};
    expect_invalid(options);  // armed sink without a positive interval
  }
  {
    ClusterOptions options;
    options.reliability.max_retransmits = -2;
    expect_invalid(options);
  }
  {
    ClusterOptions options;
    options.reliability.backoff_factor =
        std::numeric_limits<double>::quiet_NaN();
    expect_invalid(options);
  }
  {
    ClusterCheckpoint garbage;
    garbage.bytes.assign(64, std::byte{0x5A});
    ClusterOptions options;
    options.restart_from = &garbage;
    expect_invalid(options);  // bad magic
  }
  {
    ClusterCheckpoint truncated;
    truncated.bytes.assign(3, std::byte{0});
    ClusterOptions options;
    options.restart_from = &truncated;
    expect_invalid(options);
  }
}

TEST(ClusterOptionsTest, CheckpointClaimingMoreDoneThanTasksIsRejected) {
  Writer writer;
  writer.u32(0x5042434BU);  // "PBCK"
  writer.u32(1);            // version
  writer.u32(2);            // task_count
  writer.u32(3);            // done_count > task_count
  ClusterCheckpoint inconsistent;
  inconsistent.bytes = writer.take();
  EXPECT_THROW((void)inconsistent.completed_tasks(), util::PreconditionError);
  ClusterOptions options;
  options.restart_from = &inconsistent;
  EXPECT_THROW(options.validate(), util::PreconditionError);
}

TEST(ClusterChaosTest, EngineSurvivesWireChaosWithReliability) {
  FaultPlan faults;
  faults.transport.seed = 13;
  faults.transport.all.drop = 0.05;
  faults.transport.all.duplicate = 0.05;
  ClusterOptions options;
  options.reliability.enabled = true;
  options.reliability.ack_timeout_s = 0.005;
  options.reliability.max_backoff_s = 0.1;

  const auto run_once = [&] {
    return run_sim_cluster(4, index_tasks(10), square_task(1e7), options,
                           &faults);
  };
  const SimClusterRun run = run_once();
  expect_squares(run.results);
  EXPECT_TRUE(run.dead_workers.empty());
  EXPECT_GT(run.profile.retry.retransmits, 0u)
      << "chaos never cost a retransmit; the test is vacuous";
  EXPECT_NE(run.profile.to_json().find("\"retransmits\""), std::string::npos);

  // Chaos, recovery and scheduling replay bit-for-bit.
  const SimClusterRun again = run_once();
  EXPECT_EQ(run.profile.event_log(), again.profile.event_log());
  EXPECT_EQ(run.profile.to_json(), again.profile.to_json());
}

TEST(ClusterChaosTest, ChaosInBothFaultPlanAndSpecIsRejected) {
  FaultPlan faults;
  faults.transport.all.drop = 0.1;
  mp::ClusterSpec spec;
  spec.chaos.all.drop = 0.1;
  ClusterOptions options;
  options.reliability.enabled = true;
  EXPECT_THROW(run_sim_cluster(2, index_tasks(2), square_task(1e6), options,
                               &faults, spec),
               util::PreconditionError);
}

TEST(ClusterChaosTest, DistMapReduceStaysByteIdenticalUnderChaos) {
  const std::vector<std::string> documents = {
      "the quick brown fox jumps over the lazy dog",
      "the dog barks at the fox",
      "parallel programming teaches patience and the dog agrees",
      "threads race but messages queue",
      "the master schedules and the workers compute",
  };
  const auto expected = mapreduce::word_count(documents, 1);

  FaultPlan faults;
  faults.transport.seed = 29;
  faults.transport.all.drop = 0.03;
  faults.transport.all.duplicate = 0.03;
  ClusterOptions options;
  options.reliability.enabled = true;
  options.reliability.ack_timeout_s = 0.005;
  options.reliability.max_backoff_s = 0.1;

  mp::ClusterSpec spec;
  spec.chaos = faults.transport;

  std::vector<std::vector<std::pair<std::string, long>>> per_rank(4);
  ClusterProfile profile;
  mp::SimWorld::run(
      4,
      [&](mp::SimComm& comm) {
        per_rank[static_cast<std::size_t>(comm.rank())] = jobs::word_count(
            comm, documents, {}, options, nullptr,
            comm.rank() == 0 ? &profile : nullptr);
      },
      spec);

  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(per_rank[static_cast<std::size_t>(r)], expected)
        << "rank " << r;
  }
  EXPECT_GT(profile.retry.retransmits + profile.retry.duplicates_dropped, 0u)
      << "chaos never bit the job; byte-identity was not exercised";
}

TEST(ClusterChaosTest, DistMapReduceCancelSurfacesOnEveryRank) {
  const std::vector<std::string> documents(40, "w x y z w v u t s r q p");
  rt::CancelSource source;
  source.cancel();  // already tripped: the job must die immediately
  ClusterOptions options;
  options.cancel = source.token();

  int cancelled_ranks = 0;
  mp::SimWorld::run(3, [&](mp::SimComm& comm) {
    try {
      jobs::word_count(comm, documents, {}, options);
      ADD_FAILURE() << "rank " << comm.rank() << " was not cancelled";
    } catch (const ClusterCancelled&) {
      ++cancelled_ranks;  // serialized ranks: safe
    }
  });
  EXPECT_EQ(cancelled_ranks, 3);
}

}  // namespace
}  // namespace pblpar::cluster

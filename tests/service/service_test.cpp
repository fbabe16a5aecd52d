#include "service/server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "rt/for_each.hpp"
#include "rt/parallel.hpp"
#include "service/jobs.hpp"
#include "util/error.hpp"

namespace pblpar::service {
namespace {

std::vector<std::string> sample_documents() {
  return {
      "the quick brown fox jumps over the lazy dog",
      "the dog barks at the fox",
      "parallel programming teaches patience and the dog agrees",
      "every tenant submits jobs to the campus server",
  };
}

/// A job that parks its lane until release() — the tests' way of filling
/// the queue deterministically before any scheduling decision is made.
/// Submit it, then wait_started() before queueing anything behind it:
/// until the lane has dispatched the gate, a job queued after it could
/// win the dispatch. Polls its cancel token so shutdown still drains it.
struct Gate {
  std::atomic<bool> started{false};
  std::atomic<bool> open{false};

  Job job() {
    Job gate_job;
    gate_job.kind = "gate";
    gate_job.run = [this](JobContext& context) {
      started.store(true, std::memory_order_release);
      while (!open.load(std::memory_order_acquire) &&
             !context.cancel_token().cancel_requested()) {
        std::this_thread::yield();
      }
      return JobOutcome{};
    };
    return gate_job;
  }

  void wait_started() {
    while (!started.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  }

  void release() { open.store(true, std::memory_order_release); }
};

/// Records job execution order (start order on the lane).
struct OrderLog {
  std::mutex mu;
  std::vector<std::string> names;

  Job job(std::string name) {
    Job logged;
    logged.kind = name;
    logged.run = [this, name](JobContext&) {
      {
        std::lock_guard<std::mutex> guard(mu);
        names.push_back(name);
      }
      return JobOutcome{};
    };
    return logged;
  }

  std::vector<std::string> snapshot() {
    std::lock_guard<std::mutex> guard(mu);
    return names;
  }
};

ServerOptions one_lane(int depth = 1024) {
  ServerOptions options;
  options.lanes = 1;
  options.max_queue_depth = depth;
  return options;
}

TEST(ServiceServerTest, SubmitRunsAndReports) {
  Server server({{"alice", 1.0}}, one_lane());
  JobTicket ticket = server.submit("alice", jobs::patternlet(256));
  const JobResult& result = ticket.wait();
  EXPECT_EQ(result.status, JobStatus::Done);
  EXPECT_EQ(result.outcome.work_items, 256);
  EXPECT_GE(result.queued_s, 0.0);
  EXPECT_GE(result.service_s, 0.0);
  EXPECT_EQ(result.completion_seq, 1u);
  EXPECT_TRUE(ticket.finished());
  EXPECT_EQ(ticket.tenant(), "alice");
  EXPECT_EQ(ticket.kind(), "patternlet");
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, 1);
  EXPECT_EQ(stats.submitted, 1);
  EXPECT_EQ(stats.rejected, 0);
}

TEST(ServiceServerTest, StrideSchedulingIsWeightedAndDeterministic) {
  // One lane, jobs piled up behind a gate: the dispatch order afterwards
  // is a pure function of the stride scheduler. alice (weight 3) must
  // get 3 dispatches for every bob (weight 1) dispatch, interleaved —
  // not front-loaded.
  Gate gate;
  OrderLog log;
  Server server({{"alice", 3.0}, {"bob", 1.0}, {"ops", 1.0}}, one_lane());
  JobTicket gate_ticket = server.submit("ops", gate.job());
  gate.wait_started();
  for (int i = 0; i < 6; ++i) {
    server.submit("alice", log.job("a" + std::to_string(i)));
  }
  for (int i = 0; i < 2; ++i) {
    server.submit("bob", log.job("b" + std::to_string(i)));
  }
  gate.release();
  server.drain();
  const std::vector<std::string> expected = {"a0", "b0", "a1", "a2",
                                             "a3", "b1", "a4", "a5"};
  EXPECT_EQ(log.snapshot(), expected);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, 9);  // 8 + the gate
}

TEST(ServiceServerTest, PriorityOrdersWithinTenantFifoWithinPriority) {
  Gate gate;
  OrderLog log;
  Server server({{"alice", 1.0}, {"ops", 1.0}}, one_lane());
  server.submit("ops", gate.job());
  gate.wait_started();
  JobOptions low;
  low.priority = 0;
  JobOptions high;
  high.priority = 5;
  JobOptions mid;
  mid.priority = 1;
  server.submit("alice", log.job("low0"), low);
  server.submit("alice", log.job("high"), high);
  server.submit("alice", log.job("mid"), mid);
  server.submit("alice", log.job("low1"), low);
  gate.release();
  server.drain();
  const std::vector<std::string> expected = {"high", "mid", "low0", "low1"};
  EXPECT_EQ(log.snapshot(), expected);
}

TEST(ServiceServerTest, HeavyTenantCannotStarveLightTenant) {
  Gate gate;
  Server server({{"heavy", 100.0}, {"light", 1.0}, {"ops", 1.0}},
                one_lane());
  server.submit("ops", gate.job());
  gate.wait_started();
  std::vector<JobTicket> heavy_tickets;
  for (int i = 0; i < 50; ++i) {
    heavy_tickets.push_back(server.submit("heavy", jobs::patternlet(16)));
  }
  JobTicket light = server.submit("light", jobs::patternlet(16));
  gate.release();
  server.drain();
  // Stride scheduling: after one heavy dispatch the heavy pass exceeds
  // the light tenant's, so the light job runs second or third overall —
  // not after the 50-job flood.
  EXPECT_EQ(light.wait().status, JobStatus::Done);
  EXPECT_LE(light.wait().completion_seq, 3u);
}

TEST(ServiceServerTest, RejectPolicyShedsLoadWithRetryAfter) {
  Gate gate;
  ServerOptions options = one_lane(1);
  options.admission = AdmissionPolicy::Reject;
  Server server({{"alice", 1.0}}, options);
  JobTicket running = server.submit("alice", gate.job());
  // Wait until the gate actually occupies the lane, so exactly one
  // queue slot is in play.
  gate.wait_started();
  JobTicket queued = server.submit("alice", jobs::patternlet(16));
  JobTicket shed = server.submit("alice", jobs::patternlet(16));
  const JobResult& rejected = shed.wait();
  EXPECT_EQ(rejected.status, JobStatus::Rejected);
  EXPECT_GT(rejected.retry_after_s, 0.0);
  EXPECT_FALSE(rejected.error.empty());
  EXPECT_EQ(rejected.completion_seq, 0u);
  gate.release();
  server.drain();
  EXPECT_EQ(queued.wait().status, JobStatus::Done);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.rejected, 1);
  EXPECT_LE(stats.queue_depth_high_water, 1);
}

TEST(ServiceServerTest, BlockPolicyBackpressuresTheSubmitter) {
  Gate gate;
  ServerOptions options = one_lane(1);
  options.admission = AdmissionPolicy::Block;
  Server server({{"alice", 1.0}}, options);
  JobTicket running = server.submit("alice", gate.job());
  gate.wait_started();
  server.submit("alice", jobs::patternlet(16));  // fills the one slot
  std::atomic<bool> admitted{false};
  JobTicket blocked;
  std::thread submitter([&] {
    blocked = server.submit("alice", jobs::patternlet(16));
    admitted.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(admitted.load(std::memory_order_acquire));
  gate.release();
  submitter.join();
  EXPECT_TRUE(admitted.load(std::memory_order_acquire));
  server.drain();
  EXPECT_EQ(blocked.wait().status, JobStatus::Done);
  EXPECT_EQ(server.stats().rejected, 0);
}

TEST(ServiceServerTest, DeadlineCancelsThroughTheRuntimeDrain) {
  Server server({{"alice", 1.0}}, one_lane());
  JobOptions options;
  options.deadline_s = 0.02;
  JobTicket ticket = server.submit(
      "alice", jobs::patternlet(std::int64_t{1} << 40, rt::Schedule::dynamic(1)),
      options);
  const JobResult& result = ticket.wait();
  EXPECT_EQ(result.status, JobStatus::Cancelled);
  EXPECT_EQ(result.cancel_cause, rt::CancelCause::Deadline);
  EXPECT_GE(result.salvaged_iterations, 0);
  // The server survives a cancelled job: the next one runs normally.
  EXPECT_EQ(server.submit("alice", jobs::patternlet(64)).wait().status,
            JobStatus::Done);
  EXPECT_EQ(server.stats().cancelled, 1);
}

TEST(ServiceServerTest, TicketCancelFiresTheJobsToken) {
  Server server({{"alice", 1.0}}, one_lane());
  JobTicket ticket = server.submit(
      "alice",
      jobs::patternlet(std::int64_t{1} << 40, rt::Schedule::dynamic(1)));
  while (ticket.status() == JobStatus::Queued) {
    std::this_thread::yield();
  }
  ticket.cancel();
  const JobResult& result = ticket.wait();
  EXPECT_EQ(result.status, JobStatus::Cancelled);
  EXPECT_EQ(result.cancel_cause, rt::CancelCause::Token);
}

TEST(ServiceServerTest, TraceCaptureRidesTheTicket) {
  Server server({{"alice", 1.0}}, one_lane());
  JobOptions traced;
  traced.record_trace = true;
  const JobResult& result =
      server.submit("alice", jobs::patternlet(128), traced).wait();
  EXPECT_EQ(result.status, JobStatus::Done);
  EXPECT_NE(result.outcome.profile, nullptr);
  // Untraced jobs pay no bookkeeping and carry no profile.
  const JobResult& untraced =
      server.submit("alice", jobs::patternlet(128)).wait();
  EXPECT_EQ(untraced.outcome.profile, nullptr);
}

TEST(ServiceServerTest, FailedJobReportsTheError) {
  Server server({{"alice", 1.0}}, one_lane());
  Job bad;
  bad.kind = "throws";
  bad.run = [](JobContext&) -> JobOutcome {
    throw std::runtime_error("lab machine on fire");
  };
  const JobResult& result = server.submit("alice", std::move(bad)).wait();
  EXPECT_EQ(result.status, JobStatus::Failed);
  EXPECT_NE(result.error.find("lab machine on fire"), std::string::npos);
  EXPECT_EQ(server.stats().failed, 1);
}

TEST(ServiceServerTest, ShutdownCancelsQueuedAndRunningJobs) {
  Gate gate;
  Server server({{"alice", 1.0}}, one_lane());
  JobTicket running = server.submit("alice", gate.job());
  gate.wait_started();
  JobTicket queued = server.submit("alice", jobs::patternlet(64));
  server.shutdown();
  // The gate polls its token, so shutdown's cancel drains it; the queued
  // job never dispatches.
  EXPECT_EQ(queued.wait().status, JobStatus::Cancelled);
  EXPECT_NE(queued.wait().error.find("before dispatch"), std::string::npos);
  EXPECT_TRUE(running.finished());
  EXPECT_EQ(server.submit("alice", jobs::patternlet(8)).wait().status,
            JobStatus::Rejected);
}

TEST(ServiceServerTest, InFlightAndDepthHighWatersTrackTheBurst) {
  Gate gate;
  Server server({{"alice", 1.0}, {"bob", 2.0}}, one_lane(4096));
  JobTicket running = server.submit("alice", gate.job());
  gate.wait_started();
  for (int i = 0; i < 50; ++i) {
    server.submit(i % 2 == 0 ? "alice" : "bob", jobs::patternlet(8));
  }
  ServerStats mid = server.stats();
  EXPECT_GE(mid.in_flight_high_water, 51);
  EXPECT_EQ(mid.queue_depth, 50);
  gate.release();
  server.drain();
  ServerStats done = server.stats();
  EXPECT_EQ(done.queue_depth, 0);
  EXPECT_EQ(done.in_flight, 0);
  EXPECT_LE(done.queue_depth_high_water, 4096);
  EXPECT_EQ(done.completed, 51);
}

TEST(ServiceServerTest, ValidationIsLoudAtTheBoundary) {
  Server server({{"alice", 1.0}}, one_lane());
  JobOptions nan_deadline;
  nan_deadline.deadline_s = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(server.submit("alice", jobs::patternlet(8), nan_deadline),
               util::PreconditionError);
  JobOptions negative_deadline;
  negative_deadline.deadline_s = -1.0;
  EXPECT_THROW(server.submit("alice", jobs::patternlet(8), negative_deadline),
               util::PreconditionError);
  JobOptions zero_cost;
  zero_cost.cost_units = 0.0;
  EXPECT_THROW(server.submit("alice", jobs::patternlet(8), zero_cost),
               util::PreconditionError);
  JobOptions no_threads;
  no_threads.threads = 0;
  EXPECT_THROW(server.submit("alice", jobs::patternlet(8), no_threads),
               util::PreconditionError);
  EXPECT_THROW(server.submit("mallory", jobs::patternlet(8)),
               util::PreconditionError);
  EXPECT_THROW(Server({}, one_lane()), util::PreconditionError);
  EXPECT_THROW(Server({{"a", 1.0}, {"a", 2.0}}, one_lane()),
               util::PreconditionError);
  EXPECT_THROW(Server({{"a", -1.0}}, one_lane()), util::PreconditionError);
  ServerOptions zero_lanes;
  zero_lanes.lanes = 0;
  EXPECT_THROW(Server({{"a", 1.0}}, zero_lanes), util::PreconditionError);
}

TEST(ServiceServerTest, DirectDeadlineFieldWritesAreRejectedByParallel) {
  // The satellite guarantee: a NaN/negative deadline written straight
  // into the field (bypassing .deadline()) fails loudly, not silently.
  rt::ParallelConfig config = rt::ParallelConfig::host(1);
  config.deadline_s = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(rt::parallel(config, [](rt::TeamContext&) {}),
               util::PreconditionError);
  config.deadline_s = -0.5;
  EXPECT_THROW(rt::parallel(config, [](rt::TeamContext&) {}),
               util::PreconditionError);
}

TEST(ServiceAdapterTest, DrugDesignSweepReportsTheBestBinder) {
  drugdesign::Config config;
  config.num_ligands = 24;
  config.max_ligand_len = 4;
  config.protein_len = 120;
  Server server({{"lab", 1.0}}, one_lane());
  const JobResult& result =
      server.submit("lab", jobs::drugdesign_sweep(config)).wait();
  EXPECT_EQ(result.status, JobStatus::Done);
  EXPECT_EQ(result.outcome.work_items, 24);
  EXPECT_NE(result.outcome.summary.find("best score"), std::string::npos);
}

TEST(ServiceAdapterTest, MapReduceWordCountRunsAndSalvagesOnCancel) {
  Server server({{"lab", 1.0}}, one_lane());
  const JobResult& full =
      server.submit("lab", jobs::mapreduce_word_count(sample_documents()))
          .wait();
  EXPECT_EQ(full.status, JobStatus::Done);
  EXPECT_EQ(full.outcome.work_items,
            static_cast<std::int64_t>(sample_documents().size()));

  // A ticket cancelled before dispatch: the mapreduce adapter's Salvage
  // policy turns the fired token into an empty-but-usable result, not an
  // exception.
  Gate gate;
  Server gated({{"lab", 1.0}, {"ops", 1.0}}, one_lane());
  gated.submit("ops", gate.job());
  gate.wait_started();
  JobTicket cancelled =
      gated.submit("lab", jobs::mapreduce_word_count(sample_documents()));
  cancelled.cancel();
  gate.release();
  const JobResult& salvaged = cancelled.wait();
  EXPECT_EQ(salvaged.status, JobStatus::Done);
  EXPECT_EQ(salvaged.outcome.work_items, 0);
  EXPECT_NE(salvaged.outcome.summary.find("cut short"), std::string::npos);
}

TEST(ServiceAdapterTest, ClusterWordCountRunsOnSimulatedRanks) {
  Server server({{"lab", 1.0}}, one_lane());
  const JobResult& result =
      server
          .submit("lab", jobs::cluster_word_count(sample_documents(), 3))
          .wait();
  EXPECT_EQ(result.status, JobStatus::Done);
  EXPECT_NE(result.outcome.summary.find("3 simulated ranks"),
            std::string::npos);
}

TEST(ServiceAdapterTest, MixedJobKindsShareOneServer) {
  drugdesign::Config config;
  config.num_ligands = 12;
  config.max_ligand_len = 3;
  config.protein_len = 80;
  Server server({{"alice", 2.0}, {"bob", 1.0}}, ServerOptions{});
  std::vector<JobTicket> tickets;
  for (int i = 0; i < 4; ++i) {
    tickets.push_back(server.submit("alice", jobs::patternlet(128)));
    tickets.push_back(server.submit("bob", jobs::drugdesign_sweep(config)));
    tickets.push_back(
        server.submit("alice", jobs::mapreduce_word_count(sample_documents())));
  }
  server.drain();
  for (const JobTicket& ticket : tickets) {
    EXPECT_EQ(ticket.wait().status, JobStatus::Done) << ticket.kind();
  }
}

}  // namespace
}  // namespace pblpar::service

// Golden Sim fingerprints of the cluster tier. The determinism tests
// elsewhere compare two runs of the same binary, so a change that shifts
// the Sim schedule the same way on both runs passes them; these tests
// compare against checked-in text instead. Any intended change to the
// Sim schedule must update the goldens explicitly:
//
//   PBLPAR_UPDATE_GOLDENS=1 ./cluster_golden_test
//
// rewrites tests/cluster/golden/*.txt from the current build.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/engine.hpp"
#include "cluster/jobs.hpp"
#include "mp/sim_world.hpp"

namespace pblpar::cluster {
namespace {

std::string golden_path(const std::string& name) {
  return std::string(PBLPAR_GOLDEN_DIR) + "/" + name;
}

void expect_golden(const std::string& name, const std::string& actual) {
  const std::string path = golden_path(name);
  if (std::getenv("PBLPAR_UPDATE_GOLDENS") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << actual;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden " << path;
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(expected.str(), actual)
      << "Sim fingerprint " << name << " changed; if intended, regenerate "
      << "with PBLPAR_UPDATE_GOLDENS=1";
}

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

void write_stats(std::ostream& os, const ClusterStats& stats) {
  os << "stats tasks=" << stats.tasks << " workers=" << stats.workers
     << " attempts=" << stats.attempts
     << " speculative_attempts=" << stats.speculative_attempts
     << " requeues=" << stats.requeues
     << " lost_results=" << stats.lost_results
     << " dead_workers=" << stats.dead_workers
     << " resurrections=" << stats.resurrections
     << " heartbeats=" << stats.heartbeats
     << " cancelled_tasks=" << stats.cancelled_tasks
     << " checkpoints=" << stats.checkpoints
     << " restored_tasks=" << stats.restored_tasks
     << " completion_s=" << stats.completion_s
     << " makespan_s=" << stats.makespan_s << "\n";
}

void write_retry(std::ostream& os, const RetryStats& retry) {
  os << "retry data_sent=" << retry.data_sent
     << " fire_and_forget_sent=" << retry.fire_and_forget_sent
     << " retransmits=" << retry.retransmits
     << " abandoned=" << retry.abandoned
     << " acks_sent=" << retry.acks_sent
     << " acks_received=" << retry.acks_received
     << " duplicates_dropped=" << retry.duplicates_dropped
     << " out_of_order_stashed=" << retry.out_of_order_stashed << "\n";
}

TEST(ClusterGoldenTest, CrashAndStragglerRunMatchesGolden) {
  FaultPlan faults;
  faults.crashes.push_back(CrashFault{2, 1});
  faults.stragglers.push_back(StragglerFault{3, 25.0});
  const SimClusterRun run =
      run_sim_cluster(4, index_tasks(12), square_task(1e7), {}, &faults);

  std::ostringstream os;
  os << std::setprecision(17);
  write_stats(os, run.profile.stats);
  for (std::size_t r = 0; r < run.profile.wire_messages.size(); ++r) {
    os << "wire rank=" << r << " messages=" << run.profile.wire_messages[r]
       << " bytes=" << run.profile.wire_bytes[r] << "\n";
  }
  for (std::size_t r = 0; r < run.report.rank_messages.size(); ++r) {
    os << "report rank=" << r << " messages=" << run.report.rank_messages[r]
       << " bytes=" << run.report.rank_bytes[r] << "\n";
  }
  os << "machine makespan_s=" << run.report.machine.makespan_s << "\n";
  os << "dead";
  for (const int w : run.dead_workers) {
    os << " " << w;
  }
  os << "\n" << run.profile.event_log();
  expect_golden("crash_straggler.txt", os.str());
}

TEST(ClusterGoldenTest, LossyReliableMapReduceMatchesGolden) {
  std::vector<std::string> documents;
  for (int d = 0; d < 24; ++d) {
    std::ostringstream doc;
    for (int w = 0; w < 12; ++w) {
      doc << "w" << ((d * 7 + w * 3) % 17) << " ";
    }
    documents.push_back(doc.str());
  }
  mp::ClusterSpec spec;
  spec.chaos.seed = 5;
  spec.chaos.all.drop = 0.05;
  ClusterOptions options;
  options.reliability.enabled = true;
  options.reliability.ack_timeout_s = 0.005;
  options.reliability.max_backoff_s = 0.1;

  std::vector<std::pair<std::string, long>> output;
  ClusterProfile profile;
  const mp::ClusterReport report = mp::SimWorld::run(
      4,
      [&](mp::SimComm& comm) {
        auto counts = jobs::word_count(comm, documents, {}, options, nullptr,
                                       comm.rank() == 0 ? &profile : nullptr);
        if (comm.rank() == 0) {
          output = std::move(counts);
        }
      },
      spec);

  std::ostringstream os;
  os << std::setprecision(17);
  write_retry(os, profile.retry);
  write_stats(os, profile.stats);
  os << "machine makespan_s=" << report.machine.makespan_s
     << " messages=" << report.messages
     << " payload_bytes=" << report.payload_bytes << "\n";
  for (const auto& [word, count] : output) {
    os << word << "=" << count << "\n";
  }
  expect_golden("lossy_reliable_wordcount.txt", os.str());
}

}  // namespace
}  // namespace pblpar::cluster

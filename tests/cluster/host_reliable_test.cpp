// The reliability layer on the host world: real threads, real clocks,
// and (in the lossy case) a host-world TransportChaos plan — the path
// the end-to-end cluster benchmark measures.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cluster/jobs.hpp"
#include "mapreduce/jobs.hpp"
#include "mp/world.hpp"

namespace pblpar::cluster {
namespace {

constexpr int kRanks = 4;

using Counts = std::vector<std::pair<std::string, long>>;

std::vector<std::string> corpus() {
  std::vector<std::string> documents;
  for (int d = 0; d < 40; ++d) {
    std::ostringstream doc;
    for (int w = 0; w < 16; ++w) {
      doc << "word" << ((d * 5 + w * w) % 23) << " ";
    }
    documents.push_back(doc.str());
  }
  return documents;
}

ClusterOptions reliable_options() {
  ClusterOptions options;
  options.reliability.enabled = true;
  options.reliability.ack_timeout_s = 0.005;
  options.reliability.max_backoff_s = 0.05;
  // Wall-clock liveness: keep a sanitizer build or a loaded host from
  // writing off a worker whose Done is only waiting for a retransmit.
  options.heartbeat_timeout_s = 2.0;
  return options;
}

struct HostRun {
  std::vector<Counts> per_rank = std::vector<Counts>(kRanks);
  std::uint64_t chaos_dropped = 0;
};

HostRun run_word_count(const mp::WorldOptions& world) {
  const std::vector<std::string> documents = corpus();
  jobs::JobTuning tuning;
  tuning.records_per_task = 4;
  const ClusterOptions options = reliable_options();
  HostRun run;
  std::vector<std::uint64_t> dropped(kRanks, 0);
  mp::World::run(
      kRanks,
      [&](mp::Comm& comm) {
        const auto rank = static_cast<std::size_t>(comm.rank());
        run.per_rank[rank] =
            jobs::word_count(comm, documents, tuning, options);
        dropped[rank] = comm.wire_stats().chaos_dropped;
      },
      world);
  for (const std::uint64_t count : dropped) {
    run.chaos_dropped += count;
  }
  return run;
}

TEST(ClusterHostReliabilityTest, WordCountMatchesTheThreadLocalJobOnEveryRank) {
  const Counts expected = mapreduce::word_count(corpus(), 1);
  const HostRun run = run_word_count({});
  for (int r = 0; r < kRanks; ++r) {
    EXPECT_EQ(run.per_rank[static_cast<std::size_t>(r)], expected)
        << "rank " << r;
  }
}

TEST(ClusterHostReliabilityTest, WordCountSurvivesFivePercentHostDrop) {
  const Counts expected = mapreduce::word_count(corpus(), 1);
  mp::WorldOptions world;
  world.chaos.seed = 11;
  world.chaos.all.drop = 0.05;
  const HostRun run = run_word_count(world);
  for (int r = 0; r < kRanks; ++r) {
    EXPECT_EQ(run.per_rank[static_cast<std::size_t>(r)], expected)
        << "rank " << r;
  }
  EXPECT_GT(run.chaos_dropped, 0u)
      << "the wire never dropped a frame; the test is vacuous";
}

}  // namespace
}  // namespace pblpar::cluster

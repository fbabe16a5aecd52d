#include "mp/sim_world.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "util/error.hpp"

namespace pblpar::mp {
namespace {

ClusterSpec fast_net() {
  // A cluster with negligible network costs: pure semantics testing.
  ClusterSpec spec;
  spec.net_latency_us = 0.0;
  spec.net_bandwidth_mb_s = 1e9;
  spec.send_overhead_us = 0.0;
  spec.node.fork_cost_us = 0.0;
  spec.node.join_cost_us = 0.0;
  spec.node.mutex_acquire_cost_us = 0.0;
  return spec;
}

TEST(SimWorldTest, RanksRunAndComplete) {
  std::set<int> seen;
  const ClusterReport report = SimWorld::run(5, [&](SimComm& comm) {
    EXPECT_EQ(comm.size(), 5);
    seen.insert(comm.rank());  // serialized real code: safe
  });
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(report.machine.spec.cores, 5);
}

TEST(SimWorldTest, PointToPointRoundTrip) {
  SimWorld::run(
      2,
      [](SimComm& comm) {
        if (comm.rank() == 0) {
          comm.send(1, 7, 42);
          EXPECT_EQ(comm.recv<int>(1, 8), 43);
        } else {
          comm.send(0, 8, comm.recv<int>(0, 7) + 1);
        }
      },
      fast_net());
}

TEST(SimWorldTest, CollectivesMatchHostSemantics) {
  for (const int ranks : {1, 2, 3, 4, 7}) {
    SimWorld::run(
        ranks,
        [ranks](SimComm& comm) {
          // bcast
          int token = comm.rank() == 0 ? 99 : -1;
          comm.bcast(token, 0);
          EXPECT_EQ(token, 99);
          // allreduce sum of ranks
          const int total = comm.allreduce(
              comm.rank(), [](int a, int b) { return a + b; });
          EXPECT_EQ(total, ranks * (ranks - 1) / 2);
          // gather at 1 (if it exists)
          const int root = ranks > 1 ? 1 : 0;
          const std::vector<int> all = comm.gather(comm.rank() * 2, root);
          if (comm.rank() == root) {
            ASSERT_EQ(all.size(), static_cast<std::size_t>(ranks));
            for (int r = 0; r < ranks; ++r) {
              EXPECT_EQ(all[static_cast<std::size_t>(r)], 2 * r);
            }
          }
          comm.barrier();
        },
        fast_net());
  }
}

TEST(SimWorldTest, AllgatherAndAllreduceAtOddSizesAndNonZeroRoots) {
  // The cluster shuffle leans on allreduce/allgather/scatter/gather with
  // variable-size payloads; exercise them away from powers of two and
  // away from root 0.
  for (const int ranks : {3, 5, 7}) {
    SimWorld::run(
        ranks,
        [ranks](SimComm& comm) {
          // allgather of variable-length strings.
          const std::string mine(
              static_cast<std::size_t>(comm.rank() + 1),
              static_cast<char>('a' + comm.rank()));
          const std::vector<std::string> all = comm.allgather(mine);
          ASSERT_EQ(all.size(), static_cast<std::size_t>(ranks));
          for (int r = 0; r < ranks; ++r) {
            EXPECT_EQ(all[static_cast<std::size_t>(r)],
                      std::string(static_cast<std::size_t>(r + 1),
                                  static_cast<char>('a' + r)));
          }
          // allreduce over doubles.
          const double total = comm.allreduce(
              0.5 * comm.rank(), [](double a, double b) { return a + b; });
          EXPECT_DOUBLE_EQ(total, 0.5 * ranks * (ranks - 1) / 2.0);
          // scatter/gather of variable-size vectors at the last rank.
          const int root = ranks - 1;
          std::vector<std::vector<int>> parts;
          if (comm.rank() == root) {
            for (int r = 0; r < ranks; ++r) {
              parts.emplace_back(static_cast<std::size_t>(r), r);
            }
          }
          const std::vector<int> part = comm.scatter(parts, root);
          EXPECT_EQ(part,
                    std::vector<int>(static_cast<std::size_t>(comm.rank()),
                                     comm.rank()));
          const auto collected = comm.gather(part, root);
          if (comm.rank() == root) {
            ASSERT_EQ(collected.size(), static_cast<std::size_t>(ranks));
            for (int r = 0; r < ranks; ++r) {
              EXPECT_EQ(collected[static_cast<std::size_t>(r)],
                        std::vector<int>(static_cast<std::size_t>(r), r));
            }
          }
        },
        fast_net());
  }
}

TEST(SimWorldTest, TimedRecvTimesOutAdvancingVirtualTime) {
  SimWorld::run(
      2,
      [](SimComm& comm) {
        if (comm.rank() == 1) {
          RawMessage msg;
          const double before = comm.context().now();
          const bool got = comm.recv_raw_timed(0, 5, 0.25, &msg);
          EXPECT_FALSE(got);  // nothing was ever sent
          EXPECT_NEAR(comm.context().now() - before, 0.25, 1e-9);
        }
      },
      fast_net());
}

TEST(SimWorldTest, ZeroAndNegativeTimeoutRecvIsAPoll) {
  SimWorld::run(
      2,
      [](SimComm& comm) {
        if (comm.rank() == 0) {
          RawMessage msg;
          // Rank 0 (the root thread) runs first, so nothing has been
          // sent yet: a zero (or negative, clamped) timeout scans the
          // inbox once, yields one deterministic scheduler step, and
          // reports false instead of blocking or throwing.
          EXPECT_FALSE(comm.recv_raw_timed(1, 5, 0.0, &msg));
          EXPECT_FALSE(comm.recv_raw_timed(1, 5, -0.5, &msg));
          EXPECT_EQ(comm.recv<int>(1, 5), 42);
          // Drained inbox: the poll still reports false immediately.
          EXPECT_FALSE(comm.recv_raw_timed(1, 5, 0.0, &msg));
        } else {
          comm.send(0, 5, 42);
        }
      },
      fast_net());
}

TEST(SimWorldTest, TimedRecvDeliversAMessageBeforeTheDeadline) {
  SimWorld::run(
      2,
      [](SimComm& comm) {
        if (comm.rank() == 0) {
          comm.context().compute_us(100.0);
          comm.send(1, 5, 42);
        } else {
          RawMessage msg;
          const bool got = comm.recv_raw_timed(0, 5, 10.0, &msg);
          ASSERT_TRUE(got);
          EXPECT_EQ(msg.source, 0);
          EXPECT_EQ(msg.tag, 5);
          EXPECT_LT(comm.context().now(), 1.0);  // did not wait out 10 s
        }
      },
      fast_net());
}

TEST(SimWorldTest, RingAllreduceOnCluster) {
  const int ranks = 4;
  SimWorld::run(
      ranks,
      [ranks](SimComm& comm) {
        std::vector<double> data(8, static_cast<double>(comm.rank()));
        const std::vector<double> reduced = comm.ring_allreduce_sum(data);
        for (const double v : reduced) {
          EXPECT_DOUBLE_EQ(v, ranks * (ranks - 1) / 2.0);
        }
      },
      fast_net());
}

TEST(SimWorldTest, MissingMessageIsDeadlockNotTimeout) {
  EXPECT_THROW(SimWorld::run(
                   2,
                   [](SimComm& comm) {
                     if (comm.rank() == 1) {
                       (void)comm.recv<int>(0, 5);  // never sent
                     }
                   },
                   fast_net()),
               sim::DeadlockError);
}

TEST(SimWorldTest, TypeMismatchThrows) {
  EXPECT_THROW(SimWorld::run(
                   2,
                   [](SimComm& comm) {
                     if (comm.rank() == 0) {
                       comm.send(1, 1, 3.5);
                     } else {
                       (void)comm.recv<int>(0, 1);
                     }
                   },
                   fast_net()),
               MpTypeError);
}

// --- network timing model ------------------------------------------------------

TEST(SimWorldTiming, LatencyIsChargedToTheReceiver) {
  ClusterSpec spec = fast_net();
  spec.net_latency_us = 500.0;
  double received_at = -1.0;
  const ClusterReport report = SimWorld::run(
      2,
      [&](SimComm& comm) {
        if (comm.rank() == 0) {
          comm.send(1, 1, 7);
        } else {
          (void)comm.recv<int>(0, 1);
          received_at = comm.context().now();
        }
      },
      spec);
  EXPECT_NEAR(received_at, 500e-6, 1e-9);
  EXPECT_GE(report.machine.makespan_s, 500e-6);
}

TEST(SimWorldTiming, BandwidthScalesWithPayload) {
  ClusterSpec spec = fast_net();
  spec.net_bandwidth_mb_s = 10.0;  // 10 bytes per microsecond
  const auto time_for = [&](std::size_t doubles) {
    double done_at = 0.0;
    SimWorld::run(
        2,
        [&](SimComm& comm) {
          if (comm.rank() == 0) {
            comm.send(1, 1, std::vector<double>(doubles, 1.0));
          } else {
            (void)comm.recv<std::vector<double>>(0, 1);
            done_at = comm.context().now();
          }
        },
        spec);
    return done_at;
  };
  const double small = time_for(1000);    // 8 KB
  const double large = time_for(4000);    // 32 KB
  EXPECT_NEAR(large / small, 4.0, 0.05);  // ~linear in bytes
}

TEST(SimWorldTiming, MessageCountersTrack) {
  const ClusterReport report = SimWorld::run(
      3,
      [](SimComm& comm) {
        if (comm.rank() != 0) {
          comm.send(0, 1, std::vector<double>(16, 0.0));
        } else {
          for (int i = 0; i < 2; ++i) {
            (void)comm.recv<std::vector<double>>(kAnySource, 1);
          }
        }
      },
      fast_net());
  EXPECT_EQ(report.messages, 2u);
  EXPECT_EQ(report.payload_bytes, 2u * 16u * sizeof(double));
}

TEST(SimWorldTiming, ComputeAndCommunicationCompose) {
  // A rank that computes 1 ms then sends; the receiver finishes after
  // compute + transfer + latency.
  ClusterSpec spec = fast_net();
  spec.net_latency_us = 100.0;
  spec.send_overhead_us = 10.0;
  double done = 0.0;
  SimWorld::run(
      2,
      [&](SimComm& comm) {
        if (comm.rank() == 0) {
          comm.context().compute_us(1000.0);
          comm.send(1, 1, 42);
        } else {
          (void)comm.recv<int>(0, 1);
          done = comm.context().now();
        }
      },
      spec);
  // 1000us compute + 10us overhead + ~0 transfer + 100us latency.
  EXPECT_NEAR(done, 1110e-6, 1e-8);
}

TEST(SimWorldTiming, DeterministicAcrossRuns) {
  const auto run_once = [] {
    return SimWorld::run(4, [](SimComm& comm) {
             const int total = comm.allreduce(
                 comm.rank() + 1, [](int a, int b) { return a + b; });
             (void)total;
             comm.context().compute_us(50.0 * (comm.rank() + 1));
             comm.barrier();
           })
        .machine.makespan_s;
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

/// Counts and virtual makespan of one Sim cluster word count; both are
/// deterministic for a given job.
struct WordCountResult {
  std::vector<int> counts;
  double makespan_s = 0.0;
  bool operator==(const WordCountResult&) const = default;
};

/// A 3-rank word count: rank r counts every third line of a corpus drawn
/// from `job`, charging modelled work per word, and rank 0 sums the
/// counts.
WordCountResult sim_word_count(int job) {
  static const std::vector<std::string> vocab = {
      "map", "reduce", "rank", "core", "pi", "mpi", "thread", "barrier"};
  std::vector<std::string> lines(24);
  std::uint32_t state = 2654435761u * static_cast<std::uint32_t>(job + 1);
  for (std::string& line : lines) {
    for (int word = 0; word < 6; ++word) {
      state = state * 1664525u + 1013904223u;
      line += vocab[state >> 29] + " ";
    }
  }
  WordCountResult result;
  const ClusterReport report = SimWorld::run(3, [&](SimComm& comm) {
    std::vector<int> counts(vocab.size(), 0);
    for (std::size_t i = static_cast<std::size_t>(comm.rank());
         i < lines.size(); i += static_cast<std::size_t>(comm.size())) {
      std::istringstream words(lines[i]);
      std::string word;
      while (words >> word) {
        const auto at = std::find(vocab.begin(), vocab.end(), word);
        ++counts[static_cast<std::size_t>(at - vocab.begin())];
        comm.charge_ops(50.0);
      }
    }
    comm.reduce_elementwise(counts, std::plus<int>{}, 0);
    if (comm.rank() == 0) {
      result.counts = counts;
    }
  });
  result.makespan_s = report.machine.makespan_s;
  return result;
}

TEST(SimWorldTest, ConcurrentHostThreadsMatchASerialRun) {
  // Two host threads run Sim worlds at once, as the service lanes do, so
  // their fibers draw on the shared stack cache together.
  constexpr int kJobsPerThread = 50;
  std::vector<WordCountResult> serial;
  for (int job = 0; job < 2 * kJobsPerThread; ++job) {
    serial.push_back(sim_word_count(job));
  }
  std::vector<WordCountResult> concurrent(serial.size());
  const auto lane = [&](int first) {
    for (int job = first; job < first + kJobsPerThread; ++job) {
      concurrent[static_cast<std::size_t>(job)] = sim_word_count(job);
    }
  };
  std::thread a(lane, 0);
  std::thread b(lane, kJobsPerThread);
  a.join();
  b.join();
  EXPECT_EQ(concurrent, serial);
  EXPECT_EQ(std::accumulate(serial[0].counts.begin(), serial[0].counts.end(),
                            0),
            24 * 6);
}

TEST(SimWorldTest, Validation) {
  EXPECT_THROW(SimWorld::run(0, [](SimComm&) {}), util::PreconditionError);
  EXPECT_THROW(SimWorld::run(2, nullptr), util::PreconditionError);
  ClusterSpec bad;
  bad.net_bandwidth_mb_s = 0.0;
  EXPECT_THROW(SimWorld::run(2, [](SimComm&) {}, bad),
               util::PreconditionError);
}

}  // namespace
}  // namespace pblpar::mp

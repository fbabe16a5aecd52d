#include "cluster/reliable.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "mp/chaos.hpp"
#include "mp/sim_world.hpp"
#include "util/error.hpp"

namespace pblpar::cluster {
namespace {

mp::ClusterSpec fast_net() {
  mp::ClusterSpec spec;
  spec.net_latency_us = 0.0;
  spec.net_bandwidth_mb_s = 1e9;
  spec.send_overhead_us = 0.0;
  spec.node.fork_cost_us = 0.0;
  spec.node.join_cost_us = 0.0;
  spec.node.mutex_acquire_cost_us = 0.0;
  return spec;
}

/// Short retransmit timers: virtual time is free, and tight timers keep
/// the loss-recovery machinery busy.
ReliabilityOptions fast_reliability() {
  ReliabilityOptions options;
  options.enabled = true;
  options.ack_timeout_s = 0.01;
  options.max_backoff_s = 0.1;
  options.jitter_s = 0.001;
  options.recv_timeout_s = 60.0;
  return options;
}

/// Keep servicing the wire (acking retransmits) for a grace window after
/// this rank's own work is flushed, so a peer whose last ack chaos ate
/// can still complete its flush — a rank that just exits re-creates the
/// very message loss the layer exists to absorb.
void linger(ReliableComm& reliable, double window_s = 5.0) {
  mp::RawMessage raw;
  while (reliable.recv_raw_timed(mp::kAnySource, /*tag=*/1 << 28, window_s,
                                 &raw)) {
  }
}

TEST(ReliabilityOptionsTest, ValidateRejectsDegenerateTuning) {
  {
    ReliabilityOptions options;
    options.ack_timeout_s = 0.0;
    EXPECT_THROW(options.validate(), util::PreconditionError);
  }
  {
    ReliabilityOptions options;
    options.backoff_factor = 0.5;
    EXPECT_THROW(options.validate(), util::PreconditionError);
  }
  {
    ReliabilityOptions options;
    options.backoff_factor = std::numeric_limits<double>::infinity();
    EXPECT_THROW(options.validate(), util::PreconditionError);
  }
  {
    ReliabilityOptions options;
    options.max_backoff_s = 0.01;  // below the 0.05 ack timeout
    EXPECT_THROW(options.validate(), util::PreconditionError);
  }
  {
    ReliabilityOptions options;
    options.jitter_s = -1.0;
    EXPECT_THROW(options.validate(), util::PreconditionError);
  }
  {
    ReliabilityOptions options;
    options.max_retransmits = -1;
    EXPECT_THROW(options.validate(), util::PreconditionError);
  }
  {
    ReliabilityOptions options;
    options.recv_timeout_s = 0.0;
    EXPECT_THROW(options.validate(), util::PreconditionError);
  }
}

TEST(ReliableCommTest, InOrderExactlyOnceDeliveryUnderDropAndDuplicate) {
  constexpr int kSends = 150;
  mp::ClusterSpec spec = fast_net();
  spec.chaos.seed = 3;
  spec.chaos.all.drop = 0.2;
  spec.chaos.all.duplicate = 0.2;

  RetryStats sender_stats;
  std::vector<int> received;
  mp::SimWorld::run(
      2,
      [&](mp::SimComm& comm) {
        ReliableComm reliable(comm, fast_reliability());
        if (comm.rank() == 1) {
          for (int i = 0; i < kSends; ++i) {
            reliable.send(0, 5, i);
          }
          EXPECT_EQ(reliable.flush(), 0u);
          sender_stats = reliable.retry_stats();
        } else {
          for (int i = 0; i < kSends; ++i) {
            received.push_back(reliable.recv<int>(1, 5));
          }
          linger(reliable);  // keep acking the sender's retransmits
        }
      },
      spec);

  // Exactly once, in order — despite a 20% drop / 20% duplicate wire.
  std::vector<int> expected(kSends);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(received, expected);
  EXPECT_GT(sender_stats.retransmits, 0u);
  EXPECT_EQ(sender_stats.abandoned, 0u);
  EXPECT_EQ(sender_stats.data_sent, static_cast<std::uint64_t>(kSends));
}

TEST(ReliableCommTest, CollectivesSurviveChaosWithCorrectResults) {
  constexpr int kRanks = 4;
  mp::ClusterSpec spec = fast_net();
  spec.chaos.seed = 9;
  spec.chaos.all.drop = 0.1;
  spec.chaos.all.duplicate = 0.1;

  std::vector<RetryStats> stats(kRanks);
  mp::SimWorld::run(
      kRanks,
      [&](mp::SimComm& comm) {
        ReliableComm reliable(comm, fast_reliability());

        int token = comm.rank() == 0 ? 1234 : -1;
        reliable.bcast(token, 0);
        EXPECT_EQ(token, 1234);

        const std::vector<int> all = reliable.allgather(comm.rank() * 3);
        ASSERT_EQ(all.size(), static_cast<std::size_t>(kRanks));
        for (int r = 0; r < kRanks; ++r) {
          EXPECT_EQ(all[static_cast<std::size_t>(r)], 3 * r);
        }

        std::vector<double> data(64);
        for (std::size_t i = 0; i < data.size(); ++i) {
          data[i] = static_cast<double>(comm.rank()) + static_cast<double>(i);
        }
        reliable.ring_allreduce(data, [](double a, double b) { return a + b; });
        const double rank_sum = kRanks * (kRanks - 1) / 2.0;
        for (std::size_t i = 0; i < data.size(); ++i) {
          EXPECT_DOUBLE_EQ(data[i],
                           rank_sum + kRanks * static_cast<double>(i));
        }

        EXPECT_EQ(reliable.flush(), 0u);
        stats[static_cast<std::size_t>(comm.rank())] = reliable.retry_stats();
        linger(reliable);
      },
      spec);

  std::uint64_t total_retransmits = 0;
  std::uint64_t total_dups_dropped = 0;
  for (const RetryStats& s : stats) {
    total_retransmits += s.retransmits;
    total_dups_dropped += s.duplicates_dropped;
    EXPECT_EQ(s.abandoned, 0u);
  }
  EXPECT_GT(total_retransmits, 0u) << "chaos never bit; test is vacuous";
  EXPECT_GT(total_dups_dropped, 0u);
}

/// Retransmit counts are part of the determinism contract: the whole
/// recovery trajectory (not just the payload outcome) replays exactly.
TEST(ReliableCommTest, RetransmitCountsReplayExactlyOnSim) {
  const auto run_once = [] {
    mp::ClusterSpec spec = fast_net();
    spec.chaos.seed = 17;
    spec.chaos.all.drop = 0.15;
    spec.chaos.all.duplicate = 0.1;
    std::vector<std::uint64_t> fingerprint;
    mp::SimWorld::run(
        3,
        [&](mp::SimComm& comm) {
          ReliableComm reliable(comm, fast_reliability());
          const std::vector<int> all = reliable.allgather(comm.rank() + 7);
          EXPECT_EQ(all, (std::vector<int>{7, 8, 9}));
          std::vector<double> sums =
              reliable.ring_allreduce_sum({1.0, 2.0, 3.0, 4.0});
          EXPECT_EQ(sums, (std::vector<double>{3.0, 6.0, 9.0, 12.0}));
          reliable.flush();
          const RetryStats& s = reliable.retry_stats();
          // Ranks are serialized by the simulator: safe shared push.
          fingerprint.push_back(s.data_sent);
          fingerprint.push_back(s.retransmits);
          fingerprint.push_back(s.acks_sent);
          fingerprint.push_back(s.acks_received);
          fingerprint.push_back(s.duplicates_dropped);
          fingerprint.push_back(s.out_of_order_stashed);
          linger(reliable);
        },
        spec);
    return fingerprint;
  };

  const std::vector<std::uint64_t> a = run_once();
  const std::vector<std::uint64_t> b = run_once();
  EXPECT_EQ(a, b);
  std::uint64_t retransmits = 0;
  for (std::size_t r = 0; r < 3; ++r) {
    retransmits += a[r * 6 + 1];
  }
  EXPECT_GT(retransmits, 0u) << "plan never fired; replay check is vacuous";
}

TEST(ReliableCommTest, FlushAbandonsAfterBudgetWhenPeerNeverAcks) {
  mp::SimWorld::run(
      2,
      [&](mp::SimComm& comm) {
        ReliabilityOptions options = fast_reliability();
        options.max_retransmits = 3;
        ReliableComm reliable(comm, options);
        if (comm.rank() == 1) {
          // Rank 0 never reads its inbox, so no ack ever comes back.
          reliable.send(0, 5, 42);
          const std::uint64_t abandoned = reliable.flush();
          EXPECT_EQ(abandoned, 1u);
          const RetryStats& stats = reliable.retry_stats();
          EXPECT_EQ(stats.retransmits, 3u);
          EXPECT_EQ(stats.abandoned, 1u);
        }
      },
      fast_net());
}

TEST(ReliableCommTest, FireAndForgetSkipsTheRetryMachinery) {
  mp::SimWorld::run(
      2,
      [&](mp::SimComm& comm) {
        ReliableComm reliable(comm, fast_reliability());
        if (comm.rank() == 1) {
          reliable.send_raw_fire_and_forget(
              0, 5, mp::type_hash_of<int>(), mp::Codec<int>::encode(99));
          EXPECT_EQ(reliable.flush(), 0u);  // nothing pending
          const RetryStats& stats = reliable.retry_stats();
          EXPECT_EQ(stats.fire_and_forget_sent, 1u);
          EXPECT_EQ(stats.data_sent, 0u);
        } else {
          EXPECT_EQ(reliable.recv<int>(1, 5), 99);
          EXPECT_EQ(reliable.retry_stats().acks_sent, 0u);
        }
      },
      fast_net());
}

TEST(ReliableCommTest, UnenvelopedMessageFailsLoudly) {
  EXPECT_THROW(
      mp::SimWorld::run(
          2,
          [&](mp::SimComm& comm) {
            if (comm.rank() == 1) {
              comm.send(0, 5, 7);  // bare transport: no envelope
            } else {
              ReliableComm reliable(comm, fast_reliability());
              reliable.recv<int>(1, 5);
            }
          },
          fast_net()),
      mp::MpError);
}

TEST(ReliableCommTest, RecvTimesOutAsDeadlockWhenNothingArrives) {
  mp::SimWorld::run(
      2,
      [&](mp::SimComm& comm) {
        if (comm.rank() == 0) {
          ReliabilityOptions options = fast_reliability();
          options.recv_timeout_s = 0.2;
          ReliableComm reliable(comm, options);
          EXPECT_THROW(reliable.recv<int>(1, 5), mp::MpDeadlockError);
        }
      },
      fast_net());
}

}  // namespace
}  // namespace pblpar::cluster

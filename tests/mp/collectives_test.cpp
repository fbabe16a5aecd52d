#include "mp/collectives.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "mp/sim_world.hpp"
#include "mp/world.hpp"
#include "util/error.hpp"

namespace pblpar::mp {
namespace {

WorldOptions fast_timeout() {
  WorldOptions options;
  options.recv_timeout_s = 5.0;
  return options;
}

// Payloads above the pipeline threshold so the segmented paths run.
constexpr std::size_t kBigDoubles =
    (3 * detail::kPipelineSegmentBytes) / sizeof(double) + 129;  // ~768 KiB, ragged

std::vector<double> rank_pattern(int rank, std::size_t count) {
  std::vector<double> values(count);
  for (std::size_t i = 0; i < count; ++i) {
    values[i] = static_cast<double>(rank) +
                static_cast<double>(i % 1024) * 0.001;
  }
  return values;
}

// --- Host world, parametrized over non-power-of-two and size-1 worlds ----

class HostCollectiveTest : public ::testing::TestWithParam<int> {};

TEST_P(HostCollectiveTest, LargeBcastDeliversEveryByte) {
  const int ranks = GetParam();
  World::run(ranks,
             [](Comm& comm) {
               std::vector<double> data;
               if (comm.rank() == 0) {
                 data = rank_pattern(7, kBigDoubles);
               }
               comm.bcast(data, 0);
               const std::vector<double> expected =
                   rank_pattern(7, kBigDoubles);
               ASSERT_EQ(data.size(), expected.size());
               EXPECT_TRUE(std::equal(data.begin(), data.end(),
                                      expected.begin()));
             },
             fast_timeout());
}

TEST_P(HostCollectiveTest, LargeBcastFromNonZeroRoot) {
  const int ranks = GetParam();
  const int root = ranks - 1;
  World::run(ranks,
             [root](Comm& comm) {
               std::string text;
               if (comm.rank() == root) {
                 text.assign(2 * detail::kPipelineSegmentBytes + 37, 'z');
               }
               comm.bcast(text, root);
               EXPECT_EQ(text.size(), 2 * detail::kPipelineSegmentBytes + 37);
               EXPECT_EQ(text.front(), 'z');
               EXPECT_EQ(text.back(), 'z');
             },
             fast_timeout());
}

TEST_P(HostCollectiveTest, AllgatherLargePayloads) {
  const int ranks = GetParam();
  World::run(ranks,
             [](Comm& comm) {
               constexpr std::size_t kPerRank = 1 << 15;  // 256 KiB each
               const std::vector<double> mine =
                   rank_pattern(comm.rank(), kPerRank);
               const std::vector<std::vector<double>> all =
                   comm.allgather(mine);
               ASSERT_EQ(all.size(), static_cast<std::size_t>(comm.size()));
               for (int r = 0; r < comm.size(); ++r) {
                 const std::vector<double> expected =
                     rank_pattern(r, kPerRank);
                 ASSERT_EQ(all[static_cast<std::size_t>(r)].size(),
                           expected.size());
                 EXPECT_TRUE(std::equal(
                     all[static_cast<std::size_t>(r)].begin(),
                     all[static_cast<std::size_t>(r)].end(),
                     expected.begin()))
                     << "rank " << r;
               }
             },
             fast_timeout());
}

TEST_P(HostCollectiveTest, AllgatherViewMatchesAllgather) {
  const int ranks = GetParam();
  World::run(ranks,
             [](Comm& comm) {
               constexpr std::size_t kPerRank = 20'001;
               const std::vector<PayloadView<double>> views =
                   comm.allgather_view(
                       rank_pattern(comm.rank(), kPerRank));
               ASSERT_EQ(views.size(), static_cast<std::size_t>(comm.size()));
               for (int r = 0; r < comm.size(); ++r) {
                 const std::vector<double> expected =
                     rank_pattern(r, kPerRank);
                 const PayloadView<double>& view =
                     views[static_cast<std::size_t>(r)];
                 ASSERT_EQ(view.size(), expected.size());
                 EXPECT_TRUE(std::equal(view.begin(), view.end(),
                                        expected.begin()))
                     << "rank " << r;
               }
             },
             fast_timeout());
}

TEST_P(HostCollectiveTest, ReduceElementwiseLargeVector) {
  const int ranks = GetParam();
  World::run(ranks,
             [](Comm& comm) {
               std::vector<double> data =
                   rank_pattern(comm.rank(), kBigDoubles);
               comm.reduce_elementwise(
                   data, [](double a, double b) { return a + b; }, 0);
               if (comm.rank() == 0) {
                 const int n = comm.size();
                 const double rank_sum = n * (n - 1) / 2.0;
                 for (std::size_t i = 0; i < kBigDoubles; i += 4097) {
                   const double expected =
                       rank_sum + n * static_cast<double>(i % 1024) * 0.001;
                   ASSERT_NEAR(data[i], expected, 1e-9) << "element " << i;
                 }
               }
             },
             fast_timeout());
}

TEST_P(HostCollectiveTest, AllreduceElementwiseMatchesOnEveryRank) {
  const int ranks = GetParam();
  World::run(ranks,
             [](Comm& comm) {
               std::vector<std::int64_t> data(100'000);
               for (std::size_t i = 0; i < data.size(); ++i) {
                 data[i] = comm.rank() + static_cast<std::int64_t>(i);
               }
               comm.allreduce_elementwise(
                   data,
                   [](std::int64_t a, std::int64_t b) { return a + b; });
               const int n = comm.size();
               const std::int64_t rank_sum = n * (n - 1) / 2;
               for (std::size_t i = 0; i < data.size(); i += 999) {
                 ASSERT_EQ(data[i],
                           rank_sum + n * static_cast<std::int64_t>(i))
                     << "element " << i;
               }
             },
             fast_timeout());
}

TEST_P(HostCollectiveTest, RingAllreduceAnyCountAnyType) {
  const int ranks = GetParam();
  World::run(ranks,
             [](Comm& comm) {
               // A count picked to not divide most world sizes.
               std::vector<std::int64_t> data(100'003);
               for (std::size_t i = 0; i < data.size(); ++i) {
                 data[i] = comm.rank() + 1 + static_cast<std::int64_t>(i % 7);
               }
               comm.ring_allreduce(
                   data,
                   [](std::int64_t a, std::int64_t b) { return a + b; });
               const std::int64_t n = comm.size();
               for (std::size_t i = 0; i < data.size(); i += 1001) {
                 const std::int64_t expected =
                     n * (n + 1) / 2 + n * static_cast<std::int64_t>(i % 7);
                 ASSERT_EQ(data[i], expected) << "element " << i;
               }
             },
             fast_timeout());
}

TEST_P(HostCollectiveTest, RawScatterGatherRoundTrip) {
  const int ranks = GetParam();
  World::run(ranks,
             [](Comm& comm) {
               std::vector<Buffer> blobs;
               if (comm.rank() == 0) {
                 for (int r = 0; r < comm.size(); ++r) {
                   blobs.push_back(Codec<std::vector<std::int32_t>>::encode(
                       std::vector<std::int32_t>(
                           static_cast<std::size_t>(r) + 1, r)));
                 }
               }
               Buffer mine = comm.scatter_raw(std::move(blobs), 0);
               const std::span<const std::int32_t> values =
                   Codec<std::vector<std::int32_t>>::view(mine);
               ASSERT_EQ(values.size(),
                         static_cast<std::size_t>(comm.rank()) + 1);
               EXPECT_EQ(values.front(), comm.rank());

               const std::vector<Buffer> gathered =
                   comm.gather_raw(Buffer(mine), 0);
               if (comm.rank() == 0) {
                 ASSERT_EQ(gathered.size(),
                           static_cast<std::size_t>(comm.size()));
                 for (int r = 0; r < comm.size(); ++r) {
                   const auto view =
                       Codec<std::vector<std::int32_t>>::view(
                           gathered[static_cast<std::size_t>(r)]);
                   ASSERT_EQ(view.size(), static_cast<std::size_t>(r) + 1);
                   EXPECT_EQ(view.front(), r);
                 }
               }
             },
             fast_timeout());
}

INSTANTIATE_TEST_SUITE_P(RankCounts, HostCollectiveTest,
                         ::testing::Values(1, 3, 5, 6, 8));

// --- Element-wise collectives on vectors of different lengths ------------

enum class Elementwise { kReduce, kRing };

class ElementwiseLengthMismatchTest
    : public ::testing::TestWithParam<std::tuple<Elementwise, int>> {};

TEST_P(ElementwiseLengthMismatchTest, LongerVectorOnOneRankFailsTheCall) {
  const Elementwise kind = std::get<0>(GetParam());
  const int ranks = std::get<1>(GetParam());
  const auto add = [](double a, double b) { return a + b; };
  // The last rank holds 2000x the elements of the others: a fold or copy
  // that trusted the incoming length would write far past a short vector.
  EXPECT_THROW(
      World::run(ranks,
                 [kind, add](Comm& comm) {
                   std::vector<double> data(
                       comm.rank() == comm.size() - 1 ? 4000 : 2, 1.0);
                   if (kind == Elementwise::kReduce) {
                     comm.reduce_elementwise(data, add, 0);
                   } else {
                     comm.ring_allreduce(data, add);
                   }
                 },
                 fast_timeout()),
      util::PreconditionError);
}

INSTANTIATE_TEST_SUITE_P(
    CollectivesAndRankCounts, ElementwiseLengthMismatchTest,
    ::testing::Combine(::testing::Values(Elementwise::kReduce,
                                         Elementwise::kRing),
                       ::testing::Values(2, 3)),
    [](const ::testing::TestParamInfo<std::tuple<Elementwise, int>>& info) {
      return std::string(std::get<0>(info.param) == Elementwise::kReduce
                             ? "ReduceElementwise"
                             : "RingAllreduce") +
             std::to_string(std::get<1>(info.param)) + "Ranks";
    });

// On Sim the element-wise reduce is segmented (kPipelineSegmentBytes is
// 32 768 doubles), so these lengths differ by whole segments: every
// segment either rank sends has the size the other expects, and only the
// total count carried by the first segment tells them apart.
TEST(ElementwiseSegmentCountTest, ChildLongerByWholeSegmentsFailsTheCall) {
  EXPECT_THROW(SimWorld::run(2,
                             [](SimComm& comm) {
                               std::vector<double> data(
                                   comm.rank() == 0 ? 32768 : 65536,
                                   comm.rank() == 0 ? 1.0 : 100.0);
                               comm.reduce_elementwise(
                                   data,
                                   [](double a, double b) { return a + b; },
                                   0);
                             }),
               util::PreconditionError);
}

TEST(ElementwiseSegmentCountTest, RootLongerByWholeSegmentsFailsTheCall) {
  EXPECT_THROW(SimWorld::run(2,
                             [](SimComm& comm) {
                               std::vector<double> data(
                                   comm.rank() == 0 ? 65536 : 32768, 1.0);
                               comm.reduce_elementwise(
                                   data,
                                   [](double a, double b) { return a + b; },
                                   0);
                             }),
               util::PreconditionError);
}

// --- Zero-copy accounting ----------------------------------------------

TEST(CopyDisciplineTest, RvalueSendToViewRecvCountsZeroCopies) {
  World::run(2,
             [](Comm& comm) {
               if (comm.rank() == 0) {
                 std::vector<double> values(1 << 16, 1.5);  // 512 KiB
                 payload_copy_reset_stats();
                 comm.send(1, 1, std::move(values));
                 // Adoption ships the vector's own heap block.
                 EXPECT_EQ(payload_copy_stats().copies, 0u);
               } else {
                 const PayloadView<double> view = comm.recv_view<double>(0, 1);
                 ASSERT_EQ(view.size(), std::size_t{1} << 16);
                 EXPECT_EQ(view[0], 1.5);
                 EXPECT_EQ(view[view.size() - 1], 1.5);
               }
             },
             fast_timeout());
}

TEST(CopyDisciplineTest, LargeBcastCopiesAtMostOncePerHop) {
  // A large contiguous bcast costs one counted copy at the root (encode)
  // and exactly one per non-root rank: the single-frame take() into the
  // caller's string on the default (unsegmented) host world, or the
  // segment assembly when segmentation is forced. Forwarding to tree
  // children shares refcounted buffers and must not add per-hop copies.
  // The copy counters are process-global, so the whole 4-rank world is
  // accounted at once.
  constexpr int kRanks = 4;
  for (const std::size_t segment : {std::size_t{0}, std::size_t{64} << 10}) {
    WorldOptions options = fast_timeout();
    options.pipeline_segment_bytes = segment;
    World::run(kRanks,
               [](Comm& comm) {
                 constexpr std::size_t kBytes =
                     3 * detail::kPipelineSegmentBytes;
                 std::string text;
                 if (comm.rank() == 0) {
                   text.assign(kBytes, 'p');
                 }
                 comm.barrier();
                 if (comm.rank() == 0) {
                   // Safe to reset here: every payload copy of the bcast
                   // happens after the root (reset first) sends data.
                   payload_copy_reset_stats();
                 }
                 comm.bcast(text, 0);
                 EXPECT_EQ(text.size(), kBytes);
                 comm.barrier();
                 if (comm.rank() == 0) {
                   const CopyStats stats = payload_copy_stats();
                   EXPECT_GE(stats.bytes, 4 * kBytes);
                   // Slack covers the barrier frames' tiny scalar copies.
                   EXPECT_LE(stats.bytes, 4 * kBytes + 4096);
                 }
               },
               options);
  }
}

TEST(CopyDisciplineTest, HostBcastRawForwardsWithoutAnyCopy) {
  // On the host a frame is a refcounted pointer and the default world
  // never segments, so a raw broadcast of any size moves through the
  // whole tree without a single payload copy.
  constexpr int kRanks = 4;
  World::run(kRanks,
             [](Comm& comm) {
               constexpr std::size_t kCount =
                   (std::size_t{2} << 20) / sizeof(double);  // 2 MiB
               Buffer payload;
               if (comm.rank() == 0) {
                 payload = Codec<std::vector<double>>::encode(
                     std::vector<double>(kCount, 0.5));
               }
               comm.barrier();
               if (comm.rank() == 0) {
                 payload_copy_reset_stats();
               }
               comm.bcast_raw(payload, 0);
               const std::span<const double> view =
                   Codec<std::vector<double>>::view(payload);
               ASSERT_EQ(view.size(), kCount);
               EXPECT_EQ(view[kCount - 1], 0.5);
               comm.barrier();
               if (comm.rank() == 0) {
                 EXPECT_EQ(payload_copy_stats().bytes, 0u);
               }
             },
             fast_timeout());
}

TEST(CopyDisciplineTest, AllgatherViewCopiesOnlyThePack) {
  // allgather_view's only counted copies are rank 0 packing the blobs
  // into the broadcast frame: sends adopt the moved vectors, the frame
  // forwards refcounted, and every view aliases it in place.
  constexpr int kRanks = 4;
  World::run(kRanks,
             [](Comm& comm) {
               // doubles: 256 KiB per rank
               constexpr std::size_t kPerRank = 1 << 15;
               comm.barrier();
               if (comm.rank() == 0) {
                 payload_copy_reset_stats();
               }
               const std::vector<PayloadView<double>> views =
                   comm.allgather_view(rank_pattern(comm.rank(), kPerRank));
               ASSERT_EQ(views.size(), static_cast<std::size_t>(kRanks));
               for (int r = 0; r < kRanks; ++r) {
                 const std::vector<double> expected =
                     rank_pattern(r, kPerRank);
                 const PayloadView<double>& view =
                     views[static_cast<std::size_t>(r)];
                 ASSERT_EQ(view.size(), kPerRank);
                 EXPECT_TRUE(std::equal(view.begin(), view.end(),
                                        expected.begin()))
                     << "rank " << r;
               }
               // The views alias one packed frame, laid out back to back
               // behind their length prefixes.
               EXPECT_EQ(static_cast<const void*>(views[1].begin()),
                         static_cast<const void*>(
                             reinterpret_cast<const std::byte*>(
                                 views[0].begin()) +
                             kPerRank * sizeof(double) +
                             sizeof(std::uint64_t)));
               comm.barrier();
               if (comm.rank() == 0) {
                 const CopyStats stats = payload_copy_stats();
                 EXPECT_EQ(stats.copies, static_cast<std::uint64_t>(kRanks));
                 EXPECT_EQ(stats.bytes, kRanks * kPerRank * sizeof(double));
               }
             },
             fast_timeout());
}

TEST(HostSegmentationTest, ForcedSegmentationDeliversTheSameBytes) {
  // The segmented network protocol exercised under real threads: a world
  // configured with a small segment size must deliver exactly what the
  // default single-frame world does, typed and raw.
  WorldOptions options = fast_timeout();
  options.pipeline_segment_bytes = std::size_t{64} << 10;
  World::run(6,
             [](Comm& comm) {
               constexpr std::size_t kCount =
                   (std::size_t{1} << 20) / sizeof(std::int32_t) + 33;
               std::vector<std::int32_t> data;
               if (comm.rank() == 4) {
                 data.resize(kCount);
                 for (std::size_t i = 0; i < kCount; ++i) {
                   data[i] = static_cast<std::int32_t>(i * 2654435761u);
                 }
               }
               comm.bcast(data, 4);
               ASSERT_EQ(data.size(), kCount);
               for (std::size_t i = 0; i < kCount; i += 9973) {
                 ASSERT_EQ(data[i],
                           static_cast<std::int32_t>(i * 2654435761u))
                     << "element " << i;
               }
               Buffer raw;
               if (comm.rank() == 1) {
                 raw = Codec<std::string>::encode(std::string(300'000, 'q'));
               }
               comm.bcast_raw(raw, 1);
               ASSERT_EQ(raw.size(), 300'000u);
               EXPECT_EQ(raw.view()[299'999], std::byte{'q'});
             },
             options);
}

// --- Simulated cluster: message-count and determinism contracts ---------

TEST(SimCollectiveTest, AllgatherUsesLinearMessageCount) {
  // gather (n-1 sends) + one packed broadcast (n-1 sends for a small
  // frame) = 2(n-1) messages, down from the old n*ceil(log2 n).
  for (const int ranks : {2, 3, 5, 8}) {
    const ClusterReport report = SimWorld::run(ranks, [](SimComm& comm) {
      const std::vector<std::int32_t> all = comm.allgather(comm.rank());
      ASSERT_EQ(all.size(), static_cast<std::size_t>(comm.size()));
      for (int r = 0; r < comm.size(); ++r) {
        EXPECT_EQ(all[static_cast<std::size_t>(r)], r);
      }
    });
    EXPECT_EQ(report.messages,
              static_cast<std::uint64_t>(2 * (ranks - 1)))
        << "world size " << ranks;
  }
}

TEST(SimCollectiveTest, AllgatherViewKeepsTheLinearMessageCount) {
  const ClusterReport report = SimWorld::run(5, [](SimComm& comm) {
    std::vector<std::int64_t> mine(3, comm.rank());
    const std::vector<PayloadView<std::int64_t>> views =
        comm.allgather_view(std::move(mine));
    ASSERT_EQ(views.size(), 5u);
    for (int r = 0; r < 5; ++r) {
      ASSERT_EQ(views[static_cast<std::size_t>(r)].size(), 3u);
      EXPECT_EQ(views[static_cast<std::size_t>(r)][0], r);
    }
  });
  EXPECT_EQ(report.messages, 8u);  // 2 * (n - 1), same as allgather
}

TEST(SimCollectiveTest, SingleRankAllgatherSendsNothing) {
  const ClusterReport report = SimWorld::run(1, [](SimComm& comm) {
    const std::vector<std::int32_t> all = comm.allgather(comm.rank());
    ASSERT_EQ(all.size(), 1u);
    EXPECT_EQ(all[0], 0);
  });
  EXPECT_EQ(report.messages, 0u);
}

TEST(SimCollectiveTest, PerRankWireCountersSumToTheTotals) {
  const ClusterReport report = SimWorld::run(6, [](SimComm& comm) {
    std::vector<double> data = rank_pattern(comm.rank(), 40'000);
    comm.allreduce_elementwise(
        data, [](double a, double b) { return a + b; });
    const WireStats mine = comm.wire_stats();
    EXPECT_GT(mine.messages, 0u);
    EXPECT_GT(mine.bytes, 0u);
  });
  ASSERT_EQ(report.rank_messages.size(), 6u);
  ASSERT_EQ(report.rank_bytes.size(), 6u);
  EXPECT_EQ(std::accumulate(report.rank_messages.begin(),
                            report.rank_messages.end(), std::uint64_t{0}),
            report.messages);
  EXPECT_EQ(std::accumulate(report.rank_bytes.begin(),
                            report.rank_bytes.end(), std::uint64_t{0}),
            report.payload_bytes);
}

TEST(SimCollectiveTest, LargeCollectivesAreDeterministicOnSim) {
  // Fingerprint = (makespan, messages, bytes, checksum of the results).
  const auto run_once = [] {
    double checksum = 0.0;
    const ClusterReport report = SimWorld::run(5, [&](SimComm& comm) {
      std::vector<double> data =
          rank_pattern(comm.rank(), kBigDoubles / 8);
      comm.bcast(data, 2);
      comm.allreduce_elementwise(
          data, [](double a, double b) { return a + b; });
      std::vector<double> ring = rank_pattern(comm.rank() + 1, 10'007);
      comm.ring_allreduce(ring,
                          [](double a, double b) { return a + b; });
      if (comm.rank() == 0) {
        checksum = std::accumulate(data.begin(), data.end(), 0.0) +
                   std::accumulate(ring.begin(), ring.end(), 0.0);
      }
    });
    return std::tuple(report.machine.makespan_s, report.messages,
                      report.payload_bytes, checksum);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a, b);
}

TEST(SimCollectiveTest, SegmentedBcastMatchesWholeFrameResults) {
  // The pipelined path (above the threshold) must deliver the same bytes
  // the single-frame path would; check against the known pattern on a
  // non-power-of-two world.
  SimWorld::run(6, [](SimComm& comm) {
    std::vector<std::int32_t> data;
    const std::size_t count = detail::kPipelineSegmentBytes;  // 1 MiB of int32s
    if (comm.rank() == 3) {
      data.resize(count);
      for (std::size_t i = 0; i < count; ++i) {
        data[i] = static_cast<std::int32_t>(i * 2654435761u);
      }
    }
    comm.bcast(data, 3);
    ASSERT_EQ(data.size(), count);
    for (std::size_t i = 0; i < count; i += 40'009) {
      ASSERT_EQ(data[i], static_cast<std::int32_t>(i * 2654435761u))
          << "element " << i;
    }
  });
}

TEST(SimCollectiveTest, RawPathsRunOnSimToo) {
  SimWorld::run(3, [](SimComm& comm) {
    std::vector<Buffer> blobs;
    if (comm.rank() == 0) {
      for (int r = 0; r < 3; ++r) {
        blobs.push_back(Codec<std::string>::encode(
            std::string(static_cast<std::size_t>(r + 1) * 100, 'a')));
      }
    }
    const Buffer mine = comm.scatter_raw(std::move(blobs), 0);
    EXPECT_EQ(mine.size(),
              static_cast<std::size_t>(comm.rank() + 1) * 100);

    Buffer big;
    if (comm.rank() == 1) {
      big = Codec<std::string>::encode(
          std::string(2 * detail::kPipelineSegmentBytes + 5, 'b'));
    }
    comm.bcast_raw(big, 1);
    EXPECT_EQ(big.size(), 2 * detail::kPipelineSegmentBytes + 5);
    const std::vector<Buffer> gathered = comm.gather_raw(big.slice(0, 10), 0);
    if (comm.rank() == 0) {
      ASSERT_EQ(gathered.size(), 3u);
      for (const Buffer& blob : gathered) {
        EXPECT_EQ(blob.size(), 10u);
      }
    }
  });
}

// --- Binomial tree and packed allgather frame ----------------------------

TEST(BinomialTreeTest, ParentAtTheLowestSetBitChildrenBelowIt) {
  // Six ranks rooted at 0: 0 -> {1, 2, 4}, 2 -> {3}, 4 -> {5}.
  const std::vector<std::pair<int, std::vector<int>>> expected = {
      {-1, {1, 2, 4}}, {0, {}}, {0, {3}}, {2, {}}, {0, {5}}, {4, {}}};
  for (int rank = 0; rank < 6; ++rank) {
    const detail::BinomialTree tree = detail::binomial_tree(rank, 0, 6);
    EXPECT_EQ(tree.parent, expected[static_cast<std::size_t>(rank)].first)
        << "rank " << rank;
    EXPECT_EQ(tree.children, expected[static_cast<std::size_t>(rank)].second)
        << "rank " << rank;
  }
  // The same tree shifted by the root: rooted at 3 of 5, relative rank
  // r is absolute (r + 3) mod 5.
  const detail::BinomialTree root = detail::binomial_tree(3, 3, 5);
  EXPECT_EQ(root.parent, -1);
  EXPECT_EQ(root.children, (std::vector<int>{4, 0, 2}));
  const detail::BinomialTree last = detail::binomial_tree(2, 3, 5);
  EXPECT_EQ(last.parent, 3);
  EXPECT_TRUE(last.children.empty());
}

/// A packed allgather frame: each slice as a u64 length, then its bytes.
Buffer pack_frame(const std::vector<std::string>& slices) {
  std::vector<std::byte> bytes;
  for (const std::string& slice : slices) {
    const auto len = static_cast<std::uint64_t>(slice.size());
    const auto* len_bytes = reinterpret_cast<const std::byte*>(&len);
    bytes.insert(bytes.end(), len_bytes, len_bytes + sizeof(len));
    const auto* data = reinterpret_cast<const std::byte*>(slice.data());
    bytes.insert(bytes.end(), data, data + slice.size());
  }
  return Buffer::copy_of(bytes.data(), bytes.size());
}

TEST(PackedFrameTest, WellFormedFrameParsesBackExactly) {
  const std::vector<std::string> slices = {"", "alpha", "", "b",
                                           std::string(300, 'x'), ""};
  const Buffer packed = pack_frame(slices);
  std::size_t cursor = 0;
  for (const std::string& slice : slices) {
    const auto [offset, len] = detail::next_packed_slice(packed, cursor);
    ASSERT_EQ(len, slice.size());
    EXPECT_EQ(std::string(reinterpret_cast<const char*>(packed.data()) +
                              offset,
                          len),
              slice);
  }
  EXPECT_EQ(cursor, packed.size());
  EXPECT_THROW(detail::next_packed_slice(packed, cursor), MpTypeError);
}

TEST(PackedFrameTest, TruncatedLengthPrefixThrows) {
  const Buffer whole = pack_frame({"abc", "defg"});
  // Cut the second slice's 8-byte length prefix short.
  const Buffer cut = whole.slice(0, sizeof(std::uint64_t) + 3 + 5);
  std::size_t cursor = 0;
  EXPECT_EQ(detail::next_packed_slice(cut, cursor).second, 3u);
  EXPECT_THROW(detail::next_packed_slice(cut, cursor), MpTypeError);

  std::size_t empty_cursor = 0;
  EXPECT_THROW(detail::next_packed_slice(Buffer{}, empty_cursor),
               MpTypeError);
}

TEST(PackedFrameTest, InflatedLengthThrowsAndAllocatesNothing) {
  for (const std::uint64_t inflated :
       {std::uint64_t{5}, std::uint64_t{1} << 40,
        std::numeric_limits<std::uint64_t>::max()}) {
    Buffer packed = pack_frame({"abcd"});  // 4 bytes follow the prefix
    std::memcpy(packed.mutable_data(), &inflated, sizeof(inflated));
    const PoolStats pool_before = buffer_pool_stats();
    const CopyStats copies_before = payload_copy_stats();
    std::size_t cursor = 0;
    EXPECT_THROW(detail::next_packed_slice(packed, cursor), MpTypeError)
        << "length " << inflated;
    const PoolStats pool_after = buffer_pool_stats();
    EXPECT_EQ(pool_after.hits + pool_after.misses,
              pool_before.hits + pool_before.misses);
    EXPECT_EQ(payload_copy_stats().copies, copies_before.copies);
  }
}

}  // namespace
}  // namespace pblpar::mp

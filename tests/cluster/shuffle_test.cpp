// The distributed MapReduce shuffle: detail::splice_partitions against
// the decode -> task-order concatenation -> re-encode it replaces, for
// every shipped (K2, V2) type, its typed errors on malformed map results,
// and a DistJob sweep over world sizes and reducer counts (with and
// without a combiner, and with a crashed worker) against the
// thread-local jobs.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "cluster/dist_mapreduce.hpp"
#include "cluster/jobs.hpp"
#include "mapreduce/jobs.hpp"
#include "mp/sim_world.hpp"

namespace pblpar::cluster {
namespace {

template <class T>
T random_field(std::mt19937_64& rng) {
  if constexpr (std::is_same_v<T, std::string>) {
    std::string text(rng() % 12, 'a');
    for (char& c : text) {
      c = static_cast<char>('a' + rng() % 26);
    }
    return text;
  } else if constexpr (std::is_floating_point_v<T>) {
    return static_cast<T>(rng() % 100000) / 64.0;
  } else {
    return static_cast<T>(rng() % 2001) - 1000;
  }
}

template <class Pair>
using Bucket = std::vector<Pair>;

/// `tasks` map results of `reducers` random buckets each; about a third
/// of the buckets are empty.
template <class Pair>
std::vector<std::vector<Bucket<Pair>>> random_buckets(std::mt19937_64& rng,
                                                      int tasks,
                                                      int reducers) {
  std::vector<std::vector<Bucket<Pair>>> out(static_cast<std::size_t>(tasks));
  for (auto& buckets : out) {
    buckets.resize(static_cast<std::size_t>(reducers));
    for (auto& bucket : buckets) {
      const std::size_t count = rng() % 3 == 0 ? 0 : rng() % 9;
      for (std::size_t i = 0; i < count; ++i) {
        bucket.emplace_back(random_field<typename Pair::first_type>(rng),
                            random_field<typename Pair::second_type>(rng));
      }
    }
  }
  return out;
}

template <class Pair>
std::vector<mp::Buffer> encode_results(
    const std::vector<std::vector<Bucket<Pair>>>& task_buckets) {
  std::vector<mp::Buffer> results;
  for (const auto& buckets : task_buckets) {
    Writer writer;
    for (const auto& bucket : buckets) {
      WireCodec<Bucket<Pair>>::write(writer, bucket);
    }
    results.emplace_back(writer.take());
  }
  return results;
}

/// The shuffle the splice replaced: decode every result, concatenate each
/// partition's buckets in task order, re-encode per owner.
template <class Pair>
std::vector<std::vector<std::byte>> decode_and_reencode(
    const std::vector<mp::Buffer>& results, int reducers,
    const std::vector<std::int32_t>& live, int size) {
  std::vector<std::vector<Bucket<Pair>>> task_buckets;
  for (const mp::Buffer& result : results) {
    Reader reader(result);
    std::vector<Bucket<Pair>> buckets;
    for (int p = 0; p < reducers; ++p) {
      buckets.push_back(WireCodec<Bucket<Pair>>::read(reader));
    }
    task_buckets.push_back(std::move(buckets));
  }
  std::vector<Writer> writers(static_cast<std::size_t>(size));
  for (int p = 0; p < reducers; ++p) {
    Bucket<Pair> merged;
    for (const auto& buckets : task_buckets) {
      const auto& bucket = buckets[static_cast<std::size_t>(p)];
      merged.insert(merged.end(), bucket.begin(), bucket.end());
    }
    const auto owner = static_cast<std::size_t>(
        live[static_cast<std::size_t>(p) % live.size()]);
    WireCodec<Bucket<Pair>>::write(writers[owner], merged);
  }
  std::vector<std::vector<std::byte>> blobs;
  for (Writer& writer : writers) {
    blobs.push_back(writer.take());
  }
  return blobs;
}

template <class Pair>
void expect_splice_matches_reencode(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  for (int round = 0; round < 40; ++round) {
    const int size = 1 + static_cast<int>(rng() % 5);
    std::vector<std::int32_t> live;
    for (int r = 0; r < size; ++r) {
      if (r == 0 || rng() % 4 != 0) {
        live.push_back(r);
      }
    }
    // Up to 9 partitions: often more than there are live ranks.
    const int reducers = 1 + static_cast<int>(rng() % 9);
    const int tasks = round == 0 ? 0 : static_cast<int>(rng() % 7);
    const std::vector<mp::Buffer> results =
        encode_results(random_buckets<Pair>(rng, tasks, reducers));

    const std::vector<mp::Buffer> spliced =
        detail::splice_partitions<Pair>(results, reducers, live, size);
    const std::vector<std::vector<std::byte>> expected =
        decode_and_reencode<Pair>(results, reducers, live, size);
    ASSERT_EQ(spliced.size(), expected.size());
    for (std::size_t r = 0; r < spliced.size(); ++r) {
      const mp::ByteView view = spliced[r].view();
      EXPECT_EQ(std::vector<std::byte>(view.begin(), view.end()), expected[r])
          << "round " << round << ", rank " << r << " (" << tasks
          << " tasks, " << reducers << " reducers, " << live.size()
          << " live of " << size << ")";
    }
  }
}

TEST(ShuffleSpliceTest, MatchesDecodeAndReencodeForStringLongPairs) {
  expect_splice_matches_reencode<std::pair<std::string, long>>(1);
}

TEST(ShuffleSpliceTest, MatchesDecodeAndReencodeForStringIntPairs) {
  expect_splice_matches_reencode<std::pair<std::string, int>>(2);
}

TEST(ShuffleSpliceTest, MatchesDecodeAndReencodeForIntStringPairs) {
  expect_splice_matches_reencode<std::pair<int, std::string>>(3);
}

TEST(ShuffleSpliceTest, MatchesDecodeAndReencodeForStringDoublePairs) {
  expect_splice_matches_reencode<std::pair<std::string, double>>(4);
}

TEST(ShuffleSpliceTest, ZeroTasksGiveEveryOwnerEmptyPartitions) {
  const std::vector<std::int32_t> live = {0, 2};
  const std::vector<mp::Buffer> spliced =
      detail::splice_partitions<std::pair<std::string, long>>({}, 3, live, 3);
  ASSERT_EQ(spliced.size(), 3u);
  EXPECT_EQ(spliced[0].size(), 2 * sizeof(std::uint32_t));  // p0 and p2
  EXPECT_TRUE(spliced[1].empty());                           // not live
  EXPECT_EQ(spliced[2].size(), sizeof(std::uint32_t));       // p1
}

using WordPair = std::pair<std::string, long>;

/// Splice one malformed result (after a well-formed one, so a throw
/// cannot come from the first read) over two partitions.
void splice_malformed(std::vector<std::byte> bytes) {
  Writer good;
  WireCodec<Bucket<WordPair>>::write(good, {{"ok", 1}});
  WireCodec<Bucket<WordPair>>::write(good, {});
  std::vector<mp::Buffer> results;
  results.emplace_back(good.take());
  results.emplace_back(std::move(bytes));
  (void)detail::splice_partitions<WordPair>(results, 2, {0, 1}, 2);
}

TEST(ShuffleSpliceTest, EveryTruncatedResultThrowsWireError) {
  Writer writer;
  // Long enough that most prefixes are heap buffers of exact size, where
  // an out-of-bounds read would show under AddressSanitizer.
  WireCodec<Bucket<WordPair>>::write(
      writer, {{"alpha", 1}, {"a-rather-long-key-to-pad-the-result", 2}});
  WireCodec<Bucket<WordPair>>::write(writer, {{"omega", 3}});
  const std::vector<std::byte> bytes = writer.take();
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_THROW(splice_malformed(std::vector<std::byte>(
                     bytes.begin(),
                     bytes.begin() + static_cast<std::ptrdiff_t>(cut))),
                 WireError)
        << "prefix of " << cut << " bytes";
  }
}

TEST(ShuffleSpliceTest, BucketCountBeyondTheRemainingBytesThrowsWireError) {
  Writer writer;
  writer.u32(1000u);  // 1000 pairs claimed, one present
  WireCodec<WordPair>::write(writer, {"only", 1});
  WireCodec<Bucket<WordPair>>::write(writer, {});
  EXPECT_THROW(splice_malformed(writer.take()), WireError);
}

TEST(ShuffleSpliceTest, InflatedStringLengthThrowsWireError) {
  Writer writer;
  writer.u32(1u);     // one pair
  writer.u32(4096u);  // its key claims 4 KiB; 5 bytes follow
  writer.raw("short", 5);
  EXPECT_THROW(splice_malformed(writer.take()), WireError);
}

// --- DistJob sweep: every world size against every reducer count.

std::vector<std::string> sweep_documents() {
  std::mt19937_64 rng(20);
  const std::vector<std::string> words = {
      "map",  "reduce", "shuffle", "rank", "task", "dog",
      "fox",  "mpi",    "thread",  "the",  "a",    "key"};
  std::vector<std::string> documents;
  for (int d = 0; d < 30; ++d) {
    std::string text;
    const std::size_t length = 3 + rng() % 10;
    for (std::size_t w = 0; w < length; ++w) {
      // Skewed toward the first words, like a Zipf corpus.
      const std::size_t pick = (rng() % words.size()) * (rng() % 3) / 2;
      text += (w == 0 ? "" : " ") + words[pick];
    }
    documents.push_back(std::move(text));
  }
  return documents;
}

/// Run `fn` on a Sim world of `nodes` ranks; every rank's copy must
/// equal `expected`.
template <class Fn, class Expected>
void expect_every_rank_matches(int nodes, const Expected& expected, Fn fn) {
  std::vector<Expected> per_rank(static_cast<std::size_t>(nodes));
  mp::SimWorld::run(nodes, [&](mp::SimComm& comm) {
    per_rank[static_cast<std::size_t>(comm.rank())] = fn(comm);
  });
  for (int r = 0; r < nodes; ++r) {
    EXPECT_EQ(per_rank[static_cast<std::size_t>(r)], expected)
        << "rank " << r << " of " << nodes;
  }
}

TEST(DistJobSweepTest, EveryWorldSizeAndReducerCountMatchesThreadLocal) {
  const std::vector<std::string> documents = sweep_documents();
  const auto counts = mapreduce::word_count(documents, 1);
  const auto index = mapreduce::inverted_index(documents, 1);
  const auto grep = mapreduce::distributed_grep(documents, "fox", 1);
  for (const int nodes : {1, 2, 3, 5}) {
    for (const int reducers : {1, 2, 5, 9}) {
      SCOPED_TRACE(testing::Message() << nodes << " ranks, " << reducers
                                      << " reducers");
      jobs::JobTuning tuning;
      tuning.reducers = reducers;
      expect_every_rank_matches(nodes, counts, [&](mp::SimComm& comm) {
        return jobs::word_count(comm, documents, tuning);
      });
      expect_every_rank_matches(nodes, index, [&](mp::SimComm& comm) {
        return jobs::inverted_index(comm, documents, tuning);
      });
      expect_every_rank_matches(nodes, grep, [&](mp::SimComm& comm) {
        return jobs::distributed_grep(comm, documents, "fox", tuning);
      });
    }
  }
}

TEST(DistJobSweepTest, ACrashedWorkerShrinksTheLiveSetButNotTheOutput) {
  const std::vector<std::string> documents = sweep_documents();
  FaultPlan faults;
  faults.crashes.push_back(CrashFault{2, 1});
  ClusterOptions options;
  options.max_live_attempts = 1;  // no speculation: recovery must requeue
  jobs::JobTuning tuning;
  tuning.reducers = 9;  // 9 partitions over the 4 ranks still alive
  ClusterProfile profile;
  expect_every_rank_matches(
      5, mapreduce::inverted_index(documents, 1), [&](mp::SimComm& comm) {
        return jobs::inverted_index(comm, documents, tuning, options,
                                    &faults,
                                    comm.rank() == 0 ? &profile : nullptr);
      });
  EXPECT_EQ(profile.stats.dead_workers, 1);
}

}  // namespace
}  // namespace pblpar::cluster

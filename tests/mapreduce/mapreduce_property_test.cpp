// Property tests: the parallel MapReduce jobs must agree exactly with
// straightforward serial references on randomized corpora.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <functional>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "mapreduce/job.hpp"
#include "mapreduce/jobs.hpp"
#include "util/rng.hpp"
#include "util/text.hpp"

namespace pblpar::mapreduce {
namespace {

/// A key whose std::hash is a constant, so every insert into the
/// grouping table lands on one home slot and probes linearly from it.
/// `tag` takes no part in hashing, equality or order: it tells apart
/// equal keys, so a test can see which one the grouping kept.
struct CollidingKey {
  int id = 0;
  int tag = 0;

  bool operator==(const CollidingKey& other) const { return id == other.id; }
  bool operator<(const CollidingKey& other) const { return id < other.id; }
};

}  // namespace
}  // namespace pblpar::mapreduce

template <>
struct std::hash<pblpar::mapreduce::CollidingKey> {
  std::size_t operator()(const pblpar::mapreduce::CollidingKey&) const {
    return 42;
  }
};

namespace pblpar::mapreduce {
namespace {

template <class K, class V>
using Groups = std::vector<std::pair<K, std::vector<V>>>;

/// What group_and_apply must produce: a std::map grouping, keys in
/// order, each key's values in emission order.
template <class K, class V>
Groups<K, V> map_grouping(const std::vector<std::pair<K, V>>& flat) {
  std::map<K, std::vector<V>> grouped;
  for (const auto& [key, value] : flat) {
    grouped[key].push_back(value);
  }
  return Groups<K, V>(grouped.begin(), grouped.end());
}

/// group_and_apply with an fn that returns its values vector, so the
/// result carries every value in the order fn saw it.
template <class K, class V>
Groups<K, V> hash_grouping(std::vector<std::pair<K, V>> flat) {
  Groups<K, V> out;
  detail::group_and_apply(
      flat, [](const K&, const std::vector<V>& values) { return values; },
      out);
  return out;
}

TEST(GroupAndApplyTest, EmptyInputCallsNothing) {
  std::vector<std::pair<std::string, int>> flat;
  std::vector<std::pair<std::string, int>> out;
  int calls = 0;
  detail::group_and_apply(
      flat,
      [&calls](const std::string&, const std::vector<int>&) {
        return ++calls;
      },
      out);
  EXPECT_EQ(calls, 0);
  EXPECT_TRUE(out.empty());
}

TEST(GroupAndApplyTest, OnePairIsOneGroup) {
  const std::vector<std::pair<std::string, int>> flat{{"solo", 7}};
  EXPECT_EQ(hash_grouping(flat), map_grouping(flat));
}

TEST(GroupAndApplyTest, AllEqualKeysKeepEmissionOrder) {
  std::vector<std::pair<std::string, int>> flat;
  for (int i = 0; i < 1000; ++i) {
    flat.emplace_back("same", i);
  }
  const auto grouped = hash_grouping(flat);
  ASSERT_EQ(grouped.size(), 1u);
  EXPECT_EQ(grouped, map_grouping(flat));
}

TEST(GroupAndApplyTest, AllUniqueKeysComeOutSorted) {
  util::Rng rng(7);
  std::vector<std::pair<std::string, int>> flat;
  for (int i = 0; i < 1000; ++i) {
    flat.emplace_back("w" + std::to_string(i), i);
  }
  for (std::size_t i = flat.size() - 1; i > 0; --i) {
    std::swap(flat[i], flat[rng.next_below(i + 1)]);
  }
  const auto grouped = hash_grouping(flat);
  ASSERT_EQ(grouped.size(), flat.size());
  EXPECT_EQ(grouped, map_grouping(flat));
}

TEST(GroupAndApplyTest, NegativeIntKeysOrderBelowPositiveOnes) {
  util::Rng rng(11);
  std::vector<std::pair<int, int>> flat;
  for (int i = 0; i < 2000; ++i) {
    flat.emplace_back(static_cast<int>(rng.uniform_int(-60, 40)), i);
  }
  flat.emplace_back(std::numeric_limits<int>::min(), -1);
  flat.emplace_back(std::numeric_limits<int>::max(), -2);
  flat.emplace_back(std::numeric_limits<int>::min(), -3);
  const auto grouped = hash_grouping(flat);
  EXPECT_EQ(grouped.front().first, std::numeric_limits<int>::min());
  EXPECT_EQ(grouped.front().second, (std::vector<int>{-1, -3}));
  EXPECT_EQ(grouped, map_grouping(flat));
}

TEST(GroupAndApplyTest, ConstantHashProbesEveryKeyLinearly) {
  util::Rng rng(13);
  std::vector<std::pair<CollidingKey, int>> flat;
  for (int i = 0; i < 600; ++i) {
    flat.emplace_back(
        CollidingKey{static_cast<int>(rng.next_below(40)), i}, i);
  }
  const auto grouped = hash_grouping(flat);
  const auto expected = map_grouping(flat);
  ASSERT_EQ(grouped.size(), expected.size());
  for (std::size_t g = 0; g < grouped.size(); ++g) {
    EXPECT_EQ(grouped[g].first.id, expected[g].first.id);
    EXPECT_EQ(grouped[g].second, expected[g].second);
    // The kept key is the group's first-emitted one, as std::map keeps
    // the key it first inserted.
    EXPECT_EQ(grouped[g].first.tag, expected[g].first.tag);
  }
}

std::vector<std::string> random_corpus(std::uint64_t seed, int documents) {
  static const char* kWords[] = {"alpha", "beta",  "gamma", "delta",
                                 "pi",    "core",  "team",  "openmp",
                                 "race",  "sum"};
  util::Rng rng(seed);
  std::vector<std::string> docs;
  for (int d = 0; d < documents; ++d) {
    std::string text;
    const int words = static_cast<int>(rng.uniform_int(0, 40));
    for (int w = 0; w < words; ++w) {
      text += kWords[rng.next_below(10)];
      text += rng.bernoulli(0.2) ? ", " : " ";
    }
    docs.push_back(std::move(text));
  }
  return docs;
}

class MapReducePropertyTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(MapReducePropertyTest, WordCountMatchesSerialReference) {
  const auto docs = random_corpus(GetParam(), 50);

  std::map<std::string, long> reference;
  for (const std::string& doc : docs) {
    for (const std::string& word : util::tokenize_words(doc)) {
      ++reference[word];
    }
  }

  const auto parallel = word_count(docs, 4);
  const std::map<std::string, long> actual(parallel.begin(), parallel.end());
  EXPECT_EQ(actual, reference);
}

TEST_P(MapReducePropertyTest, InvertedIndexMatchesSerialReference) {
  const auto docs = random_corpus(GetParam() + 100, 30);

  std::map<std::string, std::vector<int>> reference;
  for (std::size_t d = 0; d < docs.size(); ++d) {
    std::set<std::string> unique;
    for (const std::string& word : util::tokenize_words(docs[d])) {
      unique.insert(word);
    }
    for (const std::string& word : unique) {
      reference[word].push_back(static_cast<int>(d));
    }
  }

  const auto parallel = inverted_index(docs, 3);
  const std::map<std::string, std::vector<int>> actual(parallel.begin(),
                                                       parallel.end());
  EXPECT_EQ(actual, reference);
}

TEST_P(MapReducePropertyTest, GrepMatchesSerialReference) {
  const auto docs = random_corpus(GetParam() + 200, 60);
  const std::string pattern = "pi";

  std::vector<std::pair<int, std::string>> reference;
  for (std::size_t i = 0; i < docs.size(); ++i) {
    if (docs[i].find(pattern) != std::string::npos) {
      reference.emplace_back(static_cast<int>(i), docs[i]);
    }
  }

  EXPECT_EQ(distributed_grep(docs, pattern, 5), reference);
}

TEST_P(MapReducePropertyTest, GroupingMatchesOrderedMapReference) {
  // From a handful of keys (long runs per key) to mostly distinct ones.
  util::Rng rng(GetParam() + 300);
  for (const std::uint64_t distinct : {1, 3, 97, 5000}) {
    std::vector<std::pair<std::string, int>> flat;
    for (int i = 0; i < 3000; ++i) {
      flat.emplace_back("k" + std::to_string(rng.next_below(distinct)), i);
    }
    EXPECT_EQ(hash_grouping(flat), map_grouping(flat)) << distinct;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MapReducePropertyTest,
                         ::testing::Values(11, 22, 33, 44, 55));

}  // namespace
}  // namespace pblpar::mapreduce

#include "mapreduce/job.hpp"
#include "mapreduce/jobs.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>

#include "rt/cancel.hpp"

#include "util/error.hpp"
#include "util/text.hpp"

namespace pblpar::mapreduce {
namespace {

TEST(JobTest, RequiresMapAndReduce) {
  Job<int, int, int, int> job;
  EXPECT_THROW(job.run({}), util::PreconditionError);
  job.map([](const int&, const int&, Emitter<int, int>&) {});
  EXPECT_THROW(job.run({}), util::PreconditionError);
}

TEST(JobTest, EmptyInputGivesEmptyOutput) {
  Job<int, int, int, int> job;
  job.map([](const int& k, const int& v, Emitter<int, int>& out) {
       out.emit(k, v);
     })
      .reduce([](const int&, const std::vector<int>& vs) {
        return vs.front();
      });
  EXPECT_TRUE(job.run({}).empty());
}

TEST(JobTest, IdentityJobGroupsByKey) {
  Job<int, int, int, int> job;
  job.threads(3)
      .reducers(2)
      .map([](const int& k, const int& v, Emitter<int, int>& out) {
        out.emit(k % 3, v);
      })
      .reduce([](const int&, const std::vector<int>& vs) {
        int sum = 0;
        for (const int v : vs) {
          sum += v;
        }
        return sum;
      });
  std::vector<std::pair<int, int>> inputs;
  for (int i = 0; i < 30; ++i) {
    inputs.emplace_back(i, 1);
  }
  const auto output = job.run(inputs);
  ASSERT_EQ(output.size(), 3u);
  for (const auto& [key, count] : output) {
    EXPECT_EQ(count, 10) << "key " << key;
  }
  // Sorted by key.
  EXPECT_EQ(output[0].first, 0);
  EXPECT_EQ(output[1].first, 1);
  EXPECT_EQ(output[2].first, 2);
}

TEST(JobTest, CombinerDoesNotChangeResult) {
  const auto build = [](bool with_combiner) {
    Job<int, std::string, std::string, long> job;
    job.threads(4).reducers(3).map(
        [](const int&, const std::string& text,
           Emitter<std::string, long>& out) {
          for (const std::string& word : util::tokenize_words(text)) {
            out.emit(word, 1L);
          }
        });
    if (with_combiner) {
      job.combine([](const std::string&, const std::vector<long>& counts) {
        long sum = 0;
        for (const long c : counts) {
          sum += c;
        }
        return sum;
      });
    }
    job.reduce([](const std::string&, const std::vector<long>& counts) {
      long sum = 0;
      for (const long c : counts) {
        sum += c;
      }
      return sum;
    });
    return job;
  };

  std::vector<std::pair<int, std::string>> inputs;
  for (int i = 0; i < 20; ++i) {
    inputs.emplace_back(i, "the quick brown fox jumps over the lazy dog the");
  }
  const auto with = build(true).run(inputs);
  const auto without = build(false).run(inputs);
  EXPECT_EQ(with, without);
}

TEST(JobTest, ThreadCountInvariance) {
  std::vector<std::pair<int, std::string>> inputs;
  for (int i = 0; i < 40; ++i) {
    inputs.emplace_back(i, "alpha beta gamma alpha");
  }
  const auto run_with = [&](int threads) {
    Job<int, std::string, std::string, long> job;
    job.threads(threads)
        .map([](const int&, const std::string& text,
                Emitter<std::string, long>& out) {
          for (const std::string& word : util::tokenize_words(text)) {
            out.emit(word, 1L);
          }
        })
        .reduce([](const std::string&, const std::vector<long>& counts) {
          return static_cast<long>(counts.size());
        });
    return job.run(inputs);
  };
  const auto t1 = run_with(1);
  const auto t4 = run_with(4);
  const auto t7 = run_with(7);
  EXPECT_EQ(t1, t4);
  EXPECT_EQ(t4, t7);
}

TEST(JobTest, ReducerCountInvariance) {
  // The sort-based shuffle and the pairwise merge of partition outputs
  // must give the same sorted result whatever the partition count —
  // including more partitions than keys, and the thread-derived default.
  std::vector<std::pair<int, std::string>> inputs;
  for (int i = 0; i < 36; ++i) {
    inputs.emplace_back(i, "delta echo foxtrot delta echo delta");
  }
  const auto run_with = [&](int reducers) {
    Job<int, std::string, std::string, long> job;
    job.threads(4)
        .reducers(reducers)
        .map([](const int&, const std::string& text,
                Emitter<std::string, long>& out) {
          for (const std::string& word : util::tokenize_words(text)) {
            out.emit(word, 1L);
          }
        })
        .reduce([](const std::string&, const std::vector<long>& counts) {
          long sum = 0;
          for (const long c : counts) {
            sum += c;
          }
          return sum;
        });
    return job.run(inputs);
  };
  const auto baseline = run_with(1);
  ASSERT_EQ(baseline.size(), 3u);
  for (const int reducers : {0, 2, 3, 5, 16}) {  // 0 = per-thread default
    EXPECT_EQ(run_with(reducers), baseline) << "reducers " << reducers;
  }
}

TEST(JobTest, ValueListsArriveInWorkerScanOrder) {
  // Pin the shuffle's grouping order: values of one key are grouped in
  // emission order (stable sort), so a single-threaded run must hand the
  // reducer the value list exactly as emitted.
  Job<int, int, int, int, std::vector<int>> job;
  job.threads(1).reducers(2).map(
      [](const int& k, const int& v, Emitter<int, int>& out) {
        out.emit(k % 2, v);
      });
  job.reduce([](const int&, const std::vector<int>& values) {
    return values;  // expose the grouped list itself
  });
  std::vector<std::pair<int, int>> inputs;
  for (int i = 0; i < 10; ++i) {
    inputs.emplace_back(i, 100 + i);
  }
  const auto output = job.run(inputs);
  ASSERT_EQ(output.size(), 2u);
  EXPECT_EQ(output[0].second, (std::vector<int>{100, 102, 104, 106, 108}));
  EXPECT_EQ(output[1].second, (std::vector<int>{101, 103, 105, 107, 109}));
}

TEST(JobTest, GroupAndApplyMatchesAnOrderedMapGrouping) {
  // The shared shuffle core (Job and cluster::DistJob): key-ordered
  // output, each key's values in input order — what a
  // std::map<K, std::vector<V>> grouping gives — on duplicate-heavy keys.
  std::vector<std::pair<std::string, int>> flat;
  std::map<std::string, std::vector<int>> reference;
  std::uint64_t state = 12345;
  for (int i = 0; i < 2000; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    std::string key = "k" + std::to_string((state >> 33) % 97);
    reference[key].push_back(i);
    flat.emplace_back(std::move(key), i);
  }
  std::vector<std::pair<std::string, std::vector<int>>> grouped;
  detail::group_and_apply(
      flat, [](const std::string&, const std::vector<int>& v) { return v; },
      grouped);
  const std::vector<std::pair<std::string, std::vector<int>>> expected(
      reference.begin(), reference.end());
  EXPECT_EQ(grouped, expected);
}

TEST(WordCountTest, CountsAcrossDocuments) {
  const std::vector<std::string> docs{
      "To be or not to be",
      "that is the question",
      "Whether tis nobler to suffer",
  };
  const auto counts = word_count(docs);
  std::map<std::string, long> lookup(counts.begin(), counts.end());
  EXPECT_EQ(lookup["to"], 3);
  EXPECT_EQ(lookup["be"], 2);
  EXPECT_EQ(lookup["question"], 1);
  EXPECT_EQ(lookup.count("zzz"), 0u);
  // Output is sorted by word.
  EXPECT_TRUE(std::is_sorted(
      counts.begin(), counts.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; }));
}

TEST(InvertedIndexTest, MapsWordsToDocuments) {
  const std::vector<std::string> docs{
      "apple banana",
      "banana cherry",
      "apple cherry apple",
  };
  const auto index = inverted_index(docs);
  std::map<std::string, std::vector<int>> lookup(index.begin(), index.end());
  EXPECT_EQ(lookup["apple"], (std::vector<int>{0, 2}));
  EXPECT_EQ(lookup["banana"], (std::vector<int>{0, 1}));
  EXPECT_EQ(lookup["cherry"], (std::vector<int>{1, 2}));
}

TEST(UrlAccessTest, CountsFirstField) {
  const std::vector<std::string> log{
      "/home 200 GET",
      "/about 200 GET",
      "/home 404 GET",
      "/home 200 POST",
      "",
  };
  const auto counts = url_access_counts(log);
  std::map<std::string, long> lookup(counts.begin(), counts.end());
  EXPECT_EQ(lookup["/home"], 3);
  EXPECT_EQ(lookup["/about"], 1);
  EXPECT_EQ(lookup.size(), 2u);
}

TEST(DistributedGrepTest, FindsLinesInOrder) {
  const std::vector<std::string> lines{
      "error: disk full",
      "all good",
      "another error: timeout",
      "ok",
  };
  const auto matches = distributed_grep(lines, "error");
  ASSERT_EQ(matches.size(), 2u);
  EXPECT_EQ(matches[0].first, 0);
  EXPECT_EQ(matches[1].first, 2);
  EXPECT_EQ(matches[1].second, "another error: timeout");
}

TEST(MeanPerKeyTest, Averages) {
  const std::vector<std::pair<std::string, double>> samples{
      {"quiz", 8.0}, {"quiz", 10.0}, {"exam", 70.0}, {"exam", 90.0},
      {"exam", 80.0},
  };
  const auto means = mean_per_key(samples);
  std::map<std::string, double> lookup(means.begin(), means.end());
  EXPECT_DOUBLE_EQ(lookup["quiz"], 9.0);
  EXPECT_DOUBLE_EQ(lookup["exam"], 80.0);
}

/// Burn real host time so a wall-clock deadline can land mid-map.
void spin(int iters) {
  volatile int sink = 0;
  for (int i = 0; i < iters; ++i) {
    sink = sink + i;
  }
}

Job<int, int, int, int> heavy_counting_job() {
  Job<int, int, int, int> job;
  job.threads(4)
      .map([](const int&, const int&, Emitter<int, int>& out) {
        spin(50000);
        out.emit(0, 1);
      })
      .reduce([](const int&, const std::vector<int>& vs) {
        int sum = 0;
        for (const int v : vs) {
          sum += v;
        }
        return sum;
      });
  return job;
}

TEST(JobTest, DeadlineValidationRejectsNonPositiveBudgets) {
  Job<int, int, int, int> job;
  EXPECT_THROW(job.deadline(0.0), util::PreconditionError);
  EXPECT_THROW(job.deadline(-1.0), util::PreconditionError);
}

TEST(JobTest, RunReportIsBenignWithoutADeadline) {
  auto job = heavy_counting_job();
  RunReport report;
  const std::vector<std::pair<int, int>> inputs(16, {0, 1});
  const auto output = job.run(inputs, &report);
  ASSERT_EQ(output.size(), 1u);
  EXPECT_EQ(output[0].second, 16);
  EXPECT_FALSE(report.deadline_hit);
  EXPECT_EQ(report.mapped_records, 16);
  EXPECT_EQ(report.total_records, 16);
}

TEST(JobTest, AbortDeadlinePolicyThrowsCancelled) {
  auto job = heavy_counting_job();
  job.deadline(0.002);  // DeadlinePolicy::Abort is the default
  // ~4000 records x tens of microseconds each >> 2 ms, so the deadline
  // reliably fires during the map phase.
  const std::vector<std::pair<int, int>> inputs(4000, {0, 1});
  EXPECT_THROW(job.run(inputs), rt::Cancelled);
}

TEST(JobTest, SalvageDeadlinePolicyKeepsEveryCompletedRecord) {
  auto job = heavy_counting_job();
  job.deadline(0.005, DeadlinePolicy::Salvage);
  const std::vector<std::pair<int, int>> inputs(4000, {0, 1});
  RunReport report;
  const auto output = job.run(inputs, &report);
  EXPECT_TRUE(report.deadline_hit);
  EXPECT_EQ(report.total_records, 4000);
  EXPECT_LT(report.mapped_records, report.total_records);
  // Records never tear: each mapped record contributed exactly one
  // ("0", 1) pair, so the reduced count equals the salvaged record count.
  std::int64_t total = 0;
  for (const auto& [key, count] : output) {
    EXPECT_EQ(key, 0);
    total += count;
  }
  EXPECT_EQ(total, report.mapped_records);
}

TEST(JobTest, CancellableRejectsDisconnectedTokens) {
  Job<int, int, int, int> job;
  EXPECT_THROW(job.cancellable(rt::CancelToken{}), util::PreconditionError);
}

TEST(JobTest, FiredTokenUnderAbortThrowsCancelledWithTokenCause) {
  auto job = heavy_counting_job();
  rt::CancelSource source;
  source.cancel();
  job.cancellable(source.token());  // Abort is still the default policy
  const std::vector<std::pair<int, int>> inputs(64, {0, 1});
  try {
    job.run(inputs);
    FAIL() << "expected rt::Cancelled";
  } catch (const rt::Cancelled& cancelled) {
    EXPECT_EQ(cancelled.cause(), rt::CancelCause::Token);
  }
}

TEST(JobTest, FiredTokenUnderSalvageYieldsEmptyUsableOutput) {
  auto job = heavy_counting_job();
  rt::CancelSource source;
  source.cancel();
  // cut_policy arms Salvage without requiring a deadline: the fired
  // token cuts the map at its first chunk boundary, and shuffle + reduce
  // still run (over zero records) so the caller gets a usable result.
  job.cut_policy(DeadlinePolicy::Salvage).cancellable(source.token());
  const std::vector<std::pair<int, int>> inputs(64, {0, 1});
  RunReport report;
  const auto output = job.run(inputs, &report);
  EXPECT_TRUE(output.empty());
  EXPECT_TRUE(report.deadline_hit);
  EXPECT_EQ(report.mapped_records, 0);
  EXPECT_EQ(report.total_records, 64);
}

}  // namespace
}  // namespace pblpar::mapreduce

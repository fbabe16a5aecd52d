#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#if !defined(_WIN32)
#include <unistd.h>
#endif

#include "oocore/extsort.hpp"
#include "oocore/io.hpp"
#include "oocore/merge.hpp"
#include "oocore/scratch.hpp"
#include "oocore/spill.hpp"
#include "rt/cancel.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace pblpar::oocore {
namespace {

namespace fs = std::filesystem;

/// Scratch directories created by this process in the system temp dir.
/// ScratchDir names embed the pid, so concurrently-running test binaries
/// cannot perturb the count.
std::size_t pid_scratch_entries() {
  const std::string pid_tag =
#if defined(_WIN32)
      "-" + std::to_string(_getpid()) + "-";
#else
      "-" + std::to_string(::getpid()) + "-";
#endif
  std::error_code ec;
  fs::directory_iterator it(fs::temp_directory_path(), ec);
  if (ec) {
    return 0;
  }
  std::size_t count = 0;
  for (const auto& entry : it) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("pblpar-", 0) == 0 &&
        name.find(pid_tag) != std::string::npos) {
      ++count;
    }
  }
  return count;
}

/// Tmpdir-hygiene fixture: every test must leave the system temp dir
/// exactly as it found it — the RAII guards must have unlinked every
/// spill file and scratch directory, including on exception and
/// cancel-drain paths.
class OocoreTest : public ::testing::Test {
 protected:
  void SetUp() override { baseline_entries_ = pid_scratch_entries(); }
  void TearDown() override {
    EXPECT_EQ(pid_scratch_entries(), baseline_entries_)
        << "a test left scratch directories behind in the temp dir";
  }

 private:
  std::size_t baseline_entries_ = 0;
};

std::vector<std::uint64_t> random_records(std::int64_t count,
                                          std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::uint64_t> records(static_cast<std::size_t>(count));
  for (auto& record : records) {
    record = rng.next_u64();
  }
  return records;
}

void write_records(const fs::path& path,
                   const std::vector<std::uint64_t>& records) {
  SpillWriter writer(path, std::size_t{64} << 10);
  writer.write(records.data(), records.size() * sizeof(std::uint64_t));
  writer.close();
}

std::vector<std::uint64_t> read_records(const fs::path& path) {
  const auto bytes = static_cast<std::size_t>(fs::file_size(path));
  EXPECT_EQ(bytes % sizeof(std::uint64_t), 0u);
  std::vector<std::uint64_t> records(bytes / sizeof(std::uint64_t));
  SpillReader reader(path, std::size_t{64} << 10);
  EXPECT_EQ(reader.read(records.data(), bytes), bytes);
  return records;
}

// --- ScratchDir -----------------------------------------------------------

TEST_F(OocoreTest, ScratchDirCreatesAndRemovesItself) {
  fs::path where;
  {
    ScratchDir scratch("pblpar-test");
    where = scratch.path();
    EXPECT_TRUE(fs::is_directory(where));
    EXPECT_EQ(scratch.live_entries(), 0u);
  }
  EXPECT_FALSE(fs::exists(where));
}

TEST_F(OocoreTest, ScratchDirHandsOutUniquePathsAndCountsEntries) {
  ScratchDir scratch("pblpar-test");
  const fs::path a = scratch.next_path("run");
  const fs::path b = scratch.next_path("run");
  EXPECT_NE(a, b);
  write_records(a, {1, 2, 3});
  write_records(b, {4});
  EXPECT_EQ(scratch.live_entries(), 2u);
}

TEST_F(OocoreTest, ScratchDirCleansUpOnException) {
  fs::path where;
  try {
    ScratchDir scratch("pblpar-test");
    where = scratch.path();
    write_records(scratch.next_path("run"), {1, 2, 3});
    throw std::runtime_error("boom");
  } catch (const std::runtime_error&) {
  }
  EXPECT_FALSE(fs::exists(where));
}

// --- Option validation ----------------------------------------------------

TEST_F(OocoreTest, IoChaosValidateRejectsBadKnobs) {
  IoChaos chaos;
  chaos.short_write_probability = 1.5;
  EXPECT_THROW(chaos.validate(), util::PreconditionError);
  chaos.short_write_probability = -0.1;
  EXPECT_THROW(chaos.validate(), util::PreconditionError);
  chaos.short_write_probability = 0.5;
  chaos.slow_read_delay_s = -1.0;
  EXPECT_THROW(chaos.validate(), util::PreconditionError);
  chaos.slow_read_delay_s = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(chaos.validate(), util::PreconditionError);
  chaos.slow_read_delay_s = 0.001;
  EXPECT_NO_THROW(chaos.validate());
}

TEST_F(OocoreTest, BudgetFromMultiplierRejectsDegenerateMultipliers) {
  EXPECT_THROW(budget_from_multiplier(0.0, 1 << 20),
               util::PreconditionError);
  EXPECT_THROW(budget_from_multiplier(-0.5, 1 << 20),
               util::PreconditionError);
  EXPECT_THROW(
      budget_from_multiplier(std::numeric_limits<double>::quiet_NaN(),
                             1 << 20),
      util::PreconditionError);
  EXPECT_THROW(
      budget_from_multiplier(std::numeric_limits<double>::infinity(),
                             1 << 20),
      util::PreconditionError);
  EXPECT_THROW(budget_from_multiplier(0.25, 0), util::PreconditionError);
  EXPECT_EQ(budget_from_multiplier(0.25, 1 << 20), (1 << 20) / 4u);
}

TEST_F(OocoreTest, ExtSortOptionsValidateIsLoud) {
  ExtSortOptions opts;
  opts.memory_budget_bytes = 1024;  // below the 64 KiB floor
  EXPECT_THROW(opts.validate(), util::PreconditionError);
  opts.memory_budget_bytes = std::size_t{64} << 10;
  opts.io_buffer_bytes = std::size_t{1} << 20;  // budget can't hold 4 buffers
  EXPECT_THROW(opts.validate(), util::PreconditionError);
  opts.io_buffer_bytes = 4096;
  opts.max_fan_in = 1;
  EXPECT_THROW(opts.validate(), util::PreconditionError);
  opts.max_fan_in = 0;
  EXPECT_NO_THROW(opts.validate());
}

// --- Buffered spill I/O ---------------------------------------------------

TEST_F(OocoreTest, SpillRoundTripSurvivesChaos) {
  const std::vector<std::uint64_t> records = random_records(5000, 7);
  ScratchDir scratch("pblpar-test");
  const fs::path path = scratch.next_path("chaotic");
  IoChaos chaos;
  chaos.short_write_probability = 1.0;  // every write lands torn once
  chaos.slow_read_probability = 0.01;
  chaos.slow_read_delay_s = 1e-4;
  chaos.seed = 42;
  {
    SpillWriter writer(path, 4096, chaos, /*salt=*/1);
    writer.write(records.data(), records.size() * sizeof(std::uint64_t));
    writer.close();
  }
  std::vector<std::uint64_t> back(records.size());
  SpillReader reader(path, 4096, chaos, /*salt=*/2);
  ASSERT_EQ(reader.read(back.data(), back.size() * sizeof(std::uint64_t)),
            back.size() * sizeof(std::uint64_t));
  EXPECT_EQ(back, records);
}

TEST_F(OocoreTest, DoubleBufferedReaderMatchesPlainRead) {
  const std::vector<std::uint64_t> records = random_records(40000, 11);
  ScratchDir scratch("pblpar-test");
  const fs::path path = scratch.next_path("big");
  write_records(path, records);

  Prefetcher prefetcher;
  DoubleBufferedReader reader(path, 4096, prefetcher);
  std::vector<std::uint64_t> back(records.size());
  std::size_t off = 0;
  const auto total = back.size() * sizeof(std::uint64_t);
  auto* bytes = reinterpret_cast<char*>(back.data());
  // Odd-sized requests so reads straddle buffer swaps.
  while (off < total) {
    const std::size_t got =
        reader.read(bytes + off, std::min<std::size_t>(1234, total - off));
    ASSERT_GT(got, 0u);
    off += got;
  }
  EXPECT_EQ(reader.read(bytes, 1), 0u);  // exhausted
  EXPECT_EQ(back, records);
}

TEST_F(OocoreTest, RunWriterReaderRoundTripsWireRecords) {
  using Record = std::pair<std::string, long>;
  const std::vector<Record> records = {
      {"alpha", 1}, {"", -7}, {"a much longer key with spaces", 1L << 40}};
  ScratchDir scratch("pblpar-test");
  const fs::path path = scratch.next_path("wire");
  {
    SpillWriter sink(path, 4096);
    RunWriter<Record> writer(sink);
    for (const Record& record : records) {
      writer.push(record);
    }
    sink.close();
    EXPECT_EQ(writer.records(), 3);
  }
  SpillReader source(path, 4096);
  RunReader<Record> reader(source);
  std::vector<Record> back;
  Record record;
  while (reader.pull(&record)) {
    back.push_back(record);
  }
  EXPECT_EQ(back, records);
}

// --- LoserTree edge cases -------------------------------------------------

/// Minimal pull-source over an in-memory vector.
template <class T>
struct VecSrc {
  const std::vector<T>* values;
  std::size_t i = 0;
  bool pull(T* out) {
    if (i >= values->size()) {
      return false;
    }
    *out = (*values)[i++];
    return true;
  }
};

template <class T, class Less = std::less<T>>
std::vector<T> merge_all(const std::vector<std::vector<T>>& runs,
                         Less less = {}) {
  std::vector<VecSrc<T>> sources;
  sources.reserve(runs.size());
  for (const auto& run : runs) {
    sources.push_back(VecSrc<T>{&run});
  }
  std::vector<VecSrc<T>*> ptrs;
  for (auto& source : sources) {
    ptrs.push_back(&source);
  }
  LoserTree<T, VecSrc<T>, Less> tree(std::move(ptrs), less);
  std::vector<T> merged;
  T value;
  while (tree.pop(&value)) {
    merged.push_back(value);
  }
  return merged;
}

TEST_F(OocoreTest, LoserTreeEmptyFanIn) {
  EXPECT_TRUE(merge_all<int>({}).empty());
}

TEST_F(OocoreTest, LoserTreeSingleRunPassesThrough) {
  const std::vector<int> run = {1, 2, 2, 9};
  EXPECT_EQ(merge_all<int>({run}), run);
}

TEST_F(OocoreTest, LoserTreeAllEqualKeysDrainLowerSourcesFirst) {
  // Every head compares equal, so the tie-break alone decides: source 0
  // must drain completely before source 1 yields anything, and so on.
  std::vector<std::vector<int>> runs = {{7, 7, 7}, {7}, {7, 7}};
  std::vector<VecSrc<int>> sources;
  for (const auto& run : runs) {
    sources.push_back(VecSrc<int>{&run});
  }
  std::vector<VecSrc<int>*> ptrs;
  for (auto& source : sources) {
    ptrs.push_back(&source);
  }
  LoserTree<int, VecSrc<int>> tree(std::move(ptrs));
  std::vector<int> origin;
  int value = 0;
  int from = -1;
  while (tree.pop(&value, &from)) {
    origin.push_back(from);
  }
  EXPECT_EQ(origin, (std::vector<int>{0, 0, 0, 1, 2, 2}));
}

TEST_F(OocoreTest, LoserTreeWildlyDifferentRunLengths) {
  std::vector<std::vector<int>> runs(4);
  for (int i = 0; i < 1000; ++i) {
    runs[0].push_back(2 * i);
  }
  runs[1] = {55};
  runs[2] = {};  // empty run in the middle of the fan-in
  for (int i = 0; i < 37; ++i) {
    runs[3].push_back(30 * i);
  }
  std::vector<int> expected;
  for (const auto& run : runs) {
    expected.insert(expected.end(), run.begin(), run.end());
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(merge_all<int>(runs), expected);
}

TEST_F(OocoreTest, LoserTreeNonPowerOfTwoFanInsMatchStdSort) {
  util::Rng rng(13);
  for (const int k : {3, 5, 6, 7, 9, 13}) {
    std::vector<std::vector<int>> runs(static_cast<std::size_t>(k));
    std::vector<int> expected;
    for (auto& run : runs) {
      const int length = static_cast<int>(rng.next_u64() % 50);
      for (int i = 0; i < length; ++i) {
        run.push_back(static_cast<int>(rng.next_u64() % 1000));
      }
      std::sort(run.begin(), run.end());
      expected.insert(expected.end(), run.begin(), run.end());
    }
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(merge_all<int>(runs), expected) << "fan-in " << k;
  }
}

TEST_F(OocoreTest, LoserTreeMergeEqualsStableSortOfConcatenation) {
  // The identity the spillable shuffle rests on: merging individually
  // stable-sorted segments in segment order, ties to the lower source,
  // reproduces a stable_sort of their concatenation exactly.
  using Record = std::pair<int, int>;  // (key, provenance)
  util::Rng rng(29);
  std::vector<std::vector<Record>> runs(5);
  std::vector<Record> concat;
  int seq = 0;
  for (auto& run : runs) {
    const int length = static_cast<int>(rng.next_u64() % 80);
    for (int i = 0; i < length; ++i) {
      run.emplace_back(static_cast<int>(rng.next_u64() % 7), seq++);
    }
    std::stable_sort(
        run.begin(), run.end(),
        [](const Record& a, const Record& b) { return a.first < b.first; });
    concat.insert(concat.end(), run.begin(), run.end());
  }
  std::stable_sort(
      concat.begin(), concat.end(),
      [](const Record& a, const Record& b) { return a.first < b.first; });
  const auto key_less = [](const Record& a, const Record& b) {
    return a.first < b.first;
  };
  EXPECT_EQ((merge_all<Record, decltype(key_less)>(runs, key_less)), concat);
}

// --- External sort --------------------------------------------------------

ExtSortOptions small_budget_options() {
  ExtSortOptions opts;
  opts.memory_budget_bytes = std::size_t{64} << 10;
  opts.io_buffer_bytes = 4096;
  opts.threads = 4;
  return opts;
}

TEST_F(OocoreTest, SortFileInBudgetPathMatchesStdSort) {
  std::vector<std::uint64_t> records = random_records(1000, 17);
  ScratchDir scratch("pblpar-test");
  const fs::path in = scratch.next_path("in");
  const fs::path out = scratch.next_path("out");
  write_records(in, records);
  const ExtSortReport report =
      sort_file<std::uint64_t>(in, out, small_budget_options());
  EXPECT_FALSE(report.external);
  EXPECT_EQ(report.records, 1000);
  std::sort(records.begin(), records.end());
  EXPECT_EQ(read_records(out), records);
}

TEST_F(OocoreTest, SortFileEmptyInput) {
  ScratchDir scratch("pblpar-test");
  const fs::path in = scratch.next_path("in");
  const fs::path out = scratch.next_path("out");
  write_records(in, {});
  const ExtSortReport report =
      sort_file<std::uint64_t>(in, out, small_budget_options());
  EXPECT_EQ(report.records, 0);
  EXPECT_EQ(report.initial_runs, 0);
  EXPECT_TRUE(read_records(out).empty());
}

TEST_F(OocoreTest, SortFileRejectsTornInput) {
  ScratchDir scratch("pblpar-test");
  const fs::path in = scratch.next_path("in");
  const fs::path out = scratch.next_path("out");
  {
    SpillWriter writer(in, 4096);
    const char bytes[11] = {};
    writer.write(bytes, sizeof(bytes));  // not a whole number of records
    writer.close();
  }
  EXPECT_THROW(sort_file<std::uint64_t>(in, out, small_budget_options()),
               util::PreconditionError);
}

TEST_F(OocoreTest, SortFileExternalMatchesStdSort) {
  // 512 KiB of records against a 64 KiB budget: must go external with
  // multiple runs, and the merged output must equal std::sort exactly.
  std::vector<std::uint64_t> records = random_records(65536, 23);
  ScratchDir scratch("pblpar-test");
  const fs::path in = scratch.next_path("in");
  const fs::path out = scratch.next_path("out");
  write_records(in, records);
  const ExtSortReport report =
      sort_file<std::uint64_t>(in, out, small_budget_options());
  EXPECT_TRUE(report.external);
  EXPECT_GT(report.initial_runs, 1);
  EXPECT_GE(report.merge_passes, 1);
  EXPECT_GT(report.spilled_bytes, 0);
  std::sort(records.begin(), records.end());
  EXPECT_EQ(read_records(out), records);
}

TEST_F(OocoreTest, SortFileMultiPassMergeWithTinyFanIn) {
  std::vector<std::uint64_t> records = random_records(65536, 31);
  ScratchDir scratch("pblpar-test");
  const fs::path in = scratch.next_path("in");
  const fs::path out = scratch.next_path("out");
  write_records(in, records);
  ExtSortOptions opts = small_budget_options();
  opts.max_fan_in = 2;  // force a deep merge cascade
  const ExtSortReport report = sort_file<std::uint64_t>(in, out, opts);
  EXPECT_TRUE(report.external);
  EXPECT_EQ(report.merge_fan_in, 2);
  EXPECT_GE(report.merge_passes, 3);
  std::sort(records.begin(), records.end());
  EXPECT_EQ(read_records(out), records);
}

TEST_F(OocoreTest, MergePlanKeepsConcurrentReadAheadInsideTheBudget) {
  struct Shape {
    std::size_t budget;
    std::size_t io_buffer;
  };
  // Smallest legal budget, the bench smoke shape (where the fan-in
  // floor of 2 bites), the perfbench spill_sort shape, and a roomy one.
  const Shape shapes[] = {{std::size_t{64} << 10, std::size_t{16} << 10},
                          {std::size_t{1} << 20, std::size_t{256} << 10},
                          {std::size_t{512} << 10, std::size_t{16} << 10},
                          {std::size_t{64} << 20, std::size_t{256} << 10}};
  for (const Shape& shape : shapes) {
    ExtSortOptions opts;
    opts.memory_budget_bytes = shape.budget;
    opts.io_buffer_bytes = shape.io_buffer;
    opts.validate();
    for (int threads = 1; threads <= 16; ++threads) {
      const MergePlan plan = plan_merge(opts, threads);
      SCOPED_TRACE(testing::Message() << "budget " << shape.budget << " io "
                                      << shape.io_buffer << " threads "
                                      << threads);
      EXPECT_GE(plan.fan_in, 2);
      EXPECT_LE(plan.fan_in, 128);
      EXPECT_GE(plan.concurrency, 1);
      EXPECT_LE(plan.concurrency, threads);
      // Read-ahead only: each group's output block comes on top.
      EXPECT_LE(static_cast<std::size_t>(plan.concurrency) *
                    static_cast<std::size_t>(plan.fan_in) * 2 *
                    shape.io_buffer,
                shape.budget);
    }
  }
  ExtSortOptions smoke;
  smoke.memory_budget_bytes = std::size_t{1} << 20;
  smoke.io_buffer_bytes = std::size_t{256} << 10;
  EXPECT_EQ(plan_merge(smoke, 4).fan_in, 2);
  EXPECT_EQ(plan_merge(smoke, 4).concurrency, 1);
  ExtSortOptions spill_sort;
  spill_sort.memory_budget_bytes = std::size_t{512} << 10;
  spill_sort.io_buffer_bytes = std::size_t{16} << 10;
  EXPECT_EQ(plan_merge(spill_sort, 4).fan_in, 4);
  EXPECT_EQ(plan_merge(spill_sort, 4).concurrency, 4);
}

TEST_F(OocoreTest, SortFileSurvivesIoChaos) {
  std::vector<std::uint64_t> records = random_records(20000, 37);
  ScratchDir scratch("pblpar-test");
  const fs::path in = scratch.next_path("in");
  const fs::path out = scratch.next_path("out");
  write_records(in, records);
  ExtSortOptions opts = small_budget_options();
  opts.chaos.short_write_probability = 1.0;
  opts.chaos.slow_read_probability = 0.001;
  opts.chaos.slow_read_delay_s = 1e-4;
  opts.chaos.seed = 99;
  const ExtSortReport report = sort_file<std::uint64_t>(in, out, opts);
  EXPECT_TRUE(report.external);
  std::sort(records.begin(), records.end());
  EXPECT_EQ(read_records(out), records);
}

TEST_F(OocoreTest, SortFileCancelDrainLeavesNothingBehind) {
  const std::vector<std::uint64_t> records = random_records(65536, 41);
  ScratchDir scratch("pblpar-test");
  const fs::path in = scratch.next_path("in");
  const fs::path out = scratch.next_path("out");
  write_records(in, records);
  rt::CancelSource source;
  source.cancel();  // fires at the first chunk-claim boundary
  ExtSortOptions opts = small_budget_options();
  opts.cancel = source.token();
  EXPECT_THROW(sort_file<std::uint64_t>(in, out, opts), rt::Cancelled);
  // The sort's own ScratchDir must have unwound with the throw; only this
  // test's input/output staging dir remains (checked by TearDown too).
  EXPECT_EQ(pid_scratch_entries(), 1u);
}

TEST_F(OocoreTest, SortFileTracedRecordsSpillAndMergeEvents) {
  std::vector<std::uint64_t> records = random_records(32768, 43);
  ScratchDir scratch("pblpar-test");
  const fs::path in = scratch.next_path("in");
  const fs::path out = scratch.next_path("out");
  write_records(in, records);
  ExtSortOptions opts = small_budget_options();
  opts.record_trace = true;
  const ExtSortReport report = sort_file<std::uint64_t>(in, out, opts);
  ASSERT_TRUE(report.external);
  ASSERT_GE(report.profiles.size(), 2u);  // run formation + >=1 merge pass

  const auto& formation = *report.profiles.front();
  ASSERT_EQ(static_cast<int>(formation.spills.size()), report.initial_runs);
  std::int64_t spilled_records = 0;
  for (const rt::SpillEvent& spill : formation.spills) {
    EXPECT_EQ(spill.phase, "extsort-run");
    EXPECT_GE(spill.end_s, spill.start_s);
    spilled_records += spill.records;
  }
  EXPECT_EQ(spilled_records, report.records);

  std::int64_t merge_events = 0;
  for (std::size_t i = 1; i < report.profiles.size(); ++i) {
    for (const rt::MergeEvent& merge : report.profiles[i]->merges) {
      EXPECT_GE(merge.fan_in, 1);
      EXPECT_LE(merge.fan_in, report.merge_fan_in);
      ++merge_events;
    }
  }
  EXPECT_GE(merge_events, 1);
}

TEST_F(OocoreTest, SortValuesGoesExternalAndMatchesStdSort) {
  std::vector<std::uint64_t> values = random_records(65536, 47);
  std::vector<std::uint64_t> expected = values;
  std::sort(expected.begin(), expected.end());
  const ExtSortReport report =
      sort_values(values, small_budget_options());
  EXPECT_TRUE(report.external);
  EXPECT_EQ(values, expected);
}

}  // namespace
}  // namespace pblpar::oocore

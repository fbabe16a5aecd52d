#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <iterator>
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

TEST_F(OocoreTest, SpillReaderAndWriterAreExactAcrossBlockBoundaries) {
  constexpr std::size_t kBlock = 4096;
  const std::vector<std::uint64_t> records = random_records(40000, 11);
  const auto total = records.size() * sizeof(std::uint64_t);
  const auto* src = reinterpret_cast<const char*>(records.data());
  ScratchDir scratch("pblpar-test");

  // Writer: 8-byte writes (the in-block fast path, and the slow path
  // once one fills the block) mixed with block-straddling 1234-byte
  // writes and writes of a block or more (the bypass) must produce the
  // same bytes as one bulk write.
  const fs::path bulk = scratch.next_path("bulk");
  write_records(bulk, records);
  const fs::path mixed = scratch.next_path("mixed");
  {
    SpillWriter writer(mixed, kBlock);
    const std::size_t sizes[] = {8, 8, 8, kBlock, 8, 1234, 3 * kBlock + 8,
                                 1234, 1234, 1234, 1234, 8};
    std::size_t off = 0;
    for (; off < 3 * kBlock; off += 8) {
      writer.write(src + off, 8);
    }
    for (std::size_t i = 0; off < total; ++i) {
      const std::size_t take = std::min(sizes[i % std::size(sizes)],
                                        total - off);
      writer.write(src + off, take);
      off += take;
    }
    EXPECT_EQ(writer.bytes_written(), static_cast<std::int64_t>(total));
    writer.close();
  }
  EXPECT_EQ(read_records(mixed), records);

  // Reader: odd-sized (1234 B) and 8-byte reads straddle block refills,
  // then read() returns 0 once the file is exhausted.
  for (const std::size_t step : {std::size_t{1234}, std::size_t{8}}) {
    SpillReader reader(bulk, kBlock);
    std::vector<std::uint64_t> back(records.size());
    auto* bytes = reinterpret_cast<char*>(back.data());
    std::size_t off = 0;
    while (off < total) {
      const std::size_t got =
          reader.read(bytes + off, std::min(step, total - off));
      ASSERT_GT(got, 0u);
      off += got;
    }
    EXPECT_EQ(reader.read(bytes, 1), 0u);
    EXPECT_EQ(reader.read(bytes, 8), 0u);
    EXPECT_EQ(reader.bytes_read(), static_cast<std::int64_t>(total));
    EXPECT_EQ(back, records);
  }

  // An offset/limit window that starts and ends mid-block delivers
  // exactly its bytes, then 0.
  {
    const std::uint64_t offset = kBlock + 24;
    const std::uint64_t limit = 3 * kBlock + 1000;
    SpillReader reader(bulk, kBlock, {}, 0, offset, limit);
    std::vector<char> window(limit + kBlock);
    std::size_t off = 0;
    while (off < window.size()) {
      const std::size_t got = reader.read(
          window.data() + off, std::min<std::size_t>(1234, window.size() - off));
      if (got == 0) {
        break;
      }
      off += got;
    }
    ASSERT_EQ(off, limit);
    EXPECT_TRUE(std::equal(window.begin(),
                           window.begin() + static_cast<std::ptrdiff_t>(limit),
                           src + offset));
    EXPECT_EQ(reader.read(window.data(), 8), 0u);
  }

  // A trailing partial record is torn: RunReader throws after the whole
  // records before it.
  const fs::path torn = scratch.next_path("torn");
  {
    SpillWriter writer(torn, kBlock);
    writer.write(src, 513 * sizeof(std::uint64_t) + 5);
    writer.close();
  }
  SpillReader source(torn, kBlock);
  RunReader<std::uint64_t> reader(source);
  std::uint64_t record = 0;
  for (std::size_t i = 0; i < 513; ++i) {
    ASSERT_TRUE(reader.pull(&record));
    EXPECT_EQ(record, records[i]);
  }
  EXPECT_THROW(reader.pull(&record), IoError);
}

TEST_F(OocoreTest, SpillWritersAtOffsetsFillDisjointWindowsOfOneFile) {
  constexpr std::size_t kBlock = 4096;
  const std::vector<std::uint64_t> records = random_records(3000, 13);
  const auto total = records.size() * sizeof(std::uint64_t);
  const auto* src = reinterpret_cast<const char*>(records.data());
  const std::size_t split = 1111 * sizeof(std::uint64_t);  // mid-block
  ScratchDir scratch("pblpar-test");
  const fs::path path = scratch.next_path("windows");
  write_records(path, std::vector<std::uint64_t>(records.size(), 0));
  IoChaos chaos;
  chaos.short_write_probability = 1.0;
  chaos.seed = 5;

  // The upper window first, then the lower one from offset 0: neither
  // writer may truncate or touch the bytes outside its own window.
  {
    SpillWriter upper(path, kBlock, chaos, /*salt=*/1, split);
    for (std::size_t off = split; off < total; off += 8) {
      upper.write(src + off, 8);
    }
    upper.close();
  }
  EXPECT_EQ(fs::file_size(path), total);
  {
    SpillWriter lower(path, kBlock, chaos, /*salt=*/2, std::uint64_t{0});
    lower.write(src, split);
    lower.close();
  }
  EXPECT_EQ(read_records(path), records);
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

TEST_F(OocoreTest, MergePlanKeepsEveryMergeBufferInsideTheBudget) {
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
      // One block per input run plus the group's output block.
      EXPECT_LE(static_cast<std::size_t>(plan.concurrency) *
                    static_cast<std::size_t>(plan.fan_in + 1) *
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
  EXPECT_EQ(plan_merge(spill_sort, 4).fan_in, 7);
  EXPECT_EQ(plan_merge(spill_sort, 4).concurrency, 4);
}

TEST_F(OocoreTest, SortFileMergesTheSpillSortShapeInTwoPasses) {
  // The perfbench spill_sort shape: a 4 MiB input, 8x its budget.
  std::vector<std::uint64_t> records =
      random_records((std::int64_t{4} << 20) / 8, 43);
  ScratchDir scratch("pblpar-test");
  const fs::path in = scratch.next_path("in");
  const fs::path out = scratch.next_path("out");
  write_records(in, records);
  ExtSortOptions opts;
  opts.memory_budget_bytes = std::size_t{512} << 10;
  opts.io_buffer_bytes = std::size_t{16} << 10;
  opts.threads = 4;
  const ExtSortReport report = sort_file<std::uint64_t>(in, out, opts);
  EXPECT_TRUE(report.external);
  EXPECT_EQ(report.initial_runs, 32);
  EXPECT_EQ(report.merge_fan_in, 7);
  EXPECT_EQ(report.merge_passes, 2);  // 32 runs -> 5 -> 1
  EXPECT_EQ(report.spilled_bytes, 2 * static_cast<std::int64_t>(
                                          records.size() * sizeof(std::uint64_t)));
  std::sort(records.begin(), records.end());
  EXPECT_EQ(read_records(out), records);
}

/// The perfbench spill_sort shape: 512 KiB budget, 16 KiB blocks and 4
/// threads merge a 4 MiB file as 32 runs -> 5 -> 1, and the final pass
/// (one group) is cut into 4 key-range slices.
ExtSortOptions spill_sort_options() {
  ExtSortOptions opts;
  opts.memory_budget_bytes = std::size_t{512} << 10;
  opts.io_buffer_bytes = std::size_t{16} << 10;
  opts.threads = 4;
  return opts;
}

TEST_F(OocoreTest, SlicedFinalMergeMatchesStableSortByKey) {
  // 16-byte {key, seq} records sorted on key alone. Each run segment of
  // 8192 records holds every key once (4097 is odd, so seq -> key is a
  // bijection mod 8192), and every key has 32 copies, one per run. The
  // merge breaks ties by run index, so the exact expected output is a
  // stable sort by key, seq ascending within each key: a slice boundary
  // that split a key's copies would reorder them.
  struct KeySeq {
    std::uint64_t key;
    std::uint64_t seq;
  };
  const auto by_key = [](const KeySeq& a, const KeySeq& b) {
    return a.key < b.key;
  };
  constexpr std::uint64_t kRecords = (std::uint64_t{4} << 20) / 16;
  std::vector<KeySeq> records(kRecords);
  for (std::uint64_t seq = 0; seq < kRecords; ++seq) {
    records[seq] = {(seq * 4097) % 8192, seq};
  }
  ScratchDir scratch("pblpar-test");
  const fs::path in = scratch.next_path("in");
  const fs::path out = scratch.next_path("out");
  {
    SpillWriter writer(in, std::size_t{64} << 10);
    writer.write(records.data(), records.size() * sizeof(KeySeq));
    writer.close();
  }
  const ExtSortReport report =
      sort_file<KeySeq>(in, out, spill_sort_options(), by_key);
  EXPECT_EQ(report.initial_runs, 32);
  EXPECT_EQ(report.merge_passes, 2);

  std::stable_sort(records.begin(), records.end(), by_key);
  std::vector<KeySeq> back(kRecords);
  ASSERT_EQ(fs::file_size(out), kRecords * sizeof(KeySeq));
  SpillReader reader(out, std::size_t{64} << 10);
  ASSERT_EQ(reader.read(back.data(), kRecords * sizeof(KeySeq)),
            kRecords * sizeof(KeySeq));
  for (std::size_t i = 0; i < kRecords; ++i) {
    ASSERT_TRUE(back[i].key == records[i].key && back[i].seq == records[i].seq)
        << "first difference at record " << i << ": got {" << back[i].key
        << ", " << back[i].seq << "}, want {" << records[i].key << ", "
        << records[i].seq << "}";
  }
}

TEST_F(OocoreTest, SlicedFinalMergeHandlesDegenerateKeyOrders) {
  // Every splitter equal (all keys equal), and runs whose key ranges do
  // not overlap (sorted and reverse-sorted input): most slice windows are
  // empty, and the output must still be std::sort's.
  constexpr std::int64_t kRecords = (std::int64_t{4} << 20) / 8;
  std::vector<std::vector<std::uint64_t>> inputs(3);
  inputs[0].assign(kRecords, 42);
  for (std::int64_t i = 0; i < kRecords; ++i) {
    inputs[1].push_back(static_cast<std::uint64_t>(i));
    inputs[2].push_back(static_cast<std::uint64_t>(kRecords - i));
  }
  ScratchDir scratch("pblpar-test");
  for (std::vector<std::uint64_t>& records : inputs) {
    const fs::path in = scratch.next_path("in");
    const fs::path out = scratch.next_path("out");
    write_records(in, records);
    const ExtSortReport report =
        sort_file<std::uint64_t>(in, out, spill_sort_options());
    EXPECT_EQ(report.merge_passes, 2);
    std::sort(records.begin(), records.end());
    EXPECT_EQ(read_records(out), records);
  }
}

TEST_F(OocoreTest, OnlyAnUnderFilledMergePassIsSliced) {
  std::vector<std::uint64_t> records =
      random_records((std::int64_t{4} << 20) / 8, 53);
  ScratchDir scratch("pblpar-test");
  const fs::path in = scratch.next_path("in");
  const fs::path out = scratch.next_path("out");
  write_records(in, records);
  std::sort(records.begin(), records.end());

  ExtSortOptions opts = spill_sort_options();
  opts.record_trace = true;
  const ExtSortReport report = sort_file<std::uint64_t>(in, out, opts);
  ASSERT_EQ(report.merge_passes, 2);
  ASSERT_EQ(report.profiles.size(), 3u);  // run formation + 2 passes
  // Pass 1 merges 5 groups on 4 threads, unsliced.
  EXPECT_EQ(report.profiles[1]->merges.size(), 5u);
  // The final pass is one group, cut into plan.concurrency slices.
  const auto& final_merges = report.profiles.back()->merges;
  EXPECT_EQ(static_cast<int>(final_merges.size()),
            plan_merge(opts, 4).concurrency);
  std::int64_t merged = 0;
  for (const rt::MergeEvent& merge : final_merges) {
    EXPECT_LE(merge.fan_in, report.merge_fan_in);
    merged += merge.records;
  }
  EXPECT_EQ(merged, report.records);
  EXPECT_EQ(read_records(out), records);

  // One thread plans one merge task at a time, so nothing is sliced.
  opts.threads = 1;
  const ExtSortReport serial = sort_file<std::uint64_t>(in, out, opts);
  ASSERT_GE(serial.merge_passes, 1);
  EXPECT_EQ(serial.profiles.back()->merges.size(), 1u);
  EXPECT_EQ(serial.profiles.back()->merges.front().records, serial.records);
  EXPECT_EQ(read_records(out), records);
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

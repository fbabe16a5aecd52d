// Out-of-core tier benchmark: the parallel external sort and the
// memory-budgeted spillable MapReduce shuffle, against their in-memory
// baselines. Results go to BENCH_extsort.json in the working directory.
//
// Three phases, in a deliberate order:
//
//   1. bounded-RSS proof — sort a dataset 8x the memory budget and check
//      the process high-water RSS grew by a small multiple of the budget,
//      not by the dataset. This phase MUST run first: getrusage's
//      ru_maxrss is a lifetime high-water mark, so any later phase that
//      materializes a big vector would mask the measurement.
//   2. crossover sweep — sort_file vs std::sort across sizes with a fixed
//      budget, showing where the external path takes over and what it
//      costs when it does.
//   3. spill-shuffle overhead — the word-count job with and without a
//      shuffle budget of dataset/4 and dataset/2; the acceptance bar is
//      spilling <= 1.5x the in-memory run at budgets >= dataset/4.
//
// --smoke runs tiny shapes of all three phases in a couple of seconds;
// the bench-smoke ctest label uses it so the binary stays exercised.

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#if !defined(_WIN32)
#include <sys/resource.h>
#endif

#include "harness.hpp"
#include "mapreduce/defs.hpp"
#include "mapreduce/job.hpp"
#include "oocore/extsort.hpp"
#include "oocore/io.hpp"
#include "oocore/scratch.hpp"
#include "rt/parallel.hpp"
#include "util/rng.hpp"

namespace {

namespace fs = std::filesystem;
namespace bench = pblpar::bench;
using pblpar::oocore::ExtSortOptions;
using pblpar::oocore::ExtSortReport;
using pblpar::oocore::ScratchDir;
using pblpar::oocore::SpillReader;
using pblpar::oocore::SpillWriter;
using pblpar::util::Rng;

/// Process high-water resident set in bytes (0 where unsupported).
std::int64_t max_rss_bytes() {
#if defined(_WIN32)
  return 0;
#else
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) {
    return 0;
  }
  return static_cast<std::int64_t>(usage.ru_maxrss) * 1024;  // KiB on Linux
#endif
}

/// Order-independent permutation checksum: (count, sum, xor) of records.
struct Checksum {
  std::int64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t xored = 0;

  void add(std::uint64_t value) {
    ++count;
    sum += value;
    xored ^= value;
  }
  bool operator==(const Checksum& other) const {
    return count == other.count && sum == other.sum && xored == other.xored;
  }
};

/// Stream-generate a file of random records WITHOUT materializing the
/// dataset in memory — the bounded-RSS phase depends on that.
Checksum write_random_file(const fs::path& path, std::int64_t records,
                           std::uint64_t seed) {
  Rng rng(seed);
  Checksum checksum;
  SpillWriter writer(path, std::size_t{1} << 20);
  std::vector<std::uint64_t> block(std::size_t{1} << 16);
  std::int64_t left = records;
  while (left > 0) {
    const auto n = static_cast<std::size_t>(
        std::min<std::int64_t>(static_cast<std::int64_t>(block.size()), left));
    for (std::size_t i = 0; i < n; ++i) {
      block[i] = rng.next_u64();
      checksum.add(block[i]);
    }
    writer.write(block.data(), n * sizeof(std::uint64_t));
    left -= static_cast<std::int64_t>(n);
  }
  writer.close();
  return checksum;
}

/// Stream-verify a sorted file: non-decreasing and checksum-matching,
/// again without loading it whole.
bool verify_sorted_file(const fs::path& path, const Checksum& expected) {
  Checksum seen;
  SpillReader reader(path, std::size_t{1} << 20);
  std::vector<std::uint64_t> block(std::size_t{1} << 16);
  std::uint64_t previous = 0;
  bool first = true;
  for (;;) {
    const std::size_t got =
        reader.read(block.data(), block.size() * sizeof(std::uint64_t));
    if (got == 0) {
      break;
    }
    const std::size_t n = got / sizeof(std::uint64_t);
    for (std::size_t i = 0; i < n; ++i) {
      if (!first && block[i] < previous) {
        return false;
      }
      previous = block[i];
      first = false;
      seen.add(block[i]);
    }
  }
  return seen == expected;
}

struct BoundedRssResult {
  std::int64_t dataset_bytes = 0;
  std::int64_t budget_bytes = 0;
  std::int64_t rss_before_bytes = 0;
  std::int64_t rss_after_bytes = 0;
  std::int64_t rss_growth_bytes = 0;
  double seconds = 0.0;
  int initial_runs = 0;
  int merge_passes = 0;
  bool sorted_ok = false;
  bool pass = false;
};

/// Phase 1: dataset = 8x budget, streamed in and out; the external sort's
/// peak memory must scale with the budget, not the dataset.
BoundedRssResult run_bounded_rss(std::int64_t budget_bytes) {
  BoundedRssResult result;
  result.budget_bytes = budget_bytes;
  result.dataset_bytes = 8 * budget_bytes;
  const std::int64_t records =
      result.dataset_bytes / static_cast<std::int64_t>(sizeof(std::uint64_t));

  ScratchDir staging("pblpar-extsort-bench");
  const fs::path input = staging.next_path("input");
  const fs::path output = staging.next_path("output");
  const Checksum checksum = write_random_file(input, records, 12345);

  ExtSortOptions opts;
  opts.memory_budget_bytes = static_cast<std::size_t>(budget_bytes);
  opts.io_buffer_bytes =
      std::min<std::size_t>(std::size_t{256} << 10,
                            static_cast<std::size_t>(budget_bytes) / 4);

  result.rss_before_bytes = max_rss_bytes();
  ExtSortReport report;
  result.seconds = bench::elapsed_s([&] {
    report = pblpar::oocore::sort_file<std::uint64_t>(input, output, opts);
  });
  result.rss_after_bytes = max_rss_bytes();
  result.rss_growth_bytes = result.rss_after_bytes - result.rss_before_bytes;
  result.initial_runs = report.initial_runs;
  result.merge_passes = report.merge_passes;
  result.sorted_ok = report.external && verify_sorted_file(output, checksum);
  // "Bounded": the high-water mark moved by a small multiple of the
  // budget (run buffers + I/O buffers + allocator slack), and nowhere
  // near the dataset itself.
  result.pass = result.sorted_ok &&
                result.rss_growth_bytes < 4 * budget_bytes &&
                result.rss_growth_bytes < result.dataset_bytes / 2;
  return result;
}

/// std::sort vs sort_file at one size; the ratio compares their mins.
struct CrossoverRow {
  std::int64_t records = 0;
  std::int64_t bytes = 0;
  bool external = false;
  bench::Samples std_sort;
  bench::Samples ext_sort;
  double ratio = 0.0;
};

/// Phase 2: sort_file (fixed budget) vs std::sort across dataset sizes.
CrossoverRow run_crossover_point(std::int64_t records,
                                 std::int64_t budget_bytes, int repeats) {
  CrossoverRow row;
  row.records = records;
  row.bytes = records * static_cast<std::int64_t>(sizeof(std::uint64_t));

  ScratchDir staging("pblpar-extsort-bench");
  const fs::path input = staging.next_path("input");
  const Checksum checksum = write_random_file(input, records, 999);

  // std::sort baseline: data already in memory, pure sort time.
  std::vector<std::uint64_t> data(static_cast<std::size_t>(records));
  {
    SpillReader reader(input, std::size_t{1} << 20);
    reader.read(data.data(), data.size() * sizeof(std::uint64_t));
  }
  row.std_sort = bench::trials(repeats, [&] {
    std::vector<std::uint64_t> copy = data;
    return bench::elapsed_s([&] { std::sort(copy.begin(), copy.end()); });
  });
  data.clear();
  data.shrink_to_fit();

  ExtSortOptions opts;
  opts.memory_budget_bytes = static_cast<std::size_t>(budget_bytes);
  opts.io_buffer_bytes = std::size_t{256} << 10;
  int repeat = 0;
  bool verified = true;
  row.ext_sort = bench::trials(repeats, [&] {
    const fs::path output = staging.next_path("output");
    ExtSortReport report;
    const double seconds = bench::elapsed_s([&] {
      report = pblpar::oocore::sort_file<std::uint64_t>(input, output, opts);
    });
    row.external = report.external;
    if (++repeat == repeats) {
      verified = verify_sorted_file(output, checksum);
    }
    std::error_code ec;
    fs::remove(output, ec);
    return seconds;
  });
  // A verification failure is flagged loudly in the JSON as ratio -1.
  row.ratio = verified ? row.ext_sort.min() / row.std_sort.min() : -1.0;
  return row;
}

/// Unbudgeted vs budgeted word count; overheads compare their mins.
struct SpillShuffleResult {
  std::int64_t input_bytes = 0;
  bench::Samples in_memory;
  bench::Samples quarter_budget;
  bench::Samples half_budget;
  std::int64_t quarter_spilled_runs = 0;
  std::int64_t quarter_spilled_bytes = 0;
  double quarter_overhead = 0.0;
  double half_overhead = 0.0;
  bool identical = false;
  bool pass = false;
};

/// Phase 3: the Assignment-5 word-count job, unbudgeted vs budgets of
/// dataset/4 and dataset/2. `overhead_bar` is the acceptance threshold
/// for the budgeted/in-memory ratio; --smoke passes infinity because a
/// one-repeat run sharing a loaded ctest box can't hold a timing bar.
SpillShuffleResult run_spill_shuffle(int documents, int repeats,
                                     double overhead_bar) {
  std::vector<std::string> texts;
  texts.reserve(static_cast<std::size_t>(documents));
  std::int64_t input_bytes = 0;
  for (int d = 0; d < documents; ++d) {
    std::string text;
    for (int w = 0; w < 24; ++w) {
      text += "token" + std::to_string((d * 31 + w * 11) % 409) + " ";
    }
    input_bytes += static_cast<std::int64_t>(text.size());
    texts.push_back(std::move(text));
  }
  const auto inputs = pblpar::mapreduce::defs::indexed(texts);

  SpillShuffleResult result;
  result.input_bytes = input_bytes;

  pblpar::mapreduce::Job<int, std::string, std::string, long> job;
  pblpar::mapreduce::defs::WordCountDef{}.configure(job);

  const auto time_runs = [&](std::vector<std::pair<std::string, long>>* out,
                             pblpar::mapreduce::RunReport* report) {
    return bench::trials(repeats, [&] {
      std::vector<std::pair<std::string, long>> rows;
      const double seconds =
          bench::elapsed_s([&] { rows = job.run(inputs, report); });
      if (out != nullptr) {
        *out = std::move(rows);
      }
      return seconds;
    });
  };

  std::vector<std::pair<std::string, long>> baseline;
  result.in_memory = time_runs(&baseline, nullptr);

  pblpar::mapreduce::RunReport quarter_report;
  std::vector<std::pair<std::string, long>> quarter_rows;
  job.memory_budget_bytes(std::max<std::int64_t>(input_bytes / 4, 1 << 16));
  result.quarter_budget = time_runs(&quarter_rows, &quarter_report);
  result.quarter_spilled_runs = quarter_report.spilled_runs;
  result.quarter_spilled_bytes = quarter_report.spilled_bytes;

  job.memory_budget_bytes(std::max<std::int64_t>(input_bytes / 2, 1 << 16));
  result.half_budget = time_runs(nullptr, nullptr);

  result.quarter_overhead =
      result.quarter_budget.min() / result.in_memory.min();
  result.half_overhead = result.half_budget.min() / result.in_memory.min();
  result.identical = baseline == quarter_rows;
  result.pass = result.identical && result.quarter_spilled_runs > 0 &&
                result.quarter_overhead <= overhead_bar &&
                result.half_overhead <= overhead_bar;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::smoke_flag(argc, argv);
  bench::Json doc = bench::document("ubench_extsort", smoke);

  // Phase 1 first: ru_maxrss is a lifetime high-water mark.
  const std::int64_t budget =
      smoke ? (std::int64_t{1} << 20) : (std::int64_t{8} << 20);
  const BoundedRssResult rss = run_bounded_rss(budget);
  doc.set("bounded_rss",
          bench::show("bounded_rss",
                      bench::Json::object(
                          {{"dataset_bytes", rss.dataset_bytes},
                           {"budget_bytes", rss.budget_bytes},
                           {"rss_growth_bytes", rss.rss_growth_bytes},
                           {"seconds", rss.seconds},
                           {"initial_runs", rss.initial_runs},
                           {"merge_passes", rss.merge_passes},
                           {"sorted_ok", rss.sorted_ok},
                           {"pass", rss.pass}})));

  // Phase 2: crossover sweep with a fixed budget.
  const std::int64_t crossover_budget =
      smoke ? (std::int64_t{1} << 20) : (std::int64_t{4} << 20);
  const std::vector<std::int64_t> sizes =
      smoke ? std::vector<std::int64_t>{1 << 14, 1 << 18}
            : std::vector<std::int64_t>{1 << 14, 1 << 16, 1 << 18, 1 << 20,
                                        1 << 22};
  bool crossover_ok = true;
  double largest_in_budget_ratio = 0.0;
  bool saw_external = false;
  bench::Json rows = bench::Json::array();
  for (const std::int64_t records : sizes) {
    const CrossoverRow row =
        run_crossover_point(records, crossover_budget, smoke ? 1 : 3);
    bench::Json json = bench::Json::object({{"records", row.records},
                                            {"bytes", row.bytes},
                                            {"external", row.external}});
    bench::put_timing(json, "std_sort_", row.std_sort.min(), row.std_sort);
    bench::put_timing(json, "ext_sort_", row.ext_sort.min(), row.ext_sort);
    rows.push(bench::show("crossover", std::move(json.set("ratio", row.ratio))));
    if (row.ratio < 0.0) {
      crossover_ok = false;  // a verification failure
    }
    if (!row.external) {
      largest_in_budget_ratio = row.ratio;
    } else {
      saw_external = true;
    }
  }
  // In-budget sort_file pays file I/O on top of the same std::sort; the
  // external rows just need to exist and verify. Timing bars only hold
  // on an otherwise-idle box, so --smoke (which runs inside a parallel
  // ctest schedule) keeps the structural checks and drops the ratios.
  const double in_budget_bar =
      smoke ? std::numeric_limits<double>::infinity() : 5.0;
  crossover_ok = crossover_ok && saw_external &&
                 largest_in_budget_ratio <= in_budget_bar;
  doc.set("crossover",
          bench::Json::object({{"budget_bytes", crossover_budget},
                               {"rows", std::move(rows)},
                               {"pass", crossover_ok}}));

  // Phase 3: spillable shuffle vs in-memory shuffle.
  const double overhead_bar =
      smoke ? std::numeric_limits<double>::infinity() : 1.5;
  const SpillShuffleResult shuffle =
      run_spill_shuffle(smoke ? 800 : 20000, smoke ? 1 : 3, overhead_bar);
  bench::Json spill =
      bench::Json::object({{"input_bytes", shuffle.input_bytes}});
  bench::put_timing(spill, "in_memory_", shuffle.in_memory.min(),
                    shuffle.in_memory);
  bench::put_timing(spill, "quarter_budget_", shuffle.quarter_budget.min(),
                    shuffle.quarter_budget);
  bench::put_timing(spill, "half_budget_", shuffle.half_budget.min(),
                    shuffle.half_budget);
  spill.set("quarter_overhead", shuffle.quarter_overhead)
      .set("half_overhead", shuffle.half_overhead)
      .set("quarter_spilled_runs", shuffle.quarter_spilled_runs)
      .set("quarter_spilled_bytes", shuffle.quarter_spilled_bytes)
      .set("identical", shuffle.identical)
      .set("pass", shuffle.pass);
  doc.set("spill_shuffle", bench::show("spill_shuffle", std::move(spill)));

  bench::Checks checks;
  checks.add("bounded_rss", rss.pass);
  checks.add("crossover", crossover_ok);
  checks.add("spill_overhead<=1.5x", shuffle.pass);
  checks.print();
  doc.set("pass", checks.all());
  bench::write_json("BENCH_extsort.json", doc);
  return checks.all() ? 0 : 1;
}

#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <type_traits>
#include <vector>

#include "oocore/io.hpp"
#include "oocore/merge.hpp"
#include "oocore/scratch.hpp"
#include "oocore/spill.hpp"
#include "rt/for_each.hpp"
#include "rt/parallel.hpp"
#include "util/error.hpp"

namespace pblpar::oocore {

/// Derive a byte budget as `multiplier x dataset_bytes`, rejecting the
/// degenerate multipliers loudly (zero, negative, NaN and infinity all
/// silently disable spilling or allocate the world otherwise).
inline std::size_t budget_from_multiplier(double multiplier,
                                          std::int64_t dataset_bytes) {
  util::require(std::isfinite(multiplier) && multiplier > 0.0,
                "budget_from_multiplier: multiplier must be finite and > 0 "
                "(zero, negative and non-finite multipliers are rejected)");
  util::require(dataset_bytes > 0,
                "budget_from_multiplier: dataset_bytes must be > 0");
  const double bytes = multiplier * static_cast<double>(dataset_bytes);
  return static_cast<std::size_t>(std::max(bytes, 1.0));
}

/// Configuration of one external sort.
struct ExtSortOptions {
  /// Total working-set target across all workers. Run formation sizes
  /// each worker's run buffer at budget/threads; the merge derives its
  /// fan-in and concurrency so every concurrent group's input and output
  /// blocks stay under it too (see MergePlan).
  std::size_t memory_budget_bytes = std::size_t{64} << 20;

  int threads = 0;  // 0 = rt::hardware_threads()

  /// Size of each buffered-I/O block (spill writers, merge readers).
  std::size_t io_buffer_bytes = std::size_t{256} << 10;

  /// Cap on merge fan-in; 0 derives it from the budget. >= 2 otherwise.
  int max_fan_in = 0;

  IoChaos chaos;            // seeded short-write / slow-read injection
  rt::CancelToken cancel;   // polled at chunk claims and inside merges
  double deadline_s = 0.0;  // 0 = none; enforced on the parallel regions
  bool record_trace = false;

  /// Scratch directory for run files; nullptr = the sort creates (and on
  /// scope exit removes) a private one. Passing your own lets several
  /// sorts share cleanup, and lets tests assert the cancel-drain leaves
  /// nothing behind once the guard dies.
  ScratchDir* scratch = nullptr;

  void validate() const {
    util::require(memory_budget_bytes >= (std::size_t{64} << 10),
                  "ExtSortOptions: memory_budget_bytes must be >= 64 KiB");
    util::require(io_buffer_bytes >= 4096,
                  "ExtSortOptions: io_buffer_bytes must be >= 4 KiB");
    util::require(io_buffer_bytes * 4 <= memory_budget_bytes,
                  "ExtSortOptions: budget must cover at least 4 I/O buffers");
    util::require(max_fan_in == 0 || max_fan_in >= 2,
                  "ExtSortOptions: max_fan_in must be 0 (auto) or >= 2");
    util::require(threads >= 0,
                  "ExtSortOptions: threads must be >= 0 (0 = hardware)");
    util::require(std::isfinite(deadline_s) && deadline_s >= 0.0,
                  "ExtSortOptions: deadline_s must be finite and >= 0");
    chaos.validate();
  }
};

/// What one external sort did.
struct ExtSortReport {
  std::int64_t records = 0;
  bool external = false;  // false: fit in budget, sorted in memory
  int initial_runs = 0;
  int merge_passes = 0;
  int merge_fan_in = 0;            // fan-in the merge passes used
  std::int64_t spilled_bytes = 0;  // run + intermediate bytes written

  /// Trace profiles of the parallel regions (run formation first, then
  /// one per merge pass), when record_trace was set.
  std::vector<std::shared_ptr<const rt::RunProfile>> profiles;
};

/// How the merge passes use the budget: the k-way fan-in, and how many
/// merge tasks (whole groups, or key-range slices of one) may run at
/// once. Every task holds one block per input run plus one output block,
/// and a derived plan keeps all of them inside the budget:
/// concurrency * (fan_in + 1) * io_buffer_bytes <= memory_budget_bytes.
/// A slice's splitter probes read through a bare stdio handle and hold
/// no block.
struct MergePlan {
  int fan_in = 2;
  int concurrency = 1;
};

/// The merge plan for `threads` workers. Fan-in is what the budget can
/// buffer with every worker merging, less each group's output block (or
/// `max_fan_in` when set), within [2, 128]. At the fan-in floor of 2 the
/// budget may not hold `threads` groups at once, so concurrency drops to
/// the groups it does hold (at least 1; validate() guarantees the budget
/// covers one 2-way group).
inline MergePlan plan_merge(const ExtSortOptions& opts, int threads) {
  int fan_in = opts.max_fan_in;
  if (fan_in == 0) {
    const std::size_t blocks_per_worker =
        opts.memory_budget_bytes /
        (opts.io_buffer_bytes * static_cast<std::size_t>(threads));
    fan_in = static_cast<int>(blocks_per_worker) - 1;  // 1 output block
  }
  MergePlan plan;
  plan.fan_in = std::clamp(fan_in, 2, 128);
  const std::size_t groups_in_budget =
      opts.memory_budget_bytes /
      (opts.io_buffer_bytes * static_cast<std::size_t>(plan.fan_in + 1));
  plan.concurrency = static_cast<int>(std::clamp<std::size_t>(
      groups_in_budget, 1, static_cast<std::size_t>(threads)));
  return plan;
}

namespace detail {

/// Cooperative cancellation inside a long merge drain: the loop polls the
/// token between records (chunk claims only poll between tasks, and one
/// task merges a whole group or a key-range slice of one). Throwing
/// rt::Cancelled out of the body rides the backend's error path: the
/// team aborts, peers drain, the caller sees rt::Cancelled — and the
/// ScratchDir guard unlinks every half-written run on unwind.
inline void poll_merge_cancel(const rt::CancelToken& token) {
  if (token.valid() && token.cancel_requested()) {
    throw rt::Cancelled(rt::CancelCause::Token, {});
  }
}

/// Record `index` of a packed run: a positioned single-record read on a
/// probe handle, which holds a stdio stream and no merge block.
template <class T>
T read_record_at(RawFile& probe, std::int64_t index) {
  T record{};
  probe.seek(static_cast<std::uint64_t>(index) * sizeof(T));
  if (probe.read(&record, sizeof(T)) != sizeof(T)) {
    throw IoError("sort_file: run truncated under a splitter probe");
  }
  return record;
}

/// First index in [lo, hi) of a sorted packed run whose record is not
/// less than `key` (hi when there is none), by binary search on probes.
template <class T, class Less>
std::int64_t lower_bound_in_run(RawFile& probe, std::int64_t lo,
                                std::int64_t hi, const T& key,
                                const Less& less) {
  while (lo < hi) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    if (less(read_record_at<T>(probe, mid), key)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace detail

/// Parallel external sort of a raw record file (a packed array of
/// trivially-copyable T), producing the same packed format at `output`.
///
/// Phase 1 (run formation): the input splits into budget/threads-sized
/// segments; workers on the persistent rt::TeamPool claim segments by
/// work stealing, sort each in memory, and spill sorted runs to scratch
/// with buffered, chaos-aware I/O. Phase 2 (merge): runs merge k ways
/// through a loser tree, each run streamed through one synchronous
/// SpillReader block (freshly written runs are page-cached, and the
/// kernel's sequential readahead covers cold ones); when the budget
/// cannot hold every run's block at once, intermediate passes cut the
/// run count by the fan-in until one pass writes `output`. A pass with
/// fewer groups than MergePlan::concurrency (the final pass, unless the
/// budget holds one task at a time) cuts each group into key ranges at
/// sampled splitters, as PSRS does: every slice merges its window of
/// every run into its own byte window of the output, so the final merge
/// runs on every merge thread and still writes the bytes of one
/// single-threaded merge.
///
/// Peak memory stays O(memory_budget_bytes) regardless of file size; the
/// scratch disk high-water mark is at most ~2x the input (live runs plus
/// the pass being written).
template <class T, class Less = std::less<T>>
ExtSortReport sort_file(const std::filesystem::path& input,
                        const std::filesystem::path& output,
                        const ExtSortOptions& opts, Less less = {}) {
  static_assert(std::is_trivially_copyable_v<T>,
                "oocore::sort_file sorts packed arrays of trivially-"
                "copyable records");
  opts.validate();
  namespace fs = std::filesystem;

  const std::uint64_t input_bytes = fs::file_size(input);
  util::require(input_bytes % sizeof(T) == 0,
                "sort_file: input size is not a whole number of records");
  const auto records = static_cast<std::int64_t>(input_bytes / sizeof(T));

  ExtSortReport report;
  report.records = records;

  const int threads = opts.threads > 0 ? opts.threads : rt::hardware_threads();

  if (input_bytes <= opts.memory_budget_bytes) {
    // The whole file fits the budget: one in-memory run, no scratch.
    std::vector<T> data(static_cast<std::size_t>(records));
    {
      RawFile in(input, RawFile::Mode::Read, opts.chaos, /*salt=*/1);
      if (in.read(data.data(), static_cast<std::size_t>(input_bytes)) !=
          input_bytes) {
        throw IoError("sort_file: input truncated while reading");
      }
    }
    std::sort(data.begin(), data.end(), less);
    SpillWriter out(output, opts.io_buffer_bytes, opts.chaos, /*salt=*/2);
    out.write(data.data(), static_cast<std::size_t>(input_bytes));
    out.close();
    report.initial_runs = records > 0 ? 1 : 0;
    return report;
  }

  report.external = true;
  std::optional<ScratchDir> own_scratch;
  ScratchDir* scratch = opts.scratch;
  if (scratch == nullptr) {
    own_scratch.emplace("pblpar-extsort");
    scratch = &*own_scratch;
  }

  rt::ParallelConfig config = rt::ParallelConfig::host(threads);
  if (opts.record_trace) {
    config = config.traced();
  }
  if (opts.cancel.valid()) {
    config = config.cancellable(opts.cancel);
  }
  if (opts.deadline_s > 0.0) {
    config = config.deadline(opts.deadline_s);
  }

  // --- Phase 1: parallel run formation over the steal schedule. Each
  // worker's live memory is one run buffer (budget/threads) plus one
  // write buffer, so the phase as a whole respects the budget.
  std::int64_t run_records = static_cast<std::int64_t>(
      opts.memory_budget_bytes / static_cast<std::size_t>(threads) /
      sizeof(T));
  run_records = std::max<std::int64_t>(run_records, 1);
  const std::int64_t num_runs = (records + run_records - 1) / run_records;

  std::vector<fs::path> runs(static_cast<std::size_t>(num_runs));
  for (auto& run : runs) {
    run = scratch->next_path("run");
  }
  std::atomic<std::int64_t> spilled_bytes{0};

  rt::RunResult formed = rt::parallel(config, [&](rt::TeamContext& tc) {
    std::vector<T> buffer;
    rt::for_each(
        tc, rt::Range::upto(num_runs), rt::Schedule::steal(),
        [&](std::int64_t r) {
          const std::int64_t begin = r * run_records;
          const std::int64_t count = std::min(run_records, records - begin);
          const auto bytes = static_cast<std::size_t>(count) * sizeof(T);
          buffer.resize(static_cast<std::size_t>(count));
          {
            RawFile in(input, RawFile::Mode::Read, opts.chaos,
                       /*salt=*/static_cast<std::uint64_t>(3 + 2 * r));
            in.seek(static_cast<std::uint64_t>(begin) * sizeof(T));
            if (in.read(buffer.data(), bytes) != bytes) {
              throw IoError("sort_file: input truncated while forming runs");
            }
          }
          std::sort(buffer.begin(), buffer.end(), less);
          const double start_s = tc.trace_now();
          SpillWriter out(runs[static_cast<std::size_t>(r)],
                          opts.io_buffer_bytes, opts.chaos,
                          /*salt=*/static_cast<std::uint64_t>(4 + 2 * r));
          out.write(buffer.data(), bytes);
          out.close();
          spilled_bytes.fetch_add(static_cast<std::int64_t>(bytes),
                                  std::memory_order_relaxed);
          if (rt::TraceRecorder* tracer = tc.tracer()) {
            tracer->record_spill(tc.thread_num(), "extsort-run", count,
                                 static_cast<std::int64_t>(bytes), start_s,
                                 tc.trace_now());
          }
        });
  });
  if (formed.profile != nullptr) {
    report.profiles.push_back(formed.profile);
  }
  report.initial_runs = static_cast<int>(num_runs);

  // --- Phase 2: k-way merge passes, on a team no wider than the
  // number of groups the budget can buffer at once.
  const MergePlan plan = plan_merge(opts, threads);
  const int fan_in = plan.fan_in;
  report.merge_fan_in = fan_in;
  rt::ParallelConfig merge_config = config;
  merge_config.num_threads = plan.concurrency;
  const auto fan = static_cast<std::size_t>(fan_in);
  const auto concurrency = static_cast<std::size_t>(plan.concurrency);

  // IoChaos salts are a pure function of (pass, role, run or group,
  // slice), so a chaos plan replays whichever thread runs which task.
  constexpr std::uint64_t kReadSalt = 0;
  constexpr std::uint64_t kSampleSalt = 200'000;
  constexpr std::uint64_t kProbeSalt = 300'000;
  constexpr std::uint64_t kWriteSalt = 500'000;
  std::uint64_t merge_salt = 1'000'000;
  const auto salt = [&](std::uint64_t role, std::size_t index,
                        std::size_t slice) {
    return merge_salt + role + index + (std::uint64_t{slice} << 32);
  };

  std::vector<fs::path> current = std::move(runs);
  while (current.size() > 1) {
    ++report.merge_passes;
    const bool final_pass = current.size() <= fan;
    const std::size_t groups = (current.size() + fan - 1) / fan;
    // A pass with fewer groups than the team cuts every group into
    // key-range slices, so each merging thread has one (the final pass
    // is one group). Slice s of group g merges the records of each run
    // at or above splitters[g][s-1] and below splitters[g][s].
    const std::size_t slices =
        groups < concurrency ? (concurrency + groups - 1) / groups : 1;
    std::vector<std::int64_t> lengths(current.size());  // records per run
    for (std::size_t i = 0; i < current.size(); ++i) {
      lengths[i] = static_cast<std::int64_t>(fs::file_size(current[i]) /
                                             sizeof(T));
    }
    std::vector<fs::path> next(groups);
    std::vector<std::vector<T>> splitters(groups);
    for (std::size_t g = 0; g < groups; ++g) {
      next[g] = final_pass ? output : scratch->next_path("merge");
      if (slices == 1) {
        continue;
      }
      // Splitters are quantiles of evenly spaced samples from every run
      // of the group (each run holds at least one record). The slices
      // write disjoint windows of one pre-sized output file.
      std::vector<T> sample;
      std::uint64_t group_bytes = 0;
      for (std::size_t i = g * fan; i < std::min((g + 1) * fan, current.size());
           ++i) {
        group_bytes += static_cast<std::uint64_t>(lengths[i]) * sizeof(T);
        const std::int64_t picks = std::min<std::int64_t>(
            8 * static_cast<std::int64_t>(slices), lengths[i]);
        RawFile probe(current[i], RawFile::Mode::Read, opts.chaos,
                      salt(kSampleSalt, i, 0));
        for (std::int64_t j = 0; j < picks; ++j) {
          sample.push_back(
              detail::read_record_at<T>(probe, j * lengths[i] / picks));
        }
      }
      std::sort(sample.begin(), sample.end(), less);
      for (std::size_t s = 1; s < slices; ++s) {
        splitters[g].push_back(sample[s * sample.size() / slices]);
      }
      RawFile(next[g], RawFile::Mode::Write, {}, 0).close();
      fs::resize_file(next[g], group_bytes);
    }

    rt::RunResult merged = rt::parallel(merge_config, [&](rt::TeamContext& tc) {
      rt::for_each(
          tc, rt::Range::upto(static_cast<std::int64_t>(groups * slices)),
          rt::Schedule::dynamic(1), [&](std::int64_t task) {
            const std::size_t g = static_cast<std::size_t>(task) / slices;
            const std::size_t s = static_cast<std::size_t>(task) % slices;
            const std::size_t first = g * fan;
            const std::size_t last = std::min(first + fan, current.size());
            const double start_s = tc.trace_now();

            // Each run's window [lo, hi) in records. lower_bound puts
            // every record equal to a splitter into the slice above it,
            // in every run, and the loser tree breaks ties by run index
            // within a slice, so the slices together write exactly the
            // bytes of one unsliced merge.
            using Source = RunReader<T>;
            std::vector<std::unique_ptr<SpillReader>> files;
            std::vector<std::unique_ptr<Source>> sources;
            std::vector<Source*> source_ptrs;
            std::int64_t in_bytes = 0;
            std::uint64_t out_offset = 0;
            for (std::size_t i = first; i < last; ++i) {
              std::int64_t lo = 0;
              std::int64_t hi = lengths[i];
              if (slices > 1) {
                RawFile probe(current[i], RawFile::Mode::Read, opts.chaos,
                              salt(kProbeSalt, i, s));
                if (s > 0) {
                  lo = detail::lower_bound_in_run<T>(
                      probe, 0, hi, splitters[g][s - 1], less);
                }
                if (s + 1 < slices) {
                  hi = detail::lower_bound_in_run<T>(probe, lo, hi,
                                                     splitters[g][s], less);
                }
              }
              const auto begin = static_cast<std::uint64_t>(lo) * sizeof(T);
              const auto window =
                  static_cast<std::uint64_t>(hi - lo) * sizeof(T);
              in_bytes += static_cast<std::int64_t>(window);
              out_offset += begin;
              files.push_back(std::make_unique<SpillReader>(
                  current[i], opts.io_buffer_bytes, opts.chaos,
                  salt(kReadSalt, i, s), begin, window));
              sources.push_back(std::make_unique<Source>(*files.back()));
              source_ptrs.push_back(sources.back().get());
            }
            LoserTree<T, Source, Less> tree(std::move(source_ptrs), less);

            SpillWriter out(next[g], opts.io_buffer_bytes, opts.chaos,
                            salt(kWriteSalt, g, s),
                            slices > 1 ? std::optional(out_offset)
                                       : std::nullopt);
            T record;
            std::int64_t produced = 0;
            while (tree.pop(&record)) {
              out.write(&record, sizeof(T));
              if ((++produced & 0xFFFF) == 0) {
                detail::poll_merge_cancel(opts.cancel);
              }
            }
            out.close();
            if (!final_pass) {
              spilled_bytes.fetch_add(produced *
                                          static_cast<std::int64_t>(sizeof(T)),
                                      std::memory_order_relaxed);
            }
            if (rt::TraceRecorder* tracer = tc.tracer()) {
              tracer->record_merge(tc.thread_num(),
                                   static_cast<int>(last - first), produced,
                                   in_bytes, start_s, tc.trace_now());
            }
          });
    });
    if (merged.profile != nullptr) {
      report.profiles.push_back(merged.profile);
    }
    // Drop the consumed inputs so scratch disk peaks at ~2x the dataset
    // instead of accumulating every pass.
    for (const fs::path& used : current) {
      std::error_code ec;
      fs::remove(used, ec);
    }
    current = std::move(next);
    merge_salt += 1'000'000;
  }

  if (current.size() == 1 && current.front() != output) {
    // A single initial run (tiny file or huge budget/thread count):
    // nothing to merge, so the run *is* the result. copy+remove instead
    // of rename — scratch usually lives on another filesystem.
    fs::copy_file(current.front(), output,
                  fs::copy_options::overwrite_existing);
    std::error_code ec;
    fs::remove(current.front(), ec);
  }
  report.spilled_bytes =
      spilled_bytes.load(std::memory_order_relaxed);
  return report;
}

/// Convenience for callers holding a vector: sorts in place when it fits
/// the budget, otherwise stages it through a file external sort and reads
/// the result back (the caller's vector is the only O(n) memory; the sort
/// itself stays within the budget).
template <class T, class Less = std::less<T>>
ExtSortReport sort_values(std::vector<T>& values, const ExtSortOptions& opts,
                          Less less = {}) {
  static_assert(std::is_trivially_copyable_v<T>,
                "oocore::sort_values sorts trivially-copyable records");
  opts.validate();
  const std::uint64_t bytes = values.size() * sizeof(T);
  if (bytes <= opts.memory_budget_bytes) {
    std::sort(values.begin(), values.end(), less);
    ExtSortReport report;
    report.records = static_cast<std::int64_t>(values.size());
    report.initial_runs = values.empty() ? 0 : 1;
    return report;
  }

  namespace fs = std::filesystem;
  ScratchDir staging("pblpar-extsort-staging");
  const fs::path in_path = staging.next_path("input");
  const fs::path out_path = staging.next_path("output");
  {
    SpillWriter writer(in_path, opts.io_buffer_bytes);
    writer.write(values.data(), static_cast<std::size_t>(bytes));
    writer.close();
  }
  const std::size_t count = values.size();
  std::vector<T>().swap(values);  // release: the point of going external

  ExtSortReport report = sort_file<T>(in_path, out_path, opts, less);
  {
    std::error_code ec;
    fs::remove(in_path, ec);
  }
  values.resize(count);
  SpillReader reader(out_path, opts.io_buffer_bytes);
  if (reader.read(values.data(), static_cast<std::size_t>(bytes)) != bytes) {
    throw IoError("sort_values: sorted output truncated");
  }
  return report;
}

}  // namespace pblpar::oocore

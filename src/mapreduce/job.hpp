#pragma once

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "oocore/io.hpp"
#include "oocore/merge.hpp"
#include "oocore/scratch.hpp"
#include "oocore/spill.hpp"
#include "rt/for_each.hpp"
#include "rt/parallel.hpp"
#include "util/error.hpp"

namespace pblpar::mapreduce {

/// What a Job does when its deadline fires during the map phase.
enum class DeadlinePolicy {
  /// Rethrow the region's rt::Cancelled: the job produces nothing.
  Abort,

  /// Keep whatever records finished mapping and run shuffle + reduce over
  /// them. Members stop at chunk boundaries only, so every kept record is
  /// whole — the salvaged output equals a full run of the job over
  /// exactly the completed record set (never a torn record, and grouping
  /// order stays the deterministic worker-order scan).
  Salvage,
};

/// Outcome metadata of one Job::run, for callers that opt into deadlines,
/// a shuffle memory budget, or tracing.
struct RunReport {
  bool deadline_hit = false;  // map cut short (deadline or cancel token)
  std::int64_t mapped_records = 0;  // records fully mapped into the output
  std::int64_t total_records = 0;

  // Spillable-shuffle accounting (zero unless memory_budget_bytes is set
  // and the budget actually forced spills).
  std::int64_t spilled_runs = 0;   // shuffle run files written
  std::int64_t spilled_bytes = 0;  // bytes those runs held on disk

  // Region profiles when Job::traced() is on (SpillEvent / MergeEvent
  // records land here alongside the usual chunk timeline).
  std::shared_ptr<const rt::RunProfile> map_profile;
  std::shared_ptr<const rt::RunProfile> reduce_profile;
};

/// Collects the (key, value) pairs a mapper emits. Workers reuse one
/// Emitter across records (clear() keeps the capacity), so steady-state
/// mapping does not allocate per record.
template <class K, class V>
class Emitter {
 public:
  void emit(K key, V value) {
    pairs_.emplace_back(std::move(key), std::move(value));
  }

  /// Drop the collected pairs but keep the buffer's capacity.
  void clear() { pairs_.clear(); }

  std::vector<std::pair<K, V>>& pairs() { return pairs_; }

 private:
  std::vector<std::pair<K, V>> pairs_;
};

namespace detail {

/// Hash grouping over a flat pair vector: the shuffle core shared by the
/// combiner and the reducer, of Job and of the distributed
/// cluster::DistJob. Appends fn(key, values) for every distinct key to
/// `out`, in ascending key order, each key's values in emission order —
/// exactly what a std::map<K, std::vector<V>> grouping produces. The key
/// passed on is the group's first-emitted one. Consumes `flat`.
///
/// An open-addressing table (linear probing, load <= 1/2) maps each key
/// to a group id; each group keeps its first and last pair index, and a
/// per-pair `next` index chains a group's pairs in emission order. Only
/// the k distinct keys are sorted, not the n pairs (and not even those
/// when they arrive in key order, as grep's ascending document ids do).
/// The four index arrays share one allocation; nothing is allocated per
/// pair or per key.
template <class K, class V, class Fn, class Out>
void group_and_apply(std::vector<std::pair<K, V>>& flat, const Fn& fn,
                     std::vector<Out>& out) {
  using Index = std::uint32_t;
  constexpr Index kNone = std::numeric_limits<Index>::max();
  const std::size_t n = flat.size();
  if (n == 0) {
    return;
  }
  util::require(n < kNone,
                "group_and_apply: more pairs than 32-bit indices can hold");

  const int bits = std::bit_width(2 * n - 1);  // capacity 2^bits >= 2n
  const std::size_t capacity = std::size_t{1} << bits;
  const std::size_t mask = capacity - 1;
  std::vector<Index> index(capacity + 3 * n, kNone);
  Index* const slots = index.data();   // capacity group ids
  Index* const next = slots + capacity;  // per pair
  Index* const first = next + n;         // per group
  Index* const last = first + n;         // per group
  Index groups = 0;
  const std::hash<K> hasher;
  for (Index i = 0; i < n; ++i) {
    const K& key = flat[i].first;
    // Fibonacci mixing: identity hashes (int keys) spread over the
    // table's high bits instead of clustering in its low ones.
    std::size_t slot =
        static_cast<std::size_t>((static_cast<std::uint64_t>(hasher(key)) *
                                  0x9E3779B97F4A7C15ULL) >>
                                 (64 - bits));
    for (;; slot = (slot + 1) & mask) {
      const Index group = slots[slot];
      if (group == kNone) {
        slots[slot] = groups;
        first[groups] = i;
        last[groups] = i;
        ++groups;
        break;
      }
      if (flat[first[group]].first == key) {
        next[last[group]] = i;
        last[group] = i;
        break;
      }
    }
  }

  const auto key_less = [&flat](Index a, Index b) {
    return flat[a].first < flat[b].first;
  };
  if (!std::is_sorted(first, first + groups, key_less)) {
    std::sort(first, first + groups, key_less);
  }
  std::vector<V> values;
  for (Index g = 0; g < groups; ++g) {
    const Index head = first[g];
    values.clear();
    for (Index j = head; j != kNone; j = next[j]) {
      values.push_back(std::move(flat[j].second));
    }
    auto result = fn(flat[head].first, values);
    out.emplace_back(std::move(flat[head].first), std::move(result));
  }
}

}  // namespace detail

/// An in-memory, multi-threaded MapReduce job, after the model in the
/// course's Assignment 5 reading ("Introduction to Parallel Programming
/// and MapReduce"): map over input records, shuffle by key, reduce each
/// key's value list.
///
/// K1/V1: input key/value. K2/V2: intermediate. VOut: reducer output
/// (defaults to V2). K2 must be hashable (std::hash), equality-comparable
/// (operator==) and ordered (operator<), and the three must agree; output
/// is sorted by key, so runs are deterministic.
template <class K1, class V1, class K2, class V2, class VOut = V2>
class Job {
 public:
  using MapFn = std::function<void(const K1&, const V1&, Emitter<K2, V2>&)>;
  using ReduceFn = std::function<VOut(const K2&, const std::vector<V2>&)>;
  using CombineFn = std::function<V2(const K2&, const std::vector<V2>&)>;

  Job& map(MapFn fn) {
    map_fn_ = std::move(fn);
    return *this;
  }
  Job& reduce(ReduceFn fn) {
    reduce_fn_ = std::move(fn);
    return *this;
  }

  /// Optional combiner: pre-reduces each map worker's local output before
  /// the shuffle (must be associative/commutative in the usual way).
  Job& combine(CombineFn fn) {
    combine_fn_ = std::move(fn);
    return *this;
  }

  /// Worker count; 0 (the default) means one worker per hardware thread
  /// (rt::hardware_threads()), resolved at run().
  Job& threads(int count) {
    util::require(count >= 0,
                  "Job::threads: count must be >= 0 (0 = hardware threads)");
    num_threads_ = count;
    return *this;
  }

  /// Partition count; 0 (the default) means one partition per worker
  /// thread, resolved at run() — more partitions than reducers only adds
  /// shuffle overhead, fewer starves the reduce phase.
  Job& reducers(int count) {
    util::require(
        count >= 0,
        "Job::reducers: count must be >= 0 (0 = one per worker thread)");
    num_reducers_ = count;
    return *this;
  }

  /// Cap the shuffle's in-memory working set: once the map phase's
  /// buffered (key, value) pairs exceed `bytes` across all workers (each
  /// worker tracks budget/threads of it), every worker spills its sorted
  /// buckets to scratch run files and the reduce phase streams a k-way
  /// merge over runs + leftovers instead of flattening in memory. Output
  /// is byte-identical to the unbudgeted path. Not calling this (the
  /// default) keeps the shuffle fully in memory; a zero or negative
  /// budget is rejected loudly rather than silently meaning "unlimited" —
  /// derive one with oocore::budget_from_multiplier if you want
  /// "fraction of the dataset" semantics.
  Job& memory_budget_bytes(std::int64_t bytes) {
    util::require(bytes > 0,
                  "Job::memory_budget_bytes: budget must be > 0 bytes (do "
                  "not call it to keep the shuffle fully in memory)");
    shuffle_budget_bytes_ = bytes;
    return *this;
  }

  /// Seeded I/O fault injection (short writes, slow reads) applied to
  /// every spill file this job writes or merges — exercises the oocore
  /// retry paths deterministically.
  Job& io_chaos(oocore::IoChaos chaos) {
    chaos.validate();
    io_chaos_ = chaos;
    return *this;
  }

  /// Record rt traces for the map and reduce regions into
  /// RunReport::map_profile / reduce_profile; spill and merge activity
  /// shows up there as SpillEvent / MergeEvent rows.
  Job& traced(bool on = true) {
    traced_ = on;
    return *this;
  }

  /// Job-level budget in host seconds, enforced cooperatively at
  /// chunk-claim boundaries of the map phase; what happens when it fires
  /// is `policy`. With Abort, a map phase that finishes in time passes
  /// the remaining budget on to the reduce phase; with Salvage, the
  /// shuffle/reduce over the kept records always runs to completion (a
  /// salvaged job must still yield a usable result).
  Job& deadline(double seconds, DeadlinePolicy policy = DeadlinePolicy::Abort) {
    util::require(std::isfinite(seconds) && seconds > 0.0,
                  "Job::deadline: need a finite deadline > 0");
    deadline_s_ = seconds;
    deadline_policy_ = policy;
    return *this;
  }

  /// Policy applied when the deadline *or* the cancel token cuts the map
  /// phase, without arming a deadline — lets a purely token-cancellable
  /// job opt into Salvage. deadline() sets the same policy; whichever is
  /// called last wins.
  Job& cut_policy(DeadlinePolicy policy) {
    deadline_policy_ = policy;
    return *this;
  }

  /// External cooperative cancellation, polled at the map phase's
  /// chunk-claim boundaries like a deadline. The deadline policy decides
  /// what a fired token means: Abort rethrows rt::Cancelled (and also
  /// arms the token on the reduce phase); Salvage keeps the fully-mapped
  /// records and always finishes shuffle + reduce over them —
  /// RunReport::deadline_hit covers both a deadline and a token firing.
  Job& cancellable(rt::CancelToken token) {
    util::require(token.valid(),
                  "Job::cancellable: token is not connected to a "
                  "CancelSource (default-constructed tokens never fire)");
    cancel_token_ = std::move(token);
    return *this;
  }

  /// Execute the job over `inputs` and return (key, reduced value) pairs
  /// sorted by key.
  std::vector<std::pair<K2, VOut>> run(
      const std::vector<std::pair<K1, V1>>& inputs) const {
    return run(inputs, nullptr);
  }

  /// run() that also reports how the deadline played out. `report` may be
  /// null; it is only written on successful return (an Abort that fires
  /// throws rt::Cancelled instead).
  std::vector<std::pair<K2, VOut>> run(
      const std::vector<std::pair<K1, V1>>& inputs, RunReport* report) const {
    util::require(map_fn_ != nullptr, "Job::run: map function not set");
    util::require(reduce_fn_ != nullptr, "Job::run: reduce function not set");
    const auto job_start = std::chrono::steady_clock::now();

    const int threads =
        num_threads_ > 0 ? num_threads_ : rt::hardware_threads();
    const int reducers = num_reducers_ > 0 ? num_reducers_ : threads;

    // --- Map phase: each worker fills its own per-partition buckets, so
    // there is no shared mutable state across threads (CP.3). Records are
    // dealt by work stealing: expensive records (long documents, heavy
    // parses) stop being a tail-latency problem because idle workers
    // migrate the remaining chunks.
    using Bucket = std::vector<std::pair<K2, V2>>;
    std::vector<std::vector<Bucket>> worker_buckets(
        static_cast<std::size_t>(threads),
        std::vector<Bucket>(static_cast<std::size_t>(reducers)));

    // Both phases (and every job this process runs after this one) share
    // the persistent host worker pool: warming it here moves one-time
    // thread creation out of the map phase, so a job's cost is map +
    // shuffle + reduce, not spawn + map + spawn + shuffle + reduce.
    rt::ParallelConfig map_config = rt::ParallelConfig::host(threads);
    if (deadline_s_ > 0.0) {
      map_config = map_config.deadline(deadline_s_);
    }
    if (cancel_token_.valid()) {
      map_config = map_config.cancellable(cancel_token_);
    }
    if (traced_) {
      map_config = map_config.traced();
    }
    rt::warm_up(map_config);

    // Spillable-shuffle state. The ScratchDir guard owns every run file
    // this job writes: normal return, a thrown rt::Cancelled (Abort) and
    // any I/O error all unwind through it, so a cancel drain never strands
    // spill files on disk.
    const bool spilling = shuffle_budget_bytes_ > 0;
    const std::int64_t worker_budget =
        spilling ? std::max<std::int64_t>(shuffle_budget_bytes_ / threads, 1)
                 : 0;
    std::optional<oocore::ScratchDir> scratch;
    std::vector<std::vector<std::vector<ShuffleRun>>> worker_runs;
    if (spilling) {
      scratch.emplace("pblpar-shuffle");
      worker_runs.assign(
          static_cast<std::size_t>(threads),
          std::vector<std::vector<ShuffleRun>>(
              static_cast<std::size_t>(reducers)));
    }
    std::atomic<std::int64_t> spilled_runs{0};
    std::atomic<std::int64_t> spilled_bytes{0};

    bool deadline_hit = false;
    std::int64_t mapped_records = static_cast<std::int64_t>(inputs.size());
    std::shared_ptr<const rt::RunProfile> map_profile;
    try {
      rt::RunResult mapped = rt::parallel(map_config, [&](rt::TeamContext&
                                                              tc) {
        const auto tid = static_cast<std::size_t>(tc.thread_num());
        auto& buckets = worker_buckets[tid];
        Emitter<K2, V2> emitter;  // reused: clear() keeps the capacity
        // When a budget is armed the first-record reserve() is skipped:
        // its estimate assumes the whole input's emissions stay resident,
        // which is exactly what the budget forbids.
        bool reserved = spilling;
        std::int64_t buffered_bytes = 0;
        std::uint64_t spill_seq = 0;
        const std::uint64_t worker_salt = static_cast<std::uint64_t>(tid)
                                          << 32;

        // Spill every non-empty bucket as one sorted (combined, if a
        // combiner is set) run file per partition, then reset the byte
        // account. Each run is individually key-stable-sorted, and runs
        // are replayed in (worker, spill order, leftover-last) order at
        // reduce time — concatenating them reproduces this worker's
        // emission order, which is what makes the merged shuffle
        // byte-identical to the in-memory flatten-then-group.
        const auto spill_worker = [&]() {
          const double start_s = tc.trace_now();
          std::int64_t batch_runs = 0;
          std::int64_t batch_records = 0;
          std::int64_t batch_bytes = 0;
          for (std::size_t p = 0; p < buckets.size(); ++p) {
            auto& bucket = buckets[p];
            if (bucket.empty()) {
              continue;
            }
            if (combine_fn_ != nullptr) {
              bucket = combine_bucket(std::move(bucket));  // key-sorted out
            } else {
              std::stable_sort(bucket.begin(), bucket.end(),
                               [](const auto& a, const auto& b) {
                                 return a.first < b.first;
                               });
            }
            ShuffleRun run;
            run.path = scratch->next_path("shuffle");
            oocore::SpillWriter sink(run.path, kSpillBufferBytes, io_chaos_,
                                     worker_salt + spill_seq);
            oocore::RunWriter<std::pair<K2, V2>> writer(sink);
            for (const auto& pair : bucket) {
              writer.push(pair);
            }
            sink.close();
            run.records = writer.records();
            run.bytes = sink.bytes_written();
            batch_runs += 1;
            batch_records += run.records;
            batch_bytes += run.bytes;
            worker_runs[tid][p].push_back(std::move(run));
            ++spill_seq;
            bucket.clear();  // keeps capacity: the worker's working set
          }
          buffered_bytes = 0;
          spilled_runs.fetch_add(batch_runs, std::memory_order_relaxed);
          spilled_bytes.fetch_add(batch_bytes, std::memory_order_relaxed);
          if (rt::TraceRecorder* tracer = tc.tracer()) {
            tracer->record_spill(tc.thread_num(), "shuffle", batch_records,
                                 batch_bytes, start_s, tc.trace_now());
          }
        };

        rt::for_each(
            tc, rt::Range::upto(static_cast<std::int64_t>(inputs.size())),
            rt::Schedule::steal(), [&](std::int64_t i) {
              const auto& [key, value] = inputs[static_cast<std::size_t>(i)];
              emitter.clear();
              map_fn_(key, value, emitter);
              if (!reserved && !emitter.pairs().empty()) {
                // First-record estimate: assume every record emits about
                // this many pairs, this worker maps ~1/threads of the
                // input, and the hash spreads pairs evenly over buckets.
                reserved = true;
                const std::size_t estimate =
                    emitter.pairs().size() *
                        (inputs.size() / static_cast<std::size_t>(threads) +
                         1) /
                        static_cast<std::size_t>(reducers) +
                    1;
                for (auto& bucket : buckets) {
                  bucket.reserve(estimate);
                }
              }
              for (auto& [k2, v2] : emitter.pairs()) {
                const std::size_t partition =
                    std::hash<K2>{}(k2) % static_cast<std::size_t>(reducers);
                if (spilling) {
                  buffered_bytes += static_cast<std::int64_t>(
                      oocore::approx_bytes(k2) + oocore::approx_bytes(v2));
                }
                buckets[partition].emplace_back(std::move(k2), std::move(v2));
              }
              // Checked per record, not per pair: the budget overshoot is
              // bounded by a single record's emissions.
              if (spilling && buffered_bytes >= worker_budget) {
                spill_worker();
              }
            });
        if (combine_fn_ != nullptr) {
          for (auto& bucket : buckets) {
            bucket = combine_bucket(std::move(bucket));
          }
        }
      });
      map_profile = mapped.profile;
    } catch (const rt::Cancelled& cancelled) {
      if (deadline_policy_ == DeadlinePolicy::Abort) {
        throw;  // ~ScratchDir drops any runs spilled before the cut
      }
      // Salvage: each record's emissions land in the buckets within its
      // own iteration and members only stop at chunk boundaries, so the
      // buckets hold exactly the completed records — never a torn one.
      // The for_each end barrier gates the combiner, so no worker
      // combined before the drain; skipping the combiner outright keeps
      // every leftover bucket in the same (uncombined) state, which the
      // reducer handles anyway. Runs spilled before the cut were combined
      // at spill time — also fine, the reducer accepts mixed states.
      deadline_hit = true;
      mapped_records = cancelled.total_completed();
      map_profile = cancelled.profile();
    }

    // --- Shuffle + reduce phase: one task per partition, in parallel.
    std::vector<std::vector<std::pair<K2, VOut>>> partition_outputs(
        static_cast<std::size_t>(reducers));
    rt::ParallelConfig reduce_config =
        rt::ParallelConfig::host(std::min(threads, reducers));
    if (cancel_token_.valid() &&
        deadline_policy_ == DeadlinePolicy::Abort) {
      // Salvage promises a usable result, so only Abort lets the token
      // cut the reduce phase too.
      reduce_config = reduce_config.cancellable(cancel_token_);
    }
    if (deadline_s_ > 0.0 && deadline_policy_ == DeadlinePolicy::Abort) {
      // Pass what is left of the budget to the reduce phase; an already
      // overspent budget cancels at the first chunk boundary.
      const double elapsed = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - job_start)
                                 .count();
      reduce_config =
          reduce_config.deadline(std::max(deadline_s_ - elapsed, 1e-9));
    }
    if (traced_) {
      reduce_config = reduce_config.traced();
    }
    rt::RunResult reduced_result = rt::parallel(reduce_config, [&](
                                                    rt::TeamContext& tc) {
      rt::for_each(
          tc, rt::Range::upto(reducers), rt::Schedule::dynamic(1),
          [&](std::int64_t p) {
            partition_outputs[static_cast<std::size_t>(p)] =
                spilling ? reduce_partition_spilled(
                               tc, worker_buckets, worker_runs,
                               static_cast<std::size_t>(p), worker_budget)
                         : reduce_partition(worker_buckets,
                                            static_cast<std::size_t>(p));
          });
    });

    // --- Merge: every partition is already key-sorted (the shuffle sorts
    // it), so a balanced merge cascade — O(n log k) comparisons instead
    // of re-sorting the concatenation — yields the same sorted output.
    // Hash partitioning keeps key sets disjoint across partitions, so the
    // merged order is exactly the old concatenate-and-sort order.
    while (partition_outputs.size() > 1) {
      std::vector<std::vector<std::pair<K2, VOut>>> next;
      next.reserve((partition_outputs.size() + 1) / 2);
      for (std::size_t i = 0; i + 1 < partition_outputs.size(); i += 2) {
        auto& left = partition_outputs[i];
        auto& right = partition_outputs[i + 1];
        std::vector<std::pair<K2, VOut>> merged;
        merged.reserve(left.size() + right.size());
        std::merge(
            std::make_move_iterator(left.begin()),
            std::make_move_iterator(left.end()),
            std::make_move_iterator(right.begin()),
            std::make_move_iterator(right.end()), std::back_inserter(merged),
            [](const auto& a, const auto& b) { return a.first < b.first; });
        next.push_back(std::move(merged));
      }
      if (partition_outputs.size() % 2 == 1) {
        next.push_back(std::move(partition_outputs.back()));
      }
      partition_outputs = std::move(next);
    }
    if (report != nullptr) {
      report->deadline_hit = deadline_hit;
      report->mapped_records = mapped_records;
      report->total_records = static_cast<std::int64_t>(inputs.size());
      report->spilled_runs = spilled_runs.load(std::memory_order_relaxed);
      report->spilled_bytes = spilled_bytes.load(std::memory_order_relaxed);
      report->map_profile = std::move(map_profile);
      report->reduce_profile = reduced_result.profile;
    }
    return std::move(partition_outputs.front());
  }

 private:
  using BucketT = std::vector<std::pair<K2, V2>>;

  /// One spilled shuffle run: a key-stable-sorted slice of a single
  /// worker's output for a single partition.
  struct ShuffleRun {
    std::filesystem::path path;
    std::int64_t records = 0;
    std::int64_t bytes = 0;
  };

  /// Buffered-I/O block size for spill writes. Reads derive theirs from
  /// the worker budget and fan-in in reduce_partition_spilled.
  static constexpr std::size_t kSpillBufferBytes = std::size_t{128} << 10;

  BucketT combine_bucket(BucketT bucket) const {
    BucketT combined;
    detail::group_and_apply(bucket, combine_fn_, combined);
    return combined;
  }

  std::vector<std::pair<K2, VOut>> reduce_partition(
      std::vector<std::vector<BucketT>>& worker_buckets,
      std::size_t partition) const {
    // Flatten this partition's slice of every worker's output in worker
    // order — the same scan order the map-based shuffle grouped in.
    std::vector<std::pair<K2, V2>> flat;
    std::size_t total = 0;
    for (const auto& buckets : worker_buckets) {
      total += buckets[partition].size();
    }
    flat.reserve(total);
    for (auto& buckets : worker_buckets) {
      flat.insert(flat.end(),
                  std::make_move_iterator(buckets[partition].begin()),
                  std::make_move_iterator(buckets[partition].end()));
    }
    std::vector<std::pair<K2, VOut>> reduced;
    detail::group_and_apply(flat, reduce_fn_, reduced);
    return reduced;
  }

  /// Spill-aware reduce of one partition: a loser-tree merge over this
  /// partition's run files (in worker order, then each worker's spill
  /// order) plus each worker's in-memory leftover bucket as the worker's
  /// final source. Every source is individually key-stable-sorted and the
  /// tree breaks ties by lower source index, so the merged stream equals
  /// a stable_sort of the worker-order concatenation: every key's pairs
  /// arrive together, in key order, values in emission order. A
  /// run-length pass over it therefore yields the groups that
  /// reduce_partition's flatten + detail::group_and_apply yields, so the
  /// reduced output is byte-identical.
  std::vector<std::pair<K2, VOut>> reduce_partition_spilled(
      rt::TeamContext& tc, std::vector<std::vector<BucketT>>& worker_buckets,
      const std::vector<std::vector<std::vector<ShuffleRun>>>& worker_runs,
      std::size_t partition, std::int64_t worker_budget) const {
    using P = std::pair<K2, V2>;
    struct PairSource {
      virtual ~PairSource() = default;
      virtual bool pull(P* out) = 0;
    };
    struct FileSource final : PairSource {
      oocore::SpillReader bytes;
      oocore::RunReader<P> records;
      FileSource(const std::filesystem::path& path, std::size_t buffer_bytes,
                 const oocore::IoChaos& chaos, std::uint64_t salt)
          : bytes(path, buffer_bytes, chaos, salt), records(bytes) {}
      bool pull(P* out) override { return records.pull(out); }
    };
    struct VecSource final : PairSource {
      BucketT* vec;
      std::size_t i = 0;
      explicit VecSource(BucketT* v) : vec(v) {}
      bool pull(P* out) override {
        if (i >= vec->size()) {
          return false;
        }
        *out = std::move((*vec)[i++]);
        return true;
      }
    };

    std::size_t file_count = 0;
    for (const auto& runs : worker_runs) {
      file_count += runs[partition].size();
    }
    // One merging partition per worker at a time, so the open runs' read
    // buffers must share this worker's slice of the budget.
    const std::size_t buffer_bytes = std::clamp<std::size_t>(
        static_cast<std::size_t>(worker_budget) /
            std::max<std::size_t>(file_count, 1),
        std::size_t{4} << 10, std::size_t{128} << 10);

    const double start_s = tc.trace_now();
    std::vector<std::unique_ptr<PairSource>> sources;
    std::int64_t in_bytes = 0;
    std::uint64_t salt = partition << 16;
    for (std::size_t w = 0; w < worker_runs.size(); ++w) {
      for (const ShuffleRun& run : worker_runs[w][partition]) {
        sources.push_back(std::make_unique<FileSource>(
            run.path, buffer_bytes, io_chaos_, salt++));
        in_bytes += run.bytes;
      }
      BucketT& leftover = worker_buckets[w][partition];
      // Leftovers may be unsorted (no combiner, or a salvaged cut):
      // stable_sort puts each on the same footing as a spilled run.
      std::stable_sort(
          leftover.begin(), leftover.end(),
          [](const auto& a, const auto& b) { return a.first < b.first; });
      if (!leftover.empty()) {
        sources.push_back(std::make_unique<VecSource>(&leftover));
      }
    }
    std::vector<PairSource*> source_ptrs;
    source_ptrs.reserve(sources.size());
    for (const auto& source : sources) {
      source_ptrs.push_back(source.get());
    }
    const auto key_less = [](const P& a, const P& b) {
      return a.first < b.first;
    };
    oocore::LoserTree<P, PairSource, decltype(key_less)> tree(
        std::move(source_ptrs), key_less);

    std::vector<std::pair<K2, VOut>> reduced;
    std::vector<V2> values;
    std::int64_t merged_records = 0;
    P record;
    bool have = tree.pop(&record);
    while (have) {
      ++merged_records;
      K2 key = std::move(record.first);
      values.clear();
      values.push_back(std::move(record.second));
      while ((have = tree.pop(&record)) && !(key < record.first)) {
        ++merged_records;
        values.push_back(std::move(record.second));
      }
      auto result = reduce_fn_(key, values);
      reduced.emplace_back(std::move(key), std::move(result));
    }
    if (file_count > 0) {
      if (rt::TraceRecorder* tracer = tc.tracer()) {
        tracer->record_merge(tc.thread_num(),
                             static_cast<int>(sources.size()), merged_records,
                             in_bytes, start_s, tc.trace_now());
      }
    }
    return reduced;
  }

  MapFn map_fn_;
  ReduceFn reduce_fn_;
  CombineFn combine_fn_;
  int num_threads_ = 0;   // 0 = rt::hardware_threads() at run()
  int num_reducers_ = 0;  // 0 = one partition per worker thread at run()
  double deadline_s_ = 0.0;  // 0 = no deadline
  DeadlinePolicy deadline_policy_ = DeadlinePolicy::Abort;
  rt::CancelToken cancel_token_;  // invalid = not externally cancellable
  std::int64_t shuffle_budget_bytes_ = 0;  // 0 = fully in-memory shuffle
  oocore::IoChaos io_chaos_;               // applied to spill files only
  bool traced_ = false;
};

}  // namespace pblpar::mapreduce

#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <utility>
#include <vector>

#include "cluster/engine.hpp"
#include "cluster/wire.hpp"
#include "mapreduce/job.hpp"  // Emitter, detail::group_and_apply
#include "mp/buffer.hpp"
#include "util/error.hpp"

namespace pblpar::cluster {

namespace detail {

/// The master's shuffle as a byte splice. Each map result holds
/// `reducers` encoded buckets, `[u32 count][count encoded Pairs]` in
/// partition order; partition p belongs to rank live[p % live.size()].
/// Returns `size` blobs: each owner's holds, for every partition it owns
/// in ascending order, u32(total count) followed by that partition's
/// element bytes from every task, in task order. Element encodings
/// concatenate, so a blob equals WireCodec<std::vector<Pair>>::write of
/// the task-order concatenation byte for byte; ranks that own nothing get
/// an empty blob. One bounds-checked WireCodec::skip walk per result finds
/// the ranges, so a malformed result throws WireError before any byte
/// past its end is read, and nothing is decoded or allocated per pair.
template <class Pair>
std::vector<mp::Buffer> splice_partitions(
    const std::vector<mp::Buffer>& results, int reducers,
    const std::vector<std::int32_t>& live, int size) {
  struct Range {
    std::size_t begin = 0;
    std::size_t end = 0;
  };
  const auto parts = static_cast<std::size_t>(reducers);
  const auto owner = [&](std::size_t p) {
    return static_cast<std::size_t>(live[p % live.size()]);
  };

  // Walk: the element byte range of every (task, partition).
  std::vector<Range> ranges(results.size() * parts);
  std::vector<std::uint64_t> counts(parts, 0);
  std::vector<std::size_t> blob_bytes(static_cast<std::size_t>(size), 0);
  for (std::size_t t = 0; t < results.size(); ++t) {
    Reader reader(results[t]);
    for (std::size_t p = 0; p < parts; ++p) {
      const std::uint32_t count =
          WireCodec<std::vector<Pair>>::read_count(reader);
      Range& range = ranges[t * parts + p];
      range.begin = reader.pos();
      for (std::uint32_t i = 0; i < count; ++i) {
        WireCodec<Pair>::skip(reader);
      }
      range.end = reader.pos();
      counts[p] += count;
      blob_bytes[owner(p)] += range.end - range.begin;
    }
  }

  // Splice: u32 total count, then each task's element bytes.
  std::vector<mp::Buffer> blobs(static_cast<std::size_t>(size));
  std::vector<std::byte*> cursors(static_cast<std::size_t>(size), nullptr);
  for (std::size_t p = 0; p < parts; ++p) {
    if (counts[p] > UINT32_MAX) {
      throw WireError("cluster wire: partition count exceeds u32");
    }
    blob_bytes[owner(p)] += sizeof(std::uint32_t);
  }
  for (std::size_t r = 0; r < blobs.size(); ++r) {
    if (blob_bytes[r] > 0) {
      blobs[r] = mp::Buffer::uninitialized(blob_bytes[r]);
      cursors[r] = blobs[r].mutable_data();
    }
  }
  for (std::size_t p = 0; p < parts; ++p) {
    std::byte*& cursor = cursors[owner(p)];
    const auto total = static_cast<std::uint32_t>(counts[p]);
    std::memcpy(cursor, &total, sizeof(total));
    cursor += sizeof(total);
    for (std::size_t t = 0; t < results.size(); ++t) {
      const Range& range = ranges[t * parts + p];
      const std::size_t bytes = range.end - range.begin;
      std::memcpy(cursor, results[t].data() + range.begin, bytes);
      cursor += bytes;
    }
  }
  return blobs;
}

}  // namespace detail

/// Distributed MapReduce on the fault-tolerant engine: map tasks are
/// record ranges scheduled by the master (re-executed on failure,
/// speculated on stragglers), the shuffle is a partitioned exchange over
/// the mp collectives, reduce runs once per partition on its owning
/// rank, and the sorted output is replicated to every rank.
///
/// SPMD: every rank calls run() with identical inputs (replicated input
/// model — map tasks read their record range from the local copy, only
/// intermediate pairs travel). The master routes map output as bytes: it
/// walks each task's encoded buckets and splices them into per-owner
/// blobs without decoding a pair. Output is byte-identical to
/// mapreduce::Job with threads(1): the shuffle concatenates map-task
/// buckets in task order, so each key's value list is in input order,
/// the combiner and the reducer group with the same hash-grouping core
/// (mapreduce::detail::group_and_apply: key-ordered groups, values in
/// emission order), the partitioner is the same std::hash, and the
/// final sort uses the same comparator.
template <class K1, class V1, class K2, class V2, class VOut = V2>
class DistJob {
 public:
  using MapFn = std::function<void(const K1&, const V1&,
                                   mapreduce::Emitter<K2, V2>&)>;
  using ReduceFn = std::function<VOut(const K2&, const std::vector<V2>&)>;
  using CombineFn = std::function<V2(const K2&, const std::vector<V2>&)>;

  DistJob& map(MapFn fn) {
    map_fn_ = std::move(fn);
    return *this;
  }
  DistJob& reduce(ReduceFn fn) {
    reduce_fn_ = std::move(fn);
    return *this;
  }
  DistJob& combine(CombineFn fn) {
    combine_fn_ = std::move(fn);
    return *this;
  }

  DistJob& reducers(int count) {
    util::require(count >= 1, "DistJob::reducers: need at least one");
    num_reducers_ = count;
    return *this;
  }

  /// Records per map task; 0 derives ~4 tasks per worker.
  DistJob& records_per_task(int count) {
    util::require(count >= 0, "DistJob::records_per_task: must be >= 0");
    records_per_task_ = count;
    return *this;
  }

  /// Modelled cost per mapped record / per reduced value (Sim transport
  /// timing; ignored on the host).
  DistJob& map_cost_ops(double ops) {
    map_cost_ops_ = ops;
    return *this;
  }
  DistJob& reduce_cost_ops(double ops) {
    reduce_cost_ops_ = ops;
    return *this;
  }

  /// With options.reliability.enabled the whole job — engine protocol,
  /// shuffle and replication collectives — runs over one ReliableComm
  /// around `comm`, so every phase shares one sequence state per link.
  std::vector<std::pair<K2, VOut>> run(
      mp::Endpoint& comm, const std::vector<std::pair<K1, V1>>& inputs,
      const ClusterOptions& options = {}, const FaultPlan* faults = nullptr,
      ClusterProfile* profile = nullptr) const {
    detail::ReliabilityScope scope(comm, options.reliability);
    try {
      auto output = run_impl(scope.endpoint(), inputs, options, faults,
                             profile);
      scope.close(/*drain=*/true, profile);
      return output;
    } catch (...) {
      // Even a cancelled/failed rank drains its unacked sends: a peer
      // may still be blocked on a message chaos ate whose retransmit only
      // we can provide.
      scope.close(/*drain=*/true, profile);
      throw;
    }
  }

 private:
  using Bucket = std::vector<std::pair<K2, V2>>;

  std::vector<std::pair<K2, VOut>> run_impl(
      mp::Endpoint& comm, const std::vector<std::pair<K1, V1>>& inputs,
      const ClusterOptions& options, const FaultPlan* faults,
      ClusterProfile* profile) const {
    util::require(map_fn_ != nullptr, "DistJob::run: map function not set");
    util::require(reduce_fn_ != nullptr,
                  "DistJob::run: reduce function not set");

    const int size = comm.size();
    const int reducers = num_reducers_;
    const auto record_count = static_cast<std::int64_t>(inputs.size());

    // Replicated-input sanity check: every rank must hold the same
    // record count or the range tasks would read garbage.
    const std::int64_t agreed = comm.allreduce(
        record_count,
        [](std::int64_t a, std::int64_t b) { return std::max(a, b); });
    util::require(agreed == record_count,
                  "DistJob::run: ranks disagree on the input size");

    // --- Map phase on the engine: one task per record range.
    const std::int64_t per_task = task_width(record_count, size);
    std::vector<std::vector<std::byte>> tasks;
    for (std::int64_t begin = 0; begin < record_count; begin += per_task) {
      Writer writer;
      writer.i64(begin);
      writer.i64(std::min(begin + per_task, record_count));
      tasks.push_back(writer.take());
    }

    const TaskFn task_fn = [this, &inputs, reducers](
                               TaskContext& ctx, int,
                               mp::ByteView payload) {
      return map_task(ctx, payload, inputs, reducers);
    };
    ClusterRunResult engine_result =
        detail::run_engine(comm, tasks, task_fn, options, faults, profile);

    // --- Cancellation barrier: a cancelled engine run has holes in its
    // result set, so the shuffle below would decode garbage. Only armed
    // runs pay for the extra broadcast (unarmed runs stay byte-identical
    // on the wire); every rank then throws the same ClusterCancelled.
    if (options.job_deadline_s > 0.0 || options.cancel.valid()) {
      std::int32_t cancelled_flag =
          engine_result.is_master && engine_result.job_cancelled ? 1 : 0;
      comm.bcast(cancelled_flag, 0);
      if (cancelled_flag != 0) {
        throw ClusterCancelled(
            "DistJob::run: job cancelled before the map phase completed "
            "(deadline or cancel token)");
      }
    }

    // --- Shuffle plan: the master names the live ranks (dead workers
    // own no partitions); partition p belongs to live[p % live.size()].
    std::vector<std::int32_t> live;
    if (engine_result.is_master) {
      for (int r = 0; r < size; ++r) {
        const bool dead =
            std::find(engine_result.dead_workers.begin(),
                      engine_result.dead_workers.end(),
                      r) != engine_result.dead_workers.end();
        if (!dead) {
          live.push_back(r);
        }
      }
    }
    comm.bcast(live, 0);
    util::ensure(!live.empty(), "DistJob::run: no live ranks in the plan");

    // --- Shuffle: the master splices every task's partition bytes into
    // one blob per owner, in task order so value order == input order. It
    // never decodes a pair (detail::splice_partitions); the blobs travel
    // as owned Buffers (scatter_raw moves them onto the wire).
    std::vector<mp::Buffer> rank_blobs(static_cast<std::size_t>(size));
    if (engine_result.is_master) {
      rank_blobs = detail::splice_partitions<std::pair<K2, V2>>(
          engine_result.results, reducers, live, size);
    }
    const mp::Buffer my_blob = comm.scatter_raw(std::move(rank_blobs), 0);

    // --- Reduce the partitions this rank owns.
    const int my_rank = comm.rank();
    std::vector<std::pair<K2, VOut>> my_output;
    Reader reader(my_blob);
    for (int p = 0; p < reducers; ++p) {
      if (live[static_cast<std::size_t>(p) % live.size()] != my_rank) {
        continue;
      }
      Bucket bucket = WireCodec<Bucket>::read(reader);
      comm.charge_ops(reduce_cost_ops_ * static_cast<double>(bucket.size()));
      mapreduce::detail::group_and_apply(bucket, reduce_fn_, my_output);
    }

    // --- Replicate the output: gather per-rank blobs, broadcast the
    // combined buffer, decode and sort by key on every rank.
    Writer output_writer;
    WireCodec<std::vector<std::pair<K2, VOut>>>::write(output_writer,
                                                       my_output);
    const std::vector<mp::Buffer> gathered =
        comm.gather_raw(mp::Buffer(output_writer.take()), 0);
    mp::Buffer combined;
    if (my_rank == 0) {
      Writer writer;
      writer.u32(static_cast<std::uint32_t>(gathered.size()));
      for (const mp::Buffer& blob : gathered) {
        writer.blob(blob);
      }
      combined = mp::Buffer(writer.take());
    }
    comm.bcast_raw(combined, 0);

    std::vector<std::pair<K2, VOut>> output;
    Reader combined_reader(combined);
    const std::uint32_t rank_count = combined_reader.u32();
    for (std::uint32_t r = 0; r < rank_count; ++r) {
      Reader blob_reader(combined_reader.blob_view());
      std::vector<std::pair<K2, VOut>> part =
          WireCodec<std::vector<std::pair<K2, VOut>>>::read(blob_reader);
      output.insert(output.end(), std::make_move_iterator(part.begin()),
                    std::make_move_iterator(part.end()));
    }
    std::sort(output.begin(), output.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    return output;
  }

  std::int64_t task_width(std::int64_t records, int size) const {
    if (records_per_task_ > 0) {
      return records_per_task_;
    }
    const int workers = std::max(1, size - 1);
    const std::int64_t target_tasks =
        static_cast<std::int64_t>(workers) * 4;
    return std::max<std::int64_t>(1, (records + target_tasks - 1) /
                                         std::max<std::int64_t>(1,
                                                                target_tasks));
  }

  /// One map task: map the record range, hash-partition the emitted
  /// pairs, optionally combine, and encode the `reducers` buckets in
  /// partition order.
  std::vector<std::byte> map_task(
      TaskContext& ctx, mp::ByteView payload,
      const std::vector<std::pair<K1, V1>>& inputs, int reducers) const {
    Reader reader(payload);
    const std::int64_t begin = reader.i64();
    const std::int64_t end = reader.i64();

    std::vector<Bucket> buckets(static_cast<std::size_t>(reducers));
    mapreduce::Emitter<K2, V2> emitter;  // reused: clear() keeps the capacity
    for (std::int64_t i = begin; i < end; ++i) {
      ctx.charge(map_cost_ops_);
      ctx.progress();
      const auto& [key, value] = inputs[static_cast<std::size_t>(i)];
      emitter.clear();
      map_fn_(key, value, emitter);
      for (auto& [k2, v2] : emitter.pairs()) {
        const std::size_t partition =
            std::hash<K2>{}(k2) % static_cast<std::size_t>(reducers);
        buckets[partition].emplace_back(std::move(k2), std::move(v2));
      }
    }
    if (combine_fn_ != nullptr) {
      for (Bucket& bucket : buckets) {
        Bucket combined;
        mapreduce::detail::group_and_apply(bucket, combine_fn_, combined);
        bucket = std::move(combined);
      }
    }
    ctx.progress();

    Writer writer;
    for (const Bucket& bucket : buckets) {
      WireCodec<Bucket>::write(writer, bucket);
    }
    return writer.take();
  }

  MapFn map_fn_;
  ReduceFn reduce_fn_;
  CombineFn combine_fn_;
  int num_reducers_ = 4;
  int records_per_task_ = 0;
  double map_cost_ops_ = 4e4;
  double reduce_cost_ops_ = 2e3;
};

}  // namespace pblpar::cluster

#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "cluster/engine.hpp"
#include "cluster/wire.hpp"
#include "mapreduce/job.hpp"  // Emitter
#include "mp/buffer.hpp"
#include "util/error.hpp"

namespace pblpar::cluster {

/// Distributed MapReduce on the fault-tolerant engine: map tasks are
/// record ranges scheduled by the master (re-executed on failure,
/// speculated on stragglers), the shuffle is a partitioned exchange over
/// the mp collectives, reduce runs once per partition on its owning
/// rank, and the sorted output is replicated to every rank.
///
/// SPMD: every rank calls run() with identical inputs (replicated input
/// model — map tasks read their record range from the local copy, only
/// intermediate pairs travel). Output is byte-identical to
/// mapreduce::Job with threads(1): the shuffle concatenates map-task
/// buckets in task order, so each key's value list is in input order,
/// grouping uses the same std::map and the same std::hash partitioner,
/// and the final sort uses the same comparator.
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

    // --- Shuffle: master splits every task's buckets by owner,
    // concatenating in task order so value order == input order. The
    // per-rank blobs travel as owned Buffers (scatter_raw moves them
    // onto the wire; no re-encode copy).
    std::vector<mp::Buffer> rank_blobs(static_cast<std::size_t>(size));
    if (engine_result.is_master) {
      std::vector<std::vector<Bucket>> task_buckets;
      task_buckets.reserve(engine_result.results.size());
      for (const mp::Buffer& result : engine_result.results) {
        task_buckets.push_back(decode_map_result(result, reducers));
      }
      std::vector<Writer> writers(static_cast<std::size_t>(size));
      for (int p = 0; p < reducers; ++p) {
        const int owner =
            live[static_cast<std::size_t>(p) % live.size()];
        Bucket merged;
        for (const auto& buckets : task_buckets) {
          const Bucket& bucket = buckets[static_cast<std::size_t>(p)];
          merged.insert(merged.end(), bucket.begin(), bucket.end());
        }
        WireCodec<Bucket>::write(writers[static_cast<std::size_t>(owner)],
                                 merged);
      }
      for (int r = 0; r < size; ++r) {
        rank_blobs[static_cast<std::size_t>(r)] =
            writers[static_cast<std::size_t>(r)].take();
      }
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
      const Bucket bucket = WireCodec<Bucket>::read(reader);
      std::map<K2, std::vector<V2>> grouped;
      for (const auto& [key, value] : bucket) {
        grouped[key].push_back(value);
      }
      comm.charge_ops(reduce_cost_ops_ * static_cast<double>(bucket.size()));
      for (const auto& [key, values] : grouped) {
        my_output.emplace_back(key, reduce_fn_(key, values));
      }
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
    for (std::int64_t i = begin; i < end; ++i) {
      ctx.charge(map_cost_ops_);
      ctx.progress();
      const auto& [key, value] = inputs[static_cast<std::size_t>(i)];
      mapreduce::Emitter<K2, V2> emitter;
      map_fn_(key, value, emitter);
      for (auto& [k2, v2] : emitter.pairs()) {
        const std::size_t partition =
            std::hash<K2>{}(k2) % static_cast<std::size_t>(reducers);
        buckets[partition].emplace_back(std::move(k2), std::move(v2));
      }
    }
    if (combine_fn_ != nullptr) {
      for (Bucket& bucket : buckets) {
        bucket = combine_bucket(bucket);
      }
    }
    ctx.progress();

    Writer writer;
    for (const Bucket& bucket : buckets) {
      WireCodec<Bucket>::write(writer, bucket);
    }
    return writer.take();
  }

  Bucket combine_bucket(const Bucket& bucket) const {
    std::map<K2, std::vector<V2>> grouped;
    for (const auto& [key, value] : bucket) {
      grouped[key].push_back(value);
    }
    Bucket combined;
    combined.reserve(grouped.size());
    for (const auto& [key, values] : grouped) {
      combined.emplace_back(key, combine_fn_(key, values));
    }
    return combined;
  }

  std::vector<Bucket> decode_map_result(const mp::Buffer& bytes,
                                        int reducers) const {
    Reader reader(bytes);
    std::vector<Bucket> buckets;
    buckets.reserve(static_cast<std::size_t>(reducers));
    for (int p = 0; p < reducers; ++p) {
      buckets.push_back(WireCodec<Bucket>::read(reader));
    }
    return buckets;
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

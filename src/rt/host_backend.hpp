#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <stdexcept>

#include "rt/config.hpp"
#include "rt/team.hpp"
#include "rt/trace.hpp"

namespace pblpar::rt {

/// Thrown inside team members when the region aborts because another
/// member's body threw; caught internally, never escapes to users.
class TeamAborted : public std::exception {
 public:
  const char* what() const noexcept override {
    return "pblpar::rt::TeamAborted: parallel region is shutting down";
  }
};

/// A cyclic barrier that can be aborted: when one team member dies, the
/// others must not wait forever (CP.42: don't wait without a condition —
/// the condition includes shutdown).
class AbortableBarrier {
 public:
  explicit AbortableBarrier(int parties);

  /// Wait for all parties. Throws TeamAborted if abort() was called.
  ///
  /// Abort is deterministic with respect to this call: a thread returns
  /// normally only if its release happened-before abort() marked the
  /// barrier; any thread still inside arrive_and_wait when the abort flag
  /// is set — waiting, or arriving as the releasing party — throws, even
  /// if its generation was already released.
  void arrive_and_wait();

  /// Release all current and future waiters with TeamAborted.
  void abort();

  /// Re-arm the barrier for a fresh team of `parties` threads, clearing
  /// the abort flag and the arrival count. Only valid when no thread is
  /// inside arrive_and_wait — the worker pool calls this between regions,
  /// after it has observed every member of the previous region exit.
  void reset(int parties);

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int parties_;
  int arrived_ = 0;
  /// Atomic so waiters can yield-spin for the release outside mu_ — on a
  /// loaded machine that detects it without a futex wake per waiter.
  /// Writes still happen under mu_ for the condvar fallback path.
  std::atomic<std::uint64_t> generation_{0};
  std::atomic<bool> aborted_{false};
};

/// Execute `body` as a team of `config.num_threads` real threads.
/// Rethrows the first exception thrown by any member after the region.
/// With config.record_trace set, attaches a RunProfile stamped on the
/// host steady clock to the result.
///
/// Every region runs on a persistent worker pool: the calling thread is
/// always member 0 and num_threads - 1 pool workers — spawned on first
/// use, parked between regions, re-used thereafter — are the rest. The
/// region takes an idle pool from a process-wide stack (building one if
/// none is idle) and gives it back at the end, so nested regions and
/// regions of concurrent callers each get a pool of their own.
RunResult host_parallel(const ParallelConfig& config,
                        const std::function<void(TeamContext&)>& body);

/// Pre-spawn workers for teams of up to `num_threads` (i.e.
/// num_threads - 1 workers) on the idle pool the next region will take.
/// Call before a timed or latency-sensitive section so the first region
/// does not pay thread creation. No-op if that pool is already at least
/// that wide.
void warm_host_pool(int num_threads);

/// One wait-free-read view of the worker pools, summed over every pool,
/// for dashboards and benches sampling from outside any region.
struct PoolSnapshot {
  int workers = 0;  // persistent workers spawned (excl. callers)
  std::uint64_t pooled_regions = 0;   // regions that started no thread
  std::uint64_t spawned_regions = 0;  // regions that started threads

  /// Coherent whole-region totals of the traced region currently running
  /// on the backend, aggregated from the per-thread seqlocked live
  /// counters (LiveTotals::active false when no traced region is up; see
  /// TraceRecorder::live_totals for the coherent-cut semantics).
  LiveTotals live;
};

/// Sample the pools. Safe from any thread at any time; never blocks a
/// running region — readers take a shared handover lock the regions only
/// write-touch at start/end, and the counter sample itself is the
/// seqlock-retry read documented on TraceRecorder::live_totals.
PoolSnapshot pool_snapshot();

}  // namespace pblpar::rt

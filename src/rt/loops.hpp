#pragma once

#include <cstdint>
#include <functional>

#include "rt/schedule.hpp"
#include "rt/team.hpp"

namespace pblpar::rt {

/// Chunk size the scheduler hands out when `remaining` iterations are left.
/// Shared by every backend so host and sim agree on chunk shapes.
std::int64_t chunk_size_for(const Schedule& schedule, std::int64_t remaining,
                            int num_threads);

/// Claim size of schedules whose chunks do not depend on the remaining
/// work (everything but guided), clamped to the loop length so claims
/// racing past the end overshoot a shared fetch_add counter by at most
/// one grab each without ever overflowing it. Matches chunk_size_for on
/// the same schedule, which is what keeps the wait-free fetch_add claim
/// path and the CAS path interchangeable chunk-for-chunk.
inline std::int64_t fixed_claim_size(const Schedule& schedule,
                                     std::int64_t total) {
  const std::int64_t chunk = schedule.chunk > 0 ? schedule.chunk : 1;
  return total > 0 ? (chunk < total ? chunk : total) : 1;
}

/// Chunk size a Schedule::steal loop is split into before the chunks are
/// dealt to the per-thread deques. An explicit schedule.chunk wins
/// (clamped to the loop length); chunk 0 auto-sizes so every thread
/// starts with roughly 16 chunks — local pops stay cheap while thieves
/// still find granularity worth migrating. Shared by both backends so
/// host and sim deal identical deques.
std::int64_t steal_chunk_size(const Schedule& schedule, std::int64_t total,
                              int num_threads);

/// Remaining contiguous block of chunk indices in one thread's steal
/// deque: [lo, hi). The owner pops from lo (ascending walk of its block);
/// thieves take from hi. Not synchronized: both backends call take and
/// steal under the owning thread's steal mutex.
struct StealSpan {
  std::int64_t lo = 0;
  std::int64_t hi = 0;

  bool empty() const { return lo >= hi; }

  /// Owner-side claim of the lowest remaining chunk index.
  bool take(std::int64_t* chunk_index) {
    if (empty()) {
      return false;
    }
    *chunk_index = lo++;
    return true;
  }

  /// Thief-side claim of the highest remaining chunk index.
  bool steal(std::int64_t* chunk_index) {
    if (empty()) {
      return false;
    }
    *chunk_index = --hi;
    return true;
  }
};

/// The block of chunk indices initially dealt to `tid` when `total`
/// iterations are split into chunks of `chunk`: the OpenMP-static block
/// partition of the chunk index space, remainder to the first threads.
StealSpan steal_initial_span(std::int64_t total, std::int64_t chunk,
                             int num_threads, int tid);

/// The iteration claim produced when chunk index `chunk_index` of a steal
/// loop (chunks of size `chunk` over `total` iterations) is removed from
/// `victim`'s deque. The final chunk is clamped to the loop end.
StealClaim steal_claim_for(std::int64_t chunk_index, std::int64_t chunk,
                           std::int64_t total, int victim);

/// Worksharing loop over `range` (OpenMP's `#pragma omp for`).
///
/// Must be encountered by every member of the team. Iterations are
/// distributed according to `schedule`; `body` receives global iteration
/// indices. `cost` is charged to the simulator per chunk (ignored on the
/// host backend). Ends with an implicit team barrier unless
/// `barrier_at_end` is false (OpenMP's nowait).
void for_loop(TeamContext& tc, Range range, Schedule schedule,
              const std::function<void(std::int64_t)>& body,
              const CostModel& cost = {}, bool barrier_at_end = true);

}  // namespace pblpar::rt

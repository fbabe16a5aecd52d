#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "rt/for_each.hpp"
#include "rt/parallel.hpp"
#include "util/error.hpp"

namespace pblpar::rt {

/// Value + execution report of a parallel reduction.
template <class T>
struct ReduceResult {
  T value{};
  RunResult run;
};

/// How the reduction combines partial results — the paper's Assignment 4
/// contrasts the reduction clause with a critical section per iteration.
enum class ReduceStrategy {
  /// OpenMP `reduction(...)` semantics: each thread accumulates privately
  /// and partials merge once at the end.
  PerThreadPartials,

  /// The classroom anti-pattern: every iteration updates the shared result
  /// inside a critical section. Correct but serialized.
  CriticalPerIteration,
};

/// Worksharing reduction inside an existing team (OpenMP's
/// `#pragma omp for reduction(...)`). Every member must call it.
/// Ends with a team barrier; `result` is complete after that barrier.
///
/// `salvage` (PerThreadPartials only) rescues partial progress from a
/// cancelled or failed region: when the loop unwinds before the merge,
/// each member moves its private partial into `(*salvage)[tid]` and the
/// exception continues — so a caller catching rt::Cancelled can still
/// combine whatever completed. Slots of members whose partial already
/// merged into `result` (or who ran no iterations) stay empty. The vector
/// must hold at least num_threads slots and outlive the region.
template <class T, class MapFn, class CombineFn>
void reduce_loop(TeamContext& tc, Range range, Schedule schedule, T& result,
                 MapFn map, CombineFn combine, const CostModel& cost = {},
                 ReduceStrategy strategy = ReduceStrategy::PerThreadPartials,
                 std::vector<std::optional<T>>* salvage = nullptr) {
  if (strategy == ReduceStrategy::PerThreadPartials) {
    if (salvage != nullptr) {
      util::require(static_cast<int>(salvage->size()) >= tc.num_threads(),
                    "reduce_loop: salvage needs one slot per team member");
    }
    // The partial lives in an optional so T never needs to be
    // default-constructible — OpenMP initializes reduction privates from
    // the operation's identity, but a generic combine has no identity to
    // offer, so "no iterations ran here" is simply an empty partial.
    std::optional<T> local;
    try {
      for_each(
          tc, range, schedule,
          [&](std::int64_t i) {
            if (local.has_value()) {
              local = combine(*std::move(local), map(i));
            } else {
              local = map(i);
            }
          },
          cost, /*barrier_at_end=*/false);
    } catch (...) {
      // Each member writes only its own slot, and the caller reads them
      // after the region join — no two threads ever touch one slot.
      if (salvage != nullptr && local.has_value()) {
        (*salvage)[static_cast<std::size_t>(tc.thread_num())] =
            std::move(local);
      }
      throw;  // always rethrow: on Sim this includes the abort signal
    }
    if (local.has_value()) {
      tc.critical([&] { result = combine(result, *std::move(local)); });
    }
    tc.barrier();
  } else {
    for_each(
        tc, range, schedule,
        [&](std::int64_t i) {
          const T term = map(i);
          tc.critical([&] { result = combine(result, term); });
        },
        cost, /*barrier_at_end=*/true);
  }
}

/// Whole-region reduction (parallel + for + reduction), the TeachMP
/// analogue of `#pragma omp parallel for reduction(...)`.
template <class T, class MapFn, class CombineFn>
ReduceResult<T> parallel_reduce(
    const ParallelConfig& config, Range range, Schedule schedule, T identity,
    MapFn map, CombineFn combine, const CostModel& cost = {},
    ReduceStrategy strategy = ReduceStrategy::PerThreadPartials,
    std::vector<std::optional<T>>* salvage = nullptr) {
  // Aggregate-init from the identity: ReduceResult's `T value{}` member
  // initializer is never instantiated this way, so non-default-
  // constructible accumulators work here too.
  ReduceResult<T> reduced{std::move(identity), RunResult{}};
  reduced.run = parallel(config, [&](TeamContext& tc) {
    reduce_loop(tc, range, schedule, reduced.value, map, combine, cost,
                strategy, salvage);
  });
  return reduced;
}

}  // namespace pblpar::rt

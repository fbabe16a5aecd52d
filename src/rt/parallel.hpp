#pragma once

#include <functional>

#include "rt/config.hpp"
#include "rt/loops.hpp"
#include "rt/schedule.hpp"
#include "rt/team.hpp"

namespace pblpar::rt {

/// TeachMP's `#pragma omp parallel`: run `body` on a team of
/// config.num_threads threads, on the configured backend.
///
/// The fork-join pattern from the paper's Assignment 2 is exactly this
/// call: the caller forks a team, every member runs the same body (SPMD),
/// and the call returns when all members joined.
RunResult parallel(const ParallelConfig& config,
                   const std::function<void(TeamContext&)>& body);

/// TeachMP's `#pragma omp parallel for`: a parallel region containing a
/// single worksharing loop. `body` receives global iteration indices.
RunResult parallel_for(const ParallelConfig& config, Range range,
                       Schedule schedule,
                       const std::function<void(std::int64_t)>& body,
                       const CostModel& cost = {});

/// Pre-create the execution resources `config` will use so the first
/// region does not pay one-time setup inside a timed section: for a
/// Host config this spawns the persistent pool's workers (they then park
/// until the first region). A no-op for Sim configs (virtual threads are
/// free).
void warm_up(const ParallelConfig& config);

}  // namespace pblpar::rt

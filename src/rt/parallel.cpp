#include "rt/parallel.hpp"

#include <cmath>

#include "rt/for_each.hpp"
#include "rt/host_backend.hpp"
#include "rt/sim_backend.hpp"
#include "util/error.hpp"

namespace pblpar::rt {

RunResult parallel(const ParallelConfig& config,
                   const std::function<void(TeamContext&)>& body) {
  util::require(config.num_threads >= 1,
                "parallel: config.num_threads must be >= 1");
  // ParallelConfig::deadline() validates, but deadline_s is a plain
  // field — a NaN or negative written directly would silently disarm or
  // misfire the governor's clock checks. Reject it loudly here instead.
  util::require(std::isfinite(config.deadline_s) && config.deadline_s >= 0.0,
                "parallel: config.deadline_s must be finite and >= 0 "
                "(0 = no deadline)");
  switch (config.backend) {
    case BackendKind::Host:
      return host_parallel(config, body);
    case BackendKind::Sim: {
      if (config.external_machine != nullptr) {
        return sim_parallel(*config.external_machine, config, body);
      }
      sim::Machine machine(config.machine);
      return sim_parallel(machine, config, body);
    }
  }
  throw util::PreconditionError("parallel: unknown backend");
}

RunResult parallel_for(const ParallelConfig& config, Range range,
                       Schedule schedule,
                       const std::function<void(std::int64_t)>& body,
                       const CostModel& cost) {
  util::require(body != nullptr, "parallel_for: body must be callable");
  return parallel(config, [&](TeamContext& tc) {
    for_each(tc, range, schedule, body, cost);
  });
}

void warm_up(const ParallelConfig& config) {
  if (config.backend == BackendKind::Host) {
    warm_host_pool(config.num_threads);
  }
}

}  // namespace pblpar::rt

#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <optional>
#include <thread>

#include "rt/cancel.hpp"
#include "sim/machine.hpp"
#include "sim/report.hpp"
#include "sim/spec.hpp"
#include "util/error.hpp"

namespace pblpar::rt {

struct RunProfile;
class RegionObserver;

/// Number of hardware threads on the host, never less than 1 (the
/// standard allows hardware_concurrency() to return 0 when unknown).
/// The canonical "how wide should a thread-local run be" answer for code
/// that wants to match the machine rather than hard-code a width.
inline int hardware_threads() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

/// Which substrate executes a parallel region.
enum class BackendKind {
  /// Real std::thread execution on the host. Results are real-time; on a
  /// host with fewer cores than threads the speedup is bounded by the
  /// host, not the model.
  Host,

  /// Deterministic virtual-time execution on the pblpar::sim machine.
  /// This is the paper-faithful configuration: timings reflect the
  /// simulated Raspberry Pi regardless of the host.
  Sim,
};

/// Configuration of one parallel region (the TeachMP analogue of
/// OMP_NUM_THREADS + the target machine).
struct ParallelConfig {
  int num_threads = 4;
  BackendKind backend = BackendKind::Sim;

  /// Machine model for the Sim backend (ignored by Host).
  sim::MachineSpec machine = sim::MachineSpec::raspberry_pi_3bplus();

  /// Run on an existing machine instead of a fresh one — e.g. one with a
  /// race detector attached. Not owned; must outlive the call.
  sim::Machine* external_machine = nullptr;

  /// Record a per-thread execution trace (chunk claims, steal-schedule
  /// chunk migrations, barrier waits, critical sections, single winners)
  /// into RunResult::profile. Off by default: the hot paths then skip all
  /// bookkeeping.
  bool record_trace = false;

  /// Cooperative cancellation token; every team member polls it at
  /// chunk-claim boundaries and the region throws rt::Cancelled (with
  /// per-thread completed-iteration counts) once a member observes it.
  /// Default-constructed = the region is not cancellable.
  CancelToken cancel_token;

  /// Region deadline in seconds since region start, on the backend's
  /// clock (host steady clock / sim virtual time). 0 = none. Like token
  /// cancellation, enforced cooperatively at chunk-claim boundaries —
  /// a single enormous chunk overstays the deadline unchecked.
  double deadline_s = 0.0;

  /// Chunk-boundary fault injection (delays / thrown exceptions). Empty
  /// (the default) = off with zero polling overhead.
  ChaosPlan chaos;

  /// Live progress observer (see rt::RegionObserver in rt/trace.hpp): the
  /// host backend attaches the region's TraceRecorder at launch so
  /// observer->snapshot() samples per-thread counters mid-region through
  /// wait-free seqlocks — workers never block for an observer. Requires
  /// record_trace (observed() sets it). Host backend only; the Sim
  /// backend ignores it (a virtual-time region has no meaningful "while
  /// it runs" for a real-time observer to sample).
  std::shared_ptr<RegionObserver> observer;

  /// Copy of this config with tracing switched on.
  ParallelConfig traced() const {
    ParallelConfig config = *this;
    config.record_trace = true;
    return config;
  }

  /// Copy of this config that polls `token` at chunk-claim boundaries.
  ParallelConfig cancellable(CancelToken token) const {
    util::require(token.valid(),
                  "ParallelConfig::cancellable: token is not connected to a "
                  "CancelSource (default-constructed tokens never fire)");
    ParallelConfig config = *this;
    config.cancel_token = std::move(token);
    return config;
  }

  /// Copy of this config with a region deadline of `seconds` (> 0, finite)
  /// on the backend's clock.
  ParallelConfig deadline(double seconds) const {
    util::require(std::isfinite(seconds) && seconds > 0.0,
                  "ParallelConfig::deadline: need a finite deadline > 0");
    ParallelConfig config = *this;
    config.deadline_s = seconds;
    return config;
  }

  /// Chrono-flavoured deadline: config.deadline(std::chrono::milliseconds(5)).
  template <class Rep, class Period>
  ParallelConfig deadline(std::chrono::duration<Rep, Period> duration) const {
    return deadline(
        std::chrono::duration_cast<std::chrono::duration<double>>(duration)
            .count());
  }

  /// Copy of this config with `plan` injected at chunk-claim boundaries.
  /// Validates the plan loudly up front.
  ParallelConfig with_chaos(ChaosPlan plan) const {
    plan.validate();
    ParallelConfig config = *this;
    config.chaos = plan;
    return config;
  }

  /// Copy of this config that publishes live per-thread progress to
  /// `observer` while the region runs (host backend). Implies tracing —
  /// the observer samples the trace recorder's wait-free counters.
  ParallelConfig observed(std::shared_ptr<RegionObserver> region_observer)
      const {
    util::require(region_observer != nullptr,
                  "ParallelConfig::observed: observer must not be null");
    ParallelConfig config = *this;
    config.observer = std::move(region_observer);
    config.record_trace = true;
    return config;
  }

  static ParallelConfig sim_pi(int num_threads = 4) {
    ParallelConfig config;
    config.num_threads = num_threads;
    config.backend = BackendKind::Sim;
    return config;
  }

  static ParallelConfig host(int num_threads = 4) {
    ParallelConfig config;
    config.num_threads = num_threads;
    config.backend = BackendKind::Host;
    return config;
  }
};

/// Outcome of one parallel region.
struct RunResult {
  /// Host wall-clock of the region, in seconds (both backends).
  double host_seconds = 0.0;

  /// Virtual-time report (Sim backend only).
  std::optional<sim::ExecutionReport> sim_report;

  /// Per-thread trace profile; only set when ParallelConfig::record_trace
  /// was on. Shared so RunResult stays cheap to copy.
  std::shared_ptr<const RunProfile> profile;

  /// Virtual time if simulated, host time otherwise.
  double elapsed_seconds() const {
    return sim_report ? sim_report->makespan_s : host_seconds;
  }
};

}  // namespace pblpar::rt

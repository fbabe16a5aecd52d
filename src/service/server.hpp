#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "service/job.hpp"

namespace pblpar::service {

/// What Server::submit does when the admission queue is full.
enum class AdmissionPolicy {
  /// Return a Rejected ticket carrying a retry-after estimate; the
  /// caller sheds load (the open-loop answer).
  Reject,

  /// Block the submitter until a slot frees or the server shuts down
  /// (the closed-loop answer; backpressure propagates to the producer).
  Block,
};

std::string to_string(AdmissionPolicy policy);

/// Lifecycle of one submission. Queued/Running are transient; the rest
/// are terminal.
enum class JobStatus {
  Queued,     // admitted, waiting for a lane
  Running,    // executing on a lane
  Done,       // finished normally
  Cancelled,  // deadline or cancel token fired (or server shut down)
  Failed,     // the job body threw
  Rejected,   // never admitted (queue full, unknown policy, shutdown)
};

std::string to_string(JobStatus status);

/// Terminal record of one submission.
struct JobResult {
  JobStatus status = JobStatus::Queued;

  /// Only meaningful when status == Cancelled and the job was cut by the
  /// runtime (not by a pre-dispatch shutdown).
  rt::CancelCause cancel_cause = rt::CancelCause::Token;

  /// Worksharing iterations the cancelled job completed before the drain
  /// (from rt::Cancelled), 0 otherwise.
  std::int64_t salvaged_iterations = 0;

  /// Failure or rejection detail.
  std::string error;

  /// The job's outcome (Done; partially filled on Cancelled when a
  /// profile was salvaged).
  JobOutcome outcome;

  /// Seconds spent admitted-but-queued, then running.
  double queued_s = 0.0;
  double service_s = 0.0;

  /// Rejected only: the server's estimate of when a retry is worth
  /// making (seconds from now), always > 0.
  double retry_after_s = 0.0;

  /// 1-based order among the server's terminal dispatched jobs (0 for
  /// rejected and shutdown-orphaned jobs). With one lane this is exactly
  /// the dispatch order, which the fairness checks lean on.
  std::uint64_t completion_seq = 0;
};

namespace detail {
struct TicketState;
}  // namespace detail

/// Shared handle to one submission. Cheap to copy; valid after the
/// server that issued it is destroyed (the result outlives the server).
class JobTicket {
 public:
  JobTicket() = default;

  bool valid() const { return state_ != nullptr; }
  std::uint64_t id() const;
  const std::string& tenant() const;
  const std::string& kind() const;

  JobStatus status() const;
  bool finished() const;

  /// Block until the job reaches a terminal status; returns the result.
  /// By value on purpose: `server.submit(...).wait()` destroys the
  /// temporary ticket (the state's last owner) at the end of the full
  /// expression, so a reference would dangle.
  JobResult wait() const;

  /// Like wait() with a timeout; false if still not terminal.
  bool wait_for(double timeout_s) const;

  /// Fire the job's cancel source. Cooperative: a queued job cancels at
  /// its first chunk boundary once dispatched, a running job at its
  /// next. Safe from any thread, idempotent.
  void cancel() const;

 private:
  friend class Server;
  explicit JobTicket(std::shared_ptr<detail::TicketState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<detail::TicketState> state_;
};

/// One tenant of the server: a name and a fair-share weight. Weights are
/// relative — a weight-8 tenant gets 8x the completed work of a weight-1
/// tenant under saturation.
struct TenantConfig {
  std::string name;
  double weight = 1.0;
};

struct ServerOptions {
  /// Concurrent job executors. Each lane runs one job at a time; jobs go
  /// wide internally via JobOptions::threads on rt's pooled host teams.
  int lanes = 2;

  /// Max jobs admitted-but-not-yet-dispatched, across all tenants. The
  /// queue depth never exceeds this.
  int max_queue_depth = 256;

  AdmissionPolicy admission = AdmissionPolicy::Reject;

  /// Floor of the retry-after estimate handed to rejected submitters.
  double retry_after_floor_s = 1e-4;

  void validate() const {
    util::require(lanes >= 1, "ServerOptions::lanes must be >= 1");
    util::require(max_queue_depth >= 1,
                  "ServerOptions::max_queue_depth must be >= 1");
    util::require(
        std::isfinite(retry_after_floor_s) && retry_after_floor_s > 0.0,
        "ServerOptions::retry_after_floor_s must be finite and > 0");
  }
};

struct TenantStats {
  std::string name;
  double weight = 1.0;
  std::int64_t submitted = 0;
  std::int64_t rejected = 0;
  std::int64_t completed = 0;  // Done
  std::int64_t cancelled = 0;
  std::int64_t failed = 0;
  /// Sum of cost_units over Done jobs — the fairness bench's measure of
  /// delivered work.
  double completed_cost = 0.0;
};

struct ServerStats {
  std::int64_t submitted = 0;
  std::int64_t rejected = 0;
  std::int64_t completed = 0;
  std::int64_t cancelled = 0;
  std::int64_t failed = 0;
  int queue_depth = 0;
  int queue_depth_high_water = 0;
  int in_flight = 0;  // admitted, not yet terminal (queued + running)
  int in_flight_high_water = 0;
  std::vector<TenantStats> tenants;
};

/// The campus server: a long-running multi-tenant front door over rt's
/// pooled host teams. Thousands of concurrent submissions from
/// many tenants flow through one bounded admission queue and a
/// starvation-free weighted fair-share (stride) scheduler onto a fixed
/// set of executor lanes; every job gets a CancelSource, a service-time
/// deadline and optional per-job trace capture, all plumbed through the
/// runtime's cooperative cancellation drain.
///
/// Scheduling is deterministic given the submission order: all decisions
/// happen under one lock, ties break on tenant registration order, and
/// with lanes == 1 the dispatch sequence is a pure function of the
/// submissions (which the Sim-backend tests replay exactly).
class Server {
 public:
  Server(std::vector<TenantConfig> tenants, ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Submit `job` on behalf of `tenant`. Never blocks under Reject
  /// admission (a full queue returns a Rejected ticket immediately);
  /// under Block it waits for a slot. Unknown tenants and malformed
  /// options are precondition errors, not rejections.
  JobTicket submit(const std::string& tenant, Job job,
                   JobOptions options = {});

  /// Wait until every admitted job is terminal. Jobs submitted while
  /// draining extend the wait.
  void drain();

  /// Stop admitting, cancel queued jobs (they become Cancelled without
  /// running), fire the cancel sources of running jobs, and join the
  /// lanes. Idempotent; the destructor calls it.
  void shutdown();

  ServerStats stats() const;

 private:
  struct QueueEntry {
    int priority = 0;
    std::uint64_t seq = 0;  // admission order, tie-break within priority
    std::shared_ptr<detail::TicketState> state;
  };
  struct QueueOrder {
    // priority_queue keeps the *greatest* on top: higher priority first,
    // then earlier admission.
    bool operator()(const QueueEntry& a, const QueueEntry& b) const {
      if (a.priority != b.priority) {
        return a.priority < b.priority;
      }
      return a.seq > b.seq;
    }
  };
  struct Tenant {
    TenantConfig config;
    double stride = 1.0;  // 1 / weight
    double pass = 0.0;    // stride-scheduler virtual time consumed
    std::priority_queue<QueueEntry, std::vector<QueueEntry>, QueueOrder>
        queue;
    TenantStats stats;
  };

  void lane_main();
  void run_job(const std::shared_ptr<detail::TicketState>& state);
  void finalize(const std::shared_ptr<detail::TicketState>& state,
                JobResult result);
  double retry_after_estimate_locked() const;
  void reject_locked(const std::shared_ptr<detail::TicketState>& state,
                     Tenant& tenant, std::string reason, double retry_after_s);

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // lanes: queue non-empty or stopping
  std::condition_variable admit_cv_;  // Block submitters: slot freed
  std::condition_variable idle_cv_;   // drain(): everything terminal
  ServerOptions options_;
  std::vector<Tenant> tenants_;
  std::unordered_map<std::string, std::size_t> tenant_index_;
  bool stopping_ = false;
  int queued_total_ = 0;
  int running_ = 0;
  int in_flight_ = 0;
  int queue_depth_high_water_ = 0;
  int in_flight_high_water_ = 0;
  std::uint64_t submit_seq_ = 0;
  std::uint64_t completion_seq_ = 0;
  /// Pass value of the most recent dispatch — late-joining tenants start
  /// here instead of cashing in banked idle time.
  double virtual_time_ = 0.0;
  /// EWMA of job service seconds, feeding the retry-after estimate.
  double service_ewma_s_ = 1e-3;
  /// Running jobs, so shutdown can fire their cancel sources.
  std::vector<std::shared_ptr<detail::TicketState>> running_jobs_;
  std::vector<std::thread> lanes_;
};

}  // namespace pblpar::service

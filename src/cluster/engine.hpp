#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/fault.hpp"
#include "cluster/reliable.hpp"
#include "cluster/wire.hpp"
#include "mp/endpoint.hpp"
#include "mp/sim_world.hpp"
#include "rt/cancel.hpp"
#include "rt/trace.hpp"

namespace pblpar::cluster {

/// The master gave up on the run: every worker died with tasks
/// outstanding, or a task exhausted its attempt budget. Carries enough
/// detail to identify the tasks involved.
class ClusterError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A distributed job was cancelled (job deadline or CancelToken) before
/// it completed; thrown by drivers whose output would otherwise be
/// partial (the distributed MapReduce driver throws this on every rank,
/// mirroring how mapreduce::Job::deadline(Abort) surfaces rt::Cancelled).
class ClusterCancelled : public ClusterError {
 public:
  using ClusterError::ClusterError;
};

/// A serialized snapshot of the master's completed-task state: which
/// tasks are done and their result bytes, encoded with the positional
/// cluster wire format ([magic][version][task_count][done_count] then
/// per completed task [task_id][result blob]). Produced periodically by
/// a master with checkpointing armed; feed it back through
/// ClusterOptions::restart_from (or restart_from_checkpoint) to resume a
/// crashed master without re-running completed tasks.
struct ClusterCheckpoint {
  std::vector<std::byte> bytes;

  bool empty() const { return bytes.empty(); }

  /// Decoded header fields (0 on an empty checkpoint). A malformed
  /// header throws util::PreconditionError.
  int task_count() const;
  int completed_tasks() const;
};

/// Tuning knobs of one engine run. Times are seconds on the transport's
/// clock (Endpoint::now: virtual on SimComm, steady on Comm).
struct ClusterOptions {
  /// A busy worker emits a heartbeat at most this often (paced by
  /// TaskContext::progress calls).
  double heartbeat_interval_s = 0.02;

  /// A worker the master expects to hear from (busy, or between Done and
  /// its next Request) is declared dead after this much silence. Its
  /// in-flight task is re-queued. Parked workers are exempt (they are
  /// silent by protocol).
  double heartbeat_timeout_s = 0.25;

  /// Hard per-attempt deadline: a live attempt older than this is
  /// abandoned and its task re-queued even if heartbeats still arrive.
  /// 0 disables.
  double task_timeout_s = 0.0;

  /// An in-flight task becomes a speculation candidate for idle workers
  /// once its oldest live attempt is at least this old. 0 = immediately
  /// (an idle worker never sits parked while any task is in flight).
  double speculation_age_s = 0.0;

  /// Cap on concurrent live attempts of one task (primary + backups).
  int max_live_attempts = 2;

  /// Total attempts (including failed ones) before the master declares
  /// the task poisonous and throws ClusterError.
  int max_attempts_per_task = 6;

  /// Master poll period; 0 derives heartbeat_timeout_s / 4.
  double tick_s = 0.0;

  /// Job-level deadline (engine-relative seconds). Once the master's
  /// clock passes it with tasks outstanding, the run is cancelled: the
  /// queue is dropped, busy workers receive a Cancel and stop at their
  /// next progress() call, parked workers are shut down. Results of
  /// tasks that finished in time are kept (see
  /// ClusterRunResult::job_cancelled / incomplete_tasks). 0 disables.
  /// Workers only poll for Cancel when this is set, so runs without a
  /// deadline are byte-identical to earlier engine versions on Sim.
  double job_deadline_s = 0.0;

  /// Token-based cancel channel, polled by the master alongside the
  /// deadline (event kind "job-cancel" instead of "job-deadline"); the
  /// drain protocol is shared. Fire it from a task body, a watchdog, or
  /// another thread via rt::CancelSource::cancel(). An invalid
  /// (default) token never cancels, and workers only arm Cancel polling
  /// when the token is valid or a deadline is set.
  rt::CancelToken cancel;

  /// Ack/retry/dedup sublayer tuning; reliability.enabled wraps the
  /// engine's transport in ReliableComm so task dispatch, results and
  /// heartbeats survive an armed mp::TransportChaos plan.
  ReliabilityOptions reliability;

  /// Master checkpointing: serialize the completed-task state every
  /// this-many transport-clock seconds (plus once at wind-down) and
  /// hand it to `on_checkpoint`. 0 disables; armed (on_checkpoint set)
  /// requires a positive finite interval.
  double checkpoint_interval_s = 0.0;
  std::function<void(const ClusterCheckpoint&)> on_checkpoint;

  /// Resume from a previous run's checkpoint: tasks recorded done are
  /// restored (result bytes included) and never re-queued; the event
  /// log records one "restore" event per restored task. The checkpoint
  /// must describe the same task list (task_count is verified). Null =
  /// fresh run.
  const ClusterCheckpoint* restart_from = nullptr;

  double effective_tick_s() const {
    return tick_s > 0.0 ? tick_s : heartbeat_timeout_s / 4.0;
  }

  /// Loud boundary validation, the ClusterOptions mirror of
  /// FaultPlan::validate(): every timing knob must be finite (NaN
  /// compares false against everything, so an unchecked NaN deadline
  /// would silently never fire), intervals ordered, attempt budgets
  /// positive. Checked on every rank by run_cluster_tasks.
  void validate() const;
};

/// One master-side scheduling event, timestamped relative to engine
/// start on the transport clock. Kinds: assign, spec-assign, done,
/// dup-done, heartbeat, lost-result, requeue, task-timeout, worker-dead,
/// worker-back, shutdown, all-done, job-deadline, job-cancel, cancel,
/// cancel-drain, checkpoint (claim = completed-task count), restore.
struct ClusterEvent {
  double t_s = 0.0;
  int worker = -1;
  int task = -1;
  std::uint64_t claim = 0;
  std::string kind;
};

struct ClusterStats {
  int tasks = 0;
  int workers = 0;  // size - 1 (rank 0 is the master)
  int attempts = 0;
  int speculative_attempts = 0;
  int requeues = 0;
  int lost_results = 0;
  int dead_workers = 0;
  int resurrections = 0;
  int heartbeats = 0;
  /// Tasks still incomplete when the engine wound down after a
  /// job-deadline cancellation (0 on uncancelled runs).
  int cancelled_tasks = 0;
  /// Checkpoints the master serialized (including the wind-down one).
  int checkpoints = 0;
  /// Tasks restored from ClusterOptions::restart_from instead of run.
  int restored_tasks = 0;
  /// When the last task result arrived (engine-relative seconds).
  double completion_s = 0.0;
  /// When the engine fully wound down (stragglers drained, shutdowns
  /// sent); >= completion_s.
  double makespan_s = 0.0;
};

/// Full observability record of one engine run, the cluster analogue of
/// rt::RunProfile: counters, the master's event log, and a per-worker
/// schedule rendered through the PR-1 trace layer (one lane per rank,
/// one chunk per task attempt).
struct ClusterProfile {
  ClusterStats stats;
  std::vector<ClusterEvent> events;
  std::vector<int> dead_workers;

  /// Outbound wire traffic per rank (messages sent / payload bytes
  /// shipped), snapshotted from the transport's counters when the
  /// master wound down. Cumulative over the world, so it includes any
  /// traffic before the engine ran.
  std::vector<std::uint64_t> wire_messages;
  std::vector<std::uint64_t> wire_bytes;

  /// Master-side reliability counters (retransmits, dedup hits, ...);
  /// all zero when ClusterOptions::reliability is off. Deterministic on
  /// the Sim transport.
  RetryStats retry;

  /// Per-worker attempt timeline: tid = rank, chunk [task, task+1),
  /// claim_order = the attempt's claim id. Render with
  /// schedule->timeline_chart(0). Null when the engine ran without a
  /// profile request.
  std::shared_ptr<const rt::RunProfile> schedule;

  /// One line per event, fixed formatting — byte-identical across runs
  /// on the Sim transport, which is how fault-injection determinism is
  /// asserted in tests.
  std::string event_log() const;

  /// One-paragraph human summary of the run.
  std::string summary() const;

  /// Machine-readable export.
  std::string to_json() const;
};

/// Handle a task body uses to interact with the engine while running:
/// pace heartbeats, charge modelled work, learn its identity. progress()
/// is also the injection point for crash faults, so task bodies should
/// call it between work slices.
class TaskContext {
 public:
  TaskContext(int rank, int task_id, std::function<void(double)> charge_fn,
              std::function<void()> progress_fn)
      : rank_(rank),
        task_id_(task_id),
        charge_fn_(std::move(charge_fn)),
        progress_fn_(std::move(progress_fn)) {}

  int rank() const { return rank_; }
  int task_id() const { return task_id_; }

  /// Charge `ops` abstract operations of modelled work (Sim transport;
  /// no-op on the host, where tasks do real work). Straggler faults
  /// scale this.
  void charge(double ops) {
    if (charge_fn_) {
      charge_fn_(ops);
    }
  }

  /// Heartbeat pacing point; call between work slices.
  void progress() {
    if (progress_fn_) {
      progress_fn_();
    }
  }

 private:
  int rank_;
  int task_id_;
  std::function<void(double)> charge_fn_;
  std::function<void()> progress_fn_;
};

/// A task body: consume the task's payload (a zero-copy view into the
/// assignment message, valid for the duration of the call), return its
/// result bytes. Runs on worker ranks (and inline on the master when
/// size == 1).
using TaskFn = std::function<std::vector<std::byte>(
    TaskContext&, int task_id, mp::ByteView payload)>;

/// What run_cluster_tasks returns on each rank.
struct ClusterRunResult {
  /// Per-task result bytes, indexed by task id; each entry shares the
  /// Done message's storage (no result copy on the master). Master only.
  std::vector<mp::Buffer> results;
  /// Ranks the master declared dead and never heard from again.
  /// Master only.
  std::vector<int> dead_workers;
  bool is_master = false;
  /// This rank hit an injected crash fault (worker ranks only).
  bool crashed = false;
  /// The run was cancelled by ClusterOptions::job_deadline_s. On the
  /// master: the deadline fired with tasks outstanding. On a worker:
  /// this rank abandoned an in-flight attempt after receiving Cancel.
  bool job_cancelled = false;
  /// Ids of tasks without a result when a cancelled run wound down,
  /// ascending. Master only; empty on uncancelled runs.
  std::vector<int> incomplete_tasks;
};

namespace detail {

/// Engine protocol tags, far above any user tag and distinct from the
/// negative internal collective tags. Payloads of Done and Heartbeat
/// start with [i32 task_id][u64 claim]; Done then carries the result
/// blob, Assign the task payload blob.
constexpr int kTagRequest = (1 << 20) + 0;    // worker -> master, empty
constexpr int kTagDone = (1 << 20) + 1;       // worker -> master
constexpr int kTagHeartbeat = (1 << 20) + 2;  // worker -> master
constexpr int kTagAssign = (1 << 20) + 3;     // master -> worker
constexpr int kTagShutdown = (1 << 20) + 4;   // master -> worker, empty
constexpr int kTagCancel = (1 << 20) + 5;     // master -> worker, empty

/// The engine on `comm` exactly as given — no reliability wrap. Rank 0
/// runs the master, every other rank a worker. Callers that already
/// wrapped the transport for a longer protocol (DistJob) use this;
/// everyone else calls run_cluster_tasks.
ClusterRunResult run_engine(mp::Endpoint& comm,
                            const std::vector<std::vector<std::byte>>& tasks,
                            const TaskFn& task_fn,
                            const ClusterOptions& options,
                            const FaultPlan* faults, ClusterProfile* profile);

/// The one place the cluster tier wraps a transport in ReliableComm.
/// With ReliabilityOptions::enabled, endpoint() is one wrapper that lives
/// as long as the scope, so every phase run through it shares one
/// sequence state per link (the envelope is not self-describing, so
/// layers cannot be wrapped piecemeal); otherwise it is `comm` itself.
class ReliabilityScope {
 public:
  ReliabilityScope(mp::Endpoint& comm, const ReliabilityOptions& options);

  mp::Endpoint& endpoint();

  /// Wind down: drain the unacked window when `drain` (a crashed worker
  /// is fail-stop and must not linger retransmitting), then hand rank
  /// 0's RetryStats to `profile`. No-op without reliability.
  void close(bool drain, ClusterProfile* profile);

 private:
  mp::Endpoint& comm_;
  std::optional<ReliableComm> reliable_;
};

}  // namespace detail

/// Run a batch of tasks on the master–worker engine. SPMD: every rank of
/// the communicator calls this with the same arguments; rank 0 becomes
/// the master (it schedules, it does not execute tasks — except in a
/// single-rank world, where it runs everything inline), every other rank
/// becomes a worker. Returns per-task results on the master; workers get
/// an empty result set (check `crashed` for injected failures).
///
/// Fault tolerance: tasks lost to dead or silent workers are re-queued
/// and re-executed; stragglers are speculatively duplicated onto idle
/// workers, first finisher wins. Failures to recover from (all workers
/// dead, attempt budget exhausted) throw ClusterError on the master.
/// With options.reliability.enabled the run goes through ReliableComm.
ClusterRunResult run_cluster_tasks(
    mp::Endpoint& comm, const std::vector<std::vector<std::byte>>& tasks,
    const TaskFn& task_fn, const ClusterOptions& options = {},
    const FaultPlan* faults = nullptr, ClusterProfile* profile = nullptr);

/// Everything a deterministic simulated engine run produces.
struct SimClusterRun {
  std::vector<mp::Buffer> results;
  std::vector<int> dead_workers;
  /// Master-side job-deadline outcome (see ClusterRunResult).
  bool job_cancelled = false;
  std::vector<int> incomplete_tasks;
  ClusterProfile profile;
  mp::ClusterReport report;
};

/// Convenience wrapper: run `tasks` on a simulated Pi cluster of
/// `nodes` ranks (rank 0 = master, nodes-1 workers) and return results,
/// profile and the machine report. Deterministic: equal inputs, options,
/// fault plan and spec give bit-identical outcomes. A simulated deadlock
/// (which a correct engine run never produces) is rethrown as
/// ClusterError.
SimClusterRun run_sim_cluster(int nodes,
                              const std::vector<std::vector<std::byte>>& tasks,
                              const TaskFn& task_fn,
                              const ClusterOptions& options = {},
                              const FaultPlan* faults = nullptr,
                              mp::ClusterSpec spec = {});

}  // namespace pblpar::cluster

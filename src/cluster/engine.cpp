#include "cluster/engine.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <iomanip>
#include <limits>
#include <sstream>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace pblpar::cluster {

namespace {

void json_escape(std::ostream& os, const std::string& text) {
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else {
      os << c;
    }
  }
}

// --- checkpoint header -------------------------------------------------------

constexpr std::uint32_t kCheckpointMagic = 0x5042434BU;  // "PBCK"
constexpr std::uint32_t kCheckpointVersion = 1;

struct CheckpointHeader {
  int task_count = 0;
  int done_count = 0;
};

/// Parse and check the [magic][version][task_count][done_count] prefix
/// of a checkpoint, leaving `reader` at the first task record. Every
/// malformed header is a util::PreconditionError.
CheckpointHeader read_checkpoint_header(Reader& reader) {
  util::require(reader.remaining() >= 4 * sizeof(std::uint32_t),
                "cluster checkpoint: truncated header");
  util::require(reader.u32() == kCheckpointMagic,
                "cluster checkpoint: not a cluster checkpoint (bad magic)");
  util::require(reader.u32() == kCheckpointVersion,
                "cluster checkpoint: unsupported version");
  const std::uint32_t tasks = reader.u32();
  const std::uint32_t done = reader.u32();
  util::require(tasks <= static_cast<std::uint32_t>(
                             std::numeric_limits<int>::max()) &&
                    done <= tasks,
                "cluster checkpoint: inconsistent task counts");
  return CheckpointHeader{static_cast<int>(tasks), static_cast<int>(done)};
}

CheckpointHeader checkpoint_header(const ClusterCheckpoint& checkpoint) {
  if (checkpoint.empty()) {
    return {};
  }
  Reader reader(checkpoint.bytes);
  return read_checkpoint_header(reader);
}

// --- engine protocol ---------------------------------------------------------

std::size_t engine_payload_hash() {
  return mp::type_hash_of<std::vector<std::byte>>();
}

/// Internal unwinding signal for an injected worker crash. Caught by
/// run_worker; never escapes the engine.
struct WorkerCrashSignal {};

/// Internal unwinding signal for a cooperative job cancellation: the
/// worker saw the master's Cancel at a progress() poll and abandons the
/// attempt at that boundary. Caught by run_worker; never escapes.
struct WorkerCancelSignal {};

void send_request(mp::Endpoint& comm) {
  comm.send_raw(0, detail::kTagRequest, engine_payload_hash(), {});
}

void send_heartbeat(mp::Endpoint& comm, int task_id, std::uint64_t claim) {
  Writer writer;
  writer.i32(task_id);
  writer.u64(claim);
  // Heartbeats are periodic liveness hints: a lost one is replaced by
  // the next, so on a reliable transport they ride fire-and-forget
  // rather than consuming ack/retransmit budget.
  comm.send_raw_fire_and_forget(0, detail::kTagHeartbeat,
                                engine_payload_hash(), writer.take());
}

void send_done(mp::Endpoint& comm, int task_id, std::uint64_t claim,
               const std::vector<std::byte>& result) {
  Writer writer;
  writer.i32(task_id);
  writer.u64(claim);
  writer.blob(result);
  comm.send_raw(0, detail::kTagDone, engine_payload_hash(), writer.take());
}

void send_assign(mp::Endpoint& comm, int worker, int task_id,
                 std::uint64_t claim, const std::vector<std::byte>& payload) {
  Writer writer;
  writer.i32(task_id);
  writer.u64(claim);
  writer.blob(payload);
  comm.send_raw(worker, detail::kTagAssign, engine_payload_hash(),
                writer.take());
}

void send_shutdown(mp::Endpoint& comm, int worker) {
  comm.send_raw(worker, detail::kTagShutdown, engine_payload_hash(), {});
}

void send_cancel(mp::Endpoint& comm, int worker) {
  comm.send_raw(worker, detail::kTagCancel, engine_payload_hash(), {});
}

struct TaskHeader {
  int task_id = -1;
  std::uint64_t claim = 0;
};

TaskHeader parse_header(Reader& reader) {
  TaskHeader header;
  header.task_id = reader.i32();
  header.claim = reader.u64();
  return header;
}

// --- master ------------------------------------------------------------------

/// Master-side state machine. Pull-based: workers Request, the master
/// replies Assign (possibly much later) or Shutdown; Done and Heartbeat
/// flow back. A Request from a worker the master believes busy means the
/// worker's Done was lost — the task is re-queued. Silence past the
/// heartbeat timeout means the worker is dead.
class Master {
 public:
  Master(mp::Endpoint& comm, const std::vector<std::vector<std::byte>>& tasks,
         const ClusterOptions& options, ClusterProfile* profile)
      : comm_(comm), tasks_(tasks), options_(options), profile_(profile) {}

  ClusterRunResult run(const TaskFn& task_fn) {
    const int n = static_cast<int>(tasks_.size());
    const int size = comm_.size();
    start_s_ = comm_.now();
    results_.assign(static_cast<std::size_t>(n), {});
    task_states_.assign(static_cast<std::size_t>(n), TaskState{});
    workers_.assign(static_cast<std::size_t>(size), WorkerState{});
    remaining_ = n;
    stats_.tasks = n;
    stats_.workers = size - 1;
    if (profile_ != nullptr) {
      recorder_ = std::make_unique<rt::TraceRecorder>(
          size, comm_.virtual_time() ? rt::TraceClock::SimVirtual
                                     : rt::TraceClock::HostSteady);
      recorder_->register_loop(0, "cluster", n);
    }
    restore_checkpoint();

    if (size == 1) {
      run_serial(task_fn);
    } else {
      for (int t = 0; t < n; ++t) {
        if (!task_states_[static_cast<std::size_t>(t)].done) {
          queue_.push_back(t);
        }
      }
      run_loop();
      // A worker written off as dead may really be alive — a straggler
      // that outlived the whole run. Send it a shutdown too: a crashed
      // worker never reads it, a zombie uses it to leave the protocol
      // and rejoin the SPMD code after the engine.
      for (int w = 1; w < size; ++w) {
        if (workers_[static_cast<std::size_t>(w)].phase == WPhase::Dead) {
          send_shutdown(comm_, w);
        }
      }
    }

    ClusterRunResult result;
    if (cancelled_) {
      // A straggler's Done can still land between the deadline firing
      // and the drain completing, so incompleteness is judged only now.
      for (int t = 0; t < n; ++t) {
        if (!task_states_[static_cast<std::size_t>(t)].done) {
          result.incomplete_tasks.push_back(t);
        }
      }
      stats_.cancelled_tasks =
          static_cast<int>(result.incomplete_tasks.size());
    }
    // Wind-down checkpoint: capture every result that arrived (even on a
    // cancelled run), so a master killed right after this run resumes
    // with nothing lost.
    maybe_checkpoint(now_rel(), /*force=*/true);
    finalize_profile();
    result.results = std::move(results_);
    result.dead_workers = dead_list();
    result.is_master = true;
    result.job_cancelled = cancelled_;
    return result;
  }

 private:
  enum class WPhase {
    Unknown,       // never heard from (exempt from timeouts)
    Parked,        // sent Request, blocked waiting for our reply
    Busy,          // executing an assignment
    Returning,     // sent Done, its next Request is in flight
    Dead,          // timed out; resurrected if it ever speaks again
    ShutdownSent,  // told to exit
  };

  struct Attempt {
    int worker = -1;
    std::uint64_t claim = 0;
    double assigned_s = 0.0;
    bool live = false;
    bool speculative = false;
  };

  struct TaskState {
    std::vector<Attempt> attempts;
    bool done = false;
    bool queued = false;
  };

  struct WorkerState {
    WPhase phase = WPhase::Unknown;
    int task = -1;
    std::uint64_t claim = 0;
    double last_heard_s = 0.0;
  };

  double now_rel() { return comm_.now() - start_s_; }

  void event(double t_s, int worker, int task, std::uint64_t claim,
             const char* kind) {
    if (profile_ != nullptr) {
      profile_->events.push_back(ClusterEvent{t_s, worker, task, claim, kind});
    }
  }

  /// Resume from ClusterOptions::restart_from: mark recorded tasks done
  /// (copying their result bytes out of the checkpoint) so they are
  /// never queued. One "restore" event per task, at t=0.
  void restore_checkpoint() {
    if (options_.restart_from == nullptr || options_.restart_from->empty()) {
      return;
    }
    Reader reader(options_.restart_from->bytes);
    const CheckpointHeader header = read_checkpoint_header(reader);
    const int n = static_cast<int>(tasks_.size());
    util::require(header.task_count == n,
                  "cluster master: restart_from checkpoint describes a "
                  "different task list (task_count mismatch)");
    for (int i = 0; i < header.done_count; ++i) {
      const int task = reader.i32();
      const mp::ByteView blob = reader.blob_view();
      util::require(task >= 0 && task < n,
                    "cluster master: restart_from checkpoint has an "
                    "out-of-range task id");
      TaskState& ts = task_states_[static_cast<std::size_t>(task)];
      util::require(!ts.done,
                    "cluster master: restart_from checkpoint records task " +
                        std::to_string(task) + " done twice");
      ts.done = true;
      results_[static_cast<std::size_t>(task)] =
          mp::Buffer::copy_of(blob.data(), blob.size());
      --remaining_;
      ++stats_.restored_tasks;
      event(0.0, -1, task, 0, "restore");
    }
    checkpointed_done_ = header.done_count;
  }

  int done_count() const {
    return static_cast<int>(tasks_.size()) - remaining_;
  }

  ClusterCheckpoint make_checkpoint() const {
    Writer writer;
    writer.u32(kCheckpointMagic);
    writer.u32(kCheckpointVersion);
    writer.u32(static_cast<std::uint32_t>(tasks_.size()));
    writer.u32(static_cast<std::uint32_t>(done_count()));
    for (int t = 0; t < static_cast<int>(tasks_.size()); ++t) {
      const TaskState& ts = task_states_[static_cast<std::size_t>(t)];
      if (!ts.done) {
        continue;
      }
      writer.i32(t);
      const mp::Buffer& result = results_[static_cast<std::size_t>(t)];
      writer.blob(result.view());
    }
    ClusterCheckpoint checkpoint;
    checkpoint.bytes = writer.take();
    return checkpoint;
  }

  /// Serialize completed-task state when the interval elapsed and new
  /// results arrived since the last snapshot (`force` skips both checks
  /// for the wind-down capture — but still never emits an empty
  /// zero-progress checkpoint on an unarmed run).
  void maybe_checkpoint(double now, bool force = false) {
    if (options_.checkpoint_interval_s <= 0.0) {
      return;
    }
    const int done = done_count();
    if (done <= checkpointed_done_) {
      return;  // nothing new to capture
    }
    if (!force && now - last_checkpoint_s_ < options_.checkpoint_interval_s) {
      return;
    }
    last_checkpoint_s_ = now;
    checkpointed_done_ = done;
    ++stats_.checkpoints;
    event(now, -1, -1, static_cast<std::uint64_t>(done), "checkpoint");
    if (options_.on_checkpoint != nullptr) {
      options_.on_checkpoint(make_checkpoint());
    }
  }

  /// Why the job must stop at engine-relative time `now`: "job-deadline"
  /// once the deadline has passed, "job-cancel" once the CancelToken
  /// tripped, null while it may go on.
  const char* cancel_reason(double now) const {
    if (options_.job_deadline_s > 0.0 && now >= options_.job_deadline_s) {
      return "job-deadline";
    }
    if (options_.cancel.cancel_requested()) {
      return "job-cancel";
    }
    return nullptr;
  }

  void run_serial(const TaskFn& task_fn) {
    // Single-rank world: the master executes every task inline. The job
    // deadline is honoured between tasks — the inline task body has no
    // Cancel channel to poll.
    const int n = static_cast<int>(tasks_.size());
    for (int t = 0; t < n; ++t) {
      if (task_states_[static_cast<std::size_t>(t)].done) {
        continue;  // restored from a checkpoint
      }
      const double now = now_rel();
      if (const char* reason = cancel_reason(now)) {
        cancelled_ = true;
        event(now, -1, -1, 0, reason);
        return;
      }
      maybe_checkpoint(now_rel());
      const std::uint64_t claim = ++claim_seq_;
      const double begin_s = now_rel();
      event(begin_s, 0, t, claim, "assign");
      ++stats_.attempts;
      TaskContext ctx(
          0, t, [this](double ops) { comm_.charge_ops(ops); }, [] {});
      results_[static_cast<std::size_t>(t)] =
          task_fn(ctx, t, mp::ByteView(tasks_[static_cast<std::size_t>(t)]));
      task_states_[static_cast<std::size_t>(t)].done = true;
      --remaining_;
      const double end_s = now_rel();
      event(end_s, 0, t, claim, "done");
      if (recorder_ != nullptr) {
        recorder_->record_chunk(0, 0, t, t + 1, claim, begin_s, end_s);
      }
    }
    stats_.completion_s = now_rel();
  }

  void run_loop() {
    const double tick = options_.effective_tick_s();
    for (;;) {
      mp::RawMessage msg;
      const bool got =
          comm_.recv_raw_timed(mp::kAnySource, mp::kAnyTag, tick, &msg);
      const double now = now_rel();
      if (got) {
        dispatch(msg, now);
      }
      maybe_cancel(now);
      maybe_checkpoint(now);
      check_timeouts(now);
      drive_idle(now);
      if (remaining_ == 0 && stats_.completion_s == 0.0 &&
          stats_.tasks > 0) {
        stats_.completion_s = now;
        event(now, -1, -1, 0, "all-done");
      }
      if (finished()) {
        return;
      }
      check_liveness(now);
    }
  }

  /// Fire the job cancellation once — deadline passed or CancelToken
  /// tripped: drop the queue, cancel busy workers, shut down parked
  /// ones. From here on the loop only drains — no assignment, no
  /// requeue, no all-dead error.
  void maybe_cancel(double now) {
    if (cancelled_ || remaining_ == 0) {
      return;
    }
    const char* reason = cancel_reason(now);
    if (reason == nullptr) {
      return;
    }
    cancelled_ = true;
    event(now, -1, -1, 0, reason);
    for (const int task : queue_) {
      task_states_[static_cast<std::size_t>(task)].queued = false;
    }
    queue_.clear();
    for (int w = 1; w < comm_.size(); ++w) {
      WorkerState& ws = workers_[static_cast<std::size_t>(w)];
      if (ws.phase == WPhase::Busy) {
        send_cancel(comm_, w);
        event(now, w, ws.task, ws.claim, "cancel");
      } else if (ws.phase == WPhase::Parked) {
        send_shutdown(comm_, w);
        ws.phase = WPhase::ShutdownSent;
        event(now, w, -1, 0, "shutdown");
      }
      // Unknown and Returning workers get their Shutdown when their
      // next Request arrives; Dead ones are swept after run_loop.
    }
  }

  bool finished() const {
    if (remaining_ > 0 && !cancelled_) {
      return false;
    }
    for (int w = 1; w < comm_.size(); ++w) {
      const WPhase phase = workers_[static_cast<std::size_t>(w)].phase;
      if (phase != WPhase::Dead && phase != WPhase::ShutdownSent) {
        return false;
      }
    }
    return true;
  }

  /// The [task_id][claim] prefix of a Done or Heartbeat from rank `w`. A
  /// task id outside the task list cannot come from a correct worker and
  /// would index past the task state.
  TaskHeader read_task_header(Reader& reader, int w) const {
    const TaskHeader header = parse_header(reader);
    if (header.task_id < 0 ||
        header.task_id >= static_cast<int>(task_states_.size())) {
      throw ClusterError("cluster master: rank " + std::to_string(w) +
                         " reported task id " +
                         std::to_string(header.task_id) + ", outside the " +
                         std::to_string(task_states_.size()) + "-task list");
    }
    return header;
  }

  void dispatch(const mp::RawMessage& msg, double now) {
    const int w = msg.source;
    WorkerState& ws = workers_[static_cast<std::size_t>(w)];
    ws.last_heard_s = now;
    switch (msg.tag) {
      case detail::kTagRequest: {
        if (ws.phase == WPhase::Dead) {
          resurrect(w, now);
        } else if (ws.phase == WPhase::Busy) {
          if (cancelled_) {
            // The worker abandoned its attempt at a progress() poll
            // after our Cancel — the expected drain handshake, not a
            // lost result.
            event(now, w, ws.task, ws.claim, "cancel-drain");
            end_attempt(ws.task, ws.claim, now);
          } else {
            // A busy worker asking for work means its Done never
            // reached us: the result is lost, the attempt is void.
            ++stats_.lost_results;
            event(now, w, ws.task, ws.claim, "lost-result");
            end_attempt(ws.task, ws.claim, now);
            requeue_if_needed(ws.task, now, /*front=*/true);
          }
        }
        ws.phase = WPhase::Parked;
        ws.task = -1;
        try_assign(w, now);
        break;
      }
      case detail::kTagDone: {
        Reader reader(msg.payload);
        const TaskHeader header = read_task_header(reader, w);
        // Keep the result as a zero-copy slice of the Done message.
        const std::uint32_t result_len = reader.u32();
        mp::Buffer result = msg.payload.slice(reader.pos(), result_len);
        if (ws.phase == WPhase::Dead) {
          resurrect(w, now);
        }
        end_attempt(header.task_id, header.claim, now);
        TaskState& ts = task_states_[static_cast<std::size_t>(header.task_id)];
        if (!ts.done) {
          ts.done = true;
          results_[static_cast<std::size_t>(header.task_id)] =
              std::move(result);
          --remaining_;
          event(now, w, header.task_id, header.claim, "done");
          // Backups of a finished task are superseded: first finisher
          // wins, later results are recorded as duplicates.
          for (Attempt& attempt : ts.attempts) {
            if (attempt.live) {
              end_attempt(header.task_id, attempt.claim, now);
            }
          }
        } else {
          event(now, w, header.task_id, header.claim, "dup-done");
        }
        ws.phase = WPhase::Returning;
        ws.task = -1;
        break;
      }
      case detail::kTagHeartbeat: {
        Reader reader(msg.payload);
        const TaskHeader header = read_task_header(reader, w);
        ++stats_.heartbeats;
        event(now, w, header.task_id, header.claim, "heartbeat");
        if (ws.phase == WPhase::Dead) {
          resurrect(w, now);
          // It is still crunching the task we wrote off; let it run as a
          // (possibly duplicated) live attempt again.
          TaskState& ts =
              task_states_[static_cast<std::size_t>(header.task_id)];
          if (!ts.done) {
            for (Attempt& attempt : ts.attempts) {
              if (attempt.claim == header.claim) {
                attempt.live = true;
              }
            }
          }
          ws.phase = WPhase::Busy;
          ws.task = header.task_id;
          ws.claim = header.claim;
        }
        break;
      }
      default:
        throw ClusterError("cluster master: unexpected tag " +
                           std::to_string(msg.tag) + " from rank " +
                           std::to_string(w));
    }
  }

  void resurrect(int w, double now) {
    WorkerState& ws = workers_[static_cast<std::size_t>(w)];
    ws.phase = WPhase::Parked;
    ++stats_.resurrections;
    --stats_.dead_workers;
    dead_.erase(std::remove(dead_.begin(), dead_.end(), w), dead_.end());
    event(now, w, -1, 0, "worker-back");
  }

  /// Mark the attempt identified by (task, claim) finished/void and
  /// record its lane segment in the schedule trace. `task` is a valid id:
  /// wire ids are checked by read_task_header.
  void end_attempt(int task, std::uint64_t claim, double now) {
    TaskState& ts = task_states_[static_cast<std::size_t>(task)];
    for (Attempt& attempt : ts.attempts) {
      if (attempt.claim == claim && attempt.live) {
        attempt.live = false;
        if (recorder_ != nullptr) {
          recorder_->record_chunk(attempt.worker, 0, task, task + 1, claim,
                                  attempt.assigned_s, now);
        }
      }
    }
  }

  void requeue_if_needed(int task, double now, bool front) {
    if (cancelled_) {
      return;  // nothing is re-executed after the job deadline
    }
    TaskState& ts = task_states_[static_cast<std::size_t>(task)];
    if (ts.done || ts.queued) {
      return;
    }
    for (const Attempt& attempt : ts.attempts) {
      if (attempt.live) {
        return;  // a backup is still running it
      }
    }
    if (static_cast<int>(ts.attempts.size()) >=
        options_.max_attempts_per_task) {
      throw ClusterError("cluster master: task " + std::to_string(task) +
                         " failed after " +
                         std::to_string(ts.attempts.size()) +
                         " attempts (max_attempts_per_task)");
    }
    if (front) {
      queue_.push_front(task);
    } else {
      queue_.push_back(task);
    }
    ts.queued = true;
    ++stats_.requeues;
    event(now, -1, task, 0, "requeue");
  }

  void check_timeouts(double now) {
    for (int w = 1; w < comm_.size(); ++w) {
      WorkerState& ws = workers_[static_cast<std::size_t>(w)];
      const bool expected_to_talk =
          ws.phase == WPhase::Busy || ws.phase == WPhase::Returning;
      if (expected_to_talk &&
          now - ws.last_heard_s > options_.heartbeat_timeout_s) {
        const int task = ws.task;
        const std::uint64_t claim = ws.claim;
        ws.phase = WPhase::Dead;
        ws.task = -1;
        ++stats_.dead_workers;
        dead_.push_back(w);
        event(now, w, task, claim, "worker-dead");
        if (task >= 0) {
          end_attempt(task, claim, now);
          requeue_if_needed(task, now, /*front=*/true);
        }
      }
    }
    if (options_.task_timeout_s > 0.0) {
      for (int t = 0; t < static_cast<int>(task_states_.size()); ++t) {
        TaskState& ts = task_states_[static_cast<std::size_t>(t)];
        if (ts.done) {
          continue;
        }
        for (Attempt& attempt : ts.attempts) {
          if (attempt.live &&
              now - attempt.assigned_s > options_.task_timeout_s) {
            event(now, attempt.worker, t, attempt.claim, "task-timeout");
            end_attempt(t, attempt.claim, now);
          }
        }
        requeue_if_needed(t, now, /*front=*/true);
      }
    }
  }

  /// Hand work to every parked worker: queued tasks first, then
  /// speculative duplicates of in-flight tasks, then (once everything is
  /// done) shutdowns.
  void drive_idle(double now) {
    for (int w = 1; w < comm_.size(); ++w) {
      if (workers_[static_cast<std::size_t>(w)].phase == WPhase::Parked) {
        try_assign(w, now);
      }
    }
  }

  void try_assign(int w, double now) {
    if (cancelled_) {
      // Every worker that reports in after the deadline leaves the
      // protocol; the queue was already dropped by maybe_cancel.
      send_shutdown(comm_, w);
      workers_[static_cast<std::size_t>(w)].phase = WPhase::ShutdownSent;
      event(now, w, -1, 0, "shutdown");
      return;
    }
    if (!queue_.empty()) {
      const int task = queue_.front();
      queue_.pop_front();
      task_states_[static_cast<std::size_t>(task)].queued = false;
      assign(w, task, /*speculative=*/false, now);
      return;
    }
    if (remaining_ == 0) {
      send_shutdown(comm_, w);
      workers_[static_cast<std::size_t>(w)].phase = WPhase::ShutdownSent;
      event(now, w, -1, 0, "shutdown");
      return;
    }
    // Speculation: duplicate the oldest in-flight task that is not
    // already at its live-attempt cap.
    int candidate = -1;
    double oldest = std::numeric_limits<double>::infinity();
    for (int t = 0; t < static_cast<int>(task_states_.size()); ++t) {
      const TaskState& ts = task_states_[static_cast<std::size_t>(t)];
      if (ts.done || ts.queued) {
        continue;
      }
      int live = 0;
      double first_assigned = std::numeric_limits<double>::infinity();
      for (const Attempt& attempt : ts.attempts) {
        if (attempt.live) {
          ++live;
          first_assigned = std::min(first_assigned, attempt.assigned_s);
        }
      }
      if (live >= 1 && live < options_.max_live_attempts &&
          now - first_assigned >= options_.speculation_age_s &&
          first_assigned < oldest) {
        oldest = first_assigned;
        candidate = t;
      }
    }
    if (candidate >= 0) {
      assign(w, candidate, /*speculative=*/true, now);
    }
    // Otherwise the worker stays parked; it gets work on the next
    // requeue or a shutdown once the run completes.
  }

  void assign(int w, int task, bool speculative, double now) {
    TaskState& ts = task_states_[static_cast<std::size_t>(task)];
    if (static_cast<int>(ts.attempts.size()) >=
        options_.max_attempts_per_task) {
      throw ClusterError("cluster master: task " + std::to_string(task) +
                         " failed after " +
                         std::to_string(ts.attempts.size()) +
                         " attempts (max_attempts_per_task)");
    }
    const std::uint64_t claim = ++claim_seq_;
    ts.attempts.push_back(Attempt{w, claim, now, true, speculative});
    WorkerState& ws = workers_[static_cast<std::size_t>(w)];
    ws.phase = WPhase::Busy;
    ws.task = task;
    ws.claim = claim;
    ws.last_heard_s = now;
    ++stats_.attempts;
    if (speculative) {
      ++stats_.speculative_attempts;
    }
    event(now, w, task, claim, speculative ? "spec-assign" : "assign");
    send_assign(comm_, w, task, claim, tasks_[static_cast<std::size_t>(task)]);
  }

  void check_liveness(double now) {
    if (remaining_ == 0 || cancelled_) {
      return;
    }
    for (int w = 1; w < comm_.size(); ++w) {
      const WPhase phase = workers_[static_cast<std::size_t>(w)].phase;
      if (phase != WPhase::Dead) {
        return;  // someone can still make progress (or might show up)
      }
    }
    std::ostringstream detail;
    detail << "cluster master: all " << (comm_.size() - 1)
           << " worker(s) dead with " << remaining_
           << " task(s) outstanding:";
    for (int t = 0; t < static_cast<int>(task_states_.size()); ++t) {
      if (!task_states_[static_cast<std::size_t>(t)].done) {
        detail << " " << t;
      }
    }
    detail << " (t=" << now << "s)";
    throw ClusterError(detail.str());
  }

  std::vector<int> dead_list() const {
    std::vector<int> dead = dead_;
    std::sort(dead.begin(), dead.end());
    return dead;
  }

  void finalize_profile() {
    stats_.makespan_s = now_rel();
    if (profile_ == nullptr) {
      return;
    }
    profile_->stats = stats_;
    profile_->dead_workers = dead_list();
    if (recorder_ != nullptr) {
      profile_->schedule = std::make_shared<const rt::RunProfile>(
          recorder_->finish(stats_.makespan_s));
    }
  }

  mp::Endpoint& comm_;
  const std::vector<std::vector<std::byte>>& tasks_;
  ClusterOptions options_;
  ClusterProfile* profile_;

  std::vector<mp::Buffer> results_;
  std::vector<TaskState> task_states_;
  std::vector<WorkerState> workers_;
  std::deque<int> queue_;
  std::vector<int> dead_;
  ClusterStats stats_;
  std::unique_ptr<rt::TraceRecorder> recorder_;
  std::uint64_t claim_seq_ = 0;
  int remaining_ = 0;
  double start_s_ = 0.0;
  bool cancelled_ = false;
  double last_checkpoint_s_ = 0.0;
  int checkpointed_done_ = 0;
};

// --- worker ------------------------------------------------------------------

/// Worker side: pull work, execute, report, heartbeat. Returns true if
/// an injected crash fault fired (the rank silently left the protocol).
/// Sets *job_cancelled when the worker abandoned an attempt after a
/// master Cancel (job deadline).
bool run_worker(mp::Endpoint& comm, const TaskFn& task_fn,
                const ClusterOptions& options, const FaultPlan* faults,
                bool* job_cancelled) {
  const int rank = comm.rank();
  // Polling the Cancel channel costs a scheduler yield per progress()
  // call on the Sim transport, so it is armed only when the run can
  // actually be cancelled (a deadline is set or a CancelToken is
  // connected) — uncancellable runs stay byte-identical.
  const bool cancellable =
      options.job_deadline_s > 0.0 || options.cancel.valid();
  const CrashFault* crash = faults ? faults->crash_for(rank) : nullptr;
  const double slowdown = faults ? faults->slowdown_for(rank) : 1.0;
  const bool jitter = faults != nullptr && faults->delay_jitter_s > 0.0;
  util::Rng delay_rng(jitter ? faults->seed ^
                                   (0x9E3779B97F4A7C15ULL *
                                    static_cast<std::uint64_t>(rank + 1))
                             : 0);
  auto maybe_delay = [&] {
    if (jitter) {
      comm.charge_seconds(delay_rng.uniform(0.0, faults->delay_jitter_s));
    }
  };

  int started_tasks = 0;
  int done_sent = 0;
  try {
    for (;;) {
      maybe_delay();
      send_request(comm);
      mp::RawMessage msg;
      do {
        // A Cancel that raced our Done (or one consumed by nobody
        // because the attempt finished first) may still sit in the
        // inbox; the master always follows it with a Shutdown, so
        // stale Cancels are simply discarded here.
        msg = comm.recv_raw(0, mp::kAnyTag);
      } while (msg.tag == detail::kTagCancel);
      if (msg.tag == detail::kTagShutdown) {
        return false;
      }
      util::ensure(msg.tag == detail::kTagAssign,
                   "cluster worker: unexpected tag from master");
      Reader reader(msg.payload);
      const TaskHeader header = parse_header(reader);
      // Zero-copy: the task body reads the payload straight out of the
      // assignment message (msg stays alive across the call).
      const mp::ByteView payload = reader.blob_view();

      const bool crash_this =
          crash != nullptr && started_tasks == crash->nth_task;
      ++started_tasks;
      double last_heartbeat_s = comm.now();
      TaskContext ctx(
          rank, header.task_id,
          [&](double ops) { comm.charge_ops(ops * slowdown); },
          [&] {
            if (crash_this) {
              throw WorkerCrashSignal{};
            }
            if (cancellable) {
              mp::RawMessage cancel_msg;
              if (comm.recv_raw_timed(0, detail::kTagCancel, 0.0,
                                      &cancel_msg)) {
                throw WorkerCancelSignal{};
              }
            }
            const double now = comm.now();
            if (now - last_heartbeat_s >= options.heartbeat_interval_s) {
              maybe_delay();
              send_heartbeat(comm, header.task_id, header.claim);
              last_heartbeat_s = comm.now();
            }
          });
      std::vector<std::byte> result = task_fn(ctx, header.task_id, payload);
      if (crash_this) {
        // The task body never called progress(): still crash before the
        // result escapes, so the failure is observable.
        throw WorkerCrashSignal{};
      }
      const bool drop =
          faults != nullptr && faults->should_drop(rank, done_sent);
      ++done_sent;
      if (!drop) {
        maybe_delay();
        send_done(comm, header.task_id, header.claim, result);
      }
    }
  } catch (const WorkerCrashSignal&) {
    // Fail-stop: abandon the protocol. The rank's thread lives on so
    // SPMD code after the engine (collectives) still runs.
    return true;
  } catch (const WorkerCancelSignal&) {
    // Cooperative stop at a progress() boundary. Tell the master the
    // attempt is abandoned (a Request from a busy worker) and wait for
    // the Shutdown it answers a cancelled worker with.
    send_request(comm);
    for (;;) {
      const mp::RawMessage msg = comm.recv_raw(0, mp::kAnyTag);
      if (msg.tag == detail::kTagShutdown) {
        break;
      }
    }
    if (job_cancelled != nullptr) {
      *job_cancelled = true;
    }
    return false;
  }
}

}  // namespace

// --- public surface ----------------------------------------------------------

int ClusterCheckpoint::task_count() const {
  return checkpoint_header(*this).task_count;
}

int ClusterCheckpoint::completed_tasks() const {
  return checkpoint_header(*this).done_count;
}

void ClusterOptions::validate() const {
  util::require(std::isfinite(heartbeat_interval_s) &&
                    std::isfinite(heartbeat_timeout_s) &&
                    heartbeat_interval_s > 0.0 &&
                    heartbeat_timeout_s > heartbeat_interval_s,
                "ClusterOptions: need 0 < heartbeat_interval_s < "
                "heartbeat_timeout_s, both finite");
  util::require(std::isfinite(task_timeout_s) && task_timeout_s >= 0.0,
                "ClusterOptions: task_timeout_s must be finite and >= 0");
  util::require(std::isfinite(speculation_age_s) && speculation_age_s >= 0.0,
                "ClusterOptions: speculation_age_s must be finite and >= 0");
  util::require(std::isfinite(tick_s) && tick_s >= 0.0,
                "ClusterOptions: tick_s must be finite and >= 0");
  util::require(std::isfinite(job_deadline_s) && job_deadline_s >= 0.0,
                "ClusterOptions: job_deadline_s must be finite and >= 0 "
                "(0 = no deadline)");
  util::require(max_live_attempts >= 1 && max_attempts_per_task >= 1,
                "ClusterOptions: attempt limits must be >= 1");
  reliability.validate();
  util::require(
      std::isfinite(checkpoint_interval_s) && checkpoint_interval_s >= 0.0,
      "ClusterOptions: checkpoint_interval_s must be finite and >= 0");
  util::require(on_checkpoint == nullptr || checkpoint_interval_s > 0.0,
                "ClusterOptions: checkpointing is armed (on_checkpoint "
                "set) but checkpoint_interval_s is <= 0");
  if (restart_from != nullptr) {
    checkpoint_header(*restart_from);
  }
}

namespace detail {

ClusterRunResult run_engine(mp::Endpoint& comm,
                            const std::vector<std::vector<std::byte>>& tasks,
                            const TaskFn& task_fn,
                            const ClusterOptions& options,
                            const FaultPlan* faults, ClusterProfile* profile) {
  util::require(task_fn != nullptr,
                "run_cluster_tasks: task body must be callable");
  options.validate();
  if (faults != nullptr) {
    faults->validate();
  }
  if (comm.rank() == 0) {
    Master master(comm, tasks, options, profile);
    ClusterRunResult result = master.run(task_fn);
    if (profile != nullptr) {
      // Snapshot every rank's outbound wire counters into the profile
      // schema (zombie stragglers may still add a little after this).
      profile->wire_messages.clear();
      profile->wire_bytes.clear();
      for (int r = 0; r < comm.size(); ++r) {
        const mp::WireStats wire = comm.wire_stats(r);
        profile->wire_messages.push_back(wire.messages);
        profile->wire_bytes.push_back(wire.bytes);
      }
    }
    return result;
  }
  ClusterRunResult result;
  result.crashed =
      run_worker(comm, task_fn, options, faults, &result.job_cancelled);
  return result;
}

ReliabilityScope::ReliabilityScope(mp::Endpoint& comm,
                                   const ReliabilityOptions& options)
    : comm_(comm) {
  if (options.enabled) {
    reliable_.emplace(comm, options);
  }
}

mp::Endpoint& ReliabilityScope::endpoint() {
  if (reliable_.has_value()) {
    return *reliable_;
  }
  return comm_;
}

void ReliabilityScope::close(bool drain, ClusterProfile* profile) {
  if (!reliable_.has_value()) {
    return;
  }
  if (drain) {
    reliable_->flush();
  }
  if (profile != nullptr && comm_.rank() == 0) {
    profile->retry = reliable_->retry_stats();
  }
}

}  // namespace detail

ClusterRunResult run_cluster_tasks(
    mp::Endpoint& comm, const std::vector<std::vector<std::byte>>& tasks,
    const TaskFn& task_fn, const ClusterOptions& options,
    const FaultPlan* faults, ClusterProfile* profile) {
  detail::ReliabilityScope scope(comm, options.reliability);
  ClusterRunResult result = detail::run_engine(scope.endpoint(), tasks,
                                               task_fn, options, faults,
                                               profile);
  // A crashed worker is fail-stop and must not linger retransmitting.
  scope.close(/*drain=*/!result.crashed, profile);
  return result;
}

std::string ClusterProfile::event_log() const {
  std::ostringstream os;
  os << std::fixed << std::setprecision(6);
  for (const ClusterEvent& e : events) {
    os << "[" << std::setw(12) << e.t_s << "] ";
    if (e.worker >= 0) {
      os << "w" << e.worker;
    } else {
      os << "--";
    }
    os << " ";
    if (e.task >= 0) {
      os << "t" << e.task;
    } else {
      os << "--";
    }
    os << " ";
    if (e.claim > 0) {
      os << "c" << e.claim;
    } else {
      os << "--";
    }
    os << " " << e.kind << "\n";
  }
  return os.str();
}

std::string ClusterProfile::summary() const {
  std::ostringstream os;
  os << std::fixed << std::setprecision(3);
  os << "cluster run: " << stats.tasks << " task(s) on " << stats.workers
     << " worker(s), " << stats.attempts << " attempt(s) ("
     << stats.speculative_attempts << " speculative), " << stats.requeues
     << " requeue(s), " << stats.lost_results << " lost result(s), "
     << stats.dead_workers << " dead worker(s)";
  if (stats.resurrections > 0) {
    os << " (" << stats.resurrections << " came back)";
  }
  if (stats.cancelled_tasks > 0) {
    os << ", " << stats.cancelled_tasks
       << " task(s) cancelled at the job deadline";
  }
  if (stats.restored_tasks > 0) {
    os << ", " << stats.restored_tasks
       << " task(s) restored from a checkpoint";
  }
  if (stats.checkpoints > 0) {
    os << ", " << stats.checkpoints << " checkpoint(s) taken";
  }
  if (retry.retransmits > 0 || retry.abandoned > 0 ||
      retry.duplicates_dropped > 0) {
    os << ", reliability: " << retry.retransmits << " retransmit(s), "
       << retry.duplicates_dropped << " duplicate(s) dropped, "
       << retry.abandoned << " abandoned";
  }
  os << ", " << stats.heartbeats << " heartbeat(s); results complete at "
     << stats.completion_s * 1e3 << " ms, engine wound down at "
     << stats.makespan_s * 1e3 << " ms";
  if (!dead_workers.empty()) {
    os << "; dead:";
    for (const int w : dead_workers) {
      os << " w" << w;
    }
  }
  os << "\n";
  return os.str();
}

std::string ClusterProfile::to_json() const {
  std::ostringstream os;
  os << std::setprecision(17);
  os << "{\"schema\":\"pblpar.cluster.v1\",\"stats\":{"
     << "\"tasks\":" << stats.tasks << ",\"workers\":" << stats.workers
     << ",\"attempts\":" << stats.attempts
     << ",\"speculative_attempts\":" << stats.speculative_attempts
     << ",\"requeues\":" << stats.requeues
     << ",\"lost_results\":" << stats.lost_results
     << ",\"dead_workers\":" << stats.dead_workers
     << ",\"resurrections\":" << stats.resurrections
     << ",\"heartbeats\":" << stats.heartbeats
     << ",\"cancelled_tasks\":" << stats.cancelled_tasks
     << ",\"checkpoints\":" << stats.checkpoints
     << ",\"restored_tasks\":" << stats.restored_tasks
     << ",\"completion_s\":" << stats.completion_s
     << ",\"makespan_s\":" << stats.makespan_s << "},\"retry\":{"
     << "\"data_sent\":" << retry.data_sent
     << ",\"fire_and_forget_sent\":" << retry.fire_and_forget_sent
     << ",\"retransmits\":" << retry.retransmits
     << ",\"abandoned\":" << retry.abandoned
     << ",\"acks_sent\":" << retry.acks_sent
     << ",\"acks_received\":" << retry.acks_received
     << ",\"duplicates_dropped\":" << retry.duplicates_dropped
     << ",\"out_of_order_stashed\":" << retry.out_of_order_stashed
     << "},\"wire\":{"
     << "\"messages\":[";
  for (std::size_t i = 0; i < wire_messages.size(); ++i) {
    os << (i > 0 ? "," : "") << wire_messages[i];
  }
  os << "],\"bytes\":[";
  for (std::size_t i = 0; i < wire_bytes.size(); ++i) {
    os << (i > 0 ? "," : "") << wire_bytes[i];
  }
  os << "]},\"dead_workers\":[";
  for (std::size_t i = 0; i < dead_workers.size(); ++i) {
    os << (i > 0 ? "," : "") << dead_workers[i];
  }
  os << "],\"events\":[";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const ClusterEvent& e = events[i];
    os << (i > 0 ? "," : "") << "{\"t_s\":" << e.t_s
       << ",\"worker\":" << e.worker << ",\"task\":" << e.task
       << ",\"claim\":" << e.claim << ",\"kind\":\"";
    json_escape(os, e.kind);
    os << "\"}";
  }
  os << "]}";
  return os.str();
}

SimClusterRun run_sim_cluster(int nodes,
                              const std::vector<std::vector<std::byte>>& tasks,
                              const TaskFn& task_fn,
                              const ClusterOptions& options,
                              const FaultPlan* faults, mp::ClusterSpec spec) {
  util::require(nodes >= 1, "run_sim_cluster: need at least one node");
  // An armed transport-chaos plan in the fault plan is wired into the
  // simulated cluster spec, so the whole rank body (engine protocol plus
  // the collectives a driver runs after it) sees the same lossy wire.
  if (faults != nullptr && faults->transport.armed()) {
    util::require(!spec.chaos.armed(),
                  "run_sim_cluster: transport chaos given both in the "
                  "FaultPlan and the ClusterSpec — pick one");
    spec.chaos = faults->transport;
  }
  SimClusterRun run;
  try {
    run.report = mp::SimWorld::run(
        nodes,
        [&](mp::SimComm& comm) {
          ClusterRunResult result = run_cluster_tasks(
              comm, tasks, task_fn, options, faults,
              comm.rank() == 0 ? &run.profile : nullptr);
          if (result.is_master) {
            run.results = std::move(result.results);
            run.dead_workers = std::move(result.dead_workers);
            run.job_cancelled = result.job_cancelled;
            run.incomplete_tasks = std::move(result.incomplete_tasks);
          }
        },
        spec);
  } catch (const sim::DeadlockError& error) {
    // A correct engine run never deadlocks (the master polls with a
    // timed receive); surface whatever went wrong as a cluster failure
    // instead of a bare machine error.
    throw ClusterError(std::string("cluster run deadlocked: ") +
                       error.what());
  }
  return run;
}

}  // namespace pblpar::cluster

#pragma once

#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/observer.hpp"
#include "sim/report.hpp"
#include "sim/spec.hpp"

namespace pblpar::sim {

class Machine;

namespace detail {
class Fiber;
}  // namespace detail

/// Thrown out of Machine::run when every virtual thread is blocked and no
/// modelled work remains — i.e., the simulated program deadlocked.
class DeadlockError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Internal unwinding signal used to tear down virtual threads when a run
/// aborts (deadlock, or an exception escaped another thread's body). User
/// code should not catch this; catch-all handlers in thread bodies must
/// rethrow it.
class Aborted : public std::exception {
 public:
  const char* what() const noexcept override {
    return "pblpar::sim::Aborted: simulation run is shutting down";
  }
};

/// Opaque handle to a simulated mutex. Create via Machine::make_mutex.
struct MutexHandle {
  int id = -1;
};

/// Opaque handle to a simulated cyclic barrier. Create via
/// Machine::make_barrier.
struct BarrierHandle {
  int id = -1;
};

/// Opaque handle to a simulated condition variable. Create via
/// Machine::make_condition.
struct ConditionHandle {
  int id = -1;
};

/// Opaque handle to a virtual thread, returned by Context::spawn.
struct ThreadHandle {
  int tid = -1;
};

/// Per-virtual-thread facade through which simulated code interacts with
/// the machine. A Context is only valid inside the body it was passed to.
class Context {
 public:
  /// Identifier of this virtual thread (0 is the root).
  int tid() const { return tid_; }

  /// Current virtual time in seconds.
  double now() const;

  Machine& machine() { return *machine_; }
  const MachineSpec& spec() const;

  /// Charge `ops` abstract operations of modelled work to this thread.
  /// `mem_intensity` in [0,1] scales the shared-memory contention penalty
  /// (0 = pure compute, 1 = fully memory-bound).
  void compute(double ops, double mem_intensity = 0.0);

  /// Convenience: charge a fixed latency expressed in microseconds.
  void compute_us(double us, double mem_intensity = 0.0);

  /// Start a new virtual thread running `body`. Charges the parent the
  /// machine's fork cost.
  ThreadHandle spawn(std::function<void(Context&)> body);

  /// Block until `child` finishes; charges the machine's join cost.
  void join(ThreadHandle child);

  /// Block until all participants of the barrier arrive.
  void barrier(BarrierHandle handle);

  /// Acquire / release a simulated mutex (FIFO fairness).
  void lock(MutexHandle handle);
  void unlock(MutexHandle handle);

  /// Atomically release `mutex` and block on `condition`; on wake the
  /// mutex is re-acquired before returning (like std::condition_variable,
  /// so spurious-wakeup-safe callers should re-check their predicate).
  void wait(ConditionHandle condition, MutexHandle mutex);

  /// Like wait(), but gives up once virtual time reaches `deadline_s`
  /// (absolute, seconds). Returns true if notified, false on timeout; the
  /// mutex is re-acquired before returning either way. A deadline at or
  /// before now() still releases the mutex and yields once, so peers can
  /// run, then times out immediately.
  bool wait_until(ConditionHandle condition, MutexHandle mutex,
                  double deadline_s);

  /// Wake one / all waiters of the condition. The caller need not hold
  /// the associated mutex (as with std::condition_variable).
  void notify_one(ConditionHandle condition);
  void notify_all(ConditionHandle condition);

  /// Yield real-code execution to another runnable virtual thread without
  /// consuming virtual time (useful to interleave annotated accesses).
  void yield();

  /// Forward annotated memory accesses to the attached HbObserver
  /// (no-ops when no observer is attached).
  void annotate_read(const void* addr, std::size_t size);
  void annotate_write(const void* addr, std::size_t size);

 private:
  friend class Machine;
  Context(Machine& machine, int tid) : machine_(&machine), tid_(tid) {}

  Machine* machine_;
  int tid_;
};

/// RAII lock for a simulated mutex (CP.20: never plain lock/unlock).
class ScopedLock {
 public:
  ScopedLock(Context& ctx, MutexHandle handle) : ctx_(&ctx), handle_(handle) {
    ctx_->lock(handle_);
  }
  /// Unlock must never throw out of a destructor: when the machine is
  /// aborting, Context::unlock itself raises Aborted, and this destructor
  /// often runs while another Aborted (thrown from a blocking call made
  /// under the lock) is already unwinding — a second throw would be
  /// std::terminate. The machine resets all mutex state between runs, so
  /// swallowing the teardown signal here loses nothing.
  ~ScopedLock() {
    try {
      ctx_->unlock(handle_);
    } catch (const Aborted&) {
    }
  }
  ScopedLock(const ScopedLock&) = delete;
  ScopedLock& operator=(const ScopedLock&) = delete;

 private:
  Context* ctx_;
  MutexHandle handle_;
};

/// Deterministic discrete-event simulator of a small shared-memory
/// multicore machine.
///
/// Execution model: virtual threads run their real C++ bodies serialized
/// (one at a time, FIFO), so results are deterministic even for
/// "dynamic" scheduling; virtual *time* advances only when every live
/// thread is blocked on modelled work or synchronization. Modelled work
/// drains under generalized processor sharing across `spec.cores` cores,
/// with oversubscription and memory-contention penalties (see MachineSpec).
///
/// Each virtual thread is a fiber on the host thread that calls run(),
/// with a detail::kFiberStackBytes stack above a guard page; run() loops,
/// resuming whichever thread the scheduler picks.
///
/// A Machine is reusable: each call to run() starts a fresh virtual clock.
/// Machines are not themselves thread-safe; drive a given instance from
/// one host thread. A virtual thread may run() another Machine.
class Machine {
 public:
  explicit Machine(MachineSpec spec = MachineSpec::raspberry_pi_3bplus());
  ~Machine();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  const MachineSpec& spec() const { return spec_; }

  /// Attach a happens-before observer (e.g., the race detector). Must be
  /// called outside run(). Pass nullptr to detach. Not owned.
  void set_observer(HbObserver* observer);

  /// Create synchronization objects (usable across runs).
  MutexHandle make_mutex();
  BarrierHandle make_barrier(int participants);
  ConditionHandle make_condition();

  /// Execute `root` as virtual thread 0 and simulate until every spawned
  /// thread finishes. Throws DeadlockError on deadlock and rethrows the
  /// first exception that escapes any thread body.
  ExecutionReport run(std::function<void(Context&)> root);

 private:
  friend class Context;

  enum class Phase {
    ReadyReal,    // waiting to execute real code
    RealRunning,  // executing real code right now (at most one thread)
    WaitCompute,  // draining modelled work in virtual time
    WaitBarrier,
    WaitMutex,
    WaitJoin,
    WaitCondition,
    Done,
  };

  struct ThreadState {
    int tid = -1;
    Phase phase = Phase::ReadyReal;
    double demand_ops = 0.0;
    double mem_intensity = 0.0;
    std::function<void(Context&)> body;
    std::vector<int> joiners;
    bool timed_out = false;  // set when a wait_until expired, not notified
    // Created at the thread's first resume, released once it is Done.
    std::unique_ptr<detail::Fiber> fiber;
  };

  struct MutexState {
    int owner = -1;  // -1 = free
    std::deque<int> waiters;
  };

  struct BarrierState {
    int participants = 0;
    std::vector<int> arrived;
  };

  struct ConditionWaiter {
    int tid = -1;
    int mutex_id = -1;  // re-acquired on wake
    double deadline_s = 0.0;  // +inf for untimed waits
  };

  struct ConditionState {
    std::deque<ConditionWaiter> waiters;
  };

  ThreadState& state_of(int tid);
  bool all_done() const;
  int live_thread_count() const;
  void enqueue_ready(int tid);
  void schedule_next();
  void advance_virtual_time();
  double next_wait_deadline() const;
  void expire_timed_waits();
  void begin_wait_and_reschedule(int tid);
  void charge(int tid, double ops, double mem_intensity);
  void finish_thread(int tid);
  void check_abort() const;

  // run()'s side: resume fibers until every thread is done.
  void run_fibers();
  void resume(ThreadState& thread);
  static void fiber_main(void* machine);

  // Entry points used by Context; the blocking ones switch back to run().
  void api_compute(int tid, double ops, double mem_intensity);
  ThreadHandle api_spawn(int parent, std::function<void(Context&)> body);
  void api_join(int tid, ThreadHandle child);
  void api_barrier(int tid, BarrierHandle handle);
  void api_lock(int tid, MutexHandle handle);
  void api_unlock(int tid, MutexHandle handle);
  void api_wait(int tid, ConditionHandle condition, MutexHandle mutex);
  bool api_wait_until(int tid, ConditionHandle condition, MutexHandle mutex,
                      double deadline_s);
  void api_notify(ConditionHandle condition, bool all);
  void api_yield(int tid);
  void unlock_mutex(int tid, int mutex_id);
  void enqueue_for_mutex(int tid, int mutex_id);

  MachineSpec spec_;
  HbObserver* observer_ = nullptr;
  detail::Fiber* caller_ = nullptr;  // the caller of run(), while it runs

  std::vector<std::unique_ptr<ThreadState>> threads_;
  std::deque<int> ready_real_;
  int running_real_ = -1;
  double now_s_ = 0.0;
  bool running_run_ = false;
  bool aborted_ = false;
  bool deadlocked_ = false;
  std::string deadlock_detail_;
  std::exception_ptr first_exception_;

  std::vector<MutexState> mutexes_;
  std::vector<BarrierState> barriers_;
  std::vector<ConditionState> conditions_;

  // Report accumulation for the current run.
  std::vector<double> busy_s_;
  double total_ops_ = 0.0;
  std::uint64_t spawns_ = 0;
  std::uint64_t joins_ = 0;
  std::uint64_t barrier_episodes_ = 0;
  std::uint64_t mutex_acquires_ = 0;
  std::uint64_t compute_calls_ = 0;
  std::vector<TraceSegment> trace_;
};

}  // namespace pblpar::sim

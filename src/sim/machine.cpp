#include "sim/machine.hpp"

#include <algorithm>
#include <limits>
#include <sstream>

#include "sim/fiber.hpp"
#include "util/error.hpp"

namespace pblpar::sim {

namespace {

/// Demands at or below this many abstract ops count as drained
/// (well below one core cycle).
constexpr double kEpsilonOps = 1e-6;

const char* phase_name(int phase_index) {
  static const char* names[] = {"ready",      "running",        "compute",
                                "wait-barrier", "wait-mutex",   "wait-join",
                                "wait-condition", "done"};
  return names[phase_index];
}

}  // namespace

// ---------------------------------------------------------------------------
// Context
// ---------------------------------------------------------------------------

double Context::now() const { return machine_->now_s_; }

const MachineSpec& Context::spec() const { return machine_->spec(); }

void Context::compute(double ops, double mem_intensity) {
  machine_->api_compute(tid_, ops, mem_intensity);
}

void Context::compute_us(double us, double mem_intensity) {
  machine_->api_compute(tid_, machine_->spec().us_to_ops(us), mem_intensity);
}

ThreadHandle Context::spawn(std::function<void(Context&)> body) {
  return machine_->api_spawn(tid_, std::move(body));
}

void Context::join(ThreadHandle child) { machine_->api_join(tid_, child); }

void Context::barrier(BarrierHandle handle) {
  machine_->api_barrier(tid_, handle);
}

void Context::lock(MutexHandle handle) { machine_->api_lock(tid_, handle); }

void Context::unlock(MutexHandle handle) {
  machine_->api_unlock(tid_, handle);
}

void Context::wait(ConditionHandle condition, MutexHandle mutex) {
  machine_->api_wait(tid_, condition, mutex);
}

bool Context::wait_until(ConditionHandle condition, MutexHandle mutex,
                         double deadline_s) {
  return machine_->api_wait_until(tid_, condition, mutex, deadline_s);
}

void Context::notify_one(ConditionHandle condition) {
  machine_->api_notify(condition, /*all=*/false);
}

void Context::notify_all(ConditionHandle condition) {
  machine_->api_notify(condition, /*all=*/true);
}

void Context::yield() { machine_->api_yield(tid_); }

void Context::annotate_read(const void* addr, std::size_t size) {
  if (machine_->observer_ != nullptr) {
    machine_->observer_->on_read(tid_, addr, size);
  }
}

void Context::annotate_write(const void* addr, std::size_t size) {
  if (machine_->observer_ != nullptr) {
    machine_->observer_->on_write(tid_, addr, size);
  }
}

// ---------------------------------------------------------------------------
// Machine: construction & configuration
// ---------------------------------------------------------------------------

Machine::Machine(MachineSpec spec) : spec_(std::move(spec)) {
  util::require(spec_.cores >= 1, "Machine: spec.cores must be >= 1");
  util::require(spec_.clock_ghz > 0.0, "Machine: spec.clock_ghz must be > 0");
}

Machine::~Machine() = default;

void Machine::set_observer(HbObserver* observer) {
  util::require(!running_run_,
                "Machine::set_observer: cannot change observer mid-run");
  observer_ = observer;
}

MutexHandle Machine::make_mutex() {
  mutexes_.push_back(MutexState{});
  return MutexHandle{static_cast<int>(mutexes_.size()) - 1};
}

BarrierHandle Machine::make_barrier(int participants) {
  util::require(participants >= 1,
                "Machine::make_barrier: need at least one participant");
  barriers_.push_back(BarrierState{participants, {}});
  return BarrierHandle{static_cast<int>(barriers_.size()) - 1};
}

ConditionHandle Machine::make_condition() {
  conditions_.push_back(ConditionState{});
  return ConditionHandle{static_cast<int>(conditions_.size()) - 1};
}

// ---------------------------------------------------------------------------
// Machine: run loop
// ---------------------------------------------------------------------------

ExecutionReport Machine::run(std::function<void(Context&)> root) {
  util::require(root != nullptr, "Machine::run: root body must be callable");
  util::require(!running_run_, "Machine::run: already running");

  threads_.clear();
  ready_real_.clear();
  running_real_ = -1;
  now_s_ = 0.0;
  aborted_ = false;
  deadlocked_ = false;
  deadlock_detail_.clear();
  first_exception_ = nullptr;
  busy_s_.clear();
  total_ops_ = 0.0;
  spawns_ = joins_ = barrier_episodes_ = mutex_acquires_ = compute_calls_ = 0;
  trace_.clear();
  for (auto& mutex : mutexes_) {
    mutex = MutexState{};
  }
  for (auto& barrier : barriers_) {
    barrier.arrived.clear();
  }
  for (auto& condition : conditions_) {
    condition.waiters.clear();
  }
  running_run_ = true;

  auto root_state = std::make_unique<ThreadState>();
  root_state->tid = 0;
  root_state->phase = Phase::ReadyReal;
  root_state->body = std::move(root);
  threads_.push_back(std::move(root_state));
  busy_s_.push_back(0.0);
  enqueue_ready(0);

  detail::Fiber caller;
  caller_ = &caller;
  schedule_next();
  run_fibers();
  caller_ = nullptr;
  running_run_ = false;

  ExecutionReport report;
  report.spec = spec_;
  report.makespan_s = now_s_;
  report.total_ops = total_ops_;
  report.busy_s = busy_s_;
  report.spawns = spawns_;
  report.joins = joins_;
  report.barrier_episodes = barrier_episodes_;
  report.mutex_acquires = mutex_acquires_;
  report.compute_calls = compute_calls_;
  report.trace = std::move(trace_);

  if (deadlocked_) {
    throw DeadlockError("simulated deadlock: " + deadlock_detail_);
  }
  if (first_exception_ != nullptr) {
    std::rethrow_exception(first_exception_);
  }
  return report;
}

void Machine::run_fibers() {
  // Every switch back here leaves either a thread picked to run next, an
  // abort, or every thread done.
  while (running_real_ != -1 && !aborted_) {
    resume(state_of(running_real_));
  }
  if (aborted_) {
    // Unwind every live fiber with Aborted, so no stack is released while
    // it still holds frames. Threads that never started just end.
    for (auto& thread : threads_) {
      while (thread->phase != Phase::Done) {
        if (thread->fiber == nullptr) {
          finish_thread(thread->tid);
        } else {
          resume(*thread);
        }
      }
    }
  }
  util::ensure(all_done(), "Machine::run: stopped with live threads");
}

void Machine::resume(ThreadState& thread) {
  if (thread.fiber == nullptr) {
    try {
      thread.fiber = std::make_unique<detail::Fiber>(&Machine::fiber_main,
                                                     this);
    } catch (...) {
      // No stack for the thread: fail the run as if its body had thrown.
      if (first_exception_ == nullptr) {
        first_exception_ = std::current_exception();
      }
      aborted_ = true;
      return;
    }
  }
  caller_->switch_to(*thread.fiber);
  if (thread.phase == Phase::Done) {
    thread.fiber.reset();  // back to the stack cache
  }
}

void Machine::fiber_main(void* machine) {
  Machine& self = *static_cast<Machine*>(machine);
  // A fiber first runs when the scheduler picks its thread.
  const int tid = self.running_real_;
  Context ctx(self, tid);
  try {
    self.state_of(tid).body(ctx);
  } catch (const Aborted&) {
    // Normal teardown of an aborted run.
  } catch (...) {
    if (self.first_exception_ == nullptr) {
      self.first_exception_ = std::current_exception();
    }
    self.aborted_ = true;
  }
  self.finish_thread(tid);
}

// ---------------------------------------------------------------------------
// Machine: scheduling core
// ---------------------------------------------------------------------------

Machine::ThreadState& Machine::state_of(int tid) {
  util::ensure(tid >= 0 && tid < static_cast<int>(threads_.size()),
               "Machine: invalid tid");
  return *threads_[static_cast<std::size_t>(tid)];
}

bool Machine::all_done() const {
  return std::all_of(threads_.begin(), threads_.end(), [](const auto& t) {
    return t->phase == Phase::Done;
  });
}

int Machine::live_thread_count() const {
  return static_cast<int>(
      std::count_if(threads_.begin(), threads_.end(), [](const auto& t) {
        return t->phase != Phase::Done;
      }));
}

void Machine::enqueue_ready(int tid) { ready_real_.push_back(tid); }

void Machine::schedule_next() {
  if (aborted_) {
    return;
  }
  if (running_real_ != -1) {
    return;  // a thread is still executing real code
  }
  while (ready_real_.empty()) {
    if (all_done()) {
      return;
    }
    advance_virtual_time();
    if (aborted_) {
      return;
    }
  }
  const int next = ready_real_.front();
  ready_real_.pop_front();
  ThreadState& state = state_of(next);
  util::ensure(state.phase == Phase::ReadyReal,
               "Machine: ready queue held a non-ready thread");
  state.phase = Phase::RealRunning;
  running_real_ = next;
}

void Machine::advance_virtual_time() {
  std::vector<int> computing;
  for (const auto& thread : threads_) {
    if (thread->phase == Phase::WaitCompute) {
      computing.push_back(thread->tid);
    }
  }
  const double next_deadline = next_wait_deadline();
  if (computing.empty()) {
    if (next_deadline < std::numeric_limits<double>::infinity()) {
      // No modelled work remains, but a timed wait can still fire: jump
      // the clock to the earliest deadline and expire it.
      now_s_ = std::max(now_s_, next_deadline);
      expire_timed_waits();
      return;
    }
    // Live threads exist (caller checked all_done) but none can make
    // progress: every live thread waits on a barrier/mutex/join that will
    // never be signalled.
    std::ostringstream detail;
    detail << live_thread_count() << " live thread(s) blocked forever:";
    for (const auto& thread : threads_) {
      if (thread->phase != Phase::Done) {
        detail << " tid" << thread->tid << "="
               << phase_name(static_cast<int>(thread->phase));
      }
    }
    deadlocked_ = true;
    deadlock_detail_ = detail.str();
    aborted_ = true;
    return;
  }

  // Generalized processor sharing across spec_.cores cores.
  const double runnable = static_cast<double>(computing.size());
  const double cores = static_cast<double>(spec_.cores);
  const double share = std::min(1.0, cores / runnable);
  const double oversub =
      1.0 / (1.0 + spec_.oversub_penalty *
                       std::max(0.0, runnable - cores) / cores);
  const double active = std::min(runnable, cores);

  std::vector<double> rates(computing.size());
  double min_dt = -1.0;
  for (std::size_t i = 0; i < computing.size(); ++i) {
    const ThreadState& state = state_of(computing[i]);
    const double slowdown =
        1.0 + spec_.mem_contention_beta * state.mem_intensity * (active - 1.0);
    rates[i] = spec_.ops_per_second() * share * oversub / slowdown;
    const double dt = std::max(0.0, state.demand_ops) / rates[i];
    if (min_dt < 0.0 || dt < min_dt) {
      min_dt = dt;
    }
  }

  // A pending wait_until deadline caps the step so it fires on time.
  if (next_deadline < std::numeric_limits<double>::infinity()) {
    min_dt = std::min(min_dt, std::max(0.0, next_deadline - now_s_));
  }

  now_s_ += min_dt;
  for (std::size_t i = 0; i < computing.size(); ++i) {
    ThreadState& state = state_of(computing[i]);
    const double drained = rates[i] * min_dt;
    state.demand_ops -= drained;
    // Busy time is core occupancy: an oversubscribed thread only holds a
    // `share` fraction of a core while it drains.
    busy_s_[static_cast<std::size_t>(state.tid)] += min_dt * share;
    if (spec_.record_trace && min_dt > 0.0) {
      trace_.push_back(
          TraceSegment{state.tid, now_s_ - min_dt, now_s_, drained});
    }
    if (state.demand_ops <= kEpsilonOps) {
      state.demand_ops = 0.0;
      state.phase = Phase::ReadyReal;
      enqueue_ready(state.tid);
    }
  }
  expire_timed_waits();
}

double Machine::next_wait_deadline() const {
  double next = std::numeric_limits<double>::infinity();
  for (const auto& condition : conditions_) {
    for (const auto& waiter : condition.waiters) {
      next = std::min(next, waiter.deadline_s);
    }
  }
  return next;
}

void Machine::expire_timed_waits() {
  constexpr double kSlack = 1e-12;
  for (auto& condition : conditions_) {
    for (auto it = condition.waiters.begin(); it != condition.waiters.end();) {
      if (it->deadline_s <= now_s_ + kSlack) {
        const ConditionWaiter expired = *it;
        it = condition.waiters.erase(it);
        state_of(expired.tid).timed_out = true;
        enqueue_for_mutex(expired.tid, expired.mutex_id);
      } else {
        ++it;
      }
    }
  }
}

void Machine::begin_wait_and_reschedule(int tid) {
  ThreadState& self = state_of(tid);
  util::ensure(running_real_ == tid,
               "Machine: blocking call from a thread that is not running");
  running_real_ = -1;
  schedule_next();
  // Hand the host thread back to run() unless this thread runs on.
  if (running_real_ != tid && !aborted_) {
    self.fiber->switch_to(*caller_);
  }
  if (aborted_ && self.phase != Phase::RealRunning) {
    throw Aborted{};
  }
}

void Machine::charge(int tid, double ops, double mem_intensity) {
  ThreadState& state = state_of(tid);
  state.demand_ops = std::max(0.0, ops);
  state.mem_intensity = std::clamp(mem_intensity, 0.0, 1.0);
  state.phase = Phase::WaitCompute;
}

void Machine::finish_thread(int tid) {
  ThreadState& self = state_of(tid);
  self.phase = Phase::Done;
  if (running_real_ == tid) {
    running_real_ = -1;
  }
  const double join_cost_ops = spec_.us_to_ops(spec_.join_cost_us);
  for (const int joiner : self.joiners) {
    ++joins_;
    if (!aborted_) {
      if (observer_ != nullptr) {
        observer_->on_join(joiner, tid);
      }
      charge(joiner, join_cost_ops, 0.0);
    }
  }
  self.joiners.clear();
  schedule_next();
}

void Machine::check_abort() const {
  if (aborted_) {
    throw Aborted{};
  }
}

// ---------------------------------------------------------------------------
// Machine: blocking API used by Context
// ---------------------------------------------------------------------------

void Machine::api_compute(int tid, double ops, double mem_intensity) {
  check_abort();
  if (ops <= 0.0) {
    return;
  }
  ++compute_calls_;
  total_ops_ += ops;
  charge(tid, ops, mem_intensity);
  begin_wait_and_reschedule(tid);
}

ThreadHandle Machine::api_spawn(int parent,
                                std::function<void(Context&)> body) {
  util::require(body != nullptr, "Context::spawn: body must be callable");
  check_abort();

  const int tid = static_cast<int>(threads_.size());
  auto state = std::make_unique<ThreadState>();
  state->tid = tid;
  state->phase = Phase::ReadyReal;
  state->body = std::move(body);
  threads_.push_back(std::move(state));
  busy_s_.push_back(0.0);
  enqueue_ready(tid);
  ++spawns_;
  if (observer_ != nullptr) {
    observer_->on_spawn(parent, tid);
  }

  if (spec_.fork_cost_us > 0.0) {
    charge(parent, spec_.us_to_ops(spec_.fork_cost_us), 0.0);
    begin_wait_and_reschedule(parent);
  }
  return ThreadHandle{tid};
}

void Machine::api_join(int tid, ThreadHandle child) {
  check_abort();
  util::require(child.tid >= 0 &&
                    child.tid < static_cast<int>(threads_.size()),
                "Context::join: invalid thread handle");
  util::require(child.tid != tid, "Context::join: a thread cannot join itself");

  ThreadState& target = state_of(child.tid);
  if (target.phase == Phase::Done) {
    ++joins_;
    if (observer_ != nullptr) {
      observer_->on_join(tid, child.tid);
    }
    if (spec_.join_cost_us > 0.0) {
      charge(tid, spec_.us_to_ops(spec_.join_cost_us), 0.0);
      begin_wait_and_reschedule(tid);
    }
    return;
  }
  target.joiners.push_back(tid);
  state_of(tid).phase = Phase::WaitJoin;
  begin_wait_and_reschedule(tid);
}

void Machine::api_barrier(int tid, BarrierHandle handle) {
  check_abort();
  util::require(handle.id >= 0 &&
                    handle.id < static_cast<int>(barriers_.size()),
                "Context::barrier: invalid barrier handle");
  BarrierState& barrier = barriers_[static_cast<std::size_t>(handle.id)];
  barrier.arrived.push_back(tid);
  util::ensure(static_cast<int>(barrier.arrived.size()) <= barrier.participants,
               "Machine: more arrivals than barrier participants");

  if (static_cast<int>(barrier.arrived.size()) < barrier.participants) {
    state_of(tid).phase = Phase::WaitBarrier;
    begin_wait_and_reschedule(tid);
    return;
  }

  // Last arrival: release everyone, charging the linear barrier cost.
  ++barrier_episodes_;
  if (observer_ != nullptr) {
    observer_->on_barrier(barrier.arrived);
  }
  const double cost_ops = spec_.us_to_ops(
      spec_.barrier_cost_us_per_thread *
      static_cast<double>(barrier.participants));
  for (const int participant : barrier.arrived) {
    charge(participant, cost_ops, 0.0);
  }
  barrier.arrived.clear();
  begin_wait_and_reschedule(tid);
}

void Machine::api_lock(int tid, MutexHandle handle) {
  check_abort();
  util::require(handle.id >= 0 &&
                    handle.id < static_cast<int>(mutexes_.size()),
                "Context::lock: invalid mutex handle");
  MutexState& mutex = mutexes_[static_cast<std::size_t>(handle.id)];
  util::require(mutex.owner != tid,
                "Context::lock: mutex is not recursive (self-deadlock)");

  if (mutex.owner == -1) {
    mutex.owner = tid;
    ++mutex_acquires_;
    if (observer_ != nullptr) {
      observer_->on_mutex_acquire(tid, static_cast<std::uint64_t>(handle.id));
    }
    if (spec_.mutex_acquire_cost_us > 0.0) {
      charge(tid, spec_.us_to_ops(spec_.mutex_acquire_cost_us), 0.0);
      begin_wait_and_reschedule(tid);
    }
    return;
  }
  mutex.waiters.push_back(tid);
  state_of(tid).phase = Phase::WaitMutex;
  begin_wait_and_reschedule(tid);
}

void Machine::unlock_mutex(int tid, int mutex_id) {
  MutexState& mutex = mutexes_[static_cast<std::size_t>(mutex_id)];
  util::require(mutex.owner == tid,
                "Context::unlock: calling thread does not own the mutex");

  if (observer_ != nullptr) {
    observer_->on_mutex_release(tid, static_cast<std::uint64_t>(mutex_id));
  }
  if (mutex.waiters.empty()) {
    mutex.owner = -1;
    return;
  }
  const int next = mutex.waiters.front();
  mutex.waiters.pop_front();
  mutex.owner = next;
  ++mutex_acquires_;
  if (observer_ != nullptr) {
    observer_->on_mutex_acquire(next, static_cast<std::uint64_t>(mutex_id));
  }
  // The granted thread pays the acquire cost before resuming real code.
  charge(next, spec_.us_to_ops(spec_.mutex_acquire_cost_us), 0.0);
}

void Machine::api_unlock(int tid, MutexHandle handle) {
  check_abort();
  util::require(handle.id >= 0 &&
                    handle.id < static_cast<int>(mutexes_.size()),
                "Context::unlock: invalid mutex handle");
  unlock_mutex(tid, handle.id);
}

void Machine::enqueue_for_mutex(int tid, int mutex_id) {
  MutexState& mutex = mutexes_[static_cast<std::size_t>(mutex_id)];
  if (mutex.owner == -1 && mutex.waiters.empty()) {
    mutex.owner = tid;
    ++mutex_acquires_;
    if (observer_ != nullptr) {
      observer_->on_mutex_acquire(tid, static_cast<std::uint64_t>(mutex_id));
    }
    charge(tid, spec_.us_to_ops(spec_.mutex_acquire_cost_us), 0.0);
    return;
  }
  mutex.waiters.push_back(tid);
  state_of(tid).phase = Phase::WaitMutex;
}

void Machine::api_wait(int tid, ConditionHandle condition,
                       MutexHandle mutex) {
  api_wait_until(tid, condition, mutex,
                 std::numeric_limits<double>::infinity());
}

bool Machine::api_wait_until(int tid, ConditionHandle condition,
                             MutexHandle mutex, double deadline_s) {
  check_abort();
  util::require(condition.id >= 0 &&
                    condition.id < static_cast<int>(conditions_.size()),
                "Context::wait: invalid condition handle");
  util::require(mutex.id >= 0 &&
                    mutex.id < static_cast<int>(mutexes_.size()),
                "Context::wait: invalid mutex handle");
  util::require(mutexes_[static_cast<std::size_t>(mutex.id)].owner == tid,
                "Context::wait: calling thread does not own the mutex");

  ThreadState& self = state_of(tid);
  self.timed_out = false;
  conditions_[static_cast<std::size_t>(condition.id)].waiters.push_back(
      ConditionWaiter{tid, mutex.id, deadline_s});
  unlock_mutex(tid, mutex.id);
  self.phase = Phase::WaitCondition;
  begin_wait_and_reschedule(tid);
  // On return the mutex has been re-acquired (the notify or the timeout
  // expiry routed this thread through the mutex queue).
  return !self.timed_out;
}

void Machine::api_notify(ConditionHandle condition, bool all) {
  check_abort();
  util::require(condition.id >= 0 &&
                    condition.id < static_cast<int>(conditions_.size()),
                "Context::notify: invalid condition handle");
  ConditionState& state =
      conditions_[static_cast<std::size_t>(condition.id)];
  const std::size_t wake_count =
      all ? state.waiters.size() : std::min<std::size_t>(1, state.waiters.size());
  for (std::size_t i = 0; i < wake_count; ++i) {
    const ConditionWaiter waiter = state.waiters.front();
    state.waiters.pop_front();
    enqueue_for_mutex(waiter.tid, waiter.mutex_id);
  }
}

void Machine::api_yield(int tid) {
  check_abort();
  ThreadState& self = state_of(tid);
  self.phase = Phase::ReadyReal;
  enqueue_ready(tid);
  begin_wait_and_reschedule(tid);
}

}  // namespace pblpar::sim

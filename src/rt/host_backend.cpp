#include "rt/host_backend.hpp"

#include "rt/loops.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "rt/cancel.hpp"
#include "rt/trace.hpp"
#include "util/error.hpp"

#include <cassert>

namespace pblpar::rt {

AbortableBarrier::AbortableBarrier(int parties) : parties_(parties) {
  util::require(parties >= 1, "AbortableBarrier: need at least one party");
}

/// How many yields a barrier waiter spends watching the generation before
/// parking on the condvar. A yielding spinner cedes its core to members
/// still computing, so each spin costs one pass through the scheduler,
/// not stolen compute — and a release during the spin is seen without any
/// futex wake. Sized like the pool's kDoneSpins: spinners with no
/// runnable peers burn through it in well under a millisecond.
constexpr int kBarrierSpins = 4096;

void AbortableBarrier::arrive_and_wait() {
  std::unique_lock lk(mu_);
  if (aborted_.load(std::memory_order_relaxed)) {
    throw TeamAborted{};
  }
  const std::uint64_t my_generation =
      generation_.load(std::memory_order_relaxed);
  if (++arrived_ == parties_) {
    arrived_ = 0;
    generation_.store(my_generation + 1, std::memory_order_release);
    // Unlock before notifying: woken waiters re-acquire mu_ to re-check
    // the predicate, and waking them while still holding it would march
    // each one straight from the futex into a mutex collision — on a
    // busy host that is an extra context switch per waiter per barrier.
    lk.unlock();
    cv_.notify_all();
    return;
  }
  lk.unlock();
  // Spin phase: watch the generation from user space. The releaser's
  // store-release on generation_ happens after it observed (under mu_)
  // every party's arrival, so an acquire load of the new generation also
  // carries every member's pre-barrier writes.
  for (int spin = 0; spin < kBarrierSpins; ++spin) {
    if (generation_.load(std::memory_order_acquire) != my_generation) {
      if (aborted_.load(std::memory_order_acquire)) {
        throw TeamAborted{};
      }
      return;
    }
    if (aborted_.load(std::memory_order_acquire)) {
      throw TeamAborted{};
    }
    std::this_thread::yield();
  }
  lk.lock();
  cv_.wait(lk, [&] {
    return generation_.load(std::memory_order_relaxed) != my_generation ||
           aborted_.load(std::memory_order_relaxed);
  });
  // Abort wins over a concurrent release: without the plain re-check a
  // waiter whose generation was bumped in the same mutex epoch as abort()
  // would return normally and the abort would be lost until (unless) it
  // reached another barrier.
  if (aborted_.load(std::memory_order_relaxed)) {
    throw TeamAborted{};
  }
}

void AbortableBarrier::abort() {
  {
    std::lock_guard guard(mu_);
    aborted_ = true;
  }
  cv_.notify_all();
}

void AbortableBarrier::reset(int parties) {
  util::require(parties >= 1, "AbortableBarrier: need at least one party");
  std::lock_guard guard(mu_);
  parties_ = parties;
  arrived_ = 0;
  aborted_ = false;
}

namespace {

/// Worksharing bookkeeping shared by all members of a host team.
/// Loop counters and single-arrival flags are preallocated so counter
/// claims are lock-free; 256 worksharing constructs per region is far
/// beyond any of the course workloads.
constexpr int kMaxWorksharing = 256;

/// One thread's steal deque: its remaining chunk-index span per loop,
/// guarded by one mutex per thread — the Sim backend's claim model
/// (steal_mutexes[tid]), with the owner and every thief claiming through
/// StealSpan::take and StealSpan::steal. Spans default to empty, so a
/// thief that scans one before its owner reached steal_install simply
/// moves on — the owner still drains everything it later installs.
/// `chunks` caches the loop's chunk size, hoisted once in steal_install
/// so the claim fast path never repeats the division; it is
/// owner-written before the owner's first claim and owner-read only.
/// Cache-line aligned: the owner locks its own deque on every local pop,
/// and with the deques living for the whole process (the team is reused
/// across regions) two owners sharing a line would pay false sharing on
/// every chunk, not just within one region.
struct alignas(kCacheLineBytes) StealDeque {
  std::mutex mu;  // guards spans
  std::array<StealSpan, kMaxWorksharing> spans;
  std::array<std::int64_t, kMaxWorksharing> chunks{};
  /// Spans [0, dirty) may be stale from an earlier region; freshly built
  /// deques start clean. Guarded by the team reset protocol.
  int dirty = 0;
};

struct HostTeam {
  explicit HostTeam(int nthreads) : num_threads(nthreads), barrier(nthreads) {
    grow_deques(nthreads);
    clear_worksharing(nthreads);
  }

  /// Re-arm this team for a fresh region of `nthreads` members. Only
  /// valid when no member of the previous region is still running — the
  /// pool observes every member's exit (unfinished count reaching zero)
  /// before calling this.
  void reset(int nthreads, TraceRecorder* recorder,
             std::chrono::steady_clock::time_point epoch,
             RegionGovernor* region_governor) {
    const int prev_width = num_threads;
    num_threads = nthreads;
    barrier.reset(nthreads);
    grow_deques(nthreads);
    clear_worksharing(prev_width);
    aborted.store(false, std::memory_order_relaxed);
    tracer = recorder;
    trace_epoch = epoch;
    governor = region_governor;
  }

  void grow_deques(int nthreads) {
    while (static_cast<int>(steal_deques.size()) < nthreads) {
      steal_deques.push_back(std::make_unique<StealDeque>());
    }
  }

  /// Re-arm the worksharing slots the previous region dirtied: its
  /// members reported their high-water construct count into
  /// worksharing_high_water, so only [0, used) of the counters and single
  /// flags need clearing — not the whole preallocated table on every
  /// region launch. Steal spans are tracked per deque: the finished
  /// region (width `prev_width`) dirtied its deques up to `used`, and a
  /// deque parked outside the current width keeps its dirty mark until a
  /// later region widens over it.
  void clear_worksharing(int prev_width) {
    const int used = std::min(
        worksharing_high_water.exchange(0, std::memory_order_relaxed),
        kMaxWorksharing);
    for (int id = 0; id < used; ++id) {
      loop_counters[static_cast<std::size_t>(id)].store(
          0, std::memory_order_relaxed);
      single_arrivals[static_cast<std::size_t>(id)].store(
          0, std::memory_order_relaxed);
    }
    for (int tid = 0; tid < prev_width; ++tid) {
      StealDeque& deque = *steal_deques[static_cast<std::size_t>(tid)];
      deque.dirty = std::max(deque.dirty, used);
    }
    for (int tid = 0; tid < num_threads; ++tid) {
      StealDeque& deque = *steal_deques[static_cast<std::size_t>(tid)];
      if (deque.dirty == 0) {
        continue;
      }
      // Plain stores without the lock: the deque is quiescent (every
      // member of the previous region has exited, observed by the pool
      // before reset), and the pool's generation handoff publishes these
      // stores to the next region's members before any of them runs.
      for (int id = 0; id < deque.dirty; ++id) {
        deque.spans[static_cast<std::size_t>(id)] = StealSpan{};
      }
      deque.dirty = 0;
    }
  }

  int num_threads;
  AbortableBarrier barrier;
  std::mutex critical_mu;
  std::array<std::atomic<std::int64_t>, kMaxWorksharing> loop_counters;
  std::array<std::atomic<int>, kMaxWorksharing> single_arrivals;
  /// Indexed by tid; unique_ptr so the deques keep their cache-line
  /// alignment and their addresses survive grow_deques reallocating the
  /// vector when a later region widens the team.
  std::vector<std::unique_ptr<StealDeque>> steal_deques;
  std::atomic<bool> aborted{false};
  /// Max worksharing constructs any member of the last region opened
  /// (CAS-max by each member as it finishes). Starts at the table size so
  /// the first clear wipes the uninitialized atomics.
  std::atomic<int> worksharing_high_water{kMaxWorksharing};

  /// Observability (null / unset when tracing is off).
  TraceRecorder* tracer = nullptr;
  std::chrono::steady_clock::time_point trace_epoch;

  /// Cancellation/chaos governor of the current region (null when neither
  /// is armed — then the loop drivers never poll).
  RegionGovernor* governor = nullptr;
};

class HostTeamContext final : public TeamContext {
 public:
  HostTeamContext(HostTeam& team, int tid) : team_(&team), tid_(tid) {}

  int thread_num() const override { return tid_; }
  int num_threads() const override { return team_->num_threads; }

  TraceRecorder* tracer() override { return team_->tracer; }

  RegionGovernor* governor() override { return team_->governor; }

  void inject_delay(double seconds) override {
    // Yield-spin in real time, like the pool's park spins: on an
    // oversubscribed host the stalled member cedes its core instead of
    // burning it, which is the "slow thread" a chaos delay models.
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::duration<double>(seconds);
    while (std::chrono::steady_clock::now() < until) {
      std::this_thread::yield();
    }
  }

  double trace_now() const override {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         team_->trace_epoch)
        .count();
  }

  void barrier() override {
    if (team_->tracer == nullptr) {
      team_->barrier.arrive_and_wait();
      return;
    }
    const double arrive_s = trace_now();
    team_->barrier.arrive_and_wait();
    team_->tracer->record_barrier(tid_, arrive_s, trace_now());
  }

  void critical(const std::function<void()>& body) override {
    if (team_->tracer == nullptr) {
      std::lock_guard guard(team_->critical_mu);
      body();
      return;
    }
    const double request_s = trace_now();
    double acquire_s = 0.0;
    double release_s = 0.0;
    {
      std::lock_guard guard(team_->critical_mu);
      acquire_s = trace_now();
      body();
      release_s = trace_now();
    }
    team_->tracer->record_critical(tid_, request_s, acquire_s, release_s);
  }

  void single(const std::function<void()>& body) override {
    const int id = next_single_id_++;
    util::require(id < kMaxWorksharing,
                  "TeamContext::single: too many worksharing constructs");
    if (team_->single_arrivals[static_cast<std::size_t>(id)].fetch_add(1) ==
        0) {
      if (team_->tracer != nullptr) {
        team_->tracer->record_single_winner(tid_, id);
      }
      body();
    }
    barrier();
  }

  void compute(double ops, double mem_intensity) override {
    // Host execution is real work in real time; modelled cost is ignored.
    (void)ops;
    (void)mem_intensity;
  }

  std::pair<std::int64_t, std::int64_t> claim(
      int loop_id, std::int64_t total, const Schedule& schedule) override {
    util::require(loop_id >= 0 && loop_id < kMaxWorksharing,
                  "TeamContext::claim: too many worksharing loops");
    // Relaxed ordering throughout: a claim only needs atomicity so chunks
    // stay disjoint. Cross-thread data visibility is the job of barriers
    // and the region join, exactly as in OpenMP.
    auto& counter = team_->loop_counters[static_cast<std::size_t>(loop_id)];
    if (schedule.kind == Schedule::Kind::Guided) {
      // Guided chunks shrink with the remaining work, so the claim must
      // read `remaining` and publish its grab atomically: a CAS loop.
      std::int64_t current = counter.load(std::memory_order_relaxed);
      for (;;) {
        if (current >= total) {
          return {total, 0};
        }
        const std::int64_t size =
            chunk_size_for(schedule, total - current, team_->num_threads);
        if (counter.compare_exchange_weak(current, current + size,
                                          std::memory_order_relaxed)) {
          return {current, size};
        }
      }
    }
    // Every other schedule hands out fixed-size chunks, so one wait-free
    // fetch_add claims the next one. Threads racing past the end each
    // overshoot the counter by at most one clamped grab, which the bounds
    // check discards.
    const std::int64_t grab = fixed_claim_size(schedule, total);
    const std::int64_t start =
        counter.fetch_add(grab, std::memory_order_relaxed);
    if (start >= total) {
      return {total, 0};
    }
    return {start, grab < total - start ? grab : total - start};
  }

  std::atomic<std::int64_t>* claim_counter(int loop_id) override {
    util::require(loop_id >= 0 && loop_id < kMaxWorksharing,
                  "TeamContext::claim_counter: too many worksharing loops");
    return &team_->loop_counters[static_cast<std::size_t>(loop_id)];
  }

  void steal_install(int loop_id, std::int64_t total,
                     const Schedule& schedule) override {
    util::require(loop_id >= 0 && loop_id < kMaxWorksharing,
                  "TeamContext::steal_install: too many worksharing loops");
    const std::int64_t chunk =
        steal_chunk_size(schedule, total, team_->num_threads);
    StealDeque& mine = *team_->steal_deques[static_cast<std::size_t>(tid_)];
    // Hoist the chunk size per (loop_id, region): every later claim —
    // including every failed victim probe — reads this cache instead of
    // redoing the division. Owner-written, owner-read; the chunk size is
    // a pure function of (schedule, total, num_threads), identical on
    // every member, so each owner's cache agrees with every thief's.
    mine.chunks[static_cast<std::size_t>(loop_id)] = chunk;
    const StealSpan span =
        steal_initial_span(total, chunk, team_->num_threads, tid_);
    std::lock_guard guard(mine.mu);
    mine.spans[static_cast<std::size_t>(loop_id)] = span;
  }

  StealClaim steal_next(int loop_id, std::int64_t total,
                        const Schedule& schedule) override {
    util::require(loop_id >= 0 && loop_id < kMaxWorksharing,
                  "TeamContext::steal_next: too many worksharing loops");
    StealDeque& mine = *team_->steal_deques[static_cast<std::size_t>(tid_)];
    const std::int64_t chunk =
        mine.chunks[static_cast<std::size_t>(loop_id)];
    // Regression guard (debug builds): the hoisted value must match what
    // the per-claim recomputation would have produced.
    assert(chunk == steal_chunk_size(schedule, total, team_->num_threads));
    (void)schedule;
    // Own deque first: pop the lowest chunk index, an ascending walk of
    // our block (the LIFO end relative to how the block was dealt).
    std::int64_t chunk_index = 0;
    {
      std::lock_guard guard(mine.mu);
      if (mine.spans[static_cast<std::size_t>(loop_id)].take(&chunk_index)) {
        return steal_claim_for(chunk_index, chunk, total, tid_);
      }
    }
    // Then scan peers round-robin starting at our right-hand neighbour,
    // stealing from the FIFO end — the chunk the victim would reach last.
    for (int k = 1; k < team_->num_threads; ++k) {
      const int victim = (tid_ + k) % team_->num_threads;
      StealDeque& theirs =
          *team_->steal_deques[static_cast<std::size_t>(victim)];
      std::lock_guard guard(theirs.mu);
      if (theirs.spans[static_cast<std::size_t>(loop_id)].steal(
              &chunk_index)) {
        return steal_claim_for(chunk_index, chunk, total, victim);
      }
    }
    return StealClaim{total, 0, tid_};
  }

  /// Highest worksharing slot this member touched, for the team's
  /// proportional re-arm between regions.
  int worksharing_used() const {
    return std::max(loop_ids_issued(), next_single_id_);
  }

 private:
  HostTeam* team_;
  int tid_;
  int next_single_id_ = 0;
};

/// One team member's run: execute the body, swallow TeamAborted (another
/// member failed and this one just unwound past its barriers) and
/// CancelSignal (this member observed cancellation at a chunk boundary —
/// the governor's fire() already aborted the team barrier, and the region
/// join converts the drain into rt::Cancelled), convert anything else
/// into a recorded error plus a team-wide barrier abort.
void run_member(HostTeam& team, int tid,
                const std::function<void(TeamContext&)>& body,
                std::vector<std::exception_ptr>& errors) {
  HostTeamContext ctx(team, tid);
  try {
    body(ctx);
  } catch (const TeamAborted&) {
    // Another member failed; we just unwound past its barriers.
  } catch (const detail::CancelSignal&) {
    // Cooperative cancellation: not an error, so nothing is recorded —
    // run_acquired reads the verdict off the governor instead.
  } catch (...) {
    errors[static_cast<std::size_t>(tid)] = std::current_exception();
    team.aborted.store(true);
    team.barrier.abort();
  }
  const int used = ctx.worksharing_used();
  int seen = team.worksharing_high_water.load(std::memory_order_relaxed);
  while (seen < used && !team.worksharing_high_water.compare_exchange_weak(
                            seen, used, std::memory_order_relaxed)) {
  }
}

/// The process-wide counters behind rt::pool_snapshot(), summed over
/// every TeamPool: regions that started no thread, regions that started
/// at least one (by building or growing their pool), and workers spawned.
std::atomic<std::uint64_t> g_pooled_regions{0};
std::atomic<std::uint64_t> g_spawned_regions{0};
std::atomic<int> g_workers{0};

/// The process-wide observer behind rt::pool_snapshot(): every traced
/// region offers its recorder with try_attach, so the first one up is the
/// one a snapshot sees, and detach_if guarantees an overlapping region
/// never yanks a recorder it did not attach.
RegionObserver& pool_observer() {
  static RegionObserver observer;
  return observer;
}

/// RAII attach of a traced region's recorder to the process-wide pool
/// observer. Like ObserverAttach below, declared after the recorder so it
/// detaches (draining in-flight pool_snapshot readers) strictly before
/// the recorder dies.
struct PoolObserverAttach {
  const TraceRecorder* attached = nullptr;

  explicit PoolObserverAttach(const TraceRecorder* recorder) {
    if (recorder != nullptr && pool_observer().try_attach(recorder)) {
      attached = recorder;
    }
  }
  ~PoolObserverAttach() {
    if (attached != nullptr) {
      pool_observer().detach_if(attached);
    }
  }
  PoolObserverAttach(const PoolObserverAttach&) = delete;
  PoolObserverAttach& operator=(const PoolObserverAttach&) = delete;
};

/// RAII attach of a config's RegionObserver to the region's recorder.
/// Declared after the recorder in run_acquired, so destruction
/// detaches (blocking out in-flight snapshot readers) strictly before
/// the recorder dies.
struct ObserverAttach {
  RegionObserver* observer = nullptr;

  ObserverAttach(const ParallelConfig& config, TraceRecorder* recorder) {
    if (config.observer != nullptr && recorder != nullptr) {
      observer = config.observer.get();
      observer->attach(recorder);
    }
  }
  ~ObserverAttach() {
    if (observer != nullptr) {
      observer->detach();
    }
  }
  ObserverAttach(const ObserverAttach&) = delete;
  ObserverAttach& operator=(const ObserverAttach&) = delete;
};

/// How long threads yield-spin before touching the kernel. Workers spin
/// kParkSpins yields after a region before parking on the condvar, and
/// the caller spins kDoneSpins yields before sleeping for region end —
/// back-to-back regions (thread-count sweeps, benches, MapReduce phases)
/// then hand off entirely in user space. Yield, not pause: on an
/// oversubscribed host (more runnable threads than cores) a yielding
/// spinner cedes its core to whoever has real work, so the burn is
/// bounded scheduler churn rather than stolen compute.
/// kParkSpins is sized so a region-dense phase keeps its workers in the
/// spin the whole time: a handful of wasted yields between regions is
/// cheaper than the futex wake (a context switch per worker) every
/// region start would otherwise pay.
constexpr int kParkSpins = 2048;
constexpr int kDoneSpins = 4096;

/// One persistent worker team behind host_parallel. A pool serves one
/// region at a time; PoolRegistry hands each region an idle one.
///
/// Handoff protocol: the caller — always team member 0 — resets the
/// pool's HostTeam, publishes (body, errors, active width) under mu_,
/// bumps generation_, and runs its own member inline. Worker `slot` runs
/// as tid slot + 1: it spins briefly, then parks on its own condvar until
/// the generation moves with slot < active_, runs its member, and
/// decrements
/// unfinished_; the caller spins-then-parks on done_cv_ until unfinished_
/// reaches zero. That final acquire of unfinished_ == 0 orders every
/// worker's team/errors writes before the caller reads them (the
/// fetch_subs form one release sequence), so reset and rethrow race with
/// nothing.
///
/// Only the region holding the pool (taken from and given back to
/// PoolRegistry under its mutex) runs the protocol, so it never sees two
/// regions at once. Workers beyond the current region's width stay
/// parked (their slot fails the slot < active_ check) and teams can
/// shrink and regrow freely between regions.
/// Each worker parks on its own condvar so a narrow region on a wide pool
/// wakes only the workers it uses — with one shared condvar, every
/// region's notify would context-switch each parked high slot just to
/// re-check its predicate, and launch latency would scale with the widest
/// team ever seen instead of the team being launched.
class TeamPool {
 public:
  TeamPool() = default;
  TeamPool(const TeamPool&) = delete;
  TeamPool& operator=(const TeamPool&) = delete;

  /// Run one region. The caller must hold the pool (PoolRegistry::take).
  RunResult run_acquired(const ParallelConfig& config,
                         const std::function<void(TeamContext&)>& body) {
    const int num_threads = config.num_threads;
    const bool started_threads = ensure_workers(num_threads - 1);

    std::unique_ptr<TraceRecorder> recorder;
    if (config.record_trace) {
      recorder = std::make_unique<TraceRecorder>(num_threads,
                                                 TraceClock::HostSteady);
    }
    ObserverAttach observer_attach(config, recorder.get());
    PoolObserverAttach pool_attach(recorder.get());
    (started_threads ? g_spawned_regions : g_pooled_regions)
        .fetch_add(1, std::memory_order_relaxed);
    std::unique_ptr<RegionGovernor> governor = RegionGovernor::for_region(
        config.cancel_token, config.deadline_s, config.chaos, num_threads);
    if (governor != nullptr) {
      governor->abort_team = [this] { team_.barrier.abort(); };
    }
    std::vector<std::exception_ptr> errors(
        static_cast<std::size_t>(num_threads));

    const auto start = std::chrono::steady_clock::now();
    team_.reset(num_threads, recorder.get(), start, governor.get());
    if (num_threads == 1) {
      // The caller is the whole team; no handoff at all.
      run_member(team_, 0, body, errors);
    } else {
      {
        std::lock_guard lk(mu_);
        body_ = &body;
        errors_ = &errors;
        active_ = num_threads - 1;
        unfinished_.store(num_threads - 1, std::memory_order_relaxed);
        generation_.fetch_add(1, std::memory_order_release);
      }
      for (int slot = 0; slot < num_threads - 1; ++slot) {
        work_cvs_[static_cast<std::size_t>(slot)]->notify_one();
      }
      run_member(team_, 0, body, errors);
      wait_for_workers();
    }
    const double region_s = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - start)
                                .count();
    // A cancelled (or failed) region leaves the pool reusable by
    // construction: every member has exited (unfinished_ drained above),
    // and the next region's reset() re-arms the aborted barrier and the
    // dirtied worksharing slots before anything runs. Real errors win
    // over cancellation: a body that threw mid-drain (or a ChaosInjected)
    // is what the caller must see first.
    for (const auto& error : errors) {
      if (error != nullptr) {
        std::rethrow_exception(error);
      }
    }
    std::shared_ptr<const RunProfile> profile;
    if (recorder != nullptr) {
      profile = std::make_shared<const RunProfile>(recorder->finish(region_s));
    }
    if (governor != nullptr && governor->fired()) {
      throw Cancelled(governor->cause(), governor->completed_counts(),
                      std::move(profile));
    }
    RunResult result;
    result.host_seconds = region_s;
    result.profile = std::move(profile);
    return result;
  }

  ~TeamPool() {
    {
      std::lock_guard lk(mu_);
      shutdown_.store(true, std::memory_order_release);
    }
    for (const auto& cv : work_cvs_) {
      cv->notify_one();
    }
    for (std::thread& worker : workers_) {
      worker.join();
    }
  }

  /// Spawn workers until the pool can run teams of `count` + 1 members.
  /// Returns whether it started any thread.
  bool ensure_workers(int count) {
    if (static_cast<int>(workers_.size()) >= count) {
      return false;
    }
    {
      // Grow the condvar vector under mu_: already-running workers index
      // it under mu_ inside their wait, and push_back may reallocate.
      // The condvars themselves live behind unique_ptr, so their
      // addresses survive the reallocation.
      std::lock_guard lk(mu_);
      while (static_cast<int>(work_cvs_.size()) < count) {
        work_cvs_.push_back(std::make_unique<std::condition_variable>());
      }
    }
    while (static_cast<int>(workers_.size()) < count) {
      const int slot = static_cast<int>(workers_.size());
      workers_.emplace_back([this, slot] { worker_main(slot); });
      g_workers.fetch_add(1, std::memory_order_relaxed);
    }
    return true;
  }

 private:
  void worker_main(int slot) {
    std::uint64_t seen = 0;
    for (;;) {
      for (int spin = 0; spin < kParkSpins; ++spin) {
        if (generation_.load(std::memory_order_acquire) != seen ||
            shutdown_.load(std::memory_order_acquire)) {
          break;
        }
        std::this_thread::yield();
      }
      const std::function<void(TeamContext&)>* body = nullptr;
      std::vector<std::exception_ptr>* errors = nullptr;
      {
        std::unique_lock lk(mu_);
        work_cvs_[static_cast<std::size_t>(slot)]->wait(lk, [&] {
          return shutdown_.load(std::memory_order_relaxed) ||
                 (generation_.load(std::memory_order_relaxed) != seen &&
                  slot < active_);
        });
        if (shutdown_.load(std::memory_order_relaxed)) {
          return;
        }
        seen = generation_.load(std::memory_order_relaxed);
        body = body_;
        errors = errors_;
      }
      run_member(team_, slot + 1, *body, *errors);
      // The decrement must happen under mu_ or it could slip between a
      // sleeping caller's predicate check and its wait; the notify itself
      // happens after unlocking so the caller wakes straight through.
      bool last = false;
      {
        std::lock_guard lk(mu_);
        last = unfinished_.fetch_sub(1, std::memory_order_acq_rel) == 1;
      }
      if (last) {
        done_cv_.notify_one();
      }
    }
  }

  void wait_for_workers() {
    for (int spin = 0; spin < kDoneSpins; ++spin) {
      if (unfinished_.load(std::memory_order_acquire) == 0) {
        return;
      }
      std::this_thread::yield();
    }
    std::unique_lock lk(mu_);
    done_cv_.wait(lk, [&] {
      return unfinished_.load(std::memory_order_acquire) == 0;
    });
  }

  HostTeam team_{1};

  std::mutex mu_;
  // One park condvar per worker slot (stable addresses via unique_ptr);
  // region launch notifies exactly the slots it activates.
  std::vector<std::unique_ptr<std::condition_variable>> work_cvs_;
  std::condition_variable done_cv_;
  std::atomic<std::uint64_t> generation_{0};
  std::atomic<bool> shutdown_{false};
  std::atomic<int> unfinished_{0};
  int active_ = 0;  // workers participating in the current region
  const std::function<void(TeamContext&)>* body_ = nullptr;
  std::vector<std::exception_ptr>* errors_ = nullptr;
  // Worker at slot s runs as tid s + 1. Grows outside mu_: only the
  // region holding the pool touches it.
  std::vector<std::thread> workers_;
};

/// Owns every TeamPool the process has built and keeps the idle ones on
/// a LIFO stack, so nested regions and regions of concurrent callers each
/// run on their own pool, and a region takes the pool released most
/// recently — the one whose workers are most likely still spinning.
class PoolRegistry {
 public:
  static PoolRegistry& instance() {
    static PoolRegistry registry;
    return registry;
  }

  /// An idle pool, or a fresh empty one if every pool is in use. The
  /// caller holds it until give_back.
  TeamPool& take() {
    std::lock_guard lk(mu_);
    if (idle_.empty()) {
      all_.push_back(std::make_unique<TeamPool>());
      // Room for every pool on the stack, so give_back never allocates.
      idle_.reserve(all_.size());
      return *all_.back();
    }
    TeamPool* pool = idle_.back();
    idle_.pop_back();
    return *pool;
  }

  void give_back(TeamPool& pool) {
    std::lock_guard lk(mu_);
    idle_.push_back(&pool);
  }

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<TeamPool>> all_;
  std::vector<TeamPool*> idle_;
};

/// A pool taken from the registry for one scope; given back on every
/// exit path, exceptions and rt::Cancelled included.
struct PoolLease {
  TeamPool& pool;

  PoolLease() : pool(PoolRegistry::instance().take()) {}
  ~PoolLease() { PoolRegistry::instance().give_back(pool); }
  PoolLease(const PoolLease&) = delete;
  PoolLease& operator=(const PoolLease&) = delete;
};

}  // namespace

void warm_host_pool(int num_threads) {
  util::require(num_threads >= 1, "warm_host_pool: need at least one thread");
  PoolLease lease;
  lease.pool.ensure_workers(num_threads - 1);
}

PoolSnapshot pool_snapshot() {
  PoolSnapshot snap;
  snap.workers = g_workers.load(std::memory_order_relaxed);
  snap.pooled_regions = g_pooled_regions.load(std::memory_order_relaxed);
  snap.spawned_regions = g_spawned_regions.load(std::memory_order_relaxed);
  snap.live = pool_observer().totals();
  return snap;
}

RunResult host_parallel(const ParallelConfig& config,
                        const std::function<void(TeamContext&)>& body) {
  util::require(config.num_threads >= 1,
                "host_parallel: need at least one thread");
  util::require(body != nullptr, "host_parallel: body must be callable");
  PoolLease lease;
  return lease.pool.run_acquired(config, body);
}

}  // namespace pblpar::rt

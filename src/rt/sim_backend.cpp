#include "rt/sim_backend.hpp"

#include "rt/loops.hpp"

#include <chrono>
#include <memory>
#include <vector>

#include "rt/cancel.hpp"
#include "rt/trace.hpp"
#include "util/error.hpp"

namespace pblpar::rt {

namespace {

/// Worksharing bookkeeping shared by the members of a simulated team.
/// Plain (non-atomic) state is safe here: the simulator serializes real
/// code; virtual-time ordering of claims is enforced by claim_mutex.
struct SimTeam {
  int num_threads = 0;
  sim::BarrierHandle barrier;
  sim::MutexHandle critical_mutex;
  sim::MutexHandle claim_mutex;
  std::vector<std::int64_t> loop_counters;
  std::vector<int> single_arrivals;

  /// Schedule::steal state: steal_spans[tid][loop_id] is tid's remaining
  /// chunk-index span, guarded by steal_mutexes[tid] so local pops by
  /// different owners do not serialize against each other in virtual
  /// time. The machine's deterministic scheduler makes steal placement
  /// replay bit-for-bit for a given machine seed.
  std::vector<std::vector<StealSpan>> steal_spans;
  std::vector<sim::MutexHandle> steal_mutexes;

  /// Observability (null when tracing is off). Timestamps are virtual
  /// time; Machine::run starts each run at t = 0.
  TraceRecorder* tracer = nullptr;

  /// Cancellation/chaos governor (null when neither is armed).
  RegionGovernor* governor = nullptr;
};

class SimTeamContext final : public TeamContext {
 public:
  SimTeamContext(SimTeam& team, sim::Context& ctx, int tid)
      : team_(&team), ctx_(&ctx), tid_(tid) {}

  int thread_num() const override { return tid_; }
  int num_threads() const override { return team_->num_threads; }

  TraceRecorder* tracer() override { return team_->tracer; }

  RegionGovernor* governor() override { return team_->governor; }

  void inject_delay(double seconds) override {
    // A chaos delay on the Sim backend is just charged virtual time, so
    // injected schedules replay bit-for-bit.
    ctx_->compute_us(seconds * 1e6);
  }

  double trace_now() const override { return ctx_->now(); }

  void barrier() override {
    if (team_->tracer == nullptr) {
      ctx_->barrier(team_->barrier);
      return;
    }
    const double arrive_s = ctx_->now();
    ctx_->barrier(team_->barrier);
    team_->tracer->record_barrier(tid_, arrive_s, ctx_->now());
  }

  void critical(const std::function<void()>& body) override {
    if (team_->tracer == nullptr) {
      sim::ScopedLock lock(*ctx_, team_->critical_mutex);
      body();
      return;
    }
    const double request_s = ctx_->now();
    double acquire_s = 0.0;
    double release_s = 0.0;
    {
      sim::ScopedLock lock(*ctx_, team_->critical_mutex);
      acquire_s = ctx_->now();
      body();
      release_s = ctx_->now();
    }
    team_->tracer->record_critical(tid_, request_s, acquire_s, release_s);
  }

  void single(const std::function<void()>& body) override {
    const int id = next_single_id_++;
    bool mine = false;
    {
      sim::ScopedLock lock(*ctx_, team_->claim_mutex);
      auto& arrivals = team_->single_arrivals;
      if (static_cast<std::size_t>(id) >= arrivals.size()) {
        arrivals.resize(static_cast<std::size_t>(id) + 1, 0);
      }
      mine = arrivals[static_cast<std::size_t>(id)]++ == 0;
    }
    if (mine) {
      if (team_->tracer != nullptr) {
        team_->tracer->record_single_winner(tid_, id);
      }
      body();
    }
    barrier();
  }

  void compute(double ops, double mem_intensity) override {
    ctx_->compute(ops, mem_intensity);
  }

  std::pair<std::int64_t, std::int64_t> claim(
      int loop_id, std::int64_t total, const Schedule& schedule) override {
    sim::ScopedLock lock(*ctx_, team_->claim_mutex);
    // The shared-counter update itself costs a trip through the work
    // queue; charge it while holding the lock so claims serialize in
    // virtual time exactly like a contended OpenMP dynamic schedule.
    ctx_->compute_us(ctx_->spec().sched_chunk_cost_us);

    auto& counters = team_->loop_counters;
    if (static_cast<std::size_t>(loop_id) >= counters.size()) {
      counters.resize(static_cast<std::size_t>(loop_id) + 1, 0);
    }
    std::int64_t& counter = counters[static_cast<std::size_t>(loop_id)];
    if (counter >= total) {
      return {total, 0};
    }
    const std::int64_t size =
        chunk_size_for(schedule, total - counter, team_->num_threads);
    const std::int64_t start = counter;
    counter += size;
    return {start, size};
  }

  void steal_install(int loop_id, std::int64_t total,
                     const Schedule& schedule) override {
    const std::int64_t chunk =
        steal_chunk_size(schedule, total, team_->num_threads);
    sim::ScopedLock lock(
        *ctx_, team_->steal_mutexes[static_cast<std::size_t>(tid_)]);
    // Installing touches only our own deque: charge a quarter of the
    // shared-queue claim cost (a local push, not a contended counter).
    ctx_->compute_us(0.25 * ctx_->spec().sched_chunk_cost_us);
    auto& spans = team_->steal_spans[static_cast<std::size_t>(tid_)];
    if (spans.size() <= static_cast<std::size_t>(loop_id)) {
      spans.resize(static_cast<std::size_t>(loop_id) + 1);
    }
    spans[static_cast<std::size_t>(loop_id)] =
        steal_initial_span(total, chunk, team_->num_threads, tid_);
  }

  StealClaim steal_next(int loop_id, std::int64_t total,
                        const Schedule& schedule) override {
    const std::int64_t chunk =
        steal_chunk_size(schedule, total, team_->num_threads);
    {
      sim::ScopedLock lock(
          *ctx_, team_->steal_mutexes[static_cast<std::size_t>(tid_)]);
      ctx_->compute_us(0.25 * ctx_->spec().sched_chunk_cost_us);
      auto& spans = team_->steal_spans[static_cast<std::size_t>(tid_)];
      std::int64_t chunk_index = 0;
      if (spans.size() > static_cast<std::size_t>(loop_id) &&
          spans[static_cast<std::size_t>(loop_id)].take(&chunk_index)) {
        return steal_claim_for(chunk_index, chunk, total, tid_);
      }
    }
    // Probe peers round-robin; a remote probe pays the full claim cost
    // (cache-line transfer of the victim's deque) whether or not it
    // finds work, so stealing is modelled as dearer than local pops.
    for (int k = 1; k < team_->num_threads; ++k) {
      const int victim = (tid_ + k) % team_->num_threads;
      sim::ScopedLock lock(
          *ctx_, team_->steal_mutexes[static_cast<std::size_t>(victim)]);
      ctx_->compute_us(ctx_->spec().sched_chunk_cost_us);
      auto& spans = team_->steal_spans[static_cast<std::size_t>(victim)];
      std::int64_t chunk_index = 0;
      if (spans.size() > static_cast<std::size_t>(loop_id) &&
          spans[static_cast<std::size_t>(loop_id)].steal(&chunk_index)) {
        return steal_claim_for(chunk_index, chunk, total, victim);
      }
    }
    return StealClaim{total, 0, tid_};
  }

 private:
  SimTeam* team_;
  sim::Context* ctx_;
  int tid_;
  int next_single_id_ = 0;
};

}  // namespace

RunResult sim_parallel(sim::Machine& machine, const ParallelConfig& config,
                       const std::function<void(TeamContext&)>& body) {
  const int num_threads = config.num_threads;
  util::require(num_threads >= 1, "sim_parallel: need at least one thread");
  util::require(body != nullptr, "sim_parallel: body must be callable");

  SimTeam team;
  team.num_threads = num_threads;
  team.barrier = machine.make_barrier(num_threads);
  team.critical_mutex = machine.make_mutex();
  team.claim_mutex = machine.make_mutex();
  team.steal_spans.resize(static_cast<std::size_t>(num_threads));
  team.steal_mutexes.reserve(static_cast<std::size_t>(num_threads));
  for (int tid = 0; tid < num_threads; ++tid) {
    team.steal_mutexes.push_back(machine.make_mutex());
  }
  std::unique_ptr<TraceRecorder> recorder;
  if (config.record_trace) {
    recorder = std::make_unique<TraceRecorder>(num_threads,
                                               TraceClock::SimVirtual);
    team.tracer = recorder.get();
  }
  // No abort_team hook on Sim: a CancelSignal escaping a member body rides
  // the machine's own abort teardown (every other virtual thread — even
  // one parked at a sim barrier — wakes and unwinds via sim::Aborted), so
  // the drain is deterministic in virtual time.
  std::unique_ptr<RegionGovernor> governor = RegionGovernor::for_region(
      config.cancel_token, config.deadline_s, config.chaos, num_threads);
  team.governor = governor.get();

  const auto start = std::chrono::steady_clock::now();
  sim::ExecutionReport report;
  try {
    report = machine.run([&team, &body, num_threads](sim::Context& root) {
      std::vector<sim::ThreadHandle> members;
      members.reserve(static_cast<std::size_t>(num_threads) - 1);
      for (int tid = 1; tid < num_threads; ++tid) {
        members.push_back(root.spawn([&team, &body, tid](sim::Context& ctx) {
          SimTeamContext team_ctx(team, ctx, tid);
          body(team_ctx);
        }));
      }
      SimTeamContext master_ctx(team, root, 0);
      body(master_ctx);
      for (const sim::ThreadHandle member : members) {
        root.join(member);
      }
    });
  } catch (const detail::CancelSignal&) {
    // The member that observed cancellation recorded the fire on the
    // governor before unwinding; every virtual thread has finished by the
    // time Machine::run rethrows, so the counts below are final.
    std::shared_ptr<const RunProfile> profile;
    if (recorder != nullptr) {
      profile = std::make_shared<const RunProfile>(
          recorder->finish(governor->fired_at_s()));
    }
    throw Cancelled(governor->cause(), governor->completed_counts(),
                    std::move(profile));
  }
  const auto end = std::chrono::steady_clock::now();

  RunResult result;
  result.host_seconds = std::chrono::duration<double>(end - start).count();
  result.sim_report = std::move(report);
  if (recorder != nullptr) {
    result.profile = std::make_shared<const RunProfile>(
        recorder->finish(result.sim_report->makespan_s));
  }
  return result;
}

}  // namespace pblpar::rt

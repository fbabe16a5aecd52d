#include "rt/cancel.hpp"

#include <cmath>
#include <sstream>
#include <thread>

#include "rt/trace.hpp"
#include "util/error.hpp"

namespace pblpar::rt {

std::string to_string(CancelCause cause) {
  // Exhaustive switch (no default): a new CancelCause without a name is a
  // compile-time -Wswitch error; a corrupted value fails loudly here.
  switch (cause) {
    case CancelCause::Token:
      return "token";
    case CancelCause::Deadline:
      return "deadline";
  }
  throw util::PreconditionError("to_string: invalid CancelCause value");
}

namespace {

std::string cancelled_message(CancelCause cause,
                              const std::vector<std::int64_t>& completed) {
  std::int64_t total = 0;
  for (const std::int64_t count : completed) {
    total += count;
  }
  std::ostringstream os;
  os << "pblpar::rt::Cancelled: parallel region cancelled (" << to_string(cause)
     << ") after " << total << " completed iteration(s) across "
     << completed.size() << " thread(s)";
  return os.str();
}

}  // namespace

Cancelled::Cancelled(CancelCause cause, std::vector<std::int64_t> completed,
                     std::shared_ptr<const RunProfile> profile)
    : std::runtime_error(cancelled_message(cause, completed)),
      cause_(cause),
      completed_(std::move(completed)),
      profile_(std::move(profile)) {}

std::int64_t Cancelled::total_completed() const noexcept {
  std::int64_t total = 0;
  for (const std::int64_t count : completed_) {
    total += count;
  }
  return total;
}

void ChaosPlan::validate() const {
  const auto probability_ok = [](double p) {
    return std::isfinite(p) && p >= 0.0 && p <= 1.0;
  };
  util::require(probability_ok(delay_probability),
                "ChaosPlan: delay_probability must be in [0, 1]");
  util::require(probability_ok(throw_probability),
                "ChaosPlan: throw_probability must be in [0, 1]");
  util::require(std::isfinite(delay_s) && delay_s >= 0.0,
                "ChaosPlan: delay_s must be finite and non-negative");
}

ChaosInjected::ChaosInjected(int tid, std::uint64_t nth_claim)
    : std::runtime_error("pblpar::rt::ChaosInjected: chaos plan threw at t" +
                         std::to_string(tid) + "'s chunk claim #" +
                         std::to_string(nth_claim)),
      tid_(tid),
      nth_claim_(nth_claim) {}

std::unique_ptr<RegionGovernor> RegionGovernor::for_region(
    const CancelToken& token, double deadline_s, const ChaosPlan& chaos,
    int num_threads) {
  if (!token.valid() && deadline_s <= 0.0 && chaos.empty()) {
    return nullptr;
  }
  chaos.validate();
  // make_unique needs a public constructor; new keeps it private.
  return std::unique_ptr<RegionGovernor>(
      new RegionGovernor(token, deadline_s, chaos, num_threads));
}

RegionGovernor::RegionGovernor(const CancelToken& token, double deadline_s,
                               const ChaosPlan& chaos, int num_threads)
    : token_(token),
      deadline_s_(deadline_s),
      chaos_(chaos),
      chaos_armed_(!chaos.empty()),
      slots_(static_cast<std::size_t>(num_threads)) {
  // One independent xoshiro stream per member, derived from the plan seed
  // in tid order — the draw sequence each member sees depends only on
  // (seed, tid), never on scheduling.
  util::SplitMix64 mix(chaos_.seed);
  for (MemberSlot& slot : slots_) {
    slot.rng = util::Rng(mix.next());
  }
}

void RegionGovernor::fire(CancelCause cause, double now) {
  if (fire_claimed_.exchange(true, std::memory_order_acq_rel)) {
    // A peer already fired; this member just drains. It reads cause_
    // next, so wait for the winner to release stop_ after writing it.
    while (!stop_.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    return;
  }
  cause_ = cause;
  fired_at_s_ = now;
  stop_.store(true, std::memory_order_release);
  if (abort_team) {
    abort_team();
  }
}

void RegionGovernor::throw_cancelled(TeamContext& tc, int tid) {
  MemberSlot& slot = slots_[static_cast<std::size_t>(tid)];
  if (!slot.cancel_recorded) {
    slot.cancel_recorded = true;
    if (TraceRecorder* tracer = tc.tracer()) {
      tracer->record_cancel(tid, tc.trace_now(), to_string(cause_),
                            slot.completed);
    }
  }
  throw detail::CancelSignal{};
}

void RegionGovernor::at_claim(TeamContext& tc, int tid) {
  if (stop_.load(std::memory_order_acquire)) {
    throw_cancelled(tc, tid);
  }
  if (token_.cancel_requested()) {
    fire(CancelCause::Token, tc.trace_now());
    throw_cancelled(tc, tid);
  }
  if (deadline_s_ > 0.0 && tc.trace_now() >= deadline_s_) {
    fire(CancelCause::Deadline, tc.trace_now());
    throw_cancelled(tc, tid);
  }
  if (chaos_armed_) {
    MemberSlot& slot = slots_[static_cast<std::size_t>(tid)];
    const std::uint64_t nth = slot.claims++;
    // Fixed draw order per claim — throw, then delay — so a given plan's
    // per-member streams replay identically run to run.
    if (chaos_.throw_probability > 0.0 &&
        slot.rng.bernoulli(chaos_.throw_probability)) {
      if (TraceRecorder* tracer = tc.tracer()) {
        tracer->record_inject(tid, tc.trace_now(), "throw", 0.0);
      }
      throw ChaosInjected(tid, nth);
    }
    if (chaos_.delay_probability > 0.0 &&
        slot.rng.bernoulli(chaos_.delay_probability)) {
      if (TraceRecorder* tracer = tc.tracer()) {
        tracer->record_inject(tid, tc.trace_now(), "delay", chaos_.delay_s);
      }
      tc.inject_delay(chaos_.delay_s);
    }
  }
}

std::vector<std::int64_t> RegionGovernor::completed_counts() const {
  std::vector<std::int64_t> counts;
  counts.reserve(slots_.size());
  for (const MemberSlot& slot : slots_) {
    counts.push_back(slot.completed);
  }
  return counts;
}

}  // namespace pblpar::rt

#include "mp/sim_world.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace pblpar::mp {

namespace {

bool matches(const RawMessage& message, int source, int tag) {
  return (source == kAnySource || message.source == source) &&
         (tag == kAnyTag || message.tag == tag);
}

}  // namespace

void SimComm::send_raw(int dest, int tag, std::size_t type_hash,
                       Buffer payload) {
  util::require(dest >= 0 && dest < size(),
                "SimComm::send: destination rank out of range");

  // The sender pays the software overhead plus the time to push the
  // bytes onto the wire (even when chaos then eats the message: the
  // sender cannot know the wire lost it).
  const std::size_t bytes = payload.size();
  ctx_->compute(ctx_->spec().us_to_ops(
      world_->spec.transfer_seconds(bytes) * 1e6));

  detail::TimedMessage timed;
  timed.message.source = rank_;
  timed.message.tag = tag;
  timed.message.type_hash = type_hash;
  timed.message.payload = std::move(payload);
  timed.arrival_s = ctx_->now() + world_->spec.net_latency_us * 1e-6;

  const auto sender = static_cast<std::size_t>(rank_);
  world_->messages += 1;
  world_->payload_bytes += bytes;
  world_->rank_messages[sender] += 1;
  world_->rank_bytes[sender] += bytes;

  detail::SimChaosLink* link = nullptr;
  if (!world_->chaos_links.empty()) {
    detail::SimChaosLink& candidate =
        world_->chaos_links[sender * static_cast<std::size_t>(size()) +
                            static_cast<std::size_t>(dest)];
    if (candidate.model != nullptr) {
      link = &candidate;
    }
  }

  detail::TimedMessage ghost;
  bool have_ghost = false;
  if (link != nullptr) {
    const ChaosDecision decision =
        detail::draw_chaos(*link->model, link->rng);
    if (decision.drop) {
      world_->rank_chaos_dropped[sender] += 1;
      return;  // a held message, if any, stays held for the next send
    }
    if (decision.reorder && !link->held.has_value()) {
      world_->rank_chaos_reordered[sender] += 1;
      link->held = std::move(timed);
      return;
    }
    if (decision.delay_s > 0.0) {
      world_->rank_chaos_delayed[sender] += 1;
      timed.arrival_s += decision.delay_s;
    }
    if (decision.duplicate) {
      world_->rank_chaos_duplicated[sender] += 1;
      ghost.message.source = timed.message.source;
      ghost.message.tag = timed.message.tag;
      ghost.message.type_hash = timed.message.type_hash;
      ghost.message.payload = timed.message.payload;  // refcounted share
      ghost.arrival_s = timed.arrival_s;
      have_ghost = true;
    }
  }

  sim::ScopedLock lock(
      *ctx_, world_->inbox_mutexes[static_cast<std::size_t>(dest)]);
  auto& inbox = world_->inboxes[static_cast<std::size_t>(dest)];
  inbox.push_back(std::move(timed));
  if (have_ghost) {
    inbox.push_back(std::move(ghost));
  }
  if (link != nullptr && link->held.has_value()) {
    inbox.push_back(std::move(*link->held));
    link->held.reset();
  }
  ctx_->notify_all(
      world_->inbox_conditions[static_cast<std::size_t>(dest)]);
}

WireStats SimComm::wire_stats(int rank) const {
  const int target = rank < 0 ? rank_ : rank;
  util::require(target >= 0 && target < size(),
                "SimComm::wire_stats: rank out of range");
  const auto index = static_cast<std::size_t>(target);
  WireStats stats;
  stats.messages = world_->rank_messages[index];
  stats.bytes = world_->rank_bytes[index];
  stats.chaos_dropped = world_->rank_chaos_dropped[index];
  stats.chaos_duplicated = world_->rank_chaos_duplicated[index];
  stats.chaos_delayed = world_->rank_chaos_delayed[index];
  stats.chaos_reordered = world_->rank_chaos_reordered[index];
  return stats;
}

void SimComm::charge_ops(double ops) {
  if (ops > 0.0) {
    ctx_->compute(ops);
  }
}

void SimComm::charge_seconds(double seconds) {
  if (seconds > 0.0) {
    ctx_->compute(ctx_->spec().us_to_ops(seconds * 1e6));
  }
}

RawMessage SimComm::recv_raw(int source, int tag) {
  util::require(source == kAnySource || (source >= 0 && source < size()),
                "SimComm::recv: source rank out of range");
  const auto index = static_cast<std::size_t>(rank_);
  auto& inbox = world_->inboxes[index];
  const sim::MutexHandle mutex = world_->inbox_mutexes[index];
  const sim::ConditionHandle condition = world_->inbox_conditions[index];

  ctx_->lock(mutex);
  for (;;) {
    for (auto it = inbox.begin(); it != inbox.end(); ++it) {
      if (matches(it->message, source, tag)) {
        detail::TimedMessage timed = std::move(*it);
        inbox.erase(it);
        ctx_->unlock(mutex);
        // A message cannot be consumed before it arrives: if we matched
        // it while it is still in flight, wait out the remaining wire
        // time in virtual time.
        const double remaining_s = timed.arrival_s - ctx_->now();
        if (remaining_s > 0.0) {
          ctx_->compute(ctx_->spec().us_to_ops(remaining_s * 1e6));
        }
        return std::move(timed.message);
      }
    }
    ctx_->wait(condition, mutex);
  }
}

bool SimComm::recv_raw_timed(int source, int tag, double timeout_s,
                             RawMessage* out) {
  util::require(source == kAnySource || (source >= 0 && source < size()),
                "SimComm::recv: source rank out of range");
  const auto index = static_cast<std::size_t>(rank_);
  auto& inbox = world_->inboxes[index];
  const sim::MutexHandle mutex = world_->inbox_mutexes[index];
  const sim::ConditionHandle condition = world_->inbox_conditions[index];
  // Zero (or negative, clamped) timeout = a poll: scan the inbox once,
  // then wait_until with a past deadline yields and times out at once.
  const double deadline_s = ctx_->now() + std::max(timeout_s, 0.0);

  ctx_->lock(mutex);
  for (;;) {
    for (auto it = inbox.begin(); it != inbox.end(); ++it) {
      if (matches(it->message, source, tag)) {
        detail::TimedMessage timed = std::move(*it);
        inbox.erase(it);
        ctx_->unlock(mutex);
        const double remaining_s = timed.arrival_s - ctx_->now();
        if (remaining_s > 0.0) {
          ctx_->compute(ctx_->spec().us_to_ops(remaining_s * 1e6));
        }
        *out = std::move(timed.message);
        return true;
      }
    }
    if (!ctx_->wait_until(condition, mutex, deadline_s)) {
      ctx_->unlock(mutex);
      return false;
    }
  }
}

ClusterReport SimWorld::run(int num_ranks,
                            const std::function<void(SimComm&)>& rank_main,
                            ClusterSpec spec) {
  util::require(num_ranks >= 1, "SimWorld::run: need at least one rank");
  util::require(rank_main != nullptr,
                "SimWorld::run: rank body must be callable");
  util::require(spec.net_bandwidth_mb_s > 0.0,
                "SimWorld::run: bandwidth must be positive");

  // One rank per node: model the cluster as num_ranks independent cores
  // with no shared-memory contention between them.
  sim::MachineSpec machine_spec = spec.node;
  machine_spec.name =
      "pi-cluster-" + std::to_string(num_ranks) + "node";
  machine_spec.cores = num_ranks;
  machine_spec.mem_contention_beta = 0.0;
  machine_spec.oversub_penalty = 0.0;
  sim::Machine machine(machine_spec);

  detail::SimWorldState state;
  state.size = num_ranks;
  state.spec = spec;
  state.inboxes.resize(static_cast<std::size_t>(num_ranks));
  state.rank_messages.assign(static_cast<std::size_t>(num_ranks), 0);
  state.rank_bytes.assign(static_cast<std::size_t>(num_ranks), 0);
  state.rank_chaos_dropped.assign(static_cast<std::size_t>(num_ranks), 0);
  state.rank_chaos_duplicated.assign(static_cast<std::size_t>(num_ranks), 0);
  state.rank_chaos_delayed.assign(static_cast<std::size_t>(num_ranks), 0);
  state.rank_chaos_reordered.assign(static_cast<std::size_t>(num_ranks), 0);
  for (int r = 0; r < num_ranks; ++r) {
    state.inbox_mutexes.push_back(machine.make_mutex());
    state.inbox_conditions.push_back(machine.make_condition());
  }
  if (state.spec.chaos.armed()) {
    state.spec.chaos.validate();
    state.chaos_links.resize(static_cast<std::size_t>(num_ranks) *
                             static_cast<std::size_t>(num_ranks));
    for (int s = 0; s < num_ranks; ++s) {
      for (int d = 0; d < num_ranks; ++d) {
        detail::SimChaosLink& link =
            state.chaos_links[static_cast<std::size_t>(s) *
                                  static_cast<std::size_t>(num_ranks) +
                              static_cast<std::size_t>(d)];
        const LinkChaos& model = state.spec.chaos.link_for(s, d);
        if (!model.empty()) {
          link.model = &model;
          link.rng = detail::chaos_link_rng(state.spec.chaos.seed,
                                            num_ranks, s, d);
        }
      }
    }
  }

  ClusterReport report;
  report.machine = machine.run([&](sim::Context& root) {
    std::vector<sim::ThreadHandle> ranks;
    for (int r = 1; r < num_ranks; ++r) {
      ranks.push_back(root.spawn([&state, &rank_main, r](sim::Context& ctx) {
        SimComm comm(state, ctx, r);
        rank_main(comm);
      }));
    }
    SimComm comm(state, root, 0);
    rank_main(comm);
    for (const sim::ThreadHandle rank : ranks) {
      root.join(rank);
    }
  });
  report.messages = state.messages;
  report.payload_bytes = state.payload_bytes;
  report.rank_messages = std::move(state.rank_messages);
  report.rank_bytes = std::move(state.rank_bytes);
  return report;
}

}  // namespace pblpar::mp

#include "mp/comm.hpp"

#include <chrono>
#include <thread>

namespace pblpar::mp {

void Comm::send_raw(int dest, int tag, std::size_t type_hash,
                    Buffer payload) {
  util::require(dest >= 0 && dest < size(),
                "Comm::send: destination rank out of range");
  detail::WireCounters& wire = world_->wire[static_cast<std::size_t>(rank_)];
  wire.messages.fetch_add(1, std::memory_order_relaxed);
  wire.bytes.fetch_add(payload.size(), std::memory_order_relaxed);
  RawMessage message;
  message.source = rank_;
  message.tag = tag;
  message.type_hash = type_hash;
  message.payload = std::move(payload);

  Mailbox& mailbox = *world_->mailboxes[static_cast<std::size_t>(dest)];
  if (world_->chaos_links.empty()) {
    mailbox.push(std::move(message));
    return;
  }
  // Chaos is armed for this world. Link (rank_, dest) is only touched by
  // this rank's thread, so the stream and hold slot need no locks.
  detail::ChaosLinkState& link =
      world_->chaos_links[static_cast<std::size_t>(rank_) *
                              static_cast<std::size_t>(size()) +
                          static_cast<std::size_t>(dest)];
  if (link.model == nullptr) {
    mailbox.push(std::move(message));
    return;
  }
  const ChaosDecision decision = detail::draw_chaos(*link.model, link.rng);
  if (decision.drop) {
    wire.chaos_dropped.fetch_add(1, std::memory_order_relaxed);
    return;  // a held message, if any, stays held for the next send
  }
  if (decision.reorder && !link.held.has_value()) {
    // Hold this message back; it is released after the *next* message on
    // this link goes out, swapping their delivery order.
    wire.chaos_reordered.fetch_add(1, std::memory_order_relaxed);
    link.held = std::move(message);
    return;
  }
  if (decision.delay_s > 0.0) {
    wire.chaos_delayed.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(
        std::chrono::duration<double>(decision.delay_s));
  }
  if (decision.duplicate) {
    wire.chaos_duplicated.fetch_add(1, std::memory_order_relaxed);
    RawMessage ghost;
    ghost.source = message.source;
    ghost.tag = message.tag;
    ghost.type_hash = message.type_hash;
    ghost.payload = message.payload;  // refcounted share, no byte copy
    mailbox.push(std::move(message));
    mailbox.push(std::move(ghost));
  } else {
    mailbox.push(std::move(message));
  }
  if (link.held.has_value()) {
    mailbox.push(std::move(*link.held));
    link.held.reset();
  }
}

RawMessage Comm::recv_raw(int source, int tag) {
  util::require(source == kAnySource || (source >= 0 && source < size()),
                "Comm::recv: source rank out of range");
  return world_->mailboxes[static_cast<std::size_t>(rank_)]->pop_matching(
      source, tag);
}

bool Comm::recv_raw_timed(int source, int tag, double timeout_s,
                          RawMessage* out) {
  util::require(source == kAnySource || (source >= 0 && source < size()),
                "Comm::recv: source rank out of range");
  return world_->mailboxes[static_cast<std::size_t>(rank_)]
      ->pop_matching_timed(source, tag, timeout_s, out);
}

WireStats Comm::wire_stats(int rank) const {
  const int target = rank < 0 ? rank_ : rank;
  util::require(target >= 0 && target < size(),
                "Comm::wire_stats: rank out of range");
  const detail::WireCounters& wire =
      world_->wire[static_cast<std::size_t>(target)];
  WireStats stats;
  stats.messages = wire.messages.load(std::memory_order_relaxed);
  stats.bytes = wire.bytes.load(std::memory_order_relaxed);
  stats.chaos_dropped = wire.chaos_dropped.load(std::memory_order_relaxed);
  stats.chaos_duplicated =
      wire.chaos_duplicated.load(std::memory_order_relaxed);
  stats.chaos_delayed = wire.chaos_delayed.load(std::memory_order_relaxed);
  stats.chaos_reordered =
      wire.chaos_reordered.load(std::memory_order_relaxed);
  return stats;
}

double Comm::now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace pblpar::mp

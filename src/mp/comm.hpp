#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "mp/chaos.hpp"
#include "mp/endpoint.hpp"
#include "mp/mailbox.hpp"
#include "mp/message.hpp"
#include "util/rng.hpp"

namespace pblpar::mp {

namespace detail {

/// Per-rank outbound counters, indexed by the *sending* rank so the
/// relaxed increments never contend across ranks.
struct alignas(64) WireCounters {
  std::atomic<std::uint64_t> messages{0};
  std::atomic<std::uint64_t> bytes{0};
  std::atomic<std::uint64_t> chaos_dropped{0};
  std::atomic<std::uint64_t> chaos_duplicated{0};
  std::atomic<std::uint64_t> chaos_delayed{0};
  std::atomic<std::uint64_t> chaos_reordered{0};
};

/// Chaos state of one directed link (source, dest): its seeded stream and
/// the hold-one-back reorder slot. The link (s, d) is only ever touched
/// by sending rank s's thread, so no synchronization is needed.
struct ChaosLinkState {
  const LinkChaos* model = nullptr;  // null = link unarmed, zero overhead
  util::Rng rng{1};
  std::optional<RawMessage> held;
};

/// Shared state of one world: every rank's mailbox plus the abort flag.
struct WorldState {
  explicit WorldState(int size, double timeout_s,
                      std::size_t pipeline_segment_bytes = 0,
                      TransportChaos chaos_plan = {})
      : size(size),
        pipeline_segment_bytes(pipeline_segment_bytes),
        chaos(std::move(chaos_plan)) {
    mailboxes.reserve(static_cast<std::size_t>(size));
    for (int r = 0; r < size; ++r) {
      mailboxes.push_back(std::make_unique<Mailbox>(abort, timeout_s, r));
    }
    wire = std::make_unique<WireCounters[]>(static_cast<std::size_t>(size));
    if (chaos.armed()) {
      chaos.validate();
      chaos_links.resize(static_cast<std::size_t>(size) *
                         static_cast<std::size_t>(size));
      for (int s = 0; s < size; ++s) {
        for (int d = 0; d < size; ++d) {
          ChaosLinkState& link =
              chaos_links[static_cast<std::size_t>(s) *
                              static_cast<std::size_t>(size) +
                          static_cast<std::size_t>(d)];
          const LinkChaos& model = chaos.link_for(s, d);
          if (!model.empty()) {
            link.model = &model;
            link.rng = chaos_link_rng(chaos.seed, size, s, d);
          }
        }
      }
    }
  }
  int size;
  std::size_t pipeline_segment_bytes;
  TransportChaos chaos;
  AbortState abort;
  std::vector<std::unique_ptr<Mailbox>> mailboxes;
  std::unique_ptr<WireCounters[]> wire;
  /// size*size link states, row-major by source; empty when unarmed.
  std::vector<ChaosLinkState> chaos_links;
};

}  // namespace detail

/// The host world's endpoint: one rank's thread on an in-process message
/// fabric (see mp::Endpoint for the API).
class Comm final : public Endpoint {
 public:
  Comm(detail::WorldState& world, int rank) : world_(&world), rank_(rank) {}

  int rank() const override { return rank_; }
  int size() const override { return world_->size; }

  /// 0 ("never segment") unless WorldOptions::pipeline_segment_bytes
  /// forces the segmented protocol: frames are refcounted in shared
  /// memory, so forwarding a whole payload is free and splitting it only
  /// adds assembly copies.
  std::size_t pipeline_segment_bytes() const override {
    return world_->pipeline_segment_bytes;
  }

  void send_raw(int dest, int tag, std::size_t type_hash,
                Buffer payload) override;
  RawMessage recv_raw(int source, int tag) override;

  /// Timed receive on the steady clock. A zero (or negative) timeout
  /// scans the mailbox once and returns immediately, never blocking.
  bool recv_raw_timed(int source, int tag, double timeout_s,
                      RawMessage* out) override;

  WireStats wire_stats(int rank = -1) const override;

  /// Steady-clock seconds.
  double now() override;

 private:
  detail::WorldState* world_;
  int rank_;
};

}  // namespace pblpar::mp

#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "mp/chaos.hpp"
#include "mp/collectives.hpp"
#include "mp/endpoint.hpp"
#include "mp/message.hpp"
#include "sim/machine.hpp"
#include "util/rng.hpp"

namespace pblpar::mp {

/// A simulated cluster of single-board computers — the paper's future-
/// work direction ("extend the module to ... distributed memory using
/// Message Passing Interface (MPI)") made runnable: one virtual thread
/// per node, connected by an alpha-beta network model.
struct ClusterSpec {
  /// Per-node machine (clock, overheads). One rank runs per node, so the
  /// node's core count is ignored.
  sim::MachineSpec node = sim::MachineSpec::raspberry_pi_3bplus();

  /// One-way network latency (alpha), in microseconds. Default: small
  /// switched Ethernet between Pis.
  double net_latency_us = 200.0;

  /// Network bandwidth (1/beta), in megabytes per second. The Pi 3B+'s
  /// Ethernet tops out near 94 Mbit/s ~ 11 MB/s.
  double net_bandwidth_mb_s = 11.0;

  /// Per-message software overhead charged to the sender, microseconds.
  double send_overhead_us = 25.0;

  /// Segment size for pipelined tree collectives on this network. The
  /// simulated wire really does store-and-forward, so large payloads
  /// stream in segments; 0 would disable segmentation (as the host
  /// world does by default).
  std::size_t pipeline_segment_bytes = detail::kPipelineSegmentBytes;

  /// Seeded transport-fault injection (drop / delay / duplicate /
  /// reorder per link), applied as messages enter the destination inbox.
  /// Empty (the default) leaves the wire perfect. Because every draw
  /// comes from a per-link xoshiro stream and the simulator serializes
  /// rank execution, a chaotic Sim run replays bit-for-bit from the same
  /// seed.
  TransportChaos chaos;

  /// Transfer time for a message of `bytes`, excluding latency, seconds.
  double transfer_seconds(std::size_t bytes) const {
    return send_overhead_us * 1e-6 +
           static_cast<double>(bytes) / (net_bandwidth_mb_s * 1e6);
  }
};

/// Outcome of a cluster run.
struct ClusterReport {
  sim::ExecutionReport machine;
  std::uint64_t messages = 0;
  std::uint64_t payload_bytes = 0;
  /// Outbound traffic per sending rank (indexed by rank; the totals
  /// above are their sums).
  std::vector<std::uint64_t> rank_messages;
  std::vector<std::uint64_t> rank_bytes;
};

namespace detail {

/// One node's inbox on the simulated network: messages carry their
/// arrival time (send completion + latency).
struct TimedMessage {
  RawMessage message;
  double arrival_s = 0.0;
};

/// Chaos state of one directed simulated link: seeded stream plus the
/// hold-one-back reorder slot (the held message keeps its original
/// arrival time, so a release after later traffic lands it out of order).
struct SimChaosLink {
  const LinkChaos* model = nullptr;  // null = link unarmed
  util::Rng rng{1};
  std::optional<TimedMessage> held;
};

struct SimWorldState {
  int size = 0;
  ClusterSpec spec;
  std::vector<std::deque<TimedMessage>> inboxes;
  std::vector<sim::MutexHandle> inbox_mutexes;
  std::vector<sim::ConditionHandle> inbox_conditions;
  std::uint64_t messages = 0;
  std::uint64_t payload_bytes = 0;
  // Rank execution is serialized by the simulator, so plain counters
  // indexed by the sending rank are race-free.
  std::vector<std::uint64_t> rank_messages;
  std::vector<std::uint64_t> rank_bytes;
  std::vector<std::uint64_t> rank_chaos_dropped;
  std::vector<std::uint64_t> rank_chaos_duplicated;
  std::vector<std::uint64_t> rank_chaos_delayed;
  std::vector<std::uint64_t> rank_chaos_reordered;
  /// size*size link states, row-major by source; empty when unarmed.
  std::vector<SimChaosLink> chaos_links;
};

}  // namespace detail

/// One rank's endpoint on the simulated cluster (see mp::Endpoint for
/// the API). Timing comes from the machine model: sends charge the
/// software overhead plus bytes/bandwidth to the sender, and a receive
/// completes no earlier than send-completion + latency (the rank "waits
/// for the wire" in virtual time).
class SimComm final : public Endpoint {
 public:
  SimComm(detail::SimWorldState& world, sim::Context& ctx, int rank)
      : world_(&world), ctx_(&ctx), rank_(rank) {}

  int rank() const override { return rank_; }
  int size() const override { return world_->size; }

  /// The simulated execution context of this rank's node (e.g. for
  /// charging local compute).
  sim::Context& context() { return *ctx_; }

  /// Segment size for pipelined tree collectives, from the cluster spec.
  std::size_t pipeline_segment_bytes() const override {
    return world_->spec.pipeline_segment_bytes;
  }

  void send_raw(int dest, int tag, std::size_t type_hash,
                Buffer payload) override;
  RawMessage recv_raw(int source, int tag) override;

  /// Timed receive in *virtual* time. A zero (or negative, clamped to
  /// zero) timeout is a poll: the inbox is scanned once and the rank
  /// yields exactly once before timing out, so polling costs one
  /// deterministic scheduler step. A message matched just before the
  /// deadline is still delivered (its remaining wire time is waited out
  /// even past the deadline).
  bool recv_raw_timed(int source, int tag, double timeout_s,
                      RawMessage* out) override;

  WireStats wire_stats(int rank = -1) const override;

  /// Virtual seconds; charges advance this rank's node clock.
  double now() override { return ctx_->now(); }
  bool virtual_time() const override { return true; }
  void charge_ops(double ops) override;
  void charge_seconds(double seconds) override;

 private:
  detail::SimWorldState* world_;
  sim::Context* ctx_;
  int rank_;
};

/// Run `rank_main` once per rank on a simulated cluster of `num_ranks`
/// nodes. Deterministic; missing messages surface as the machine's
/// DeadlockError rather than a timeout.
class SimWorld {
 public:
  static ClusterReport run(int num_ranks,
                           const std::function<void(SimComm&)>& rank_main,
                           ClusterSpec spec = {});
};

}  // namespace pblpar::mp

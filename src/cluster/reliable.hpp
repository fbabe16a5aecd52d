#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "mp/endpoint.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace pblpar::cluster {

/// Tuning for the ack/retry/dedup sublayer (ReliableComm). All times are
/// in the transport's own clock domain: wall seconds on the host world,
/// virtual seconds on the Sim world — which is what makes chaotic Sim
/// runs (retransmits included) replay bit-for-bit.
struct ReliabilityOptions {
  /// Wrap the cluster engine's transport in ReliableComm. Off by
  /// default: a perfect in-process wire needs no acks, and the unarmed
  /// path stays byte-identical to previous releases.
  bool enabled = false;

  /// How long a sequenced message may stay unacked before its first
  /// retransmit.
  double ack_timeout_s = 0.05;

  /// Exponential backoff: each retransmit multiplies the wait by this.
  double backoff_factor = 2.0;

  /// Ceiling on the backed-off wait between retransmits.
  double max_backoff_s = 2.0;

  /// Seeded uniform(0, jitter_s) added to every retransmit wait so
  /// synchronized senders do not retransmit in lockstep.
  double jitter_s = 0.005;

  /// Retransmits per message before the sender abandons it. Abandonment
  /// is deliberate and silent (counted in RetryStats::abandoned): a
  /// peer that never acks is dead, and liveness is the engine's job
  /// (heartbeat timeouts), not the transport's.
  int max_retransmits = 12;

  /// How long ReliableComm::recv_raw may block with no deliverable
  /// message before declaring deadlock (MpDeadlockError), mirroring the
  /// host world's recv timeout.
  double recv_timeout_s = 30.0;

  std::uint64_t seed = 1;

  /// Fail loudly on degenerate tuning (negative retry budgets,
  /// non-finite backoff, zero timeouts).
  void validate() const {
    util::require(std::isfinite(ack_timeout_s) && ack_timeout_s > 0.0,
                  "ReliabilityOptions::validate: ack timeout must be finite "
                  "and positive");
    util::require(std::isfinite(backoff_factor) && backoff_factor >= 1.0,
                  "ReliabilityOptions::validate: backoff factor must be "
                  "finite and at least 1");
    util::require(std::isfinite(max_backoff_s) &&
                      max_backoff_s >= ack_timeout_s,
                  "ReliabilityOptions::validate: backoff ceiling must be "
                  "finite and no smaller than the ack timeout");
    util::require(std::isfinite(jitter_s) && jitter_s >= 0.0,
                  "ReliabilityOptions::validate: retransmit jitter must be "
                  "finite and non-negative");
    util::require(max_retransmits >= 0,
                  "ReliabilityOptions::validate: retransmit budget must be "
                  "non-negative");
    util::require(std::isfinite(recv_timeout_s) && recv_timeout_s > 0.0,
                  "ReliabilityOptions::validate: receive timeout must be "
                  "finite and positive");
  }
};

/// One endpoint's reliability counters. On the Sim world these are a
/// pure function of (workload, chaos plan, seeds) and replay exactly.
struct RetryStats {
  std::uint64_t data_sent = 0;           // sequenced sends
  std::uint64_t fire_and_forget_sent = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t abandoned = 0;           // budget exhausted, peer presumed dead
  std::uint64_t acks_sent = 0;
  std::uint64_t acks_received = 0;
  std::uint64_t duplicates_dropped = 0;  // dedup hits (chaos dup or retry echo)
  std::uint64_t out_of_order_stashed = 0;
};

/// The ack/retry/dedup sublayer: an mp::Endpoint over another endpoint
/// (a Comm or SimComm), so every collective algorithm and the cluster
/// engine run over it unchanged — but now they survive an armed
/// mp::TransportChaos plan. Clock and work charging are the wrapped
/// endpoint's.
///
/// Protocol: every sequenced payload is prefixed with a 16-byte envelope
/// [u64 seq][u64 flags]. Sequence numbers are monotonic per directed
/// link (sender, receiver), so the receiver can (a) deliver strictly in
/// send order — restoring the per-source FIFO that segmented collectives
/// and the engine's Done-then-Request handshake rely on — and (b) drop
/// duplicates exactly-once, whether chaos duplicated the wire message or
/// a retransmit crossed with its own ack. Receivers ack every sequenced
/// message (including duplicates, whose original ack may have been the
/// loss); senders retransmit on an exponential-backoff timer with seeded
/// jitter until acked or the retry budget is spent.
///
/// Every rank of a world must wrap its endpoint (the envelope is not
/// self-describing); heartbeat-style traffic can opt out per message via
/// send_raw_fire_and_forget (seq 0: no ack, no retry, no ordering).
class ReliableComm final : public mp::Endpoint {
 public:
  ReliableComm(mp::Endpoint& comm, ReliabilityOptions options);

  ReliableComm(const ReliableComm&) = delete;
  ReliableComm& operator=(const ReliableComm&) = delete;

  int rank() const override { return comm_->rank(); }
  int size() const override { return comm_->size(); }
  std::size_t pipeline_segment_bytes() const override {
    return comm_->pipeline_segment_bytes();
  }

  const ReliabilityOptions& options() const { return options_; }
  const RetryStats& retry_stats() const { return stats_; }
  mp::WireStats wire_stats(int rank = -1) const override {
    return comm_->wire_stats(rank);
  }

  double now() override { return comm_->now(); }
  bool virtual_time() const override { return comm_->virtual_time(); }
  void charge_ops(double ops) override { comm_->charge_ops(ops); }
  void charge_seconds(double seconds) override {
    comm_->charge_seconds(seconds);
  }

  // --- raw transport (the collective algorithms and engine call these) ------

  void send_raw(int dest, int tag, std::size_t type_hash,
                mp::Buffer payload) override;

  /// Unsequenced, unacknowledged send: the message may be lost,
  /// duplicated or reordered under chaos, and the layer will not care.
  /// For idempotent liveness traffic (the engine's heartbeats) where a
  /// retransmit queue would only delay fresher news.
  void send_raw_fire_and_forget(int dest, int tag, std::size_t type_hash,
                                mp::Buffer payload) override;

  /// Blocks up to ReliabilityOptions::recv_timeout_s, then throws
  /// MpDeadlockError.
  mp::RawMessage recv_raw(int source, int tag) override;

  bool recv_raw_timed(int source, int tag, double timeout_s,
                      mp::RawMessage* out) override;

  /// Block until every sequenced send has been acked or abandoned;
  /// returns how many were abandoned (0 = everything confirmed
  /// delivered). Call at protocol wind-down: a sender that simply
  /// returns with messages unacked would strand its peers' last
  /// exchanges.
  std::uint64_t flush();

 private:
  struct Pending {
    int dest = -1;
    int tag = 0;
    std::uint64_t seq = 0;
    std::size_t type_hash = 0;
    mp::Buffer envelope;  // refcounted; retransmits share the bytes
    double next_retry_s = 0.0;
    double backoff_s = 0.0;
    int retransmits = 0;
  };

  /// Per-source receive ordering: the next link sequence we may deliver
  /// plus a stash of early arrivals.
  struct RecvLink {
    std::uint64_t next_expected = 1;
    std::map<std::uint64_t, mp::RawMessage> stash;
  };

  double jitter();
  double next_retry_s() const;
  /// Drain everything the underlying transport has ready (one poll
  /// each), then retransmit whatever is overdue.
  void pump(double now);
  void retransmit_overdue(double now);
  void demux(mp::RawMessage raw);
  bool take_delivered(int source, int tag, mp::RawMessage* out);

  mp::Endpoint* comm_;
  ReliabilityOptions options_;
  util::Rng jitter_rng_{1};
  RetryStats stats_;
  std::map<int, std::uint64_t> next_seq_;  // per-dest link sequence
  std::vector<Pending> unacked_;
  std::map<int, RecvLink> recv_links_;     // per-source ordering + dedup
  std::deque<mp::RawMessage> delivered_;   // in-order, awaiting a match
};

}  // namespace pblpar::cluster

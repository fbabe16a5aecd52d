#include "cluster/reliable.hpp"

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>

namespace pblpar::cluster {

namespace {

/// Internal tag of ack messages. Distinct from user tags (>= 0), the
/// collective tags (-2..-9) and the engine tags ((1 << 20) + n).
constexpr int kReliableAckTag = -101;

constexpr std::size_t kEnvelopeBytes = 16;  // [u64 seq][u64 flags]
constexpr std::uint64_t kFlagNeedsAck = 1;

/// Ack payload: the link sequence number being acknowledged.
struct AckRecord {
  std::uint64_t seq = 0;
};

mp::Buffer make_envelope(std::uint64_t seq, std::uint64_t flags,
                         const mp::Buffer& payload) {
  mp::Buffer envelope =
      mp::Buffer::uninitialized(kEnvelopeBytes + payload.size());
  std::byte* dst = envelope.mutable_data();
  std::memcpy(dst, &seq, sizeof(seq));
  std::memcpy(dst + sizeof(seq), &flags, sizeof(flags));
  mp::detail::copy_payload(dst + kEnvelopeBytes, payload.data(),
                           payload.size());
  return envelope;
}

}  // namespace

ReliableComm::ReliableComm(mp::Endpoint& comm, ReliabilityOptions options)
    : comm_(&comm), options_(options) {
  options_.validate();
  util::SplitMix64 mix(options_.seed ^
                       (0xA0761D6478BD642FULL *
                        (static_cast<std::uint64_t>(comm.rank()) + 1)));
  jitter_rng_ = util::Rng(mix.next());
}

void ReliableComm::send_raw(int dest, int tag, std::size_t type_hash,
                            mp::Buffer payload) {
  const std::uint64_t seq = ++next_seq_[dest];
  mp::Buffer envelope = make_envelope(seq, kFlagNeedsAck, payload);
  Pending pending;
  pending.dest = dest;
  pending.tag = tag;
  pending.seq = seq;
  pending.type_hash = type_hash;
  pending.envelope = envelope;
  pending.backoff_s = options_.ack_timeout_s;
  pending.next_retry_s = now() + pending.backoff_s + jitter();
  unacked_.push_back(std::move(pending));
  stats_.data_sent += 1;
  comm_->send_raw(dest, tag, type_hash, std::move(envelope));
  pump(now());
}

void ReliableComm::send_raw_fire_and_forget(int dest, int tag,
                                            std::size_t type_hash,
                                            mp::Buffer payload) {
  mp::Buffer envelope = make_envelope(0, 0, payload);
  stats_.fire_and_forget_sent += 1;
  comm_->send_raw(dest, tag, type_hash, std::move(envelope));
}

mp::RawMessage ReliableComm::recv_raw(int source, int tag) {
  mp::RawMessage out;
  if (!recv_raw_timed(source, tag, options_.recv_timeout_s, &out)) {
    throw mp::MpDeadlockError(
        "ReliableComm::recv_raw: no deliverable message from source " +
        std::to_string(source) + " tag " + std::to_string(tag) +
        " within " + std::to_string(options_.recv_timeout_s) +
        "s (peer dead or retry budget spent?)");
  }
  return out;
}

bool ReliableComm::recv_raw_timed(int source, int tag, double timeout_s,
                                  mp::RawMessage* out) {
  double now_s = now();
  const double deadline_s = now_s + (timeout_s > 0.0 ? timeout_s : 0.0);
  for (;;) {
    if (take_delivered(source, tag, out)) {
      return true;
    }
    pump(now_s);
    if (take_delivered(source, tag, out)) {
      return true;
    }
    now_s = now();
    if (now_s >= deadline_s) {
      return false;
    }
    // Sleep on the underlying transport until the next message, the
    // caller's deadline, or the next retransmit is due — whichever is
    // first.
    double slice_s = deadline_s - now_s;
    if (!unacked_.empty()) {
      slice_s = std::min(slice_s, next_retry_s() - now_s);
    }
    slice_s = std::max(slice_s, 1e-4);  // never a pure spin
    mp::RawMessage raw;
    if (comm_->recv_raw_timed(mp::kAnySource, mp::kAnyTag, slice_s, &raw)) {
      demux(std::move(raw));
    }
    now_s = now();
  }
}

std::uint64_t ReliableComm::flush() {
  const std::uint64_t abandoned_before = stats_.abandoned;
  while (!unacked_.empty()) {
    pump(now());
    if (unacked_.empty()) {
      break;
    }
    const double slice_s = std::max(next_retry_s() - now(), 1e-4);
    mp::RawMessage raw;
    if (comm_->recv_raw_timed(mp::kAnySource, mp::kAnyTag, slice_s, &raw)) {
      demux(std::move(raw));
    }
  }
  return stats_.abandoned - abandoned_before;
}

double ReliableComm::jitter() {
  return options_.jitter_s > 0.0 ? jitter_rng_.uniform(0.0, options_.jitter_s)
                                 : 0.0;
}

double ReliableComm::next_retry_s() const {
  double next_retry = unacked_.front().next_retry_s;
  for (const Pending& pending : unacked_) {
    next_retry = std::min(next_retry, pending.next_retry_s);
  }
  return next_retry;
}

void ReliableComm::pump(double now_s) {
  mp::RawMessage raw;
  while (comm_->recv_raw_timed(mp::kAnySource, mp::kAnyTag, 0.0, &raw)) {
    demux(std::move(raw));
  }
  retransmit_overdue(now_s);
}

void ReliableComm::retransmit_overdue(double now_s) {
  for (std::size_t i = 0; i < unacked_.size();) {
    Pending& pending = unacked_[i];
    if (now_s < pending.next_retry_s) {
      ++i;
      continue;
    }
    if (pending.retransmits >= options_.max_retransmits) {
      // Budget spent: the peer is presumed dead. Stay silent — the
      // engine's liveness machinery (heartbeat timeouts, speculation)
      // owns that diagnosis, and pure-collective callers surface it as a
      // recv timeout.
      stats_.abandoned += 1;
      unacked_.erase(unacked_.begin() + static_cast<std::ptrdiff_t>(i));
      continue;
    }
    pending.retransmits += 1;
    stats_.retransmits += 1;
    pending.backoff_s = std::min(pending.backoff_s * options_.backoff_factor,
                                 options_.max_backoff_s);
    pending.next_retry_s = now_s + pending.backoff_s + jitter();
    comm_->send_raw(pending.dest, pending.tag, pending.type_hash,
                    pending.envelope);
    ++i;
  }
}

void ReliableComm::demux(mp::RawMessage raw) {
  if (raw.tag == kReliableAckTag) {
    const AckRecord ack = mp::Codec<AckRecord>::decode(raw.payload);
    stats_.acks_received += 1;
    for (std::size_t i = 0; i < unacked_.size(); ++i) {
      if (unacked_[i].dest == raw.source && unacked_[i].seq == ack.seq) {
        unacked_.erase(unacked_.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      }
    }
    return;
  }
  if (raw.payload.size() < kEnvelopeBytes) {
    throw mp::MpError(
        "ReliableComm: received an unenveloped message — every rank of a "
        "world must wrap its endpoint in ReliableComm");
  }
  std::uint64_t seq = 0;
  std::uint64_t flags = 0;
  std::memcpy(&seq, raw.payload.data(), sizeof(seq));
  std::memcpy(&flags, raw.payload.data() + sizeof(seq), sizeof(flags));
  raw.payload = raw.payload.slice(kEnvelopeBytes,
                                  raw.payload.size() - kEnvelopeBytes);
  if (seq == 0) {
    delivered_.push_back(std::move(raw));  // fire-and-forget
    return;
  }
  // Ack every sequenced arrival, duplicates included: a duplicate
  // usually means our previous ack (or the original send) was lost.
  if ((flags & kFlagNeedsAck) != 0) {
    AckRecord ack;
    ack.seq = seq;
    stats_.acks_sent += 1;
    comm_->send_raw(raw.source, kReliableAckTag,
                    mp::type_hash_of<AckRecord>(),
                    mp::Codec<AckRecord>::encode(ack));
  }
  RecvLink& link = recv_links_[raw.source];
  if (seq < link.next_expected || link.stash.count(seq) != 0) {
    stats_.duplicates_dropped += 1;
    return;
  }
  if (seq != link.next_expected) {
    stats_.out_of_order_stashed += 1;
    link.stash.emplace(seq, std::move(raw));
    return;
  }
  delivered_.push_back(std::move(raw));
  link.next_expected += 1;
  auto it = link.stash.begin();
  while (it != link.stash.end() && it->first == link.next_expected) {
    delivered_.push_back(std::move(it->second));
    it = link.stash.erase(it);
    link.next_expected += 1;
  }
}

bool ReliableComm::take_delivered(int source, int tag, mp::RawMessage* out) {
  for (auto it = delivered_.begin(); it != delivered_.end(); ++it) {
    if ((source == mp::kAnySource || it->source == source) &&
        (tag == mp::kAnyTag || it->tag == tag)) {
      *out = std::move(*it);
      delivered_.erase(it);
      return true;
    }
  }
  return false;
}

}  // namespace pblpar::cluster

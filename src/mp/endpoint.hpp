#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "mp/buffer.hpp"
#include "mp/message.hpp"
#include "util/error.hpp"

namespace pblpar::mp {

/// Wildcards for Endpoint::recv.
constexpr int kAnySource = -1;
constexpr int kAnyTag = -1;

/// Source and tag of a received message (MPI_Status equivalent).
struct RecvStatus {
  int source = -1;
  int tag = -1;
};

/// Snapshot of one rank's outbound wire traffic (messages sent and
/// payload bytes shipped), surfaced per rank by Endpoint::wire_stats and
/// in the cluster profile schema. The chaos_* counters record what an
/// armed TransportChaos plan injected on this rank's outbound links; all
/// zero when chaos is off.
struct WireStats {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t chaos_dropped = 0;
  std::uint64_t chaos_duplicated = 0;
  std::uint64_t chaos_delayed = 0;
  std::uint64_t chaos_reordered = 0;
};

/// One rank's handle on a world (the TeachMPI analogue of MPI_COMM_WORLD
/// seen from one process), whatever carries the bytes: the host world
/// (mp::Comm), the simulated cluster (mp::SimComm) or the ack/retry layer
/// over either (cluster::ReliableComm).
///
/// A transport implements the raw surface below plus its clock; the
/// typed point-to-point calls and every collective are written once, here,
/// on top of it. Point-to-point sends are buffered (never block);
/// receives block until a matching message arrives or the world's
/// timeout expires. Collectives must be called by every rank, in the same
/// order; their algorithms live in mp/collectives.{hpp,cpp}.
class Endpoint {
 public:
  virtual ~Endpoint();

  virtual int rank() const = 0;
  virtual int size() const = 0;

  // --- raw transport ----------------------------------------------------------

  /// Segment size for pipelined tree collectives; 0 means "never
  /// segment".
  virtual std::size_t pipeline_segment_bytes() const = 0;

  virtual void send_raw(int dest, int tag, std::size_t type_hash,
                        Buffer payload) = 0;

  /// A send the transport may lose without retrying: idempotent liveness
  /// traffic (the cluster engine's heartbeats). A plain send everywhere
  /// except on a reliability layer.
  virtual void send_raw_fire_and_forget(int dest, int tag,
                                        std::size_t type_hash,
                                        Buffer payload) {
    send_raw(dest, tag, type_hash, std::move(payload));
  }

  virtual RawMessage recv_raw(int source, int tag) = 0;

  /// Non-throwing timed receive on this transport's clock: true and *out
  /// filled when a match arrives within `timeout_s`, false on timeout. A
  /// zero (or negative) timeout is a poll.
  virtual bool recv_raw_timed(int source, int tag, double timeout_s,
                              RawMessage* out) = 0;

  /// Outbound traffic of `rank` so far (default: this rank). Counters
  /// are world-wide, so any rank can snapshot every rank's totals.
  virtual WireStats wire_stats(int rank = -1) const = 0;

  // --- clock and modelled work -----------------------------------------------

  /// Seconds on this transport's clock: steady wall time on the host,
  /// virtual time on the Sim world.
  virtual double now() = 0;

  /// True when now() is simulated time, so traces pick the matching
  /// clock track.
  virtual bool virtual_time() const { return false; }

  /// Charge modelled work: abstract operations or seconds. No-ops on the
  /// host, where work is real; the Sim world advances this rank's
  /// virtual clock.
  virtual void charge_ops(double /*ops*/) {}
  virtual void charge_seconds(double /*seconds*/) {}

  // --- point to point ---------------------------------------------------------

  template <class T>
  void send(int dest, int tag, const T& value) {
    util::require(tag >= 0, "Endpoint::send: user tags must be non-negative");
    send_raw(dest, tag, type_hash_of<T>(), Codec<T>::encode(value));
  }

  /// Move-of-ownership send: the vector's storage becomes the payload,
  /// no bytes are copied.
  template <class U>
  void send(int dest, int tag, std::vector<U>&& values) {
    util::require(tag >= 0, "Endpoint::send: user tags must be non-negative");
    send_raw(dest, tag, type_hash_of<std::vector<U>>(),
             Codec<std::vector<U>>::encode(std::move(values)));
  }

  void send(int dest, int tag, std::string&& text) {
    util::require(tag >= 0, "Endpoint::send: user tags must be non-negative");
    send_raw(dest, tag, type_hash_of<std::string>(),
             Codec<std::string>::encode(std::move(text)));
  }

  template <class T>
  T recv(int source = kAnySource, int tag = kAnyTag,
         RecvStatus* status = nullptr) {
    RawMessage message = recv_typed(type_hash_of<T>(), source, tag, status);
    return Codec<T>::decode(message.payload);
  }

  /// Zero-copy receive of a vector payload: the returned view owns the
  /// message buffer and exposes the elements in place (no decode copy).
  template <class U>
  PayloadView<U> recv_view(int source = kAnySource, int tag = kAnyTag,
                           RecvStatus* status = nullptr) {
    RawMessage message =
        recv_typed(type_hash_of<std::vector<U>>(), source, tag, status);
    return PayloadView<U>(std::move(message.payload));
  }

  /// Combined shift: buffered send then blocking receive, so ring shifts
  /// cannot deadlock.
  template <class T>
  T sendrecv(int dest, int send_tag, const T& value, int source,
             int recv_tag) {
    send(dest, send_tag, value);
    return recv<T>(source, recv_tag);
  }

  // --- collectives ------------------------------------------------------------
  // The byte-level members are compiled in mp/collectives.cpp; the typed
  // ones are defined in mp/collectives.hpp, included below.

  void barrier();

  template <class T>
  void bcast(T& value, int root = 0);

  /// Raw payload broadcast: root's buffer in, every rank's buffer out.
  /// Zero-copy at non-root ranks for small payloads (the received frame
  /// is kept), one assembly copy above the pipeline threshold.
  void bcast_raw(Buffer& payload, int root = 0);

  template <class T, class Op>
  T reduce(const T& value, Op op, int root = 0);

  template <class T, class Op>
  T allreduce(const T& value, Op op);

  /// In-place element-wise reduction of equal-length vectors, pipelined
  /// in segments above the pipeline threshold. Root's vector holds the
  /// result.
  template <class U, class Op>
  void reduce_elementwise(std::vector<U>& data, Op op, int root = 0);

  template <class U, class Op>
  void allreduce_elementwise(std::vector<U>& data, Op op);

  template <class T>
  T scatter(const std::vector<T>& values, int root = 0);

  /// Zero-copy scatter of pre-built payload blobs (one Buffer per rank).
  Buffer scatter_raw(std::vector<Buffer> blobs, int root = 0);

  template <class T>
  std::vector<T> gather(const T& value, int root = 0);

  /// Zero-copy gather of payload blobs; non-root ranks return empty.
  std::vector<Buffer> gather_raw(Buffer blob, int root = 0);

  template <class T>
  std::vector<T> allgather(const T& value);

  /// Zero-copy allgather: move this rank's vector in, get a read-only
  /// view of every rank's elements back. All views alias the one packed
  /// broadcast frame — no per-rank decode copies.
  template <class U>
  std::vector<PayloadView<U>> allgather_view(std::vector<U>&& values);

  /// In-place ring allreduce for any element count (uneven segments) and
  /// any trivially copyable element.
  template <class U, class Op>
  void ring_allreduce(std::vector<U>& data, Op op);

  std::vector<double> ring_allreduce_sum(std::vector<double> data);

 protected:
  // Copyable only as part of a whole transport object, never sliced.
  Endpoint() = default;
  Endpoint(const Endpoint&) = default;
  Endpoint(Endpoint&&) = default;
  Endpoint& operator=(const Endpoint&) = default;
  Endpoint& operator=(Endpoint&&) = default;

 private:
  /// Blocking receive that checks the matched payload's type identity.
  RawMessage recv_typed(std::size_t type_hash, int source, int tag,
                        RecvStatus* status);
};

}  // namespace pblpar::mp

// Definitions of the typed collective members.
#include "mp/collectives.hpp"

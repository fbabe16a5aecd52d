#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "mp/buffer.hpp"
#include "mp/message.hpp"
#include "util/error.hpp"

namespace pblpar::mp::detail {

// Internal collective tags. kAnyTag is -1, so internal tags start at -2;
// user tags must be non-negative.
constexpr int kTagBarrierUp = -2;
constexpr int kTagBarrierDown = -3;
constexpr int kTagBcast = -4;
constexpr int kTagReduce = -5;
constexpr int kTagScatter = -6;
constexpr int kTagGather = -7;
constexpr int kTagRingA = -8;
constexpr int kTagRingB = -9;

/// Default segment size for pipelined tree collectives on a *network*
/// transport: payloads above this travel as segments so a deep tree
/// streams instead of store-and-forwarding whole payloads hop by hop.
/// The segment size is a transport property (pipeline_segment_bytes()):
/// SimComm defaults to this value because its alpha-beta network really
/// does store-and-forward; the host Comm defaults to "never segment",
/// because a host frame is a refcounted pointer — forwarding the whole
/// payload is free and splitting it only adds assembly copies.
constexpr std::size_t kPipelineSegmentBytes = std::size_t{256} << 10;

/// Transports report 0 for "never segment"; normalize that to a segment
/// size no payload can exceed.
inline std::size_t effective_segment_bytes(std::size_t seg) {
  return seg == 0 ? std::numeric_limits<std::size_t>::max() : seg;
}

/// Frame markers for the segmented protocol, carried in the message's
/// type_hash field: a header frame announces the total byte count, then
/// the segments follow on the same (source, tag) FIFO.
struct SegmentHeaderFrame {};
struct SegmentFrame {};

inline std::size_t header_hash() { return type_hash_of<SegmentHeaderFrame>(); }
inline std::size_t segment_hash() { return type_hash_of<SegmentFrame>(); }
inline std::size_t raw_bytes_hash() { return type_hash_of<Buffer>(); }

inline std::size_t segment_count(std::size_t bytes, std::size_t seg) {
  return bytes <= seg ? 1 : (bytes + seg - 1) / seg;
}

/// The collective algorithms, written against the raw surface of
/// mp::Endpoint (rank, size, pipeline_segment_bytes, send_raw, recv_raw).
/// Endpoint's collective members are their only callers, so the host
/// world (mp::Comm), the simulated cluster (mp::SimComm) and the
/// reliability layer over either share one instantiation per payload
/// type, and one set of tests.

inline void check_root(int root, int size) {
  util::require(root >= 0 && root < size, "collective: root rank out of range");
}

inline int relative_rank(int rank, int root, int size) {
  return (rank - root + size) % size;
}

inline int absolute_rank(int relative, int root, int size) {
  return (relative + root) % size;
}

/// Linear gather of arrivals at rank 0, then a linear release — O(size)
/// messages, trivially correct at classroom scales.
template <class Transport>
void barrier(Transport& t) {
  if (t.rank() == 0) {
    for (int r = 1; r < t.size(); ++r) {
      (void)t.recv_raw(-1, kTagBarrierUp);
    }
    for (int r = 1; r < t.size(); ++r) {
      t.send_raw(r, kTagBarrierDown, 0, {});
    }
  } else {
    t.send_raw(0, kTagBarrierUp, 0, {});
    (void)t.recv_raw(0, kTagBarrierDown);
  }
}

// --- segmented binomial broadcast core --------------------------------------

/// Sink receiving the broadcast bytes at a non-root rank. Two delivery
/// paths: take() hands over the single whole-payload frame (move, zero
/// copies), dst() names the destination for segment-by-segment assembly
/// (the assembly is the one counted copy).
struct BufferSink {
  Buffer* out;
  std::byte* dst(std::size_t total) {
    *out = Buffer::uninitialized(total);
    return out->mutable_data();
  }
  void take(Buffer&& whole) { *out = std::move(whole); }
};

/// Broadcast `payload` (root's input) down the binomial tree rooted at
/// `root`. Small payloads travel as one frame per tree edge; payloads
/// above kPipelineSegmentBytes travel as a header frame plus refcounted
/// segment slices, forwarded to children as they arrive (pipelined, no
/// re-encode, no store-and-forward of the whole payload).
template <class Transport, class Sink>
void bcast_bytes(Transport& t, int root, const Buffer& payload, Sink&& sink) {
  const int size = t.size();
  const int relative = relative_rank(t.rank(), root, size);

  // Parent = lowest set bit of the relative rank; children = the bits
  // below it (descending), exactly the classic binomial order.
  int mask = 1;
  int parent = -1;
  while (mask < size) {
    if ((relative & mask) != 0) {
      parent = absolute_rank(relative ^ mask, root, size);
      break;
    }
    mask <<= 1;
  }
  const auto for_children = [&](auto&& fn) {
    for (int m = mask >> 1; m > 0; m >>= 1) {
      if (relative + m < size) {
        fn(absolute_rank(relative + m, root, size));
      }
    }
  };

  if (parent < 0) {  // root
    const std::size_t seg = effective_segment_bytes(t.pipeline_segment_bytes());
    const std::size_t total = payload.size();
    if (segment_count(total, seg) == 1) {
      for_children([&](int child) {
        t.send_raw(child, kTagBcast, raw_bytes_hash(), payload);
      });
      return;
    }
    const Buffer header =
        Codec<std::uint64_t>::encode(static_cast<std::uint64_t>(total));
    for_children([&](int child) {
      t.send_raw(child, kTagBcast, header_hash(), header);
    });
    for (std::size_t offset = 0; offset < total; offset += seg) {
      const std::size_t len = std::min(seg, total - offset);
      const Buffer piece = payload.slice(offset, len);
      for_children([&](int child) {
        t.send_raw(child, kTagBcast, segment_hash(), piece);
      });
    }
    return;
  }

  RawMessage first = t.recv_raw(parent, kTagBcast);
  if (first.type_hash != header_hash()) {
    // Whole payload in one frame: forward the refcounted buffer, then
    // hand it to the sink.
    for_children([&](int child) {
      t.send_raw(child, kTagBcast, first.type_hash, first.payload);
    });
    sink.take(std::move(first.payload));
    return;
  }
  const auto total =
      static_cast<std::size_t>(Codec<std::uint64_t>::decode(first.payload));
  for_children([&](int child) {
    t.send_raw(child, kTagBcast, header_hash(), first.payload);
  });
  // Assemble until the announced total arrives — the receiver needs no
  // knowledge of the sender's segment size.
  std::byte* dst = sink.dst(total);
  std::size_t offset = 0;
  while (offset < total) {
    RawMessage piece = t.recv_raw(parent, kTagBcast);
    for_children([&](int child) {
      t.send_raw(child, kTagBcast, segment_hash(), piece.payload);
    });
    util::ensure(offset + piece.payload.size() <= total,
                 "bcast: segmented payload overruns the header total");
    copy_payload(dst + offset, piece.payload.data(), piece.payload.size());
    offset += piece.payload.size();
  }
}

/// Raw broadcast of a payload buffer: root's `payload` in, every rank's
/// `payload` out. Zero-copy at non-root ranks for small payloads (the
/// received frame is kept), one assembly copy above the pipeline
/// threshold.
template <class Transport>
void bcast_raw(Transport& t, Buffer& payload, int root) {
  check_root(root, t.size());
  if (t.size() == 1) {
    return;
  }
  if (t.rank() == root) {
    Buffer unused;
    bcast_bytes(t, root, payload, BufferSink{&unused});
    return;
  }
  Buffer received;
  bcast_bytes(t, root, Buffer{}, BufferSink{&received});
  payload = std::move(received);
}

// --- typed broadcast --------------------------------------------------------

/// Containers whose bytes can be assembled in place at the receiver:
/// std::vector of trivially copyable elements and std::string. For
/// these, the segment assembly *is* the decode copy, so a large bcast
/// costs one copy at the root (encode) and one per receiving rank.
template <class T>
struct ContiguousBytes : std::false_type {};

template <class U>
struct ContiguousBytes<std::vector<U>>
    : std::bool_constant<std::is_trivially_copyable_v<U>> {
  static std::byte* resize(std::vector<U>& c, std::size_t bytes) {
    if (bytes % sizeof(U) != 0) {
      throw MpTypeError("TeachMPI: payload size mismatch for vector type");
    }
    c.resize(bytes / sizeof(U));
    return reinterpret_cast<std::byte*>(c.data());
  }
};

template <>
struct ContiguousBytes<std::string> : std::true_type {
  static std::byte* resize(std::string& c, std::size_t bytes) {
    c.resize(bytes);
    return reinterpret_cast<std::byte*>(c.data());
  }
};

template <class C>
struct ContiguousSink {
  C* out;
  std::byte* dst(std::size_t total) {
    return ContiguousBytes<C>::resize(*out, total);
  }
  void take(Buffer&& whole) {
    std::byte* p = ContiguousBytes<C>::resize(*out, whole.size());
    copy_payload(p, whole.data(), whole.size());
  }
};

/// Binomial-tree broadcast (MPICH-style), segmented above the pipeline
/// threshold. Vector and string payloads are assembled straight into the
/// caller's object; other payload types round-trip through Codec.
template <class T, class Transport>
void bcast(Transport& t, T& value, int root) {
  check_root(root, t.size());
  if (t.size() == 1) {
    return;
  }
  if constexpr (ContiguousBytes<T>::value) {
    Buffer payload;
    if (t.rank() == root) {
      payload = Codec<T>::encode(value);
    }
    bcast_bytes(t, root, payload, ContiguousSink<T>{&value});
  } else {
    Buffer payload;
    if (t.rank() == root) {
      payload = Codec<T>::encode(value);
      bcast_bytes(t, root, payload, BufferSink{&payload});
    } else {
      Buffer received;
      bcast_bytes(t, root, payload, BufferSink{&received});
      value = Codec<T>::decode(received.view());
    }
  }
}

// --- reductions -------------------------------------------------------------

/// Binomial-tree reduction toward `root` with a commutative, associative
/// op. Non-root ranks return their partial; only root's value is final.
template <class T, class Op, class Transport>
T reduce(Transport& t, const T& value, Op op, int root) {
  check_root(root, t.size());
  const int relative = relative_rank(t.rank(), root, t.size());
  T accumulated = value;
  int mask = 1;
  while (mask < t.size()) {
    if ((relative & mask) == 0) {
      const int partner = relative | mask;
      if (partner < t.size()) {
        const RawMessage message = t.recv_raw(
            absolute_rank(partner, root, t.size()), kTagReduce);
        accumulated = op(accumulated, Codec<T>::decode(message.payload));
      }
    } else {
      t.send_raw(absolute_rank(relative ^ mask, root, t.size()), kTagReduce,
                 type_hash_of<T>(), Codec<T>::encode(accumulated));
      break;
    }
    mask <<= 1;
  }
  return accumulated;
}

template <class T, class Op, class Transport>
T allreduce(Transport& t, const T& value, Op op) {
  T result = reduce(t, value, op, 0);
  bcast(t, result, 0);
  return result;
}

/// In-place element-wise binomial reduction of equal-length vectors,
/// pipelined in segments: a rank folds segment s from every child, then
/// forwards its partial segment s to its parent while later segments
/// are still in flight. Only root's vector holds the full reduction.
template <class U, class Op, class Transport>
void reduce_elementwise(Transport& t, std::vector<U>& data, Op op, int root) {
  static_assert(std::is_trivially_copyable_v<U>);
  check_root(root, t.size());
  const int size = t.size();
  if (size == 1) {
    return;
  }
  const int relative = relative_rank(t.rank(), root, size);

  // Children in ascending-mask order (they finish combining in that
  // order), parent at the lowest set bit — same tree as reduce().
  std::vector<int> children;
  int parent = -1;
  for (int mask = 1; mask < size; mask <<= 1) {
    if ((relative & mask) == 0) {
      const int partner = relative | mask;
      if (partner < size) {
        children.push_back(absolute_rank(partner, root, size));
      }
    } else {
      parent = absolute_rank(relative ^ mask, root, size);
      break;
    }
  }

  const std::size_t n = data.size();
  const std::size_t seg = effective_segment_bytes(t.pipeline_segment_bytes());
  const std::size_t per_segment = std::max<std::size_t>(1, seg / sizeof(U));
  const std::size_t segments =
      n == 0 ? 1 : (n + per_segment - 1) / per_segment;
  for (std::size_t s = 0; s < segments; ++s) {
    const std::size_t begin = std::min(n, s * per_segment);
    const std::size_t count = std::min(per_segment, n - begin);
    for (const int child : children) {
      const RawMessage message = t.recv_raw(child, kTagReduce);
      const std::span<const U> incoming =
          Codec<std::vector<U>>::view(message.payload);
      util::require(incoming.size() == count,
                    "reduce_elementwise: ranks disagree on the element count");
      for (std::size_t i = 0; i < count; ++i) {
        data[begin + i] = op(data[begin + i], incoming[i]);
      }
    }
    if (parent >= 0) {
      t.send_raw(parent, kTagReduce, segment_hash(),
                 Buffer::copy_of(data.data() + begin, count * sizeof(U)));
    }
  }
}

template <class U, class Op, class Transport>
void allreduce_elementwise(Transport& t, std::vector<U>& data, Op op) {
  reduce_elementwise(t, data, op, 0);
  bcast(t, data, 0);
}

// --- scatter / gather / allgather -------------------------------------------

template <class T, class Transport>
T scatter(Transport& t, const std::vector<T>& values, int root) {
  check_root(root, t.size());
  if (t.rank() == root) {
    util::require(static_cast<int>(values.size()) == t.size(),
                  "scatter: root must supply one value per rank");
    for (int r = 0; r < t.size(); ++r) {
      if (r != root) {
        t.send_raw(r, kTagScatter, type_hash_of<T>(),
                   Codec<T>::encode(values[static_cast<std::size_t>(r)]));
      }
    }
    return values[static_cast<std::size_t>(root)];
  }
  const RawMessage message = t.recv_raw(root, kTagScatter);
  return Codec<T>::decode(message.payload);
}

/// Zero-copy scatter of pre-built payload blobs: root moves one buffer
/// to each rank, every rank gets its blob without a copy.
template <class Transport>
Buffer scatter_raw(Transport& t, std::vector<Buffer> blobs, int root) {
  check_root(root, t.size());
  if (t.rank() == root) {
    util::require(static_cast<int>(blobs.size()) == t.size(),
                  "scatter_raw: root must supply one blob per rank");
    for (int r = 0; r < t.size(); ++r) {
      if (r != root) {
        t.send_raw(r, kTagScatter, raw_bytes_hash(),
                   std::move(blobs[static_cast<std::size_t>(r)]));
      }
    }
    return std::move(blobs[static_cast<std::size_t>(root)]);
  }
  RawMessage message = t.recv_raw(root, kTagScatter);
  return std::move(message.payload);
}

template <class T, class Transport>
std::vector<T> gather(Transport& t, const T& value, int root) {
  check_root(root, t.size());
  if (t.rank() == root) {
    std::vector<T> collected(static_cast<std::size_t>(t.size()), value);
    for (int r = 0; r < t.size(); ++r) {
      if (r != root) {
        const RawMessage message = t.recv_raw(r, kTagGather);
        collected[static_cast<std::size_t>(r)] =
            Codec<T>::decode(message.payload);
      }
    }
    return collected;
  }
  t.send_raw(root, kTagGather, type_hash_of<T>(), Codec<T>::encode(value));
  return {};
}

/// Zero-copy gather of payload blobs: root receives each rank's buffer
/// as sent (no decode copy); non-root ranks return an empty vector.
template <class Transport>
std::vector<Buffer> gather_raw(Transport& t, Buffer blob, int root) {
  check_root(root, t.size());
  if (t.rank() == root) {
    std::vector<Buffer> collected(static_cast<std::size_t>(t.size()));
    collected[static_cast<std::size_t>(root)] = std::move(blob);
    for (int r = 0; r < t.size(); ++r) {
      if (r != root) {
        RawMessage message = t.recv_raw(r, kTagGather);
        collected[static_cast<std::size_t>(r)] = std::move(message.payload);
      }
    }
    return collected;
  }
  t.send_raw(root, kTagGather, raw_bytes_hash(), std::move(blob));
  return {};
}

/// Shared core of allgather and allgather_view: gather each rank's
/// encoded payload to rank 0 (n - 1 messages), pack them into one
/// length-prefixed frame, and broadcast that frame down the binomial
/// tree (n - 1 frames when the pack fits one segment — 2(n - 1)
/// messages total). Returns the packed frame on every rank.
template <class Transport>
Buffer allgather_pack(Transport& t, Buffer mine) {
  std::vector<Buffer> gathered = gather_raw(t, std::move(mine), 0);
  Buffer packed;
  if (t.rank() == 0) {
    std::size_t total = 0;
    for (const Buffer& blob : gathered) {
      total += sizeof(std::uint64_t) + blob.size();
    }
    packed = Buffer::uninitialized(total);
    std::byte* p = packed.mutable_data();
    for (const Buffer& blob : gathered) {
      const auto len = static_cast<std::uint64_t>(blob.size());
      std::memcpy(p, &len, sizeof(len));
      p += sizeof(len);
      copy_payload(p, blob.data(), blob.size());
      p += blob.size();
    }
  }
  bcast_raw(t, packed, 0);
  return packed;
}

/// Read the next length-prefixed slice of a packed allgather frame:
/// returns {payload offset, payload length} and advances `cursor` past
/// the slice.
inline std::pair<std::size_t, std::size_t> next_packed_slice(
    const Buffer& packed, std::size_t& cursor) {
  std::uint64_t len = 0;
  if (cursor + sizeof(len) > packed.size()) {
    throw MpTypeError("allgather: truncated pack frame");
  }
  std::memcpy(&len, packed.data() + cursor, sizeof(len));
  cursor += sizeof(len);
  if (len > packed.size() - cursor) {
    throw MpTypeError("allgather: truncated pack frame");
  }
  const std::size_t offset = cursor;
  cursor += static_cast<std::size_t>(len);
  return {offset, static_cast<std::size_t>(len)};
}

/// Allgather in O(n) messages via one packed broadcast frame. The old
/// element-wise bcast loop cost n * ceil(log2 n) messages and decoded /
/// re-encoded at every hop.
template <class T, class Transport>
std::vector<T> allgather(Transport& t, const T& value) {
  const int n = t.size();
  if (n == 1) {
    return std::vector<T>{value};
  }
  const Buffer packed = allgather_pack(t, Codec<T>::encode(value));
  std::vector<T> out;
  out.reserve(static_cast<std::size_t>(n));
  std::size_t cursor = 0;
  for (int r = 0; r < n; ++r) {
    const auto [offset, len] = next_packed_slice(packed, cursor);
    out.push_back(Codec<T>::decode(ByteView(packed.data() + offset, len)));
  }
  return out;
}

/// Zero-copy allgather of vector payloads: each rank moves its vector
/// in and gets a read-only view of every rank's elements back. All n
/// views alias the single packed broadcast frame, so beyond the pack
/// copy at rank 0 no per-rank decode copies are made. Requires
/// alignof(U) <= alignof(std::uint64_t): slice offsets inside the pack
/// are only aligned that far.
template <class U, class Transport>
std::vector<PayloadView<U>> allgather_view(Transport& t,
                                           std::vector<U>&& values) {
  const int n = t.size();
  Buffer mine = Codec<std::vector<U>>::encode(std::move(values));
  if (n == 1) {
    std::vector<PayloadView<U>> views;
    views.push_back(PayloadView<U>(std::move(mine)));
    return views;
  }
  const Buffer packed = allgather_pack(t, std::move(mine));
  std::vector<PayloadView<U>> views;
  views.reserve(static_cast<std::size_t>(n));
  std::size_t cursor = 0;
  for (int r = 0; r < n; ++r) {
    const auto [offset, len] = next_packed_slice(packed, cursor);
    views.push_back(PayloadView<U>(packed.slice(offset, len)));
  }
  return views;
}

// --- ring allreduce ---------------------------------------------------------

/// Bandwidth-optimal ring allreduce, in place, for any element count
/// (uneven floor segments — segment k covers [k*N/n, (k+1)*N/n)) and
/// any trivially copyable element. Reduce-scatter around the ring, then
/// allgather the reduced segments; each step ships one pooled copy of
/// the outgoing slice and folds the incoming slice through a zero-copy
/// view — no per-step slice vectors.
template <class U, class Op, class Transport>
void ring_allreduce(Transport& t, std::vector<U>& data, Op op) {
  static_assert(std::is_trivially_copyable_v<U>);
  const int n = t.size();
  if (n == 1) {
    return;
  }
  const std::size_t total = data.size();
  const int next = (t.rank() + 1) % n;
  const int prev = (t.rank() - 1 + n) % n;
  const auto seg_begin = [&](int k) {
    return static_cast<std::size_t>(k) * total / static_cast<std::size_t>(n);
  };
  const auto send_segment = [&](int index, int tag) {
    const std::size_t begin = seg_begin(index);
    const std::size_t count = seg_begin(index + 1) - begin;
    t.send_raw(next, tag, segment_hash(),
               Buffer::copy_of(data.data() + begin, count * sizeof(U)));
  };

  // Phase 1: reduce-scatter. After n-1 steps rank r owns the fully
  // reduced segment (r+1) mod n.
  for (int step = 0; step < n - 1; ++step) {
    const int send_index = (t.rank() - step + n) % n;
    const int recv_index = (t.rank() - step - 1 + n) % n;
    send_segment(send_index, kTagRingA);
    const RawMessage message = t.recv_raw(prev, kTagRingA);
    const std::span<const U> incoming =
        Codec<std::vector<U>>::view(message.payload);
    const std::size_t begin = seg_begin(recv_index);
    for (std::size_t i = 0; i < incoming.size(); ++i) {
      data[begin + i] = op(data[begin + i], incoming[i]);
    }
  }

  // Phase 2: allgather the reduced segments around the ring.
  for (int step = 0; step < n - 1; ++step) {
    const int send_index = ((t.rank() + 1 - step) % n + n) % n;
    const int recv_index = (t.rank() - step + n) % n;
    send_segment(send_index, kTagRingB);
    const RawMessage message = t.recv_raw(prev, kTagRingB);
    copy_payload(data.data() + seg_begin(recv_index), message.payload.data(),
                 message.payload.size());
  }
}

template <class Transport>
std::vector<double> ring_allreduce_sum(Transport& t,
                                       std::vector<double> data) {
  ring_allreduce(t, data, [](double a, double b) { return a + b; });
  return data;
}

}  // namespace pblpar::mp::detail

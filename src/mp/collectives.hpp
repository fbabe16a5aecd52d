#pragma once

// The collectives of mp::Endpoint. The byte-level algorithms — barrier,
// the segmented binomial broadcast, scatter_raw, gather_raw and the
// packed allgather frame — are compiled once, in collectives.cpp. This
// header holds the typed members written over them: they need the
// payload type or the reduction op, so they stay templates.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "mp/buffer.hpp"
#include "mp/endpoint.hpp"
#include "mp/message.hpp"
#include "util/error.hpp"

namespace pblpar::mp {
namespace detail {

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

/// Frame marker for a segment of a pipelined collective, carried in the
/// message's type_hash field.
struct SegmentFrame {};

inline std::size_t segment_hash() { return type_hash_of<SegmentFrame>(); }

inline void check_root(int root, int size) {
  util::require(root >= 0 && root < size, "collective: root rank out of range");
}

/// One rank's place in the binomial tree rooted at `root` (MPICH's
/// tree): the parent sits at the lowest set bit of the rank relative to
/// the root, the children at the bits below it. `parent` is -1 at the
/// root; `children` are absolute ranks in ascending-mask order.
struct BinomialTree {
  int parent = -1;
  std::vector<int> children;
};

BinomialTree binomial_tree(int rank, int root, int size);

/// Where a non-root rank's broadcast bytes land. Two delivery paths:
/// take() hands over the single whole-payload frame (move, zero copies),
/// dst() names the destination for segment-by-segment assembly (the
/// assembly is the one counted copy).
class ByteSink {
 public:
  virtual std::byte* dst(std::size_t total) = 0;
  virtual void take(Buffer&& whole) = 0;

 protected:
  ~ByteSink() = default;
};

/// Broadcast `payload` (read at the root only) down the binomial tree
/// rooted at `root`; every other rank receives it through `sink`. Small
/// payloads travel as one frame per tree edge; payloads above the
/// transport's pipeline segment size travel as a header frame plus
/// refcounted segment slices, forwarded to children as they arrive
/// (pipelined, no re-encode, no store-and-forward of the whole payload).
void bcast_bytes(Endpoint& ep, int root, const Buffer& payload,
                 ByteSink& sink);

/// The frame loops behind scatter_raw/gather_raw, with the type identity
/// the frames carry: raw blobs for the raw calls, the payload type for
/// scatter<T>/gather<T>.
Buffer scatter_frames(Endpoint& ep, std::vector<Buffer> blobs, int root,
                      std::size_t type_hash);
std::vector<Buffer> gather_frames(Endpoint& ep, Buffer blob, int root,
                                  std::size_t type_hash);

/// Shared core of allgather and allgather_view: gather each rank's
/// encoded payload to rank 0 (n - 1 messages), pack them into one
/// length-prefixed frame, and broadcast that frame down the binomial
/// tree (n - 1 frames when the pack fits one segment — 2(n - 1)
/// messages total). Returns rank r's payload at index r on every rank,
/// each a refcounted slice of the one packed frame.
std::vector<Buffer> allgather_slices(Endpoint& ep, Buffer mine);

/// Read the next length-prefixed slice of a packed allgather frame:
/// returns {payload offset, payload length} and advances `cursor` past
/// the slice. A truncated frame throws MpTypeError.
std::pair<std::size_t, std::size_t> next_packed_slice(const Buffer& packed,
                                                      std::size_t& cursor);

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
class ContiguousSink final : public ByteSink {
 public:
  explicit ContiguousSink(C& out) : out_(&out) {}
  std::byte* dst(std::size_t total) override {
    return ContiguousBytes<C>::resize(*out_, total);
  }
  void take(Buffer&& whole) override {
    std::byte* p = ContiguousBytes<C>::resize(*out_, whole.size());
    copy_payload(p, whole.data(), whole.size());
  }

 private:
  C* out_;
};

}  // namespace detail

// --- broadcast ---------------------------------------------------------------

/// Binomial-tree broadcast (MPICH-style), segmented above the pipeline
/// threshold. Vector and string payloads are assembled straight into the
/// caller's object; other payload types round-trip through Codec.
template <class T>
void Endpoint::bcast(T& value, int root) {
  detail::check_root(root, size());
  if (size() == 1) {
    return;
  }
  Buffer payload;
  if (rank() == root) {
    payload = Codec<T>::encode(value);
  }
  if constexpr (detail::ContiguousBytes<T>::value) {
    detail::ContiguousSink<T> sink(value);
    detail::bcast_bytes(*this, root, payload, sink);
  } else {
    bcast_raw(payload, root);
    if (rank() != root) {
      value = Codec<T>::decode(payload.view());
    }
  }
}

// --- reductions --------------------------------------------------------------

/// Binomial-tree reduction toward `root` with a commutative, associative
/// op. Non-root ranks return their partial; only root's value is final.
template <class T, class Op>
T Endpoint::reduce(const T& value, Op op, int root) {
  detail::check_root(root, size());
  const detail::BinomialTree tree = detail::binomial_tree(rank(), root, size());
  T accumulated = value;
  for (const int child : tree.children) {
    const RawMessage message = recv_raw(child, detail::kTagReduce);
    accumulated = op(accumulated, Codec<T>::decode(message.payload));
  }
  if (tree.parent >= 0) {
    send_raw(tree.parent, detail::kTagReduce, type_hash_of<T>(),
             Codec<T>::encode(accumulated));
  }
  return accumulated;
}

template <class T, class Op>
T Endpoint::allreduce(const T& value, Op op) {
  T result = reduce(value, op, 0);
  bcast(result, 0);
  return result;
}

/// In-place element-wise binomial reduction of equal-length vectors,
/// pipelined in segments: a rank folds segment s from every child, then
/// forwards its partial segment s to its parent while later segments
/// are still in flight. Only root's vector holds the full reduction.
///
/// The first segment opens with the sender's total element count
/// (padded to the element alignment), checked before anything is
/// folded: a rank longer or shorter by whole segments would otherwise
/// send only segments of the expected size, and either leave its
/// surplus queued for the next reduce or leave its parent waiting.
template <class U, class Op>
void Endpoint::reduce_elementwise(std::vector<U>& data, Op op, int root) {
  static_assert(std::is_trivially_copyable_v<U>);
  detail::check_root(root, size());
  if (size() == 1) {
    return;
  }
  constexpr std::size_t kCountBytes =
      std::max(sizeof(std::uint64_t), alignof(U));
  const detail::BinomialTree tree = detail::binomial_tree(rank(), root, size());
  const std::size_t n = data.size();
  const std::size_t seg =
      detail::effective_segment_bytes(pipeline_segment_bytes());
  const std::size_t per_segment = std::max<std::size_t>(1, seg / sizeof(U));
  const std::size_t segments =
      n == 0 ? 1 : (n + per_segment - 1) / per_segment;
  for (std::size_t s = 0; s < segments; ++s) {
    const std::size_t begin = std::min(n, s * per_segment);
    const std::size_t count = std::min(per_segment, n - begin);
    // Children in ascending-mask order: they finish combining in that
    // order.
    for (const int child : tree.children) {
      const RawMessage message = recv_raw(child, detail::kTagReduce);
      ByteView bytes = message.payload.view();
      if (s == 0) {
        std::uint64_t total = 0;
        util::require(bytes.size() >= kCountBytes,
                      "reduce_elementwise: first segment lacks the count");
        std::memcpy(&total, bytes.data(), sizeof(total));
        util::require(total == n,
                      "reduce_elementwise: ranks disagree on the element count");
        bytes = bytes.subspan(kCountBytes);
      }
      const std::span<const U> incoming = Codec<std::vector<U>>::view(bytes);
      util::require(incoming.size() == count,
                    "reduce_elementwise: ranks disagree on the element count");
      for (std::size_t i = 0; i < count; ++i) {
        data[begin + i] = op(data[begin + i], incoming[i]);
      }
    }
    if (tree.parent >= 0) {
      const std::size_t header = s == 0 ? kCountBytes : 0;
      Buffer frame = Buffer::uninitialized(header + count * sizeof(U));
      if (s == 0) {
        const auto total = static_cast<std::uint64_t>(n);
        std::memset(frame.mutable_data(), 0, kCountBytes);
        std::memcpy(frame.mutable_data(), &total, sizeof(total));
      }
      detail::copy_payload(frame.mutable_data() + header, data.data() + begin,
                           count * sizeof(U));
      send_raw(tree.parent, detail::kTagReduce, detail::segment_hash(),
               std::move(frame));
    }
  }
}

template <class U, class Op>
void Endpoint::allreduce_elementwise(std::vector<U>& data, Op op) {
  reduce_elementwise(data, op, 0);
  bcast(data, 0);
}

// --- scatter / gather / allgather --------------------------------------------

template <class T>
T Endpoint::scatter(const std::vector<T>& values, int root) {
  std::vector<Buffer> blobs;
  if (rank() == root) {
    for (std::size_t r = 0; r < values.size(); ++r) {
      blobs.push_back(static_cast<int>(r) == root
                          ? Buffer{}
                          : Codec<T>::encode(values[r]));
    }
  }
  const Buffer mine =
      detail::scatter_frames(*this, std::move(blobs), root, type_hash_of<T>());
  return rank() == root ? values[static_cast<std::size_t>(root)]
                        : Codec<T>::decode(mine);
}

template <class T>
std::vector<T> Endpoint::gather(const T& value, int root) {
  const std::vector<Buffer> blobs = detail::gather_frames(
      *this, rank() == root ? Buffer{} : Codec<T>::encode(value), root,
      type_hash_of<T>());
  std::vector<T> collected;
  collected.reserve(blobs.size());
  for (std::size_t r = 0; r < blobs.size(); ++r) {
    collected.push_back(static_cast<int>(r) == root
                            ? value
                            : Codec<T>::decode(blobs[r]));
  }
  return collected;
}

/// Allgather in O(n) messages via one packed broadcast frame. The old
/// element-wise bcast loop cost n * ceil(log2 n) messages and decoded /
/// re-encoded at every hop.
template <class T>
std::vector<T> Endpoint::allgather(const T& value) {
  if (size() == 1) {
    return std::vector<T>{value};
  }
  std::vector<T> out;
  out.reserve(static_cast<std::size_t>(size()));
  for (const Buffer& slice :
       detail::allgather_slices(*this, Codec<T>::encode(value))) {
    out.push_back(Codec<T>::decode(slice));
  }
  return out;
}

/// Requires alignof(U) <= alignof(std::uint64_t): slice offsets inside
/// the pack are only aligned that far.
template <class U>
std::vector<PayloadView<U>> Endpoint::allgather_view(std::vector<U>&& values) {
  std::vector<PayloadView<U>> views;
  views.reserve(static_cast<std::size_t>(size()));
  for (Buffer& slice : detail::allgather_slices(
           *this, Codec<std::vector<U>>::encode(std::move(values)))) {
    views.push_back(PayloadView<U>(std::move(slice)));
  }
  return views;
}

// --- ring allreduce ----------------------------------------------------------

/// Bandwidth-optimal ring allreduce, in place, for any element count
/// (uneven floor segments — segment k covers [k*N/n, (k+1)*N/n)) and
/// any trivially copyable element. Reduce-scatter around the ring, then
/// allgather the reduced segments; each step ships one pooled copy of
/// the outgoing slice and folds the incoming slice through a zero-copy
/// view — no per-step slice vectors. Every incoming slice must be
/// exactly the receiver's segment: ranks that disagree on the element
/// count fail the call instead of writing past their vector.
template <class U, class Op>
void Endpoint::ring_allreduce(std::vector<U>& data, Op op) {
  static_assert(std::is_trivially_copyable_v<U>);
  const int n = size();
  if (n == 1) {
    return;
  }
  const std::size_t total = data.size();
  const int next = (rank() + 1) % n;
  const int prev = (rank() - 1 + n) % n;
  const auto seg_begin = [&](int k) {
    return static_cast<std::size_t>(k) * total / static_cast<std::size_t>(n);
  };
  const auto seg_count = [&](int k) { return seg_begin(k + 1) - seg_begin(k); };
  const auto send_segment = [&](int index, int tag) {
    send_raw(next, tag, detail::segment_hash(),
             Buffer::copy_of(data.data() + seg_begin(index),
                             seg_count(index) * sizeof(U)));
  };
  const auto recv_segment = [&](int index, int tag) {
    RawMessage message = recv_raw(prev, tag);
    util::require(
        Codec<std::vector<U>>::view(message.payload).size() == seg_count(index),
        "ring_allreduce: ranks disagree on the element count");
    return std::move(message.payload);
  };

  // Phase 1: reduce-scatter. After n-1 steps rank r owns the fully
  // reduced segment (r+1) mod n.
  for (int step = 0; step < n - 1; ++step) {
    const int send_index = (rank() - step + n) % n;
    const int recv_index = (rank() - step - 1 + n) % n;
    send_segment(send_index, detail::kTagRingA);
    const Buffer payload = recv_segment(recv_index, detail::kTagRingA);
    const std::span<const U> incoming = Codec<std::vector<U>>::view(payload);
    const std::size_t begin = seg_begin(recv_index);
    for (std::size_t i = 0; i < incoming.size(); ++i) {
      data[begin + i] = op(data[begin + i], incoming[i]);
    }
  }

  // Phase 2: allgather the reduced segments around the ring.
  for (int step = 0; step < n - 1; ++step) {
    const int send_index = ((rank() + 1 - step) % n + n) % n;
    const int recv_index = (rank() - step + n) % n;
    send_segment(send_index, detail::kTagRingB);
    const Buffer payload = recv_segment(recv_index, detail::kTagRingB);
    detail::copy_payload(data.data() + seg_begin(recv_index), payload.data(),
                         payload.size());
  }
}

}  // namespace pblpar::mp

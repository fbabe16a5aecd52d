#include "mp/collectives.hpp"

#include <cstring>
#include <ranges>

namespace pblpar::mp {
namespace detail {
namespace {

/// Frame marker for the segmented broadcast: a header frame announces the
/// total byte count, then the segments follow on the same (source, tag)
/// FIFO.
struct SegmentHeaderFrame {};

std::size_t header_hash() { return type_hash_of<SegmentHeaderFrame>(); }
std::size_t raw_bytes_hash() { return type_hash_of<Buffer>(); }

std::size_t segment_count(std::size_t bytes, std::size_t seg) {
  return bytes <= seg ? 1 : (bytes + seg - 1) / seg;
}

/// Receives a broadcast into a Buffer: the whole frame is kept as is,
/// segments are assembled into a fresh buffer.
class BufferSink final : public ByteSink {
 public:
  explicit BufferSink(Buffer& out) : out_(&out) {}
  std::byte* dst(std::size_t total) override {
    *out_ = Buffer::uninitialized(total);
    return out_->mutable_data();
  }
  void take(Buffer&& whole) override { *out_ = std::move(whole); }

 private:
  Buffer* out_;
};

}  // namespace

BinomialTree binomial_tree(int rank, int root, int size) {
  const int relative = (rank - root + size) % size;
  BinomialTree tree;
  for (int mask = 1; mask < size; mask <<= 1) {
    if ((relative & mask) != 0) {
      tree.parent = ((relative ^ mask) + root) % size;
      break;
    }
    if ((relative | mask) < size) {
      tree.children.push_back(((relative | mask) + root) % size);
    }
  }
  return tree;
}

void bcast_bytes(Endpoint& ep, int root, const Buffer& payload,
                 ByteSink& sink) {
  const BinomialTree tree = binomial_tree(ep.rank(), root, ep.size());
  // Children in descending-mask order: the largest subtree first, the
  // classic binomial broadcast order.
  const auto send_to_children = [&](std::size_t hash, const Buffer& frame) {
    for (const int child : std::views::reverse(tree.children)) {
      ep.send_raw(child, kTagBcast, hash, frame);
    }
  };

  if (tree.parent < 0) {  // root
    const std::size_t seg =
        effective_segment_bytes(ep.pipeline_segment_bytes());
    const std::size_t total = payload.size();
    if (segment_count(total, seg) == 1) {
      send_to_children(raw_bytes_hash(), payload);
      return;
    }
    send_to_children(header_hash(), Codec<std::uint64_t>::encode(
                                        static_cast<std::uint64_t>(total)));
    for (std::size_t offset = 0; offset < total; offset += seg) {
      send_to_children(segment_hash(),
                       payload.slice(offset, std::min(seg, total - offset)));
    }
    return;
  }

  RawMessage first = ep.recv_raw(tree.parent, kTagBcast);
  if (first.type_hash != header_hash()) {
    // Whole payload in one frame: forward the refcounted buffer, then
    // hand it to the sink.
    send_to_children(first.type_hash, first.payload);
    sink.take(std::move(first.payload));
    return;
  }
  const auto total =
      static_cast<std::size_t>(Codec<std::uint64_t>::decode(first.payload));
  send_to_children(header_hash(), first.payload);
  // Assemble until the announced total arrives — the receiver needs no
  // knowledge of the sender's segment size.
  std::byte* dst = sink.dst(total);
  std::size_t offset = 0;
  while (offset < total) {
    const RawMessage piece = ep.recv_raw(tree.parent, kTagBcast);
    send_to_children(segment_hash(), piece.payload);
    util::ensure(offset + piece.payload.size() <= total,
                 "bcast: segmented payload overruns the header total");
    copy_payload(dst + offset, piece.payload.data(), piece.payload.size());
    offset += piece.payload.size();
  }
}

Buffer scatter_frames(Endpoint& ep, std::vector<Buffer> blobs, int root,
                      std::size_t type_hash) {
  check_root(root, ep.size());
  if (ep.rank() == root) {
    util::require(static_cast<int>(blobs.size()) == ep.size(),
                  "scatter: root must supply one payload per rank");
    for (int r = 0; r < ep.size(); ++r) {
      if (r != root) {
        ep.send_raw(r, kTagScatter, type_hash,
                    std::move(blobs[static_cast<std::size_t>(r)]));
      }
    }
    return std::move(blobs[static_cast<std::size_t>(root)]);
  }
  RawMessage message = ep.recv_raw(root, kTagScatter);
  return std::move(message.payload);
}

std::vector<Buffer> gather_frames(Endpoint& ep, Buffer blob, int root,
                                  std::size_t type_hash) {
  check_root(root, ep.size());
  if (ep.rank() == root) {
    std::vector<Buffer> collected(static_cast<std::size_t>(ep.size()));
    collected[static_cast<std::size_t>(root)] = std::move(blob);
    for (int r = 0; r < ep.size(); ++r) {
      if (r != root) {
        RawMessage message = ep.recv_raw(r, kTagGather);
        collected[static_cast<std::size_t>(r)] = std::move(message.payload);
      }
    }
    return collected;
  }
  ep.send_raw(root, kTagGather, type_hash, std::move(blob));
  return {};
}

std::vector<Buffer> allgather_slices(Endpoint& ep, Buffer mine) {
  if (ep.size() == 1) {
    std::vector<Buffer> slices;
    slices.push_back(std::move(mine));
    return slices;
  }
  const std::vector<Buffer> gathered = ep.gather_raw(std::move(mine), 0);
  Buffer packed;
  if (ep.rank() == 0) {
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
  ep.bcast_raw(packed, 0);
  std::vector<Buffer> slices;
  slices.reserve(static_cast<std::size_t>(ep.size()));
  std::size_t cursor = 0;
  for (int r = 0; r < ep.size(); ++r) {
    const auto [offset, len] = next_packed_slice(packed, cursor);
    slices.push_back(packed.slice(offset, len));
  }
  return slices;
}

std::pair<std::size_t, std::size_t> next_packed_slice(const Buffer& packed,
                                                      std::size_t& cursor) {
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

}  // namespace detail

/// Linear gather of arrivals at rank 0, then a linear release — O(size)
/// messages, trivially correct at classroom scales.
void Endpoint::barrier() {
  if (rank() == 0) {
    for (int r = 1; r < size(); ++r) {
      (void)recv_raw(-1, detail::kTagBarrierUp);
    }
    for (int r = 1; r < size(); ++r) {
      send_raw(r, detail::kTagBarrierDown, 0, {});
    }
  } else {
    send_raw(0, detail::kTagBarrierUp, 0, {});
    (void)recv_raw(0, detail::kTagBarrierDown);
  }
}

void Endpoint::bcast_raw(Buffer& payload, int root) {
  detail::check_root(root, size());
  if (size() == 1) {
    return;
  }
  // bcast_bytes reads `payload` only at the root and fills the sink only
  // at the other ranks, so both may name the caller's buffer.
  detail::BufferSink sink(payload);
  detail::bcast_bytes(*this, root, payload, sink);
}

Buffer Endpoint::scatter_raw(std::vector<Buffer> blobs, int root) {
  return detail::scatter_frames(*this, std::move(blobs), root,
                                detail::raw_bytes_hash());
}

std::vector<Buffer> Endpoint::gather_raw(Buffer blob, int root) {
  return detail::gather_frames(*this, std::move(blob), root,
                               detail::raw_bytes_hash());
}

std::vector<double> Endpoint::ring_allreduce_sum(std::vector<double> data) {
  ring_allreduce(data, [](double a, double b) { return a + b; });
  return data;
}

}  // namespace pblpar::mp

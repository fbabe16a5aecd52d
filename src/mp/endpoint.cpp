#include "mp/endpoint.hpp"

namespace pblpar::mp {

// Out of line so the vtable and the class's debug info are emitted here
// once, not in every translation unit that includes the header.
Endpoint::~Endpoint() = default;

void Endpoint::barrier() { detail::barrier(*this); }

void Endpoint::bcast_raw(Buffer& payload, int root) {
  detail::bcast_raw(*this, payload, root);
}

Buffer Endpoint::scatter_raw(std::vector<Buffer> blobs, int root) {
  return detail::scatter_raw(*this, std::move(blobs), root);
}

std::vector<Buffer> Endpoint::gather_raw(Buffer blob, int root) {
  return detail::gather_raw(*this, std::move(blob), root);
}

std::vector<double> Endpoint::ring_allreduce_sum(std::vector<double> data) {
  return detail::ring_allreduce_sum(*this, std::move(data));
}

RawMessage Endpoint::recv_typed(std::size_t type_hash, int source, int tag,
                                RecvStatus* status) {
  RawMessage message = recv_raw(source, tag);
  if (message.type_hash != type_hash) {
    throw MpTypeError(
        "Endpoint::recv: matched message has a different payload type");
  }
  if (status != nullptr) {
    status->source = message.source;
    status->tag = message.tag;
  }
  return message;
}

}  // namespace pblpar::mp

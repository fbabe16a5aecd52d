#include "mp/endpoint.hpp"

namespace pblpar::mp {

// Out of line so the vtable and the class's debug info are emitted here
// once, not in every translation unit that includes the header.
Endpoint::~Endpoint() = default;

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

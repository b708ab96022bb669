#include "src/net/rpc.h"

namespace coyote {
namespace net {
namespace rpc {

std::vector<uint8_t> Seal(MsgType type, const sim::wire::Writer& payload) {
  sim::wire::Writer w;
  w.U32(kMagic);
  w.U16(kVersion);
  w.U8(static_cast<uint8_t>(type));
  w.U8(0);                   // reserved
  w.Bytes(payload.bytes());  // payload_len, then the payload
  return std::move(w).Seal();
}

sim::wire::Reader Open(const std::vector<uint8_t>& frame, MsgType type) {
  sim::wire::Reader r = sim::wire::Unseal(frame);
  const bool header_ok =
      r.U32() == kMagic && r.U16() == kVersion && r.U8() == static_cast<uint8_t>(type);
  r.U8();  // reserved
  const uint32_t payload_len = r.U32();
  if (!header_ok || payload_len != r.remaining()) {
    r.Fail();
  }
  return r;
}

}  // namespace rpc
}  // namespace net
}  // namespace coyote

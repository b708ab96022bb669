// Length-prefixed, CRC-trailed RPC framing for control-plane messages that
// ride the simulated fabric (router -> node request batches, node -> router
// completions and region state).
//
// The serving tier ships request *metadata* on the wire and lets payloads
// travel as ref-counted axi::BufferViews alongside the frame — the wire
// delay charges for both, the host copies for neither. A frame is:
//
//   u32 magic "CYRP"   u16 version   u8 type   u8 reserved
//   u32 payload_len    payload bytes...
//   u32 crc32          (IEEE 802.3, over everything before it)
//
// The payload is written and read with the sim::wire codec
// (src/sim/wire.h), which also owns the integer layout (little-endian) and
// the CRC seal. A frame that fails magic/version/type/length/CRC validation
// is rejected as a whole: Open returns a failed Reader, whose every read
// yields zero.

#ifndef SRC_NET_RPC_H_
#define SRC_NET_RPC_H_

#include <cstdint>
#include <vector>

#include "src/sim/wire.h"

namespace coyote {
namespace net {
namespace rpc {

inline constexpr uint32_t kMagic = 0x50525943u;  // "CYRP"
inline constexpr uint16_t kVersion = 1;

enum class MsgType : uint8_t {
  kRequestBatch = 1,  // router -> node: a batch of serving requests
  kCompletion = 2,    // node -> router: one typed completion
  kRegionState = 3,   // node -> router: a region's routable kernel
};

// Frames `payload` as a `type` message: header, payload, CRC trailer.
std::vector<uint8_t> Seal(MsgType type, const sim::wire::Writer& payload);

// A Reader over the payload of a valid `type` frame, or a failed Reader.
sim::wire::Reader Open(const std::vector<uint8_t>& frame, MsgType type);
sim::wire::Reader Open(std::vector<uint8_t>&&, MsgType) = delete;

}  // namespace rpc
}  // namespace net
}  // namespace coyote

#endif  // SRC_NET_RPC_H_

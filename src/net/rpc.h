// Length-prefixed, CRC-trailed RPC framing for control-plane messages that
// ride the simulated fabric (router -> node request batches, node -> router
// completions).
//
// The serving tier ships request *metadata* on the wire and lets payloads
// travel as ref-counted axi::BufferViews alongside the frame — the wire
// delay charges for both, the host copies for neither. A frame is:
//
//   u32 magic "CYRP"   u16 version   u8 type   u8 reserved
//   u32 payload_len    payload bytes...
//   u32 crc32          (IEEE 802.3, over everything before it)
//
// All integers little-endian. A frame that fails magic/version/length/CRC
// validation is rejected as a whole; the reader then reports !ok() and every
// subsequent field read returns zero. The CRC is sim::Crc32 (src/sim/hash.h),
// the one IEEE 802.3 implementation the RoCE frames and CYK1 checkpoints use.

#ifndef SRC_NET_RPC_H_
#define SRC_NET_RPC_H_

#include <cstdint>
#include <string>
#include <vector>

namespace coyote {
namespace net {
namespace rpc {

inline constexpr uint32_t kMagic = 0x50525943u;  // "CYRP"
inline constexpr uint16_t kVersion = 1;

enum class MsgType : uint8_t {
  kRequestBatch = 1,  // router -> node: a batch of serving requests
  kCompletion = 2,    // node -> router: one typed completion
};

class FrameWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(v); }
  void U16(uint16_t v);
  void U32(uint32_t v);
  void U64(uint64_t v);
  void I32(int32_t v) { U32(static_cast<uint32_t>(v)); }
  void Str(const std::string& s);  // u32 length + raw bytes

  // Seals the frame: prepends the header, appends the CRC trailer.
  std::vector<uint8_t> Finish(MsgType type) const;

  size_t payload_size() const { return buf_.size(); }

 private:
  // lint: guard-ok stack-local frame builder: a FrameWriter is built, filled and finished within one event, never shared across contexts
  std::vector<uint8_t> buf_;
};

class FrameReader {
 public:
  // Validates header + CRC; on any mismatch ok() is false and reads yield 0.
  explicit FrameReader(const std::vector<uint8_t>& frame);

  bool ok() const { return ok_; }
  MsgType type() const { return type_; }

  uint8_t U8();
  uint16_t U16();
  uint32_t U32();
  uint64_t U64();
  int32_t I32() { return static_cast<int32_t>(U32()); }
  std::string Str();

  // True when the frame validated and every payload byte has been consumed
  // (trailing-garbage check); a rejected frame is never at its end.
  bool AtEnd() const { return ok_ && pos_ == end_; }

 private:
  const std::vector<uint8_t>* frame_ = nullptr;
  size_t pos_ = 0;
  size_t end_ = 0;
  bool ok_ = false;
  MsgType type_{};  // no valid type until a frame validates
};

}  // namespace rpc
}  // namespace net
}  // namespace coyote

#endif  // SRC_NET_RPC_H_

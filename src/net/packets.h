// RoCE v2 packet formats.
//
// BALBOA (paper §6.2) is fully RoCE v2-compliant so a Coyote FPGA can talk
// to commodity RDMA NICs. We serialize real frames — Ethernet / IPv4 / UDP
// (port 4791) / InfiniBand BTH (+RETH/AETH) / payload / ICRC — so that the
// traffic sniffer's PCAP output (§8) is well-formed and byte-accurate.

#ifndef SRC_NET_PACKETS_H_
#define SRC_NET_PACKETS_H_

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/axi/buffer.h"

namespace coyote {
namespace net {

inline constexpr uint16_t kRoceUdpPort = 4791;

// InfiniBand transport opcodes (RC subset BALBOA implements).
enum class Opcode : uint8_t {
  kSendFirst = 0x00,
  kSendMiddle = 0x01,
  kSendLast = 0x02,
  kSendOnly = 0x04,
  kWriteFirst = 0x06,
  kWriteMiddle = 0x07,
  kWriteLast = 0x08,
  kWriteOnly = 0x0A,
  kReadRequest = 0x0C,
  kReadResponseFirst = 0x0D,
  kReadResponseMiddle = 0x0E,
  kReadResponseLast = 0x0F,
  kReadResponseOnly = 0x10,
  kAck = 0x11,
};

bool OpcodeHasReth(Opcode op);
bool OpcodeHasAeth(Opcode op);
bool OpcodeIsLastOrOnly(Opcode op);
bool OpcodeIsReadResponse(Opcode op);

struct MacAddr {
  std::array<uint8_t, 6> bytes{};
  bool operator==(const MacAddr&) const = default;
};

// The deterministic locally-administered MAC (02:00:<ip>) the stacks derive
// from an IPv4 address.
MacAddr MacForIp(uint32_t ip);

// Everything needed to build or interpret one RoCE v2 frame.
struct FrameMeta {
  MacAddr dst_mac;
  MacAddr src_mac;
  uint32_t src_ip = 0;
  uint32_t dst_ip = 0;
  Opcode opcode = Opcode::kSendOnly;
  uint32_t dest_qpn = 0;
  uint32_t psn = 0;
  bool ack_req = false;

  // RETH (RDMA write / read request).
  uint64_t reth_vaddr = 0;
  uint32_t reth_rkey = 0;
  uint32_t reth_len = 0;

  // AETH (acks, read responses).
  uint8_t aeth_syndrome = 0;  // 0 = ACK, 0x60|code = NAK
  uint32_t aeth_msn = 0;
};

// Wire sizes.
inline constexpr size_t kEthHeaderBytes = 14;
inline constexpr size_t kIpv4HeaderBytes = 20;
inline constexpr size_t kUdpHeaderBytes = 8;
inline constexpr size_t kBthBytes = 12;
inline constexpr size_t kRethBytes = 16;
inline constexpr size_t kAethBytes = 4;
inline constexpr size_t kIcrcBytes = 4;

// Total header overhead of a frame carrying `op`.
size_t FrameOverheadBytes(Opcode op);

// Serializes a frame; `payload` may be empty (pure ACK / read request).
// Serialization inherently copies the payload bytes into the frame — this is
// the one copy a transmitted payload pays; everything downstream shares it.
std::vector<uint8_t> BuildFrame(const FrameMeta& meta, const axi::BufferView& payload);

// Parses a frame built by BuildFrame (or any RoCE v2 frame with the same
// layout). Returns nullopt if the frame is malformed or not RoCE. The
// payload is a zero-copy slice of `frame` (it shares the frame's storage).
struct ParsedFrame {
  FrameMeta meta;
  axi::BufferView payload;
};
std::optional<ParsedFrame> ParseFrame(const axi::BufferView& frame);

}  // namespace net
}  // namespace coyote

#endif  // SRC_NET_PACKETS_H_

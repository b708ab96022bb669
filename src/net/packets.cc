#include "src/net/packets.h"

#include <cstring>

#include "src/sim/hash.h"
#include "src/sim/wire.h"

namespace coyote {
namespace net {
namespace {

uint16_t Ipv4Checksum(const uint8_t* hdr, size_t len) {
  uint32_t sum = 0;
  for (size_t i = 0; i + 1 < len; i += 2) {
    sum += sim::wire::GetBe16(hdr + i);
  }
  while (sum >> 16) {
    sum = (sum & 0xFFFF) + (sum >> 16);
  }
  return static_cast<uint16_t>(~sum);
}

}  // namespace

MacAddr MacForIp(uint32_t ip) {
  return MacAddr{{0x02, 0x00, static_cast<uint8_t>(ip >> 24), static_cast<uint8_t>(ip >> 16),
                  static_cast<uint8_t>(ip >> 8), static_cast<uint8_t>(ip)}};
}

bool OpcodeHasReth(Opcode op) {
  return op == Opcode::kWriteFirst || op == Opcode::kWriteOnly || op == Opcode::kReadRequest;
}

bool OpcodeHasAeth(Opcode op) {
  return op == Opcode::kAck || op == Opcode::kReadResponseFirst ||
         op == Opcode::kReadResponseLast || op == Opcode::kReadResponseOnly;
}

bool OpcodeIsLastOrOnly(Opcode op) {
  switch (op) {
    case Opcode::kSendLast:
    case Opcode::kSendOnly:
    case Opcode::kWriteLast:
    case Opcode::kWriteOnly:
    case Opcode::kReadResponseLast:
    case Opcode::kReadResponseOnly:
      return true;
    default:
      return false;
  }
}

bool OpcodeIsReadResponse(Opcode op) {
  return op == Opcode::kReadResponseFirst || op == Opcode::kReadResponseMiddle ||
         op == Opcode::kReadResponseLast || op == Opcode::kReadResponseOnly;
}

size_t FrameOverheadBytes(Opcode op) {
  size_t n = kEthHeaderBytes + kIpv4HeaderBytes + kUdpHeaderBytes + kBthBytes + kIcrcBytes;
  if (OpcodeHasReth(op)) {
    n += kRethBytes;
  }
  if (OpcodeHasAeth(op)) {
    n += kAethBytes;
  }
  return n;
}

std::vector<uint8_t> BuildFrame(const FrameMeta& meta, const axi::BufferView& payload) {
  std::vector<uint8_t> f;
  f.reserve(FrameOverheadBytes(meta.opcode) + payload.size());

  // Ethernet.
  f.insert(f.end(), meta.dst_mac.bytes.begin(), meta.dst_mac.bytes.end());
  f.insert(f.end(), meta.src_mac.bytes.begin(), meta.src_mac.bytes.end());
  sim::wire::PutBe16(f, 0x0800);

  // IPv4.
  const size_t ip_start = f.size();
  const size_t bth_extra = (OpcodeHasReth(meta.opcode) ? kRethBytes : 0) +
                           (OpcodeHasAeth(meta.opcode) ? kAethBytes : 0);
  const uint16_t ip_total = static_cast<uint16_t>(kIpv4HeaderBytes + kUdpHeaderBytes +
                                                  kBthBytes + bth_extra + payload.size() +
                                                  kIcrcBytes);
  f.push_back(0x45);  // version 4, IHL 5
  f.push_back(0x02);  // DSCP for RoCE lossless class
  sim::wire::PutBe16(f, ip_total);
  sim::wire::PutBe16(f, 0);       // identification
  sim::wire::PutBe16(f, 0x4000);  // don't fragment
  f.push_back(64);                // TTL
  f.push_back(17);                // UDP
  sim::wire::PutBe16(f, 0);       // checksum placeholder
  sim::wire::PutBe32(f, meta.src_ip);
  sim::wire::PutBe32(f, meta.dst_ip);
  const uint16_t csum = Ipv4Checksum(&f[ip_start], kIpv4HeaderBytes);
  f[ip_start + 10] = static_cast<uint8_t>(csum >> 8);
  f[ip_start + 11] = static_cast<uint8_t>(csum);

  // UDP (checksum 0 — permitted, and what RoCE NICs emit).
  sim::wire::PutBe16(f, 0xC000);  // ephemeral source port
  sim::wire::PutBe16(f, kRoceUdpPort);
  sim::wire::PutBe16(f, static_cast<uint16_t>(ip_total - kIpv4HeaderBytes));
  sim::wire::PutBe16(f, 0);

  // BTH.
  f.push_back(static_cast<uint8_t>(meta.opcode));
  f.push_back(meta.ack_req ? 0x80 : 0x00);  // solicited/ackreq flags
  sim::wire::PutBe16(f, 0xFFFF);            // pkey
  sim::wire::PutBe32(f, meta.dest_qpn & 0x00FFFFFF);
  sim::wire::PutBe32(f, meta.psn & 0x00FFFFFF);

  if (OpcodeHasReth(meta.opcode)) {
    sim::wire::PutBe64(f, meta.reth_vaddr);
    sim::wire::PutBe32(f, meta.reth_rkey);
    sim::wire::PutBe32(f, meta.reth_len);
  }
  if (OpcodeHasAeth(meta.opcode)) {
    // 8-bit syndrome, 24-bit MSN.
    sim::wire::PutBe32(f, static_cast<uint32_t>(meta.aeth_syndrome) << 24 |
                              (meta.aeth_msn & 0x00FFFFFF));
  }

  f.insert(f.end(), payload.begin(), payload.end());
  sim::wire::PutBe32(f, sim::Crc32(f.data(), f.size()));  // stands in for the ICRC
  return f;
}

std::optional<ParsedFrame> ParseFrame(const axi::BufferView& bytes) {
  const size_t min_len =
      kEthHeaderBytes + kIpv4HeaderBytes + kUdpHeaderBytes + kBthBytes + kIcrcBytes;
  if (bytes.size() < min_len) {
    return std::nullopt;
  }
  const uint8_t* p = bytes.data();
  ParsedFrame out;
  std::memcpy(out.meta.dst_mac.bytes.data(), p, 6);
  std::memcpy(out.meta.src_mac.bytes.data(), p + 6, 6);
  if (sim::wire::GetBe16(p + 12) != 0x0800) {
    return std::nullopt;
  }
  const uint8_t* ip = p + kEthHeaderBytes;
  if ((ip[0] >> 4) != 4 || ip[9] != 17) {
    return std::nullopt;
  }
  out.meta.src_ip = sim::wire::GetBe32(ip + 12);
  out.meta.dst_ip = sim::wire::GetBe32(ip + 16);
  const uint8_t* udp = ip + kIpv4HeaderBytes;
  if (sim::wire::GetBe16(udp + 2) != kRoceUdpPort) {
    return std::nullopt;
  }
  const uint8_t* bth = udp + kUdpHeaderBytes;
  out.meta.opcode = static_cast<Opcode>(bth[0]);
  out.meta.ack_req = (bth[1] & 0x80) != 0;
  out.meta.dest_qpn = sim::wire::GetBe32(bth + 4) & 0x00FFFFFF;
  out.meta.psn = sim::wire::GetBe32(bth + 8) & 0x00FFFFFF;

  const uint8_t* cursor = bth + kBthBytes;
  if (OpcodeHasReth(out.meta.opcode)) {
    if (cursor + kRethBytes > p + bytes.size()) {
      return std::nullopt;
    }
    out.meta.reth_vaddr = sim::wire::GetBe64(cursor);
    out.meta.reth_rkey = sim::wire::GetBe32(cursor + 8);
    out.meta.reth_len = sim::wire::GetBe32(cursor + 12);
    cursor += kRethBytes;
  }
  if (OpcodeHasAeth(out.meta.opcode)) {
    if (cursor + kAethBytes > p + bytes.size()) {
      return std::nullopt;
    }
    out.meta.aeth_syndrome = cursor[0];
    out.meta.aeth_msn = sim::wire::GetBe32(cursor) & 0x00FFFFFF;
    cursor += kAethBytes;
  }
  const uint8_t* end = p + bytes.size() - kIcrcBytes;
  if (cursor > end) {
    return std::nullopt;
  }
  // ICRC check: a frame corrupted in flight fails here and is treated like a
  // loss — the sender's retransmit machinery recovers it.
  if (sim::wire::GetBe32(end) != sim::Crc32(p, bytes.size() - kIcrcBytes)) {
    return std::nullopt;
  }
  // Zero-copy: the payload view shares the frame's storage.
  out.payload = bytes.Slice(static_cast<size_t>(cursor - p), static_cast<size_t>(end - cursor));
  return out;
}

}  // namespace net
}  // namespace coyote

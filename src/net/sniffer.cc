#include "src/net/sniffer.h"

#include <cstdio>
#include <cstring>

#include "src/sim/wire.h"

namespace coyote {
namespace net {

bool TrafficSniffer::Matches(const axi::BufferView& frame, bool is_tx) const {
  if (is_tx && !filter_.capture_tx) {
    return false;
  }
  if (!is_tx && !filter_.capture_rx) {
    return false;
  }
  if (filter_.src_ip != 0 || filter_.dst_ip != 0 || filter_.opcode.has_value()) {
    auto parsed = ParseFrame(frame);
    if (!parsed) {
      return false;
    }
    if (filter_.src_ip != 0 && parsed->meta.src_ip != filter_.src_ip) {
      return false;
    }
    if (filter_.dst_ip != 0 && parsed->meta.dst_ip != filter_.dst_ip) {
      return false;
    }
    if (filter_.opcode.has_value() && parsed->meta.opcode != *filter_.opcode) {
      return false;
    }
  }
  return true;
}

void TrafficSniffer::OnFrame(const axi::BufferView& frame, bool is_tx) {
  if (!recording_) {
    return;
  }
  if (!Matches(frame, is_tx)) {
    ++dropped_by_filter_;
    return;
  }
  CapturedFrame cap;
  cap.timestamp = engine_->Now();
  cap.is_tx = is_tx;
  cap.original_len = static_cast<uint32_t>(frame.size());
  if (filter_.headers_only) {
    // Keep Ethernet + IPv4 + UDP + BTH + (max) RETH. A truncating slice
    // would pin the full frame alive in the capture buffer, so headers-only
    // mode copies the prefix instead (that's the mode's entire point —
    // bounding the HBM staging footprint).
    const size_t keep = std::min(frame.size(), kEthHeaderBytes + kIpv4HeaderBytes +
                                                   kUdpHeaderBytes + kBthBytes + kRethBytes);
    cap.bytes.assign(frame.begin(), frame.begin() + static_cast<ptrdiff_t>(keep));
  } else {
    cap.bytes = frame;  // shares the wire frame's storage
  }
  guard_.Write();
  frames_.push_back(std::move(cap));
}

uint64_t TrafficSniffer::capture_bytes() const {
  uint64_t n = 0;
  for (const auto& f : frames_) {
    n += f.bytes.size() + 16;  // + per-frame metadata record
  }
  return n;
}

std::vector<uint8_t> TrafficSniffer::ToPcap() const {
  std::vector<uint8_t> out;
  // Global header.
  sim::wire::PutLe32(out, 0xa1b2c3d4);  // magic (microsecond timestamps)
  sim::wire::PutLe16(out, 2);           // version major
  sim::wire::PutLe16(out, 4);           // version minor
  sim::wire::PutLe32(out, 0);           // thiszone
  sim::wire::PutLe32(out, 0);           // sigfigs
  sim::wire::PutLe32(out, 65535);       // snaplen
  sim::wire::PutLe32(out, 1);           // LINKTYPE_ETHERNET
  for (const auto& f : frames_) {
    const uint64_t usec_total = f.timestamp / sim::kPsPerUs;
    sim::wire::PutLe32(out, static_cast<uint32_t>(usec_total / 1'000'000));
    sim::wire::PutLe32(out, static_cast<uint32_t>(usec_total % 1'000'000));
    sim::wire::PutLe32(out, static_cast<uint32_t>(f.bytes.size()));
    sim::wire::PutLe32(out, f.original_len);
    out.insert(out.end(), f.bytes.begin(), f.bytes.end());
  }
  return out;
}

bool TrafficSniffer::WritePcapFile(const std::string& path) const {
  std::FILE* fp = std::fopen(path.c_str(), "wb");
  if (fp == nullptr) {
    return false;
  }
  const std::vector<uint8_t> data = ToPcap();
  const bool ok = std::fwrite(data.data(), 1, data.size(), fp) == data.size();
  std::fclose(fp);
  return ok;
}

}  // namespace net
}  // namespace coyote

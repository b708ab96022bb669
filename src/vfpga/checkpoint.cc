#include "src/vfpga/checkpoint.h"

#include "src/sim/hash.h"
#include "src/vfpga/vfpga.h"

namespace coyote {
namespace vfpga {
namespace ckpt {

Writer::Writer(uint16_t flags) {
  U32(kMagic);
  U16(kVersion);
  U16(flags);
}

void Writer::U16(uint16_t v) {
  buf_.push_back(static_cast<uint8_t>(v & 0xFFu));
  buf_.push_back(static_cast<uint8_t>(v >> 8));
}

void Writer::U32(uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf_.push_back(static_cast<uint8_t>((v >> (8 * i)) & 0xFFu));
  }
}

void Writer::U64(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf_.push_back(static_cast<uint8_t>((v >> (8 * i)) & 0xFFu));
  }
}

void Writer::Bytes(const uint8_t* data, size_t len) {
  U32(static_cast<uint32_t>(len));
  buf_.insert(buf_.end(), data, data + len);
}

void Writer::Str(const std::string& s) {
  Bytes(reinterpret_cast<const uint8_t*>(s.data()), s.size());
}

std::vector<uint8_t> Writer::Finish() && {
  const uint32_t crc = sim::Crc32(buf_.data(), buf_.size());
  U32(crc);
  return std::move(buf_);
}

Reader::Reader(const std::vector<uint8_t>& blob) {
  // Header (8) + trailer (4) is the minimum well-formed checkpoint.
  if (blob.size() < 12) {
    return;
  }
  const uint32_t stored_crc = static_cast<uint32_t>(blob[blob.size() - 4]) |
                              static_cast<uint32_t>(blob[blob.size() - 3]) << 8 |
                              static_cast<uint32_t>(blob[blob.size() - 2]) << 16 |
                              static_cast<uint32_t>(blob[blob.size() - 1]) << 24;
  if (sim::Crc32(blob.data(), blob.size() - 4) != stored_crc) {
    return;
  }
  data_ = blob.data();
  end_ = blob.size() - 4;
  ok_ = true;
  if (U32() != kMagic || U16() != kVersion) {
    ok_ = false;
    return;
  }
  flags_ = U16();
}

bool Reader::Need(size_t n) {
  if (!ok_ || end_ - pos_ < n) {
    ok_ = false;
    return false;
  }
  return true;
}

uint8_t Reader::U8() { return Need(1) ? data_[pos_++] : 0; }

uint16_t Reader::U16() {
  if (!Need(2)) {
    return 0;
  }
  uint16_t v = static_cast<uint16_t>(data_[pos_] | (data_[pos_ + 1] << 8));
  pos_ += 2;
  return v;
}

uint32_t Reader::U32() {
  if (!Need(4)) {
    return 0;
  }
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(data_[pos_ + static_cast<size_t>(i)]) << (8 * i);
  }
  pos_ += 4;
  return v;
}

uint64_t Reader::U64() {
  if (!Need(8)) {
    return 0;
  }
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(data_[pos_ + static_cast<size_t>(i)]) << (8 * i);
  }
  pos_ += 8;
  return v;
}

std::vector<uint8_t> Reader::Bytes() {
  const uint32_t len = U32();
  if (!Need(len)) {
    return {};
  }
  std::vector<uint8_t> out(data_ + pos_, data_ + pos_ + len);
  pos_ += len;
  return out;
}

std::string Reader::Str() {
  const uint32_t len = U32();
  if (!Need(len)) {
    return {};
  }
  std::string out(reinterpret_cast<const char*>(data_ + pos_), len);
  pos_ += len;
  return out;
}

}  // namespace ckpt

void RegionSnapshot::AppendTo(ckpt::Writer* w) const {
  w->Str(kernel_name);
  w->U32(static_cast<uint32_t>(csr.size()));
  for (const auto& [index, value] : csr) {
    w->U32(index);
    w->U64(value);
  }
  w->U64(beats_retired);
  w->Bytes(kernel_state);
}

bool RegionSnapshot::ParseFrom(ckpt::Reader* r) {
  kernel_name = r->Str();
  const uint32_t n = r->U32();
  csr.clear();
  for (uint32_t i = 0; i < n && r->ok(); ++i) {
    const uint32_t index = r->U32();
    const uint64_t value = r->U64();
    csr.emplace_back(index, value);
  }
  beats_retired = r->U64();
  kernel_state = r->Bytes();
  return r->ok();
}

RegionSnapshot CaptureRegion(Vfpga& region) {
  RegionSnapshot snap;
  if (HwKernel* k = region.kernel()) {
    snap.kernel_name = std::string(k->name());
    k->SaveState(&snap.kernel_state);
  }
  snap.csr = region.csr().SnapshotRegs();
  snap.beats_retired = region.beats_retired();
  return snap;
}

bool RestoreRegion(Vfpga& region, const RegionSnapshot& snapshot) {
  HwKernel* k = region.kernel();
  const std::string resident = k ? std::string(k->name()) : std::string();
  if (resident != snapshot.kernel_name) {
    return false;
  }
  if (k && !k->RestoreState(snapshot.kernel_state)) {
    return false;
  }
  region.csr().RestoreRegs(snapshot.csr);
  region.RestoreBeats(snapshot.beats_retired);
  return true;
}

}  // namespace vfpga
}  // namespace coyote

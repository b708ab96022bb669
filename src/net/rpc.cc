#include "src/net/rpc.h"

#include "src/sim/hash.h"

namespace coyote {
namespace net {
namespace rpc {

namespace {
constexpr size_t kHeaderBytes = 4 + 2 + 1 + 1 + 4;
constexpr size_t kTrailerBytes = 4;
}  // namespace

void FrameWriter::U16(uint16_t v) {
  buf_.push_back(static_cast<uint8_t>(v & 0xFFu));
  buf_.push_back(static_cast<uint8_t>(v >> 8));
}

void FrameWriter::U32(uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf_.push_back(static_cast<uint8_t>((v >> (8 * i)) & 0xFFu));
  }
}

void FrameWriter::U64(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf_.push_back(static_cast<uint8_t>((v >> (8 * i)) & 0xFFu));
  }
}

void FrameWriter::Str(const std::string& s) {
  U32(static_cast<uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

std::vector<uint8_t> FrameWriter::Finish(MsgType type) const {
  std::vector<uint8_t> out;
  out.reserve(kHeaderBytes + buf_.size() + kTrailerBytes);
  auto u16 = [&out](uint16_t v) {
    out.push_back(static_cast<uint8_t>(v & 0xFFu));
    out.push_back(static_cast<uint8_t>(v >> 8));
  };
  auto u32 = [&out](uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      out.push_back(static_cast<uint8_t>((v >> (8 * i)) & 0xFFu));
    }
  };
  u32(kMagic);
  u16(kVersion);
  out.push_back(static_cast<uint8_t>(type));
  out.push_back(0);  // reserved
  u32(static_cast<uint32_t>(buf_.size()));
  out.insert(out.end(), buf_.begin(), buf_.end());
  u32(sim::Crc32(out.data(), out.size()));
  return out;
}

FrameReader::FrameReader(const std::vector<uint8_t>& frame) : frame_(&frame) {
  if (frame.size() < kHeaderBytes + kTrailerBytes) {
    return;
  }
  auto u16at = [&frame](size_t p) {
    return static_cast<uint16_t>(frame[p] | (static_cast<uint16_t>(frame[p + 1]) << 8));
  };
  auto u32at = [&frame](size_t p) {
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(frame[p + static_cast<size_t>(i)]) << (8 * i);
    }
    return v;
  };
  if (u32at(0) != kMagic || u16at(4) != kVersion) {
    return;
  }
  const uint32_t len = u32at(8);
  if (frame.size() != kHeaderBytes + len + kTrailerBytes) {
    return;
  }
  const uint32_t stored = u32at(frame.size() - kTrailerBytes);
  if (sim::Crc32(frame.data(), frame.size() - kTrailerBytes) != stored) {
    return;
  }
  type_ = static_cast<MsgType>(frame[6]);
  pos_ = kHeaderBytes;
  end_ = kHeaderBytes + len;
  ok_ = true;
}

uint8_t FrameReader::U8() {
  if (!ok_ || pos_ + 1 > end_) {
    ok_ = false;
    return 0;
  }
  return (*frame_)[pos_++];
}

uint16_t FrameReader::U16() {
  if (!ok_ || pos_ + 2 > end_) {
    ok_ = false;
    return 0;
  }
  const uint16_t v =
      static_cast<uint16_t>((*frame_)[pos_] | (static_cast<uint16_t>((*frame_)[pos_ + 1]) << 8));
  pos_ += 2;
  return v;
}

uint32_t FrameReader::U32() {
  if (!ok_ || pos_ + 4 > end_) {
    ok_ = false;
    return 0;
  }
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>((*frame_)[pos_ + static_cast<size_t>(i)]) << (8 * i);
  }
  pos_ += 4;
  return v;
}

uint64_t FrameReader::U64() {
  if (!ok_ || pos_ + 8 > end_) {
    ok_ = false;
    return 0;
  }
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>((*frame_)[pos_ + static_cast<size_t>(i)]) << (8 * i);
  }
  pos_ += 8;
  return v;
}

std::string FrameReader::Str() {
  const uint32_t len = U32();
  if (!ok_ || pos_ + len > end_) {
    ok_ = false;
    return std::string();
  }
  std::string s(reinterpret_cast<const char*>(frame_->data()) + pos_, len);
  pos_ += len;
  return s;
}

}  // namespace rpc
}  // namespace net
}  // namespace coyote

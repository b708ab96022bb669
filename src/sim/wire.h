// The simulator's one byte codec: how integers become bytes and back.
//
//   Fixed-width put/get in both byte orders. Big-endian is network order:
//   the Ethernet, IPv4, UDP and TCP headers and the InfiniBand BTH/RETH of
//   RoCE frames and TCP segments. Little-endian carries the pcap capture
//   file, CYRP rpc frames and CYK1 checkpoints.
//
//   Writer  — appends little-endian fields; Str/Bytes are u32-length-
//             prefixed. Seal() appends the CRC-32 (sim::Crc32) of every byte
//             written and hands the buffer out.
//   Reader  — bounds-checked reads of the same fields over a byte range.
//             The first read that would run past the end, or a Fail(), makes
//             ok() false for good; every later read returns zero or empty.
//             AtEnd() holds only while ok() and once every byte is consumed,
//             so a format rejects trailing bytes by checking it.
//   Unseal  — checks a sealed buffer's CRC trailer and returns a Reader over
//             the bytes before it.
//
// Formats (CYRP, CYK1) own only their envelope: magic, version, type or
// flags, and the checks on them.

#ifndef SRC_SIM_WIRE_H_
#define SRC_SIM_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/sim/hash.h"

namespace coyote {
namespace sim {
namespace wire {

namespace detail {

template <typename T>
void PutBe(std::vector<uint8_t>& out, T v) {
  for (size_t i = sizeof(T); i-- > 0;) {
    out.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

template <typename T>
void PutLe(std::vector<uint8_t>& out, T v) {
  for (size_t i = 0; i < sizeof(T); ++i) {
    out.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

template <typename T>
T GetBe(const uint8_t* p) {
  T v = 0;
  for (size_t i = 0; i < sizeof(T); ++i) {
    v = static_cast<T>(v << 8 | p[i]);
  }
  return v;
}

template <typename T>
T GetLe(const uint8_t* p) {
  T v = 0;
  for (size_t i = sizeof(T); i-- > 0;) {
    v = static_cast<T>(v << 8 | p[i]);
  }
  return v;
}

}  // namespace detail

inline void PutBe16(std::vector<uint8_t>& out, uint16_t v) { detail::PutBe(out, v); }
inline void PutBe32(std::vector<uint8_t>& out, uint32_t v) { detail::PutBe(out, v); }
inline void PutBe64(std::vector<uint8_t>& out, uint64_t v) { detail::PutBe(out, v); }
inline void PutLe16(std::vector<uint8_t>& out, uint16_t v) { detail::PutLe(out, v); }
inline void PutLe32(std::vector<uint8_t>& out, uint32_t v) { detail::PutLe(out, v); }
inline void PutLe64(std::vector<uint8_t>& out, uint64_t v) { detail::PutLe(out, v); }

inline uint16_t GetBe16(const uint8_t* p) { return detail::GetBe<uint16_t>(p); }
inline uint32_t GetBe32(const uint8_t* p) { return detail::GetBe<uint32_t>(p); }
inline uint64_t GetBe64(const uint8_t* p) { return detail::GetBe<uint64_t>(p); }
inline uint16_t GetLe16(const uint8_t* p) { return detail::GetLe<uint16_t>(p); }
inline uint32_t GetLe32(const uint8_t* p) { return detail::GetLe<uint32_t>(p); }
inline uint64_t GetLe64(const uint8_t* p) { return detail::GetLe<uint64_t>(p); }

class Writer {
 public:
  void U8(uint8_t v) { buf_.push_back(v); }
  void U16(uint16_t v) { PutLe16(buf_, v); }
  void U32(uint32_t v) { PutLe32(buf_, v); }
  void U64(uint64_t v) { PutLe64(buf_, v); }
  void I32(int32_t v) { U32(static_cast<uint32_t>(v)); }
  // A u32 length, then the bytes.
  void Bytes(const uint8_t* data, size_t len) {
    U32(static_cast<uint32_t>(len));
    buf_.insert(buf_.end(), data, data + len);
  }
  void Bytes(const std::vector<uint8_t>& data) { Bytes(data.data(), data.size()); }
  void Str(std::string_view s) { Bytes(reinterpret_cast<const uint8_t*>(s.data()), s.size()); }

  const std::vector<uint8_t>& bytes() const { return buf_; }

  // Appends the CRC-32 of every byte written so far and returns the buffer;
  // the writer is consumed.
  std::vector<uint8_t> Seal() && {
    U32(Crc32(buf_.data(), buf_.size()));
    return std::move(buf_);
  }

 private:
  std::vector<uint8_t> buf_;
};

// Reads a byte range the caller keeps alive. A default-constructed Reader has
// already failed.
class Reader {
 public:
  Reader() = default;
  Reader(const uint8_t* data, size_t size) : data_(data), end_(size), ok_(true) {}

  bool ok() const { return ok_; }
  // Fails the reader on an envelope check the bytes did not pass.
  void Fail() { ok_ = false; }
  // Bytes not yet read; zero once failed.
  size_t remaining() const { return ok_ ? end_ - pos_ : 0; }
  bool AtEnd() const { return ok_ && pos_ == end_; }

  uint8_t U8() { return Fixed<uint8_t>(); }
  uint16_t U16() { return Fixed<uint16_t>(); }
  uint32_t U32() { return Fixed<uint32_t>(); }
  uint64_t U64() { return Fixed<uint64_t>(); }
  int32_t I32() { return static_cast<int32_t>(U32()); }

  std::vector<uint8_t> Bytes() {
    const uint32_t len = U32();
    const uint8_t* p = Take(len);
    return ok_ ? std::vector<uint8_t>(p, p + len) : std::vector<uint8_t>();
  }

  std::string Str() {
    const uint32_t len = U32();
    const uint8_t* p = Take(len);
    return ok_ ? std::string(reinterpret_cast<const char*>(p), len) : std::string();
  }

 private:
  // Consumes the next n bytes and returns where they start; past the end it
  // fails the reader and returns nullptr.
  const uint8_t* Take(size_t n) {
    if (!ok_ || end_ - pos_ < n) {
      ok_ = false;
      return nullptr;
    }
    const uint8_t* p = data_ + pos_;
    pos_ += n;
    return p;
  }

  template <typename T>
  T Fixed() {
    const uint8_t* p = Take(sizeof(T));
    return ok_ ? detail::GetLe<T>(p) : 0;
  }

  const uint8_t* data_ = nullptr;
  size_t pos_ = 0;
  size_t end_ = 0;
  bool ok_ = false;
};

// A Reader over everything before the CRC-32 trailer Writer::Seal appended,
// or a failed Reader when the buffer is too short or the trailer mismatches.
inline Reader Unseal(const std::vector<uint8_t>& sealed) {
  if (sealed.size() < 4) {
    return Reader();
  }
  const size_t body = sealed.size() - 4;
  if (GetLe32(sealed.data() + body) != Crc32(sealed.data(), body)) {
    return Reader();
  }
  return Reader(sealed.data(), body);
}
Reader Unseal(std::vector<uint8_t>&&) = delete;  // the Reader would outlive the bytes

}  // namespace wire
}  // namespace sim
}  // namespace coyote

#endif  // SRC_SIM_WIRE_H_

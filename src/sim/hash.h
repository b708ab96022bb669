// The simulator's two hashes, in one place.
//
//   FNV-1a (64-bit)  — fingerprints, determinism witnesses and data-integrity
//                      hashes. Fold raw bytes with FnvFold, or a u64 as its
//                      eight little-endian bytes with FnvFoldU64.
//   CRC-32           — IEEE 802.3 (reflected, polynomial 0xEDB88320), the
//                      trailer of RoCE frames (standing in for the ICRC),
//                      CYRP rpc frames and CYK1 checkpoints.
//
// Tests and the benchmark keep their own reference implementations: they are
// the oracle these are checked against.

#ifndef SRC_SIM_HASH_H_
#define SRC_SIM_HASH_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace coyote {
namespace sim {

inline constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
inline constexpr uint64_t kFnvPrime = 0x100000001b3ull;

inline void FnvFold(uint64_t* h, const void* data, size_t len) {
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < len; ++i) {
    *h ^= p[i];
    *h *= kFnvPrime;
  }
}

inline void FnvFoldU64(uint64_t* h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    *h ^= (v >> (8 * i)) & 0xff;
    *h *= kFnvPrime;
  }
}

inline uint64_t FnvHash(const void* data, size_t len) {
  uint64_t h = kFnvOffset;
  FnvFold(&h, data, len);
  return h;
}

inline uint64_t FnvHash(std::string_view s) { return FnvHash(s.data(), s.size()); }

inline constexpr std::array<uint32_t, 256> kCrc32Table = [] {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}();

inline uint32_t Crc32(const uint8_t* data, size_t len) {
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    crc = kCrc32Table[(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace sim
}  // namespace coyote

#endif  // SRC_SIM_HASH_H_

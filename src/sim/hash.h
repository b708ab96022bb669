// The simulator's two hashes, in one place.
//
//   FNV-1a (64-bit)  — fingerprints, determinism witnesses and data-integrity
//                      hashes. Fold raw bytes with FnvFold, or a u64 as its
//                      eight little-endian bytes with FnvFoldU64.
//   CRC-32           — IEEE 802.3 (reflected, polynomial 0xEDB88320), the
//                      trailer of RoCE frames (standing in for the ICRC),
//                      CYRP rpc frames and CYK1 checkpoints. Computed
//                      slice-by-8: eight bytes per step through eight
//                      256-entry tables, then a byte at a time for the tail.
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

// Slice-by-8: table 0 is the byte-at-a-time table, and entry b of table j
// is the CRC register after byte b is followed by j zero bytes. One step
// folds eight input bytes with eight independent lookups.
inline constexpr std::array<std::array<uint32_t, 256>, 8> kCrc32Tables = [] {
  std::array<std::array<uint32_t, 256>, 8> t{};
  for (uint32_t b = 0; b < 256; ++b) {
    uint32_t c = b;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
    }
    t[0][b] = c;
  }
  for (size_t j = 1; j < 8; ++j) {
    for (uint32_t b = 0; b < 256; ++b) {
      t[j][b] = (t[j - 1][b] >> 8) ^ t[0][t[j - 1][b] & 0xFFu];
    }
  }
  return t;
}();

inline uint32_t Crc32(const uint8_t* data, size_t len) {
  const auto& t = kCrc32Tables;
  uint32_t crc = 0xFFFFFFFFu;
  for (; len >= 8; data += 8, len -= 8) {
    crc ^= uint32_t{data[0]} | uint32_t{data[1]} << 8 | uint32_t{data[2]} << 16 |
           uint32_t{data[3]} << 24;
    crc = t[7][crc & 0xFFu] ^ t[6][(crc >> 8) & 0xFFu] ^ t[5][(crc >> 16) & 0xFFu] ^
          t[4][crc >> 24] ^ t[3][data[4]] ^ t[2][data[5]] ^ t[1][data[6]] ^ t[0][data[7]];
  }
  for (; len > 0; ++data, --len) {
    crc = t[0][(crc ^ *data) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace sim
}  // namespace coyote

#endif  // SRC_SIM_HASH_H_

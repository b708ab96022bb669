// Checkpointable vFPGA state: the wire format and the region capture API.
//
// A kernel-state checkpoint is what lets an orchestrator move a tenant
// between nodes (Funky-style cloud-native FPGA orchestration) or context-
// switch more tenants than regions (SYNERGY): everything the region will not
// reproduce on its own — CSR contents, retired-beat counter, and the
// kernel's private state blob — serialized deterministically so two
// same-seed runs produce bit-identical checkpoint bytes.
//
// Wire format (little-endian, see DESIGN.md "Checkpoint wire format"):
//
//   u32 magic 'C''Y''K''1'   u16 version   u16 flags
//   <payload sections written by the owner via Writer>
//   u32 crc32                 (IEEE 802.3, over everything before it)
//
// The Writer/Reader pair is deliberately dumb: fixed-width integers and
// length-prefixed byte strings only, no varints, no padding, no host-order
// leaks. A Reader validates the magic/version on Open and the CRC before
// handing out a single field, so a truncated or bit-flipped checkpoint is
// rejected as a whole rather than half-applied.

#ifndef SRC_VFPGA_CHECKPOINT_H_
#define SRC_VFPGA_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace coyote {
namespace vfpga {

class Vfpga;

namespace ckpt {

inline constexpr uint32_t kMagic = 0x314B5943u;  // "CYK1"
inline constexpr uint16_t kVersion = 1;

class Writer {
 public:
  // Starts a checkpoint stream: magic + version + flags header.
  explicit Writer(uint16_t flags = 0);

  void U8(uint8_t v) { buf_.push_back(v); }
  void U16(uint16_t v);
  void U32(uint32_t v);
  void U64(uint64_t v);
  // Length-prefixed (u32) byte string.
  void Bytes(const uint8_t* data, size_t len);
  void Bytes(const std::vector<uint8_t>& data) { Bytes(data.data(), data.size()); }
  void Str(const std::string& s);

  size_t size() const { return buf_.size(); }

  // Appends the CRC trailer and returns the finished checkpoint. The writer
  // is consumed; further appends are invalid.
  std::vector<uint8_t> Finish() &&;

 private:
  // lint: guard-ok stack-local serialization buffer: a Writer is built, filled and finished within one context, never shared
  std::vector<uint8_t> buf_;
};

class Reader {
 public:
  // Validates magic, version and the CRC trailer; ok() is false (and every
  // read returns zero/empty) when the blob is malformed or corrupt.
  explicit Reader(const std::vector<uint8_t>& blob);

  bool ok() const { return ok_; }
  uint16_t flags() const { return flags_; }

  uint8_t U8();
  uint16_t U16();
  uint32_t U32();
  uint64_t U64();
  std::vector<uint8_t> Bytes();
  std::string Str();

  // True when every payload byte has been consumed (trailer excluded).
  bool AtEnd() const { return ok_ && pos_ == end_; }

 private:
  bool Need(size_t n);

  const uint8_t* data_ = nullptr;
  size_t pos_ = 0;
  size_t end_ = 0;  // payload end (start of the CRC trailer)
  uint16_t flags_ = 0;
  bool ok_ = false;
};

}  // namespace ckpt

// Everything a region will not reproduce on its own after a reprogram:
// the resident kernel's name (so the restorer can instantiate it), the CSR
// file, the heartbeat counter and the kernel's private state blob. Captured
// deterministically (CSR indices ascending).
struct RegionSnapshot {
  std::string kernel_name;  // empty: no kernel resident
  std::vector<std::pair<uint32_t, uint64_t>> csr;  // ascending index
  uint64_t beats_retired = 0;
  std::vector<uint8_t> kernel_state;  // HwKernel::SaveState blob

  bool operator==(const RegionSnapshot&) const = default;

  // Serialized payload section (no header/CRC — embed into a Writer).
  void AppendTo(ckpt::Writer* w) const;
  // Reads the section back; returns false (leaving *this unspecified) on a
  // malformed stream.
  bool ParseFrom(ckpt::Reader* r);
};

// Captures the region's restorable state. The kernel, if any, contributes
// its SaveState blob. Safe on a quiesced region (no in-flight streams).
RegionSnapshot CaptureRegion(Vfpga& region);

// Applies a snapshot to a region whose kernel has already been instantiated
// (LoadKernel with a kernel matching snapshot.kernel_name — partial
// reconfiguration is the caller's job; this restores the *state*). Returns
// false when the resident kernel mismatches the snapshot or the kernel
// rejects its state blob.
bool RestoreRegion(Vfpga& region, const RegionSnapshot& snapshot);

}  // namespace vfpga
}  // namespace coyote

#endif  // SRC_VFPGA_CHECKPOINT_H_

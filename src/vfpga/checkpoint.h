// Checkpointable vFPGA state: the wire format and the region capture API.
//
// A kernel-state checkpoint is what lets an orchestrator move a tenant
// between nodes (Funky-style cloud-native FPGA orchestration) or context-
// switch more tenants than regions (SYNERGY): everything the region will not
// reproduce on its own — CSR contents, retired-beat counter, and the
// kernel's private state blob — serialized deterministically so two
// same-seed runs produce bit-identical checkpoint bytes.
//
// Wire format (see DESIGN.md "CYK1 container"):
//
//   u32 magic 'C''Y''K''1'   u16 version   u16 flags
//   <payload sections written by the owner>
//   u32 crc32                 (IEEE 802.3, over everything before it)
//
// The payload is written and read with the sim::wire codec
// (src/sim/wire.h): fixed-width little-endian integers and u32-length-
// prefixed byte strings only, no varints, no padding, no host-order leaks.
// Open checks the CRC, magic and version before handing out a single field,
// so a truncated or bit-flipped checkpoint is rejected as a whole rather
// than half-applied.

#ifndef SRC_VFPGA_CHECKPOINT_H_
#define SRC_VFPGA_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/wire.h"

namespace coyote {
namespace vfpga {

class Vfpga;

namespace ckpt {

inline constexpr uint32_t kMagic = 0x314B5943u;  // "CYK1"
inline constexpr uint16_t kVersion = 1;

// A Writer holding the header; the owner appends its sections, then seals
// it with Writer::Seal (the CRC trailer).
sim::wire::Writer Begin(uint16_t flags = 0);

// A Reader positioned after the header of a valid blob, or a failed Reader.
// `flags`, when given, receives the header's flags (zero on failure).
sim::wire::Reader Open(const std::vector<uint8_t>& blob, uint16_t* flags = nullptr);
sim::wire::Reader Open(std::vector<uint8_t>&&, uint16_t* = nullptr) = delete;

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

  // Serialized payload section (no header/CRC — embed into a checkpoint).
  void AppendTo(sim::wire::Writer* w) const;
  // Reads the section back; returns false (leaving *this unspecified) on a
  // malformed stream.
  bool ParseFrom(sim::wire::Reader* r);
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

#include "src/vfpga/checkpoint.h"

#include "src/vfpga/vfpga.h"

namespace coyote {
namespace vfpga {
namespace ckpt {

sim::wire::Writer Begin(uint16_t flags) {
  sim::wire::Writer w;
  w.U32(kMagic);
  w.U16(kVersion);
  w.U16(flags);
  return w;
}

sim::wire::Reader Open(const std::vector<uint8_t>& blob, uint16_t* flags) {
  sim::wire::Reader r = sim::wire::Unseal(blob);
  if (r.U32() != kMagic || r.U16() != kVersion) {
    r.Fail();
  }
  const uint16_t header_flags = r.U16();
  if (flags != nullptr) {
    *flags = header_flags;
  }
  return r;
}

}  // namespace ckpt

void RegionSnapshot::AppendTo(sim::wire::Writer* w) const {
  w->Str(kernel_name);
  w->U32(static_cast<uint32_t>(csr.size()));
  for (const auto& [index, value] : csr) {
    w->U32(index);
    w->U64(value);
  }
  w->U64(beats_retired);
  w->Bytes(kernel_state);
}

bool RegionSnapshot::ParseFrom(sim::wire::Reader* r) {
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

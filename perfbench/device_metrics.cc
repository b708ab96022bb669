// dyn and mmu per-layer counts, summed over the devices of a workload.

#include <cstdint>
#include <vector>

#include "perfbench/harness.h"
#include "src/runtime/device.h"

namespace perfbench {

void AddDeviceMetrics(const std::vector<coyote::runtime::SimDevice*>& devices, double settle_s,
                      Metrics* m) {
  uint64_t packets = 0;
  uint64_t writebacks = 0;
  uint64_t h2c = 0;
  uint64_t c2h = 0;
  double h2c_capacity = 0.0;
  double c2h_capacity = 0.0;
  uint64_t stalled = 0;
  uint64_t tlb_hits = 0;
  uint64_t tlb_misses = 0;
  uint64_t page_faults = 0;
  for (coyote::runtime::SimDevice* dev : devices) {
    coyote::dyn::XdmaCore& xdma = dev->xdma();
    packets += dev->data_mover().packets_moved();
    writebacks += dev->writeback().writebacks();
    h2c += xdma.h2c().total_bytes();
    c2h += xdma.c2h().total_bytes();
    h2c_capacity += static_cast<double>(xdma.config().h2c_bps) * settle_s;
    c2h_capacity += static_cast<double>(xdma.config().c2h_bps) * settle_s;
    stalled += xdma.h2c().stalled_packets() + xdma.c2h().stalled_packets();
    for (uint32_t v = 0; v < dev->num_vfpgas(); ++v) {
      const coyote::mmu::Mmu& mmu = dev->vfpga_mmu(v);
      tlb_hits += mmu.tlb().hits();
      tlb_misses += mmu.tlb().misses();
      page_faults += mmu.page_faults();
    }
  }
  (*m)["dyn.packets"] = static_cast<double>(packets);
  (*m)["dyn.writebacks"] = static_cast<double>(writebacks);
  (*m)["dyn.xdma.h2c_bytes"] = static_cast<double>(h2c);
  (*m)["dyn.xdma.c2h_bytes"] = static_cast<double>(c2h);
  (*m)["dyn.xdma.h2c_util"] = Ratio(static_cast<double>(h2c), h2c_capacity);
  (*m)["dyn.xdma.c2h_util"] = Ratio(static_cast<double>(c2h), c2h_capacity);
  (*m)["dyn.xdma.stalled_packets"] = static_cast<double>(stalled);
  (*m)["mmu.tlb.misses"] = static_cast<double>(tlb_misses);
  (*m)["mmu.tlb.hit_frac"] =
      Ratio(static_cast<double>(tlb_hits), static_cast<double>(tlb_hits + tlb_misses));
  (*m)["mmu.page_faults"] = static_cast<double>(page_faults);
}

}  // namespace perfbench

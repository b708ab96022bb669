// XDMA core model (paper §5.1).
//
// The static layer's CPU<->FPGA link: a DMA wrapper over the hardened PCIe
// block, controllable from both sides. Exposes the four channels the paper
// describes: shell control (BAR-mapped registers), the host streaming
// channel, the migration channel, and the two-sided utility channel used for
// bitstream delivery, writeback counters and MSI-X interrupts.

#ifndef SRC_DYN_XDMA_H_
#define SRC_DYN_XDMA_H_

#include <cstdint>
#include <functional>
#include <memory>

#include "src/axi/axi_lite.h"
#include "src/sim/engine.h"
#include "src/sim/fault.h"
#include "src/sim/link.h"
#include "src/sim/time.h"

namespace coyote {
namespace dyn {

class XdmaCore {
 public:
  struct Config {
    // Effective per-direction host bandwidth. ~12 GB/s is what the paper
    // measures on the U55C (§9.4) once PCIe/DMA overheads are folded in.
    uint64_t h2c_bps = 12'000'000'000ull;
    uint64_t c2h_bps = 12'000'000'000ull;
  };

  // PCIe round-trip latency per transfer (pipelined; throughput intact).
  static constexpr sim::TimePs kPcieLatency = sim::Nanoseconds(900);
  // MSI-X delivery: device write -> IOMMU -> LAPIC -> kernel ISR.
  static constexpr sim::TimePs kMsixLatency = sim::Microseconds(2);
  // One BAR register access over PCIe (posted write / non-posted read).
  static constexpr sim::TimePs kBarWriteLatency = sim::Nanoseconds(300);
  static constexpr sim::TimePs kBarReadLatency = sim::Nanoseconds(800);

  using MsixHandler = std::function<void(uint32_t vector, uint64_t value)>;

  XdmaCore(sim::Engine* engine, const Config& config)
      : engine_(engine),
        config_(config),
        h2c_(engine, {config.h2c_bps, 0, kPcieLatency}),
        c2h_(engine, {config.c2h_bps, 0, kPcieLatency}) {}

  // Host -> card direction (reads from host memory).
  sim::Link& h2c() { return h2c_; }
  // Card -> host direction (writes to host memory).
  sim::Link& c2h() { return c2h_; }

  // Shell control: BAR-mapped register space (TLB control, network config,
  // interrupt registers, per-vFPGA CSR windows).
  axi::AxiLiteRegisterFile& bar() { return bar_; }

  // Raises an MSI-X interrupt towards the host. The driver's handler runs
  // after the delivery latency. Sources include page faults, reconfiguration
  // completions, TLB invalidations and user-issued interrupts (§5.1).
  void RaiseMsix(uint32_t vector, uint64_t value) {
    ++msix_raised_;
    engine_->ScheduleAfter(kMsixLatency, [this, vector, value]() {
      if (msix_handler_) {
        msix_handler_(vector, value);
      }
    });
  }

  void SetMsixHandler(MsixHandler handler) { msix_handler_ = std::move(handler); }

  // Fault injection: each DMA packet in either direction may stall the link
  // (a PCIe replay, a host-memory backpressure hiccup). nullptr detaches.
  void SetFaultInjector(sim::FaultInjector* injector) {
    if (injector == nullptr) {
      h2c_.SetFaultHook(nullptr);
      c2h_.SetFaultHook(nullptr);
      return;
    }
    h2c_.SetFaultHook([injector](uint64_t) { return injector->NextXdmaStall(); });
    c2h_.SetFaultHook([injector](uint64_t) { return injector->NextXdmaStall(); });
  }

  const Config& config() const { return config_; }
  uint64_t msix_raised() const { return msix_raised_; }

 private:
  sim::Engine* engine_;
  Config config_;
  sim::Link h2c_;
  sim::Link c2h_;
  axi::AxiLiteRegisterFile bar_;
  MsixHandler msix_handler_;
  uint64_t msix_raised_ = 0;
};

}  // namespace dyn
}  // namespace coyote

#endif  // SRC_DYN_XDMA_H_

// Partial reconfiguration ports (paper §5.3, Table 2).
//
// The configuration memory of an UltraScale+ device is written through one of
// several ports. Legacy controllers (AXI HWICAP, PCAP, MCAP) perform
// single-word register writes and are an order of magnitude slower than the
// raw ICAP bandwidth (~800 MB/s: 32-bit word per 200 MHz cycle). Coyote v2's
// controller streams the bitstream from host memory over a dedicated XDMA
// channel straight into the ICAP, saturating it.

#ifndef SRC_FABRIC_RECONFIG_PORT_H_
#define SRC_FABRIC_RECONFIG_PORT_H_

#include <cstdint>
#include <functional>
#include <string_view>

#include "src/sim/clock.h"
#include "src/sim/engine.h"
#include "src/sim/fault.h"
#include "src/sim/time.h"

namespace coyote {
namespace fabric {

struct ReconfigPortSpec {
  std::string_view name;
  std::string_view interface;  // bus type, as reported in Table 2
  uint32_t word_bytes = 4;
  sim::TimePs per_word_ps = 0;  // time to push one word through the port

  constexpr double ThroughputMBps() const {
    return per_word_ps == 0
               ? 0.0
               : static_cast<double>(word_bytes) / (static_cast<double>(per_word_ps) * 1e-12) /
                     1e6;
  }
};

// AXI HWICAP [AMD PG134]: AXI4-Lite, each 32-bit word costs a full register
// write transaction (~42 cycles at 200 MHz) -> ~19 MB/s.
inline constexpr ReconfigPortSpec kAxiHwicap{"AXI HWICAP", "AXI Lite", 4, 210'526};

// PCAP (Zynq processor configuration access port): ~128 MB/s.
inline constexpr ReconfigPortSpec kPcap{"PCAP", "AXI", 4, 31'250};

// MCAP (PCIe media configuration access port): ~145 MB/s.
inline constexpr ReconfigPortSpec kMcap{"MCAP", "AXI", 4, 27'586};

// Coyote v2 optimized ICAP controller: one 32-bit word per ICAP clock cycle
// (200 MHz), fed by an AXI4-Stream from a dedicated XDMA channel -> 800 MB/s.
inline constexpr ReconfigPortSpec kCoyoteIcap{"Coyote v2 ICAP", "AXI Stream", 4, 5'000};

// Pure programming time of `bytes` through a port (the Table 3 "kernel
// latency" component for the Coyote ICAP).
constexpr sim::TimePs ProgramTime(const ReconfigPortSpec& port, uint64_t bytes) {
  const uint64_t words = (bytes + port.word_bytes - 1) / port.word_bytes;
  return words * port.per_word_ps;
}

// Coyote v2's reconfiguration controller: stages the bitstream transfer from
// host memory (XDMA utility channel) against the ICAP write, pipelined in
// 4 KB bursts, so the slower of the two rates bounds the latency. The rest of
// the fabric keeps running: programming is just another event stream.
class ReconfigController {
 public:
  ReconfigController(sim::Engine* engine, uint64_t host_link_bps,
                     ReconfigPortSpec port = kCoyoteIcap)
      : engine_(engine), host_link_bps_(host_link_bps), port_(port) {}

  // Latency from "bitstream resident in pinned host memory" to "region
  // activated" — the paper's kernel latency.
  sim::TimePs ProgramLatency(uint64_t bytes) const {
    const sim::TimePs icap = ProgramTime(port_, bytes);
    const sim::TimePs dma = sim::TransferTime(bytes, host_link_bps_);
    // Pipelined: total = max of the stages + one burst of fill latency.
    const sim::TimePs fill = sim::TransferTime(kBurstBytes, host_link_bps_);
    return std::max(icap, dma) + fill;
  }

  // Programs `bytes` through the port; `on_done(ok)` fires when the attempt
  // finishes. With a fault injector attached, a program may abort mid-stream
  // (ok=false, after roughly half the nominal latency — the point where a CRC
  // error in the bitstream stream is detected) or run slowed by the plan's
  // factor.
  void ProgramAsync(uint64_t bytes, std::function<void(bool ok)> on_done) {
    ++programs_in_flight_;
    sim::TimePs latency = ProgramLatency(bytes);
    bool ok = true;
    if (injector_ != nullptr) {
      if (injector_->NextReconfigFails()) {
        ok = false;
        latency /= 2;  // abort detected mid-bitstream
        ++programs_failed_;
      } else {
        const double slow = injector_->NextReconfigSlowdown();
        if (slow > 1.0) {
          latency = static_cast<sim::TimePs>(static_cast<double>(latency) * slow);
        }
      }
    }
    engine_->ScheduleAfter(latency, [this, ok, cb = std::move(on_done)]() {
      --programs_in_flight_;
      if (cb) {
        cb(ok);
      }
    });
  }

  void SetFaultInjector(sim::FaultInjector* injector) { injector_ = injector; }

  bool busy() const { return programs_in_flight_ > 0; }
  uint64_t programs_failed() const { return programs_failed_; }
  const ReconfigPortSpec& port() const { return port_; }

 private:
  static constexpr uint64_t kBurstBytes = 4096;

  sim::Engine* engine_;
  uint64_t host_link_bps_;
  ReconfigPortSpec port_;
  sim::FaultInjector* injector_ = nullptr;
  int programs_in_flight_ = 0;
  uint64_t programs_failed_ = 0;
};

}  // namespace fabric
}  // namespace coyote

#endif  // SRC_FABRIC_RECONFIG_PORT_H_

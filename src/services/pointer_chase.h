// Pointer-chasing kernel (paper §7.1, read/write send queues).
//
// The motivating case for hardware-issued DMA: traversing a pointer-linked
// structure in host memory. A host-centric design pays an invoke/interrupt
// round trip per hop; with Coyote v2's send queues the vFPGA issues each
// dependent read itself, so the CPU is entirely out of the loop.
//
// Node layout in (virtual) memory, 16 bytes:
//   [0..7]  next-node virtual address (0 terminates)
//   [8..15] int64 payload value
//
// CSR map:
//   0 (W)  head virtual address
//   1 (W)  max nodes to follow (runaway/cycle guard)
//   2 (W)  doorbell: start traversal
//   8 (R)  nodes visited
//   9 (R)  running sum of payload values
//  10 (R)  done flag (1 when traversal finished)
//
// On completion the kernel also raises a user interrupt carrying the sum.

#ifndef SRC_SERVICES_POINTER_CHASE_H_
#define SRC_SERVICES_POINTER_CHASE_H_

#include <cstdint>

#include "src/fabric/resources.h"
#include "src/vfpga/kernel.h"
#include "src/vfpga/vfpga.h"

namespace coyote {
namespace services {

inline constexpr uint32_t kChaseCsrHead = 0;
inline constexpr uint32_t kChaseCsrMaxNodes = 1;
inline constexpr uint32_t kChaseCsrStart = 2;
inline constexpr uint32_t kChaseCsrVisited = 8;
inline constexpr uint32_t kChaseCsrSum = 9;
inline constexpr uint32_t kChaseCsrDone = 10;

class PointerChaseKernel : public vfpga::HwKernel {
 public:
  static constexpr uint64_t kNodeBytes = 16;

  std::string_view name() const override { return "pointer_chase"; }
  fabric::ResourceVector resources() const override {
    // Small control FSM + one outstanding descriptor.
    return fabric::ResourceVector{2'400, 4'100, 6, 0, 0};
  }

  void Attach(vfpga::Vfpga* region) override;
  void Detach() override;

  int64_t sum() const { return sum_; }

 private:
  void Start();
  void FetchNode(uint64_t vaddr);
  void OnData();

  vfpga::Vfpga* region_ = nullptr;
  bool running_ = false;
  uint64_t max_nodes_ = 0;
  uint64_t visited_ = 0;
  int64_t sum_ = 0;
};

}  // namespace services
}  // namespace coyote

#endif  // SRC_SERVICES_POINTER_CHASE_H_

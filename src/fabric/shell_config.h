// Shell configuration descriptors (paper §4).
//
// A shell is fully parametrized by the services it provides and the user
// applications it hosts. Users pick a configuration at compile time; Coyote
// v2 synthesizes partial bitstreams for it. At link time, an application
// bitstream records the ConfigId of the shell it was built against, and
// loading verifies the match — the fail-safe that prevents an application
// from losing a service it depends on (multiple privilege levels, §4).

#ifndef SRC_FABRIC_SHELL_CONFIG_H_
#define SRC_FABRIC_SHELL_CONFIG_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/hash.h"

namespace coyote {
namespace fabric {

enum class Service : uint8_t {
  kHostStream = 0,  // direct AXI streams to host memory (always present)
  kCardMemory,      // HBM/DDR controllers + migration channel
  kRdma,            // RoCE v2 stack (BALBOA)
  kTcp,             // TCP/IP stack
  kSniffer,         // on-path network traffic sniffer
  kGpuDma,          // peer DMA into GPU memory (MMU extension)
  kStorage,         // NVMe bridge: FPGA-direct storage access (§10)
};

std::string_view ServiceName(Service s);

struct ShellConfigDesc {
  std::string name;
  std::vector<Service> services;
  uint32_t num_vfpgas = 1;

  // MMU parametrization (paper §6.1): page size and TLB geometry are
  // compile-time shell parameters.
  uint64_t page_bytes = 2ull << 20;  // 2 MB hugepages by default
  uint32_t tlb_entries = 1024;
  uint32_t tlb_associativity = 4;

  bool HasService(Service s) const {
    return std::find(services.begin(), services.end(), s) != services.end();
  }

  // Stable identity used for app-to-shell link verification. FNV-1a over all
  // configuration-relevant fields (the name is documentation, not identity).
  uint64_t ConfigId() const {
    uint64_t svc_mask = 0;
    for (Service s : services) {
      svc_mask |= 1ull << static_cast<uint8_t>(s);
    }
    uint64_t h = sim::kFnvOffset;
    sim::FnvFoldU64(&h, svc_mask);
    sim::FnvFoldU64(&h, num_vfpgas);
    sim::FnvFoldU64(&h, page_bytes);
    sim::FnvFoldU64(&h, tlb_entries);
    sim::FnvFoldU64(&h, tlb_associativity);
    return h;
  }
};

}  // namespace fabric
}  // namespace coyote

#endif  // SRC_FABRIC_SHELL_CONFIG_H_

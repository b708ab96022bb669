// GPU memory target for the peer-DMA MMU extension.
//
// The paper highlights an external contribution that extended Coyote v2's
// MMU with GPU memory, enabling direct FPGA<->GPU data movement (§2.2,
// Requirement 1, refs [8]/[58]). We model the GPU as a third physical memory
// kind reachable over the same PCIe fabric: a flat store with a bump
// allocator. The peer-to-peer link and its bandwidth belong to the data
// mover (dyn::DataMover::kGpuP2pBps).

#ifndef SRC_MEMSYS_GPU_MEMORY_H_
#define SRC_MEMSYS_GPU_MEMORY_H_

#include <cstdint>

#include "src/memsys/sparse_memory.h"

namespace coyote {
namespace memsys {

class GpuMemory {
 public:
  uint64_t Allocate(uint64_t bytes) {
    const uint64_t addr = next_;
    next_ += (bytes + 255) & ~255ull;  // 256 B alignment, CUDA-style
    return addr;
  }

  SparseMemory& store() { return store_; }
  const SparseMemory& store() const { return store_; }

 private:
  SparseMemory store_;
  uint64_t next_ = 0;
};

}  // namespace memsys
}  // namespace coyote

#endif  // SRC_MEMSYS_GPU_MEMORY_H_

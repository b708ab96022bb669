// NVMe SSD model.
//
// "Interaction with storage systems" is the remaining service on the
// paper's future-work list (§10); systems like Farview [33] and FSRF [36]
// show the pattern: the FPGA moves data directly between storage and
// memory without bouncing through host software. This drive model provides
// the storage substrate: block-addressed functional storage plus a
// queue-served timing model (per-command latency + sustained bandwidth,
// separate read/write characteristics, as in datacenter NVMe). The drive's
// figures are constants of one Gen4 x4 datacenter SSD class; no caller
// varies them.

#ifndef SRC_MEMSYS_NVME_H_
#define SRC_MEMSYS_NVME_H_

#include <cstdint>
#include <utility>

#include "src/memsys/sparse_memory.h"
#include "src/sim/callback.h"
#include "src/sim/engine.h"
#include "src/sim/link.h"
#include "src/sim/time.h"

namespace coyote {
namespace memsys {

class NvmeDrive {
 public:
  static constexpr uint64_t kCapacityBytes = 1ull << 40;  // 1 TB
  static constexpr uint32_t kBlockBytes = 4096;
  static constexpr uint64_t kReadBps = 7'000'000'000ull;
  static constexpr uint64_t kWriteBps = 5'200'000'000ull;
  static constexpr sim::TimePs kReadLatency = sim::Microseconds(75);
  static constexpr sim::TimePs kWriteLatency = sim::Microseconds(15);  // write-back cache ack

  explicit NvmeDrive(sim::Engine* engine)
      : engine_(engine),
        read_queue_(engine, {kReadBps, 0, kReadLatency}),
        write_queue_(engine, {kWriteBps, 0, kWriteLatency}) {}

  uint64_t num_blocks() const { return kCapacityBytes / kBlockBytes; }

  // Bump-allocates a block-aligned byte range of the drive (the "swap
  // partition" the memory tiering service demotes cold pages into). Returns
  // the byte address (lba * kBlockBytes) of the range's first block.
  uint64_t Allocate(uint64_t bytes) {
    const uint64_t blocks = (bytes + kBlockBytes - 1) / kBlockBytes;
    const uint64_t addr = next_alloc_;
    next_alloc_ += blocks * kBlockBytes;
    return addr;
  }
  uint64_t allocated_bytes() const { return next_alloc_; }

  // Timing: a read/write command of `blocks` blocks; `done` fires at command
  // completion. Commands from different sources share the drive's bandwidth.
  void ReadCommand(uint64_t lba, uint32_t blocks, uint32_t source, sim::InlineCallback done) {
    (void)lba;
    ++reads_;
    read_queue_.Submit(source, static_cast<uint64_t>(blocks) * kBlockBytes, std::move(done));
  }
  void WriteCommand(uint64_t lba, uint32_t blocks, uint32_t source, sim::InlineCallback done) {
    (void)lba;
    ++writes_;
    write_queue_.Submit(source, static_cast<uint64_t>(blocks) * kBlockBytes, std::move(done));
  }

  // Functional storage, addressed in bytes (lba * kBlockBytes).
  SparseMemory& store() { return store_; }
  const SparseMemory& store() const { return store_; }

  uint64_t reads() const { return reads_; }
  uint64_t writes() const { return writes_; }

 private:
  sim::Engine* engine_;
  SparseMemory store_;
  sim::Link read_queue_;
  sim::Link write_queue_;
  uint64_t next_alloc_ = 0;
  uint64_t reads_ = 0;
  uint64_t writes_ = 0;
};

}  // namespace memsys
}  // namespace coyote

#endif  // SRC_MEMSYS_NVME_H_

// Dynamic-layer data mover (paper §6.3, §7.2).
//
// The hub of the shell's data plane. Every vFPGA transfer — host streaming,
// card memory, GPU peer DMA — flows through here and receives:
//
//  * PACKETIZATION: requests of arbitrary size are split into 4 KB packets
//    (configurable), giving precise control over outstanding transactions.
//  * INTERLEAVING: packets from different vFPGAs share bandwidth-constrained
//    links (PCIe) under round-robin arbitration (fairness in Fig. 8).
//  * CREDITING: a per-vFPGA, per-stream credit counter gates packet issue on
//    destination-queue space. A vFPGA that requests data but never consumes
//    it stalls itself, not the shell (§7.2). Credits replenish when the
//    kernel pops packets from the destination stream.
//  * VIRTUAL MEMORY: every packet's page is translated by the vFPGA's MMU;
//    residency in the wrong memory triggers a page migration (GPU-style
//    unified memory); unmapped addresses raise a page-fault MSI-X.
//  * IN-ORDER DELIVERY: a reorder stage guarantees packets enter the
//    destination stream in request order even when migrations or different
//    physical paths complete out of order.
//
// Reads and writes share one packet path: Resolve translates the packet's
// address (migrating its page on a residency fault), then SubmitPhysical
// moves it over XDMA H2C/C2H, the HBM crossbar, the GPU peer link or an NVMe
// command, as the page's memory implies. Only what each direction does with
// the bytes, and how it handles a fault, differ.

#ifndef SRC_DYN_DATA_MOVER_H_
#define SRC_DYN_DATA_MOVER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/axi/credit.h"
#include "src/axi/stream.h"
#include "src/dyn/xdma.h"
#include "src/memsys/card_memory.h"
#include "src/memsys/gpu_memory.h"
#include "src/memsys/nvme.h"
#include "src/mmu/mmu.h"
#include "src/mmu/svm.h"
#include "src/sim/callback.h"
#include "src/sim/engine.h"
#include "src/sim/link.h"

namespace coyote {
namespace dyn {

// MSI-X vectors used by the shell (§5.1 lists the interrupt sources).
inline constexpr uint32_t kMsixPageFault = 0;
inline constexpr uint32_t kMsixReconfigDone = 1;
inline constexpr uint32_t kMsixTlbInvalidation = 2;
inline constexpr uint32_t kMsixUserBase = 16;  // + vfpga_id

struct TransferRequest {
  uint32_t vfpga_id = 0;
  uint32_t tid = 0;     // issuing cThread (AXI TID)
  uint32_t stream = 0;  // stream index within the vFPGA interface
  uint64_t vaddr = 0;
  uint64_t bytes = 0;
  mmu::MemKind target = mmu::MemKind::kHost;  // memory this transfer addresses
};

class DataMover {
 public:
  struct Config {
    uint64_t packet_bytes = 4096;     // §6.3 default
    uint32_t credits_per_stream = 8;  // destination-queue depth in packets
  };

  // FPGA<->GPU peer link: P2P over PCIe tops out below host DMA because the
  // root complex forwards it.
  static constexpr uint64_t kGpuP2pBps = 10'000'000'000ull;

  using Completion = std::function<void(bool ok)>;

  DataMover(sim::Engine* engine, mmu::Svm* svm, memsys::CardMemory* card,
            memsys::GpuMemory* gpu, XdmaCore* xdma, const Config& config);

  // Associates a vFPGA with its MMU. Must be called before issuing requests.
  void RegisterVfpga(uint32_t vfpga_id, mmu::Mmu* mmu);

  // Attaches the NVMe drive backing the cold tier; transfers and migrations
  // touching kNvme pages are charged to its command queues.
  void SetNvme(memsys::NvmeDrive* nvme) { nvme_ = nvme; }

  // Streams req.bytes at req.vaddr into `dst` as in-order packets tagged
  // with req.tid. Completion fires after the last packet is delivered.
  void Read(const TransferRequest& req, axi::Stream* dst, Completion done);

  // Consumes req.bytes from `src` (as the kernel produces them) and writes
  // them to virtual memory at req.vaddr. Completion fires when the last byte
  // is globally visible.
  void Write(const TransferRequest& req, axi::Stream* src, Completion done);

  // Explicit buffer migration (the migration channel, §5.1): moves the pages
  // of [vaddr, vaddr+bytes) to `to`, e.g. pre-loading NN weights into HBM.
  void Migrate(uint64_t vaddr, uint64_t bytes, mmu::MemKind to, Completion done);

  // Timing hooks wired into the Svm so page migrations charge DMA time here.
  mmu::Svm::MigrationHooks MakeMigrationHooks();

  // Recovery path (runtime::Supervisor): aborts every queued and in-flight
  // transfer of `vfpga_id` with an error completion, restores the region's
  // credit counters to full, and shoots down its TLB so a reprogrammed
  // kernel starts from a clean translation state. In-flight physical-link
  // packets drain harmlessly — their delivery callbacks observe the aborted
  // op and drop the data. Returns the number of operations aborted.
  uint64_t AbortVfpga(uint32_t vfpga_id);

  // Credit counter for (vfpga, stream, direction); exposed for tests.
  axi::CreditCounter& ReadCredits(uint32_t vfpga_id, uint32_t stream);
  axi::CreditCounter& WriteCredits(uint32_t vfpga_id, uint32_t stream);

  const Config& config() const { return config_; }
  uint64_t page_fault_irqs() const { return page_fault_irqs_; }
  uint64_t packets_moved() const { return packets_moved_; }
  // Monotone per-region progress counter: together with the vFPGA's retired
  // beats this is the heartbeat signal the Supervisor's watchdog samples.
  uint64_t packets_moved_for(uint32_t vfpga_id) const {
    auto it = packets_moved_by_vfpga_.find(vfpga_id);
    return it == packets_moved_by_vfpga_.end() ? 0 : it->second;
  }
  uint64_t aborted_ops() const { return aborted_ops_; }
  // Live (not yet completed) transfer operations for the region. The
  // watchdog combines this with the heartbeat counters: a region is only
  // "hung" when it has outstanding work AND its heartbeats are stale.
  size_t OutstandingOps(uint32_t vfpga_id) const;

 private:
  struct ReadOp;
  struct WriteOp;

  void IssueReadPackets(const std::shared_ptr<ReadOp>& op);
  // Take-by-value + move: the reorder buffer assumes ownership of the packet.
  void DeliverInOrder(const std::shared_ptr<ReadOp>& op, uint64_t seq,
                      axi::StreamPacket pkt);  // lint: hot-copy-ok
  void RetireReadOp(const std::shared_ptr<ReadOp>& op);
  void PumpWrites(axi::Stream* src);
  // Translates one packet's `vaddr` through `mmu`, migrating its page into
  // op->req.target first on a residency fault, then calls on_page(kind,
  // phys), or on_fault() if the address is unmapped. Drops the result if the
  // op completed meanwhile. Template continuations: no std::function each.
  template <typename Op, typename OnPage, typename OnFault>
  void Resolve(const std::shared_ptr<Op>& op, mmu::Mmu* mmu, uint64_t vaddr, OnPage on_page,
               OnFault on_fault);
  // Moves `bytes` at `phys_addr` of `kind` memory; `to_memory` is a write.
  void SubmitPhysical(uint32_t vfpga_id, mmu::MemKind kind, uint64_t phys_addr, uint64_t bytes,
                      bool to_memory, sim::InlineCallback on_done);

  axi::CreditCounter& CreditsFor(
      std::map<std::pair<uint64_t, uint32_t>, std::unique_ptr<axi::CreditCounter>>& table,
      uint32_t vfpga_id, uint32_t stream);

  sim::Engine* engine_;
  mmu::Svm* svm_;
  memsys::CardMemory* card_;
  memsys::GpuMemory* gpu_;
  memsys::NvmeDrive* nvme_ = nullptr;
  XdmaCore* xdma_;
  Config config_;
  sim::Link gpu_link_;

  // Ordered: the TLB-shootdown hook iterates this map, and invalidation
  // order must be identical run-to-run for bit-exact replay.
  std::map<uint32_t, mmu::Mmu*> mmus_;
  std::map<std::pair<uint64_t, uint32_t>, std::unique_ptr<axi::CreditCounter>> read_credits_;
  std::map<std::pair<uint64_t, uint32_t>, std::unique_ptr<axi::CreditCounter>> write_credits_;

  // Pending write operations per source stream, serviced FIFO.
  std::unordered_map<axi::Stream*, std::deque<std::shared_ptr<WriteOp>>> write_queues_;
  // Deterministic per-region index over the same ops (write_queues_ is keyed
  // by stream pointer, which must never be iterated): AbortVfpga walks this
  // in issue order so error completions fire identically run-to-run.
  std::map<uint32_t, std::vector<std::weak_ptr<WriteOp>>> write_ops_by_vfpga_;

  // Pending read operations per (vfpga, stream), serviced FIFO: like a real
  // DMA descriptor queue, a stream's transfers are processed strictly in
  // issue order, so packets of consecutive transfers never interleave in the
  // destination stream.
  std::map<std::pair<uint64_t, uint32_t>, std::deque<std::shared_ptr<ReadOp>>> read_queues_;

  uint64_t page_fault_irqs_ = 0;
  uint64_t packets_moved_ = 0;
  uint64_t aborted_ops_ = 0;
  std::map<uint32_t, uint64_t> packets_moved_by_vfpga_;
};

}  // namespace dyn
}  // namespace coyote

#endif  // SRC_DYN_DATA_MOVER_H_

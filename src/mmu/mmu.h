// Per-vFPGA memory management unit.
//
// Hybrid design (paper §6.1): a hardware TLB answers hits in one system
// cycle; misses fall back to the host-side driver over PCIe (a page-fault
// interrupt + ioctl round trip), which installs the translation and resumes
// the access. One MMU instance exists per vFPGA, giving memory isolation
// between tenants (§7.2).

#ifndef SRC_MMU_MMU_H_
#define SRC_MMU_MMU_H_

#include <cstdint>
#include <functional>

#include "src/mmu/page_table.h"
#include "src/mmu/tlb.h"
#include "src/sim/clock.h"
#include "src/sim/engine.h"
#include "src/sim/fault.h"

namespace coyote {
namespace mmu {

class Mmu {
 public:
  // One 250 MHz cycle for an SRAM TLB hit.
  static constexpr sim::TimePs kHitLatency = sim::kSystemClock.CyclesToPs(1);
  // TLB miss -> driver: MSI-X + kernel handler + BAR write back. Dominated
  // by the interrupt path, a few microseconds on a tuned system.
  static constexpr sim::TimePs kMissLatency = sim::Microseconds(4);

  using TranslateCallback = std::function<void(std::optional<PhysPage>)>;

  Mmu(sim::Engine* engine, PageTable* page_table, const Tlb::Config& tlb)
      : engine_(engine), page_table_(page_table), tlb_(tlb) {}

  // Asynchronously translates `vaddr`. On a TLB hit the callback fires after
  // the hit latency; on a miss, after the driver-fallback latency (and the
  // translation is cached). A nullopt result is an unresolved page fault —
  // no mapping exists — which the caller escalates (the data mover raises a
  // page-fault interrupt and triggers allocation/migration).
  void Translate(uint64_t vaddr, TranslateCallback cb) {
    if (injector_ != nullptr && injector_->NextForcedTlbMiss()) {
      // Fault injection: evict the entry so this translation takes the full
      // driver-fallback path (a TLB-miss storm under chaos testing).
      tlb_.Invalidate(vaddr);
    }
    if (auto hit = tlb_.Lookup(vaddr)) {
      engine_->ScheduleAfter(kHitLatency, [cb = std::move(cb), page = *hit]() { cb(page); });
      return;
    }
    ++driver_fallbacks_;
    if (profiler_ != nullptr) {
      profiler_->OnTlbMiss(vaddr);
    }
    engine_->ScheduleAfter(kMissLatency, [this, vaddr, cb = std::move(cb)]() {
      auto entry = page_table_->Find(vaddr);
      if (entry) {
        tlb_.Insert(vaddr, *entry);
      } else {
        ++page_faults_;
      }
      cb(entry);
    });
  }

  // Synchronous variant for callers outside the timed data path (driver
  // bookkeeping, tests). Does not touch the TLB.
  std::optional<PhysPage> TranslateUntimed(uint64_t vaddr) const {
    return page_table_->Find(vaddr);
  }

  void InvalidateTlb(uint64_t vaddr) { tlb_.Invalidate(vaddr); }
  void InvalidateTlbAll() { tlb_.InvalidateAll(); }

  void SetFaultInjector(sim::FaultInjector* injector) { injector_ = injector; }

  // Attaches the tiering profiler; TLB misses are the hardware-side signal
  // of its heat model (faults are where placement is costing time).
  void set_profiler(TierProfileSink* profiler) { profiler_ = profiler; }

  Tlb& tlb() { return tlb_; }
  const Tlb& tlb() const { return tlb_; }
  PageTable* page_table() { return page_table_; }
  uint64_t driver_fallbacks() const { return driver_fallbacks_; }
  uint64_t page_faults() const { return page_faults_; }

 private:
  sim::Engine* engine_;
  PageTable* page_table_;
  Tlb tlb_;
  sim::FaultInjector* injector_ = nullptr;
  TierProfileSink* profiler_ = nullptr;
  uint64_t driver_fallbacks_ = 0;
  uint64_t page_faults_ = 0;
};

}  // namespace mmu
}  // namespace coyote

#endif  // SRC_MMU_MMU_H_

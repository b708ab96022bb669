// Profiling-driven memory tiering service (ROADMAP item 4, SICM-style).
//
// The unified virtual memory of paper §6.1 makes every byte reachable from
// any tier, but reachable is not fast: under HBM oversubscription the static
// first-EnsureResident-wins placement leaves hot pages on the far side of
// PCIe forever. This service closes the loop:
//
//   profile  — per-page heat from the two access streams the memory system
//              already produces (ReadVirtual/WriteVirtual via Svm and TLB
//              misses via Mmu), delivered through the TierProfileSink
//              interface. Heat is an exponentially decayed counter: every
//              epoch, heat >>= decay_shift, so a page's heat is a geometric
//              sum of its recent access counts with half-life
//              epoch_ps * 1/decay_shift (decay_shift=1 halves per epoch).
//   decide   — a policy runs at each epoch boundary (engine time, never wall
//              clock, so two same-seed runs plan identical migrations):
//                kStatic        observe only (the pre-tiering baseline)
//                kLruClock      demand promotion + second-chance eviction
//                kProfileGuided heat-ranked promotion/demotion w/ hysteresis
//   act      — planned moves execute as batched waves through
//              Svm::MigratePages, so a demotion wave is charged to the
//              MigrationHooks as ONE bandwidth-sized transfer per source
//              tier, not N per-page callbacks.
//
// Hysteresis (profile-guided): once the fast tier is full, a candidate only
// displaces the coldest resident victim when candidate.heat > victim.heat +
// hysteresis_margin AND the victim has been resident min_residency_epochs —
// both must hold, so two pages with oscillating heat cannot ping-pong.
// Cold demotion moves zero-heat pages that have not been touched for
// cold_after_epochs from the slow tier to NVMe, only under slow-tier
// capacity pressure.

#ifndef SRC_MMU_TIERING_H_
#define SRC_MMU_TIERING_H_

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "src/mmu/svm.h"
#include "src/mmu/types.h"
#include "src/sim/access_guard.h"
#include "src/sim/engine.h"
#include "src/sim/stats.h"
#include "src/sim/time.h"

namespace coyote {
namespace mmu {

class Tiering : public TierProfileSink {
 public:
  enum class Policy : uint8_t {
    kStatic,         // profile only; never migrates (baseline ablation arm)
    kLruClock,       // demand-driven promotion, clock second-chance eviction
    kProfileGuided,  // heat-ranked promotion/demotion with hysteresis
  };

  // The three tiers, fastest first.
  static constexpr MemKind kFastTier = MemKind::kCard;
  static constexpr MemKind kSlowTier = MemKind::kHost;
  static constexpr MemKind kColdTier = MemKind::kNvme;
  // Heat per touched page per access, and per TLB miss: misses are where
  // placement costs time.
  static constexpr uint64_t kAccessWeight = 1;
  static constexpr uint64_t kTlbMissWeight = 4;

  struct Config {
    Policy policy = Policy::kProfileGuided;
    // Page budgets per tier; 0 = unlimited. With slow_capacity_pages == 0
    // cold demotion to NVMe never triggers.
    uint64_t fast_capacity_pages = 0;
    uint64_t slow_capacity_pages = 0;
    sim::TimePs epoch_ps = sim::Milliseconds(1);
    uint32_t decay_shift = 1;           // heat >>= decay_shift per epoch
    uint64_t promote_threshold = 2;     // min decayed heat to consider a page
    uint64_t hysteresis_margin = 1;     // candidate must beat victim by > this
    uint64_t min_residency_epochs = 2;  // fast-tier tenure before eviction
    uint64_t cold_after_epochs = 4;     // untouched this long + heat 0 -> cold
    uint64_t max_moves_per_epoch = 64;  // per-wave migration budget
  };

  static const char* PolicyName(Policy p) {
    switch (p) {
      case Policy::kStatic:
        return "static";
      case Policy::kLruClock:
        return "lru-clock";
      case Policy::kProfileGuided:
        return "profile-guided";
    }
    return "unknown";
  }

  Tiering(sim::Engine* engine, Svm* svm, const Config& config)
      : engine_(engine), svm_(svm), config_(config) {}

  // Begins epoch sampling (idempotent). Each epoch tick re-arms the next one
  // at its end, so a caller that drains the engine with RunUntilIdle must
  // Stop() first; Stop() cancels the pending tick.
  void Start();
  void Stop() {
    engine_->Cancel(next_tick_);
    next_tick_ = sim::Engine::kNoEvent;
  }
  bool started() const { return next_tick_ != sim::Engine::kNoEvent; }

  const Config& config() const { return config_; }

  // Pre-seeds tracking for [vaddr, vaddr+bytes) at current residency (pages
  // are otherwise tracked lazily on first profiled access).
  void Manage(uint64_t vaddr, uint64_t bytes);

  // TierProfileSink — fed by Svm (accesses, migrations) and Mmu (TLB misses).
  void OnAccess(uint64_t vaddr, uint64_t len, bool write) override;
  void OnTlbMiss(uint64_t vaddr) override;
  void OnMigrate(uint64_t vpage, MemKind from, MemKind to) override;

  // --- Observability --------------------------------------------------------
  uint64_t epoch() const { return epoch_; }
  uint64_t tracked_pages() const {
    guard_.Read();
    return pages_.size();
  }
  // Managed pages currently resident in `kind`.
  uint64_t occupancy(MemKind kind) const {
    guard_.Read();
    return occupancy_[static_cast<size_t>(kind)];
  }
  // Decayed per-page heat distribution at call time (log2 buckets).
  sim::Histogram HeatHistogram() const;
  // Monotonic tiering.* counters (promotions, demotions, cold_demotions,
  // migrated_bytes, waves, epochs, accesses, tlb_misses).
  const sim::CounterSet& stats() const { return stats_; }

 private:
  struct PageState {
    uint64_t heat = 0;
    MemKind tier = MemKind::kHost;
    uint64_t resident_since = 0;  // epoch of last tier change
    uint64_t last_touch = 0;      // epoch of last profiled access/miss
    bool referenced = false;      // clock second-chance bit
    bool queued = false;          // sitting in the lru-clock demand FIFO
    uint64_t victim_epoch = 0;    // epoch this page was last planned as victim
  };

  // Finds or lazily creates tracking state; nullptr for unmapped addresses.
  PageState* Track(uint64_t vpage);
  void Touch(uint64_t vpage, uint64_t weight);
  void EpochTick();
  void RunPolicy();
  // Free fast-tier slots under the configured capacity (huge when unlimited).
  uint64_t FreeFastSlots() const;
  void PlanProfileGuided(std::vector<uint64_t>* promote, std::vector<uint64_t>* demote);
  void PlanLruClock(std::vector<uint64_t>* promote, std::vector<uint64_t>* demote);
  void PlanColdDemotion(std::vector<uint64_t>* cold);
  // Second-chance scan over fast-resident pages; returns the chosen victim's
  // vpage or UINT64_MAX when every resident page got its second chance.
  uint64_t ClockVictim();
  void ExecuteWaves(std::vector<uint64_t> cold, std::vector<uint64_t> demote,
                    std::vector<uint64_t> promote);

  sim::Engine* engine_;
  Svm* svm_;
  Config config_;
  sim::Engine::EventId next_tick_ = sim::Engine::kNoEvent;  // while started
  // One wave pipeline at a time: while a wave's transfers are still being
  // charged, epoch ticks keep decaying heat but plan no new moves.
  bool wave_in_flight_ = false;
  uint64_t epoch_ = 0;

  // Heat table + demand FIFO are mutated from host-driver calls (OnAccess),
  // DMA-side translation faults (OnTlbMiss) and the epoch tick; the guard
  // proves those touches never collide within one event epoch.
  sim::AccessGuard guard_{"mmu.tiering"};
  std::map<uint64_t, PageState> pages_;  // vpage -> state, ordered for determinism
  std::vector<uint64_t> demand_fifo_;    // lru-clock promotion requests (FIFO)
  uint64_t clock_hand_ = 0;              // vpage the eviction scan resumes after
  std::array<uint64_t, kNumMemKinds> occupancy_{};
  sim::CounterSet stats_;
};

}  // namespace mmu
}  // namespace coyote

#endif  // SRC_MMU_TIERING_H_

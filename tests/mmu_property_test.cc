// Property/fuzz tests for the MMU stack: a randomized alloc–access–migrate–
// free workload over mixed 4 KB / 2 MB / 1 GB page universes, checked
// operation-by-operation against a std::map reference model of the
// translation state. The driver discipline under test is the paper's §6.1
// invalidate-on-update rule: as long as every page-table change is paired
// with a TLB shootdown, the hardware TLB can never serve a stale
// translation.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "src/memsys/card_memory.h"
#include "src/memsys/gpu_memory.h"
#include "src/memsys/host_memory.h"
#include "src/memsys/nvme.h"
#include "src/mmu/mmu.h"
#include "src/mmu/page_table.h"
#include "src/mmu/svm.h"
#include "src/mmu/tiering.h"
#include "src/mmu/tlb.h"
#include "src/mmu/types.h"
#include "src/sim/engine.h"
#include "src/sim/rng.h"

namespace coyote {
namespace mmu {
namespace {

// One address-space universe for a fixed page size. Drives the real
// PageTable + Mmu (timed TLB path) and mirrors every mutation into a
// std::map reference.
class Universe {
 public:
  Universe(sim::Engine* engine, uint64_t page_bytes)
      : engine_(engine),
        page_bytes_(page_bytes),
        page_table_(page_bytes),
        mmu_(engine, &page_table_, {.entries = 64, .associativity = 4, .page_bytes = page_bytes}) {}

  struct Alloc {
    uint64_t vaddr = 0;
    uint64_t pages = 0;
  };

  uint64_t page_bytes() const { return page_bytes_; }
  Mmu& mmu() { return mmu_; }
  PageTable& page_table() { return page_table_; }
  const std::map<uint64_t, PhysPage>& reference() const { return reference_; }
  std::vector<Alloc>& allocs() { return allocs_; }
  uint64_t timed_accesses() const { return timed_accesses_; }

  void DoAlloc(sim::Rng& rng) {
    const uint64_t pages = 1 + rng.NextBounded(4);
    const uint64_t vaddr = next_vaddr_;
    next_vaddr_ += pages * page_bytes_;
    const MemKind kind = RandomKind(rng);
    const uint64_t phys_base = (1 + rng.NextBounded(1 << 20)) * page_bytes_;
    page_table_.MapRange(vaddr, pages * page_bytes_, kind, phys_base);
    for (uint64_t p = 0; p < pages; ++p) {
      reference_[vaddr / page_bytes_ + p] = PhysPage{kind, phys_base + p * page_bytes_};
    }
    allocs_.push_back({vaddr, pages});
  }

  // Timed translation of a random offset in a random live allocation, checked
  // against the reference at callback time.
  void DoAccess(sim::Rng& rng) {
    if (allocs_.empty()) {
      return;
    }
    const Alloc& a = allocs_[rng.NextBounded(allocs_.size())];
    const uint64_t vaddr =
        a.vaddr + rng.NextBounded(a.pages) * page_bytes_ + rng.NextBounded(page_bytes_);
    CheckTranslate(vaddr);
  }

  // Remap one page of a live allocation to a new physical home (the tail end
  // of a migration) and shoot down the TLB entry, mirroring the driver.
  void DoMigrate(sim::Rng& rng) {
    if (allocs_.empty()) {
      return;
    }
    const Alloc& a = allocs_[rng.NextBounded(allocs_.size())];
    const uint64_t vaddr = a.vaddr + rng.NextBounded(a.pages) * page_bytes_;
    const MemKind kind = RandomKind(rng);
    const uint64_t phys = (1 + rng.NextBounded(1 << 20)) * page_bytes_;
    page_table_.Map(vaddr, PhysPage{kind, phys});
    mmu_.InvalidateTlb(vaddr);
    reference_[vaddr / page_bytes_] = PhysPage{kind, phys};
  }

  // Unmap a whole allocation with per-page shootdowns, then prove the freed
  // range faults (no stale translations from either the table or the TLB).
  void DoFree(sim::Rng& rng) {
    if (allocs_.empty()) {
      return;
    }
    const size_t idx = rng.NextBounded(allocs_.size());
    const Alloc a = allocs_[idx];
    allocs_.erase(allocs_.begin() + idx);
    for (uint64_t p = 0; p < a.pages; ++p) {
      const uint64_t vaddr = a.vaddr + p * page_bytes_;
      EXPECT_TRUE(page_table_.Unmap(vaddr));
      mmu_.InvalidateTlb(vaddr);
      reference_.erase(vaddr / page_bytes_);
    }
    CheckTranslate(a.vaddr + rng.NextBounded(a.pages * page_bytes_));
  }

  void CheckTranslate(uint64_t vaddr) {
    ++timed_accesses_;
    const std::optional<PhysPage> expect = Lookup(vaddr);
    bool fired = false;
    mmu_.Translate(vaddr, [this, vaddr, expect, &fired](std::optional<PhysPage> got) {
      fired = true;
      ASSERT_EQ(got.has_value(), expect.has_value())
          << "page " << page_bytes_ << " vaddr " << vaddr;
      if (got.has_value()) {
        EXPECT_EQ(got->kind, expect->kind);
        EXPECT_EQ(got->addr, expect->addr);
      }
    });
    // Single-threaded engine: drain so the reference snapshot stays valid.
    engine_->RunUntilIdle();
    ASSERT_TRUE(fired);
    // The untimed driver path must agree with the timed one.
    const auto untimed = mmu_.TranslateUntimed(vaddr);
    EXPECT_EQ(untimed.has_value(), expect.has_value());
  }

  std::optional<PhysPage> Lookup(uint64_t vaddr) const {
    auto it = reference_.find(vaddr / page_bytes_);
    if (it == reference_.end()) {
      return std::nullopt;
    }
    return it->second;
  }

 private:
  static MemKind RandomKind(sim::Rng& rng) {
    switch (rng.NextBounded(3)) {
      case 0:
        return MemKind::kHost;
      case 1:
        return MemKind::kCard;
      default:
        return MemKind::kGpu;
    }
  }

  sim::Engine* engine_;
  uint64_t page_bytes_;
  PageTable page_table_;
  Mmu mmu_;
  std::map<uint64_t, PhysPage> reference_;
  std::vector<Alloc> allocs_;
  uint64_t next_vaddr_ = 1ull << 40;
  uint64_t timed_accesses_ = 0;
};

void RunFuzz(uint64_t seed, int iterations) {
  sim::Engine engine;
  // Three page-size universes, matching the shell TLB geometries the paper
  // supports (regular pages up to 1 GB hugepages).
  std::vector<std::unique_ptr<Universe>> universes;
  universes.push_back(std::make_unique<Universe>(&engine, memsys::PageBytes(memsys::AllocKind::kRegular)));
  universes.push_back(std::make_unique<Universe>(&engine, memsys::PageBytes(memsys::AllocKind::kHuge2M)));
  universes.push_back(std::make_unique<Universe>(&engine, memsys::PageBytes(memsys::AllocKind::kHuge1G)));

  sim::Rng rng(seed);
  for (int i = 0; i < iterations; ++i) {
    Universe& u = *universes[rng.NextBounded(universes.size())];
    const uint64_t op = rng.NextBounded(10);
    if (op < 3) {
      u.DoAlloc(rng);
    } else if (op < 8) {
      u.DoAccess(rng);  // accesses dominate, as in a real workload
    } else if (op < 9) {
      u.DoMigrate(rng);
    } else {
      u.DoFree(rng);
    }
    if (::testing::Test::HasFatalFailure()) {
      FAIL() << "seed " << seed << " iteration " << i;
    }
  }

  for (auto& u : universes) {
    // The model and the real page table must agree exactly at the end.
    EXPECT_EQ(u->page_table().size(), u->reference().size());
    for (const auto& [vpage, phys] : u->reference()) {
      const auto got = u->page_table().Find(vpage * u->page_bytes());
      ASSERT_TRUE(got.has_value()) << "page size " << u->page_bytes();
      EXPECT_EQ(got->kind, phys.kind);
      EXPECT_EQ(got->addr, phys.addr);
    }
    // TLB hit accounting: Translate does exactly one TLB probe per access, so
    // the hit/miss counters partition the timed accesses.
    const Tlb& tlb = u->mmu().tlb();
    EXPECT_EQ(tlb.hits() + tlb.misses(), u->timed_accesses());
    // Every miss on a mapped page took the driver path.
    EXPECT_EQ(u->mmu().driver_fallbacks(), tlb.misses());
  }
}

TEST(MmuPropertyTest, MixedPageSizeFuzzSeed1) { RunFuzz(1, 2000); }
TEST(MmuPropertyTest, MixedPageSizeFuzzSeed42) { RunFuzz(42, 2000); }
TEST(MmuPropertyTest, MixedPageSizeFuzzSeed2026) { RunFuzz(2026, 2000); }

TEST(MmuPropertyTest, FreedPagesNeverServeStaleTranslations) {
  // Adversarial pattern for TLB staleness: touch a page (caching it hot in
  // the TLB), free it, then immediately re-access. Without the shootdown the
  // TLB would still answer; with it the access must fault.
  sim::Engine engine;
  Universe u(&engine, 4096);
  sim::Rng rng(7);
  for (int round = 0; round < 200; ++round) {
    u.DoAlloc(rng);
    const Universe::Alloc a = u.allocs().back();
    for (uint64_t p = 0; p < a.pages; ++p) {
      u.CheckTranslate(a.vaddr + p * 4096);  // warm the TLB
    }
    u.DoFree(rng);  // DoFree re-checks a translation inside the freed range
  }
  EXPECT_GT(u.mmu().page_faults(), 0u);
}

TEST(MmuPropertyTest, MigrationIsVisibleImmediatelyAfterShootdown) {
  sim::Engine engine;
  Universe u(&engine, 2ull << 20);
  sim::Rng rng(9);
  u.DoAlloc(rng);
  const Universe::Alloc a = u.allocs().back();
  u.CheckTranslate(a.vaddr);  // warm
  for (int i = 0; i < 50; ++i) {
    u.DoMigrate(rng);
    for (uint64_t p = 0; p < a.pages; ++p) {
      u.CheckTranslate(a.vaddr + p * (2ull << 20));
    }
  }
}

// --- Tiering functional equivalence ----------------------------------------
// A full SVM stack (host/card/GPU/NVMe) driven by a random access trace. One
// stack runs with the tiering service migrating pages under capacity
// pressure; its twin runs placement-free. The tiering property: migrations
// move bytes, never change them — every ReadVirtual must return identical
// bytes on both stacks, and the dirty-page manifests (PR 7's checkpoint
// contract) must be identical too, because tier moves bypass the dirty clock.
class SvmStack {
 public:
  static constexpr uint64_t kPage = 4096;

  explicit SvmStack(bool tiered)
      : card_(&engine_, {}),
        nvme_(&engine_),
        svm_(&engine_, &host_, &card_, &gpu_, kPage, &nvme_) {
    if (tiered) {
      Tiering::Config cfg;
      cfg.policy = Tiering::Policy::kProfileGuided;
      cfg.fast_capacity_pages = 8;    // heavy oversubscription vs 64 pages
      cfg.slow_capacity_pages = 32;   // forces cold demotion to NVMe too
      cfg.min_residency_epochs = 1;
      cfg.promote_threshold = 2;
      tiering_ = std::make_unique<Tiering>(&engine_, &svm_, cfg);
      svm_.set_profiler(tiering_.get());
      tiering_->Start();
    }
    base_ = host_.Allocate(kPages * kPage, memsys::AllocKind::kRegular);
    svm_.RegisterHostBuffer(base_, kPages * kPage);
  }

  ~SvmStack() {
    if (tiering_) {
      tiering_->Stop();
      engine_.RunUntilIdle();
    }
  }

  static constexpr uint64_t kPages = 64;

  uint64_t base() const { return base_; }
  Svm& svm() { return svm_; }
  Tiering* tiering() { return tiering_.get(); }
  void AdvanceEpoch() { engine_.RunUntil(engine_.Now() + sim::Milliseconds(1) + 1); }

 private:
  sim::Engine engine_;
  memsys::HostMemory host_;
  memsys::CardMemory card_;
  memsys::GpuMemory gpu_;
  memsys::NvmeDrive nvme_;
  Svm svm_;
  std::unique_ptr<Tiering> tiering_;
  uint64_t base_ = 0;
};

void RunEquivalenceFuzz(uint64_t seed, int iterations) {
  SvmStack tiered(/*tiered=*/true);
  SvmStack flat(/*tiered=*/false);
  sim::Rng rng(seed);

  const uint64_t span = SvmStack::kPages * SvmStack::kPage;
  std::vector<uint8_t> buf;
  std::vector<uint8_t> got_tiered;
  std::vector<uint8_t> got_flat;
  for (int i = 0; i < iterations; ++i) {
    // Skewed offsets: low pages run hot so the tiering stack actually
    // promotes, demotes and cold-demotes during the trace.
    const uint64_t page = rng.NextBounded(4) == 0 ? rng.NextBounded(SvmStack::kPages)
                                                  : rng.NextBounded(SvmStack::kPages / 8);
    const uint64_t off = page * SvmStack::kPage + rng.NextBounded(SvmStack::kPage);
    const uint64_t len = 1 + rng.NextBounded(std::min<uint64_t>(16384, span - off));
    const uint64_t op = rng.NextBounded(10);
    if (op < 4) {
      buf.resize(len);
      rng.FillBytes(buf.data(), len);
      tiered.svm().WriteVirtual(tiered.base() + off, buf.data(), len);
      flat.svm().WriteVirtual(flat.base() + off, buf.data(), len);
    } else if (op < 9) {
      got_tiered.resize(len);
      got_flat.resize(len);
      tiered.svm().ReadVirtual(tiered.base() + off, got_tiered.data(), len);
      flat.svm().ReadVirtual(flat.base() + off, got_flat.data(), len);
      ASSERT_EQ(got_tiered, got_flat) << "seed " << seed << " iter " << i;
    } else {
      tiered.AdvanceEpoch();
      flat.AdvanceEpoch();
    }
    // Dirty manifests must never see tier migrations: only WriteVirtual
    // stamps the clock, identically on both stacks.
    ASSERT_EQ(tiered.svm().dirty_clock(), flat.svm().dirty_clock());
  }
  // Let several more epochs of migration churn land, then do a full sweep.
  for (int e = 0; e < 8; ++e) {
    tiered.AdvanceEpoch();
    flat.AdvanceEpoch();
  }
  got_tiered.resize(span);
  got_flat.resize(span);
  tiered.svm().ReadVirtual(tiered.base(), got_tiered.data(), span);
  flat.svm().ReadVirtual(flat.base(), got_flat.data(), span);
  EXPECT_EQ(got_tiered, got_flat);
  EXPECT_EQ(tiered.svm().DirtyPagesIn(tiered.base(), span, 0),
            flat.svm().DirtyPagesIn(flat.base(), span, 0));
  const uint64_t mid = tiered.svm().dirty_clock() / 2;
  EXPECT_EQ(tiered.svm().DirtyPagesIn(tiered.base(), span, mid),
            flat.svm().DirtyPagesIn(flat.base(), span, mid));
  // The property is vacuous unless the tiered stack actually migrated.
  ASSERT_NE(tiered.tiering(), nullptr);
  EXPECT_GT(tiered.tiering()->stats().value("tiering.promotions"), 0u);
  EXPECT_EQ(flat.svm().migrations(), 0u);
}

TEST(TieringEquivalenceTest, ReadsAndManifestsMatchUntieredSeed11) {
  RunEquivalenceFuzz(11, 600);
}
TEST(TieringEquivalenceTest, ReadsAndManifestsMatchUntieredSeed77) {
  RunEquivalenceFuzz(77, 600);
}
TEST(TieringEquivalenceTest, ReadsAndManifestsMatchUntieredSeed1234) {
  RunEquivalenceFuzz(1234, 600);
}

}  // namespace
}  // namespace mmu
}  // namespace coyote

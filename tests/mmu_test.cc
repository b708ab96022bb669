// Unit tests for the MMU stack: TLB, page table, timed translation, shared
// virtual memory with migration.

#include <gtest/gtest.h>

#include <vector>

#include "src/memsys/card_memory.h"
#include "src/memsys/gpu_memory.h"
#include "src/memsys/host_memory.h"
#include "src/memsys/nvme.h"
#include "src/mmu/mmu.h"
#include "src/mmu/page_table.h"
#include "src/mmu/svm.h"
#include "src/mmu/tlb.h"
#include "src/sim/engine.h"
#include "src/sim/rng.h"

namespace coyote {
namespace mmu {
namespace {

constexpr uint64_t kPage2M = 2ull << 20;

TEST(TlbTest, HitAfterInsert) {
  Tlb tlb({.entries = 64, .associativity = 4, .page_bytes = kPage2M});
  EXPECT_FALSE(tlb.Lookup(0).has_value());
  tlb.Insert(0, {MemKind::kHost, 0x1000});
  auto hit = tlb.Lookup(kPage2M - 1);  // same page
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->addr, 0x1000u);
  EXPECT_FALSE(tlb.Lookup(kPage2M).has_value());  // next page
  EXPECT_EQ(tlb.hits(), 1u);
  EXPECT_EQ(tlb.misses(), 2u);
}

TEST(TlbTest, UpdateInPlaceForSamePage) {
  Tlb tlb({.entries = 16, .associativity = 4, .page_bytes = kPage2M});
  tlb.Insert(0, {MemKind::kHost, 1});
  tlb.Insert(0, {MemKind::kCard, 2});
  auto hit = tlb.Lookup(0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->kind, MemKind::kCard);
  EXPECT_EQ(hit->addr, 2u);
  EXPECT_EQ(tlb.evictions(), 0u);
}

TEST(TlbTest, LruEvictionWithinSet) {
  // 4 entries, 4-way => one set: the 5th distinct page evicts the LRU.
  Tlb tlb({.entries = 4, .associativity = 4, .page_bytes = kPage2M});
  for (uint64_t p = 0; p < 4; ++p) {
    tlb.Insert(p * kPage2M, {MemKind::kHost, p});
  }
  // Touch pages 1..3 so page 0 becomes LRU.
  for (uint64_t p = 1; p < 4; ++p) {
    EXPECT_TRUE(tlb.Lookup(p * kPage2M).has_value());
  }
  tlb.Insert(4 * kPage2M, {MemKind::kHost, 4});
  EXPECT_EQ(tlb.evictions(), 1u);
  EXPECT_FALSE(tlb.Lookup(0).has_value());            // evicted
  EXPECT_TRUE(tlb.Lookup(4 * kPage2M).has_value());   // resident
}

TEST(TlbTest, DirectMappedConflicts) {
  // Associativity 1: pages mapping to the same set conflict.
  Tlb tlb({.entries = 4, .associativity = 1, .page_bytes = kPage2M});
  EXPECT_EQ(tlb.num_sets(), 4u);
  tlb.Insert(0, {MemKind::kHost, 0});
  tlb.Insert(4 * kPage2M, {MemKind::kHost, 4});  // same set as page 0
  EXPECT_FALSE(tlb.Lookup(0).has_value());
  EXPECT_TRUE(tlb.Lookup(4 * kPage2M).has_value());
}

TEST(TlbTest, InvalidateSingleAndAll) {
  Tlb tlb({.entries = 64, .associativity = 4, .page_bytes = kPage2M});
  tlb.Insert(0, {MemKind::kHost, 0});
  tlb.Insert(kPage2M, {MemKind::kHost, 1});
  tlb.Invalidate(0);
  EXPECT_FALSE(tlb.Lookup(0).has_value());
  EXPECT_TRUE(tlb.Lookup(kPage2M).has_value());
  tlb.InvalidateAll();
  EXPECT_FALSE(tlb.Lookup(kPage2M).has_value());
}

TEST(TlbTest, HitRateTracksWorkload) {
  Tlb tlb({.entries = 1024, .associativity = 4, .page_bytes = kPage2M});
  for (uint64_t p = 0; p < 100; ++p) {
    tlb.Insert(p * kPage2M, {MemKind::kHost, p});
  }
  for (int round = 0; round < 9; ++round) {
    for (uint64_t p = 0; p < 100; ++p) {
      tlb.Lookup(p * kPage2M);
    }
  }
  EXPECT_GT(tlb.HitRate(), 0.99);
}

TEST(PageTableTest, MapRangeContiguous) {
  PageTable pt(kPage2M);
  pt.MapRange(0, 10 * kPage2M, MemKind::kCard, 0x10000000);
  for (uint64_t p = 0; p < 10; ++p) {
    auto e = pt.Find(p * kPage2M + 17);
    ASSERT_TRUE(e.has_value());
    EXPECT_EQ(e->kind, MemKind::kCard);
    EXPECT_EQ(e->addr, 0x10000000 + p * kPage2M);
  }
  EXPECT_FALSE(pt.Find(10 * kPage2M).has_value());
  EXPECT_EQ(pt.size(), 10u);
}

TEST(PageTableTest, UnmapAndRemap) {
  PageTable pt(kPage2M);
  pt.Map(0, {MemKind::kHost, 0});
  EXPECT_TRUE(pt.Unmap(100));  // same page
  EXPECT_FALSE(pt.Find(0).has_value());
  EXPECT_FALSE(pt.Unmap(0));
}

TEST(MmuTest, HitIsOneCycleMissPaysDriverLatency) {
  sim::Engine engine;
  PageTable pt(kPage2M);
  pt.Map(0, {MemKind::kHost, 0x1234});
  Mmu mmu(&engine, &pt, {});

  // Miss path: driver fallback latency.
  std::optional<PhysPage> result;
  mmu.Translate(0, [&](std::optional<PhysPage> e) { result = e; });
  engine.RunUntilIdle();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(engine.Now(), Mmu::kMissLatency);
  EXPECT_EQ(mmu.driver_fallbacks(), 1u);

  // Now cached: hit latency only.
  const sim::TimePs before = engine.Now();
  result.reset();
  mmu.Translate(100, [&](std::optional<PhysPage> e) { result = e; });
  engine.RunUntilIdle();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(engine.Now() - before, Mmu::kHitLatency);
}

TEST(MmuTest, UnmappedAddressIsPageFault) {
  sim::Engine engine;
  PageTable pt(kPage2M);
  Mmu mmu(&engine, &pt, {});
  bool called = false;
  mmu.Translate(0xDEAD0000, [&](std::optional<PhysPage> e) {
    called = true;
    EXPECT_FALSE(e.has_value());
  });
  engine.RunUntilIdle();
  EXPECT_TRUE(called);
  EXPECT_EQ(mmu.page_faults(), 1u);
}

class SvmTest : public ::testing::Test {
 protected:
  SvmTest()
      : card_(&engine_, {}),
        svm_(&engine_, &host_, &card_, &gpu_, kPage2M) {}

  sim::Engine engine_;
  memsys::HostMemory host_;
  memsys::CardMemory card_;
  memsys::GpuMemory gpu_;
  Svm svm_;
};

TEST_F(SvmTest, RegisterHostBufferIdentityMaps) {
  const uint64_t addr = host_.Allocate(kPage2M, memsys::AllocKind::kHuge2M);
  svm_.RegisterHostBuffer(addr, kPage2M);
  auto e = svm_.page_table().Find(addr);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->kind, MemKind::kHost);
  EXPECT_EQ(e->addr, addr);
}

TEST_F(SvmTest, MigrationPreservesDataAndUpdatesMapping) {
  const uint64_t addr = host_.Allocate(4 * kPage2M, memsys::AllocKind::kHuge2M);
  svm_.RegisterHostBuffer(addr, 4 * kPage2M);
  std::vector<uint8_t> data(4 * kPage2M);
  sim::Rng rng(3);
  rng.FillBytes(data.data(), data.size());
  svm_.WriteVirtual(addr, data.data(), data.size());

  bool done = false;
  svm_.EnsureResident(addr, 4 * kPage2M, MemKind::kCard, [&] { done = true; });
  engine_.RunUntilIdle();
  ASSERT_TRUE(done);
  EXPECT_EQ(svm_.migrations(), 4u);
  EXPECT_EQ(svm_.migrated_bytes(), 4 * kPage2M);
  EXPECT_EQ(svm_.page_table().Find(addr)->kind, MemKind::kCard);

  std::vector<uint8_t> back(data.size());
  svm_.ReadVirtual(addr, back.data(), back.size());
  EXPECT_EQ(back, data);
}

TEST_F(SvmTest, EnsureResidentIsIdempotent) {
  const uint64_t addr = host_.Allocate(kPage2M, memsys::AllocKind::kHuge2M);
  svm_.RegisterHostBuffer(addr, kPage2M);
  bool done = false;
  svm_.EnsureResident(addr, kPage2M, MemKind::kHost, [&] { done = true; });
  engine_.RunUntilIdle();
  EXPECT_TRUE(done);
  EXPECT_EQ(svm_.migrations(), 0u);
}

TEST_F(SvmTest, PartialRangeMigratesOnlyAffectedPages) {
  const uint64_t addr = host_.Allocate(4 * kPage2M, memsys::AllocKind::kHuge2M);
  svm_.RegisterHostBuffer(addr, 4 * kPage2M);
  bool done = false;
  // Touch bytes spanning pages 1 and 2 only.
  svm_.EnsureResident(addr + kPage2M + 100, kPage2M, MemKind::kCard, [&] { done = true; });
  engine_.RunUntilIdle();
  ASSERT_TRUE(done);
  EXPECT_EQ(svm_.migrations(), 2u);
  EXPECT_EQ(svm_.page_table().Find(addr)->kind, MemKind::kHost);
  EXPECT_EQ(svm_.page_table().Find(addr + kPage2M)->kind, MemKind::kCard);
  EXPECT_EQ(svm_.page_table().Find(addr + 3 * kPage2M)->kind, MemKind::kHost);
}

TEST_F(SvmTest, MigrationHooksChargeTimingAndInvalidate) {
  uint64_t transfer_calls = 0;
  std::vector<uint64_t> invalidated;
  Svm::MigrationHooks hooks;
  hooks.transfer = [&](MemKind, MemKind, uint64_t, std::function<void()> done) {
    ++transfer_calls;
    engine_.ScheduleAfter(sim::Microseconds(10), std::move(done));
  };
  hooks.invalidate = [&](uint64_t vaddr) { invalidated.push_back(vaddr); };
  svm_.set_hooks(std::move(hooks));

  const uint64_t addr = host_.Allocate(kPage2M, memsys::AllocKind::kHuge2M);
  svm_.RegisterHostBuffer(addr, kPage2M);
  bool done = false;
  svm_.EnsureResident(addr, kPage2M, MemKind::kCard, [&] { done = true; });
  engine_.RunUntilIdle();
  ASSERT_TRUE(done);
  EXPECT_EQ(transfer_calls, 1u);
  EXPECT_EQ(invalidated.size(), 1u);
  EXPECT_EQ(engine_.Now(), sim::Microseconds(10));
}

TEST_F(SvmTest, GpuBufferJoinsTheAddressSpace) {
  const uint64_t vaddr = svm_.RegisterGpuBuffer(kPage2M);
  auto e = svm_.page_table().Find(vaddr);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->kind, MemKind::kGpu);

  std::vector<uint8_t> data(1024, 0x5C);
  svm_.WriteVirtual(vaddr, data.data(), data.size());
  std::vector<uint8_t> back(1024);
  svm_.ReadVirtual(vaddr, back.data(), back.size());
  EXPECT_EQ(back, data);

  // Migrate GPU -> card and verify data follows (the peer-DMA extension).
  bool done = false;
  svm_.EnsureResident(vaddr, kPage2M, MemKind::kCard, [&] { done = true; });
  engine_.RunUntilIdle();
  ASSERT_TRUE(done);
  svm_.ReadVirtual(vaddr, back.data(), back.size());
  EXPECT_EQ(back, data);
}

TEST_F(SvmTest, VirtualAccessSpansPagesAcrossKinds) {
  const uint64_t addr = host_.Allocate(2 * kPage2M, memsys::AllocKind::kHuge2M);
  svm_.RegisterHostBuffer(addr, 2 * kPage2M);
  // Move only page 1 to the card, then write across the boundary.
  bool done = false;
  svm_.EnsureResident(addr + kPage2M, kPage2M, MemKind::kCard, [&] { done = true; });
  engine_.RunUntilIdle();
  ASSERT_TRUE(done);

  std::vector<uint8_t> data(4096);
  sim::Rng rng(4);
  rng.FillBytes(data.data(), data.size());
  const uint64_t span_addr = addr + kPage2M - 2048;
  svm_.WriteVirtual(span_addr, data.data(), data.size());
  std::vector<uint8_t> back(4096);
  svm_.ReadVirtual(span_addr, back.data(), back.size());
  EXPECT_EQ(back, data);
}

TEST_F(SvmTest, NvmeTierRoundTripsDataAndRecyclesFrames) {
  memsys::NvmeDrive nvme(&engine_);
  EXPECT_FALSE(svm_.has_nvme());
  svm_.set_nvme(&nvme);
  ASSERT_TRUE(svm_.has_nvme());

  const uint64_t addr = host_.Allocate(2 * kPage2M, memsys::AllocKind::kHuge2M);
  svm_.RegisterHostBuffer(addr, 2 * kPage2M);
  std::vector<uint8_t> data(2 * kPage2M);
  sim::Rng rng(7);
  rng.FillBytes(data.data(), data.size());
  svm_.WriteVirtual(addr, data.data(), data.size());

  bool done = false;
  svm_.EnsureResident(addr, 2 * kPage2M, MemKind::kNvme, [&] { done = true; });
  engine_.RunUntilIdle();
  ASSERT_TRUE(done);
  EXPECT_EQ(svm_.page_table().Find(addr)->kind, MemKind::kNvme);
  EXPECT_EQ(nvme.allocated_bytes(), 2 * kPage2M);

  std::vector<uint8_t> back(data.size());
  svm_.ReadVirtual(addr, back.data(), back.size());
  EXPECT_EQ(back, data);

  // Promote back out, then demote again: the vacated drive slots are
  // recycled, so churn does not grow the swap partition.
  done = false;
  svm_.EnsureResident(addr, 2 * kPage2M, MemKind::kHost, [&] { done = true; });
  engine_.RunUntilIdle();
  ASSERT_TRUE(done);
  done = false;
  svm_.EnsureResident(addr, 2 * kPage2M, MemKind::kNvme, [&] { done = true; });
  engine_.RunUntilIdle();
  ASSERT_TRUE(done);
  EXPECT_EQ(nvme.allocated_bytes(), 2 * kPage2M);
  svm_.ReadVirtual(addr, back.data(), back.size());
  EXPECT_EQ(back, data);
}

TEST_F(SvmTest, MigratePagesChargesOneTransferPerSourceTier) {
  const uint64_t addr = host_.Allocate(4 * kPage2M, memsys::AllocKind::kHuge2M);
  svm_.RegisterHostBuffer(addr, 4 * kPage2M);
  std::vector<uint8_t> data(4 * kPage2M);
  sim::Rng rng(9);
  rng.FillBytes(data.data(), data.size());
  svm_.WriteVirtual(addr, data.data(), data.size());

  // Pre-place pages 0-1 on the card (hooks not yet armed: placement is free).
  bool placed = false;
  svm_.EnsureResident(addr, 2 * kPage2M, MemKind::kCard, [&] { placed = true; });
  engine_.RunUntilIdle();
  ASSERT_TRUE(placed);

  struct Transfer {
    MemKind from;
    MemKind to;
    uint64_t bytes;
  };
  std::vector<Transfer> transfers;
  Svm::MigrationHooks hooks;
  hooks.transfer = [&](MemKind from, MemKind to, uint64_t bytes, std::function<void()> cb) {
    transfers.push_back({from, to, bytes});
    engine_.ScheduleAfter(sim::Microseconds(1), std::move(cb));
  };
  svm_.set_hooks(std::move(hooks));

  // A wave spanning two source tiers (card pages 0-1, host pages 2-3) is
  // charged as exactly two bulk transfers, not four per-page callbacks.
  const uint64_t vp0 = addr / kPage2M;
  bool done = false;
  svm_.MigratePages({vp0, vp0 + 1, vp0 + 2, vp0 + 3}, MemKind::kGpu, [&] { done = true; });
  engine_.RunUntilIdle();
  ASSERT_TRUE(done);
  ASSERT_EQ(transfers.size(), 2u);
  EXPECT_EQ(transfers[0].from, MemKind::kHost);  // charged in MemKind order
  EXPECT_EQ(transfers[0].bytes, 2 * kPage2M);
  EXPECT_EQ(transfers[1].from, MemKind::kCard);
  EXPECT_EQ(transfers[1].bytes, 2 * kPage2M);
  EXPECT_EQ(svm_.migrations(), 6u);  // 2 placement + 4 wave

  // Pages already in the target are skipped: an all-resident wave charges
  // nothing and completes through the engine.
  transfers.clear();
  done = false;
  svm_.MigratePages({vp0, vp0 + 1}, MemKind::kGpu, [&] { done = true; });
  engine_.RunUntilIdle();
  ASSERT_TRUE(done);
  EXPECT_TRUE(transfers.empty());

  std::vector<uint8_t> back(data.size());
  svm_.ReadVirtual(addr, back.data(), back.size());
  EXPECT_EQ(back, data);
}

// Property: TLB geometry sweep — for any (entries, assoc, page), inserting N
// <= capacity distinct pages with unique set spread keeps them resident.
struct TlbGeometry {
  uint32_t entries;
  uint32_t assoc;
  uint64_t page;
};

class TlbGeometrySweep : public ::testing::TestWithParam<TlbGeometry> {};

TEST_P(TlbGeometrySweep, SequentialPagesUpToCapacityAllHit) {
  const TlbGeometry g = GetParam();
  Tlb tlb({.entries = g.entries, .associativity = g.assoc, .page_bytes = g.page});
  // Sequential pages spread perfectly across sets, so capacity is exact.
  for (uint64_t p = 0; p < g.entries; ++p) {
    tlb.Insert(p * g.page, {MemKind::kHost, p});
  }
  for (uint64_t p = 0; p < g.entries; ++p) {
    auto hit = tlb.Lookup(p * g.page);
    ASSERT_TRUE(hit.has_value()) << "page " << p;
    EXPECT_EQ(hit->addr, p);
  }
  EXPECT_EQ(tlb.evictions(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, TlbGeometrySweep,
    ::testing::Values(TlbGeometry{16, 1, 4096}, TlbGeometry{64, 4, 4096},
                      TlbGeometry{1024, 4, 2ull << 20}, TlbGeometry{4096, 8, 2ull << 20},
                      TlbGeometry{32, 32, 1ull << 30},  // fully associative
                      TlbGeometry{128, 2, 1ull << 30}));

}  // namespace
}  // namespace mmu
}  // namespace coyote

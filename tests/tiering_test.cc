// Unit tests for the memory tiering service: heat profiling, epoch decay,
// the three placement policies, hysteresis/anti-ping-pong protection,
// batched migration waves, cold demotion to NVMe, and determinism.

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "src/memsys/card_memory.h"
#include "src/memsys/gpu_memory.h"
#include "src/memsys/host_memory.h"
#include "src/memsys/nvme.h"
#include "src/mmu/svm.h"
#include "src/mmu/tiering.h"
#include "src/sim/engine.h"

namespace coyote {
namespace mmu {
namespace {

constexpr uint64_t kPage = 4096;

class TieringTest : public ::testing::Test {
 protected:
  TieringTest()
      : card_(&engine_, {}),
        nvme_(&engine_),
        svm_(&engine_, &host_, &card_, &gpu_, kPage, &nvme_) {}

  // Allocates and registers `pages` 4K pages of host memory; returns the base.
  uint64_t MakeBuffer(uint64_t pages) {
    const uint64_t addr = host_.Allocate(pages * kPage, memsys::AllocKind::kRegular);
    svm_.RegisterHostBuffer(addr, pages * kPage);
    return addr;
  }

  // One profiled touch of the page holding `vaddr`.
  void TouchPage(uint64_t vaddr) {
    uint8_t byte = 0;
    svm_.ReadVirtual(vaddr, &byte, 1);
  }

  MemKind TierOf(uint64_t vaddr) { return svm_.page_table().Find(vaddr)->kind; }

  // Runs the engine `epochs` epoch periods past the current time.
  void RunEpochs(const Tiering& tiering, uint64_t epochs) {
    engine_.RunUntil(engine_.Now() + epochs * tiering.config().epoch_ps + 1);
  }

  sim::Engine engine_;
  memsys::HostMemory host_;
  memsys::CardMemory card_;
  memsys::GpuMemory gpu_;
  memsys::NvmeDrive nvme_;
  Svm svm_;
};

Tiering::Config BaseConfig() {
  Tiering::Config cfg;
  cfg.policy = Tiering::Policy::kProfileGuided;
  cfg.fast_capacity_pages = 4;
  cfg.epoch_ps = sim::Milliseconds(1);
  cfg.decay_shift = 1;
  cfg.promote_threshold = 2;
  cfg.hysteresis_margin = 1;
  cfg.min_residency_epochs = 2;
  cfg.cold_after_epochs = 2;
  cfg.max_moves_per_epoch = 64;
  return cfg;
}

TEST_F(TieringTest, StaticPolicyProfilesButNeverMigrates) {
  auto cfg = BaseConfig();
  cfg.policy = Tiering::Policy::kStatic;
  Tiering tiering(&engine_, &svm_, cfg);
  svm_.set_profiler(&tiering);
  tiering.Start();

  const uint64_t base = MakeBuffer(8);
  for (int round = 0; round < 32; ++round) {
    TouchPage(base);
    TouchPage(base + kPage);
  }
  RunEpochs(tiering, 4);
  tiering.Stop();
  engine_.RunUntilIdle();

  EXPECT_EQ(svm_.migrations(), 0u);
  EXPECT_EQ(tiering.stats().value("tiering.accesses"), 64u);
  EXPECT_EQ(tiering.stats().value("tiering.promotions"), 0u);
  EXPECT_EQ(tiering.occupancy(MemKind::kHost), 2u);  // lazily tracked pages
  EXPECT_GT(tiering.stats().value("tiering.epochs"), 0u);
}

TEST_F(TieringTest, ProfileGuidedPromotesHotPagesWithinCapacity) {
  auto cfg = BaseConfig();
  Tiering tiering(&engine_, &svm_, cfg);
  svm_.set_profiler(&tiering);
  tiering.Start();

  const uint64_t base = MakeBuffer(16);
  // Pages 0-3 are hot, the rest are touched once (below threshold after
  // decay).
  for (int round = 0; round < 8; ++round) {
    for (uint64_t p = 0; p < 4; ++p) {
      TouchPage(base + p * kPage);
    }
  }
  for (uint64_t p = 4; p < 16; ++p) {
    TouchPage(base + p * kPage);
  }
  RunEpochs(tiering, 3);
  tiering.Stop();
  engine_.RunUntilIdle();

  for (uint64_t p = 0; p < 4; ++p) {
    EXPECT_EQ(TierOf(base + p * kPage), MemKind::kCard) << "hot page " << p;
  }
  for (uint64_t p = 4; p < 16; ++p) {
    EXPECT_EQ(TierOf(base + p * kPage), MemKind::kHost) << "cold page " << p;
  }
  EXPECT_EQ(tiering.occupancy(MemKind::kCard), 4u);
  EXPECT_LE(tiering.occupancy(MemKind::kCard), cfg.fast_capacity_pages);
  EXPECT_EQ(tiering.stats().value("tiering.promotions"), 4u);
}

TEST_F(TieringTest, HysteresisBlocksEqualHeatSwaps) {
  auto cfg = BaseConfig();
  cfg.fast_capacity_pages = 1;
  cfg.min_residency_epochs = 0;
  Tiering tiering(&engine_, &svm_, cfg);
  svm_.set_profiler(&tiering);

  const uint64_t base = MakeBuffer(2);
  // Page 0 starts fast-resident; both pages then receive identical heat.
  bool placed = false;
  svm_.EnsureResident(base, kPage, MemKind::kCard, [&] { placed = true; });
  engine_.RunUntilIdle();
  ASSERT_TRUE(placed);
  tiering.Start();

  for (int epoch = 0; epoch < 6; ++epoch) {
    for (int i = 0; i < 8; ++i) {
      TouchPage(base);
      TouchPage(base + kPage);
    }
    RunEpochs(tiering, 1);
  }
  tiering.Stop();
  engine_.RunUntilIdle();

  // Equal heat cannot clear the margin, so the resident page is never
  // displaced: one migration total (the initial placement).
  EXPECT_EQ(svm_.migrations(), 1u);
  EXPECT_EQ(TierOf(base), MemKind::kCard);
  EXPECT_EQ(TierOf(base + kPage), MemKind::kHost);
}

TEST_F(TieringTest, MinResidencyDelaysEviction) {
  auto cfg = BaseConfig();
  cfg.fast_capacity_pages = 1;
  cfg.min_residency_epochs = 3;
  cfg.hysteresis_margin = 0;
  Tiering tiering(&engine_, &svm_, cfg);
  svm_.set_profiler(&tiering);
  tiering.Start();

  const uint64_t base = MakeBuffer(2);
  // Epoch 1: page 0 is hot and gets promoted.
  for (int i = 0; i < 8; ++i) {
    TouchPage(base);
  }
  RunEpochs(tiering, 1);
  ASSERT_EQ(TierOf(base), MemKind::kCard);
  const uint64_t after_promote = svm_.migrations();

  // Page 1 becomes much hotter, but page 0's residency clock protects it
  // for min_residency_epochs.
  for (int i = 0; i < 32; ++i) {
    TouchPage(base + kPage);
  }
  RunEpochs(tiering, 1);
  EXPECT_EQ(svm_.migrations(), after_promote) << "evicted before min residency";
  EXPECT_EQ(TierOf(base), MemKind::kCard);

  // Keep page 1 hot until the protection lapses; then it displaces page 0.
  for (int epoch = 0; epoch < 4; ++epoch) {
    for (int i = 0; i < 32; ++i) {
      TouchPage(base + kPage);
    }
    RunEpochs(tiering, 1);
  }
  tiering.Stop();
  engine_.RunUntilIdle();
  EXPECT_EQ(TierOf(base + kPage), MemKind::kCard);
  EXPECT_EQ(TierOf(base), MemKind::kHost);
}

TEST_F(TieringTest, LruClockGivesReferencedPagesASecondChance) {
  auto cfg = BaseConfig();
  cfg.policy = Tiering::Policy::kLruClock;
  cfg.fast_capacity_pages = 2;
  Tiering tiering(&engine_, &svm_, cfg);
  svm_.set_profiler(&tiering);

  const uint64_t base = MakeBuffer(3);
  bool placed = false;
  svm_.EnsureResident(base, 2 * kPage, MemKind::kCard, [&] { placed = true; });
  engine_.RunUntilIdle();
  ASSERT_TRUE(placed);
  tiering.Start();

  // Page 0 is referenced every epoch; page 1 is idle; page 2 demands
  // promotion. The clock must evict the unreferenced page 1.
  for (int epoch = 0; epoch < 4; ++epoch) {
    TouchPage(base);
    TouchPage(base + 2 * kPage);
    RunEpochs(tiering, 1);
  }
  tiering.Stop();
  engine_.RunUntilIdle();

  EXPECT_EQ(TierOf(base), MemKind::kCard) << "referenced page evicted";
  EXPECT_EQ(TierOf(base + kPage), MemKind::kHost) << "idle page kept";
  EXPECT_EQ(TierOf(base + 2 * kPage), MemKind::kCard) << "demand page not promoted";
}

TEST_F(TieringTest, SwapWaveIsChargedAsBulkTransfersNotPerPage) {
  auto cfg = BaseConfig();
  cfg.fast_capacity_pages = 8;
  Tiering tiering(&engine_, &svm_, cfg);
  svm_.set_profiler(&tiering);

  uint64_t transfer_calls = 0;
  uint64_t transfer_bytes = 0;
  Svm::MigrationHooks hooks;
  hooks.transfer = [&](MemKind, MemKind, uint64_t bytes, std::function<void()> cb) {
    ++transfer_calls;
    transfer_bytes += bytes;
    engine_.ScheduleAfter(sim::Microseconds(1), std::move(cb));
  };
  svm_.set_hooks(std::move(hooks));
  tiering.Start();

  const uint64_t base = MakeBuffer(8);
  for (int round = 0; round < 8; ++round) {
    for (uint64_t p = 0; p < 8; ++p) {
      TouchPage(base + p * kPage);
    }
  }
  RunEpochs(tiering, 2);
  tiering.Stop();
  engine_.RunUntilIdle();

  // All 8 pages promote host->card in one wave: exactly one bulk transfer.
  EXPECT_EQ(tiering.stats().value("tiering.promotions"), 8u);
  EXPECT_EQ(transfer_calls, 1u);
  EXPECT_EQ(transfer_bytes, 8 * kPage);
  EXPECT_EQ(tiering.stats().value("tiering.migrated_bytes"), 8 * kPage);
}

TEST_F(TieringTest, ColdPagesDemoteToNvmeUnderSlowTierPressure) {
  auto cfg = BaseConfig();
  cfg.fast_capacity_pages = 2;
  cfg.slow_capacity_pages = 4;
  cfg.cold_after_epochs = 2;
  Tiering tiering(&engine_, &svm_, cfg);
  svm_.set_profiler(&tiering);
  tiering.Start();

  const uint64_t base = MakeBuffer(8);
  std::vector<uint8_t> data(8 * kPage);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 31 + 7);
  }
  svm_.WriteVirtual(base, data.data(), data.size());

  // All 8 pages tracked on the slow tier (capacity 4): after they go cold,
  // the overflow demotes to NVMe.
  RunEpochs(tiering, 6);
  tiering.Stop();
  engine_.RunUntilIdle();

  EXPECT_GT(tiering.stats().value("tiering.cold_demotions"), 0u);
  EXPECT_EQ(tiering.occupancy(MemKind::kNvme), 4u);
  EXPECT_LE(tiering.occupancy(MemKind::kHost), cfg.slow_capacity_pages);

  // Functional equivalence survives the demotion.
  std::vector<uint8_t> back(data.size());
  svm_.ReadVirtual(base, back.data(), back.size());
  EXPECT_EQ(back, data);
}

TEST_F(TieringTest, EpochDecayHalvesHeat) {
  auto cfg = BaseConfig();
  cfg.policy = Tiering::Policy::kStatic;  // isolate the profiler
  Tiering tiering(&engine_, &svm_, cfg);
  svm_.set_profiler(&tiering);
  tiering.Start();

  const uint64_t base = MakeBuffer(1);
  for (int i = 0; i < 8; ++i) {
    TouchPage(base);
  }
  EXPECT_EQ(tiering.HeatHistogram().sum(), 8u);
  RunEpochs(tiering, 1);
  EXPECT_EQ(tiering.HeatHistogram().sum(), 4u);
  RunEpochs(tiering, 2);
  EXPECT_EQ(tiering.HeatHistogram().sum(), 1u);
  tiering.Stop();
  engine_.RunUntilIdle();
}

TEST_F(TieringTest, ManagePreSeedsTrackingAtCurrentResidency) {
  Tiering tiering(&engine_, &svm_, BaseConfig());
  svm_.set_profiler(&tiering);
  const uint64_t base = MakeBuffer(4);
  bool placed = false;
  svm_.EnsureResident(base, 2 * kPage, MemKind::kCard, [&] { placed = true; });
  engine_.RunUntilIdle();
  ASSERT_TRUE(placed);

  tiering.Manage(base, 4 * kPage);
  EXPECT_EQ(tiering.tracked_pages(), 4u);
  EXPECT_EQ(tiering.occupancy(MemKind::kCard), 2u);
  EXPECT_EQ(tiering.occupancy(MemKind::kHost), 2u);
}

TEST_F(TieringTest, RestartBeforeThePendingTickRunsOneEpochChain) {
  auto cfg = BaseConfig();
  cfg.policy = Tiering::Policy::kStatic;
  Tiering tiering(&engine_, &svm_, cfg);
  tiering.Start();
  tiering.Stop();
  EXPECT_FALSE(tiering.started());
  // Restarted before the first tick fires: the stopped chain's tick must not
  // run alongside the new one.
  tiering.Start();
  EXPECT_TRUE(tiering.started());
  RunEpochs(tiering, 10);
  tiering.Stop();
  engine_.RunUntilIdle();

  EXPECT_EQ(tiering.stats().value("tiering.epochs"), 10u);
  EXPECT_EQ(tiering.epoch(), 10u);
}

TEST_F(TieringTest, SameSeedRunsProduceIdenticalFingerprints) {
  auto run = [](uint64_t* stats_fp, uint64_t* heat_fp, uint64_t* migrations) {
    sim::Engine engine;
    memsys::HostMemory host;
    memsys::CardMemory card(&engine, {});
    memsys::GpuMemory gpu;
    memsys::NvmeDrive nvme(&engine);
    Svm svm(&engine, &host, &card, &gpu, kPage, &nvme);
    auto cfg = BaseConfig();
    cfg.fast_capacity_pages = 3;
    Tiering tiering(&engine, &svm, cfg);
    svm.set_profiler(&tiering);
    tiering.Start();

    const uint64_t base = host.Allocate(12 * kPage, memsys::AllocKind::kRegular);
    svm.RegisterHostBuffer(base, 12 * kPage);
    uint8_t byte = 0;
    for (int epoch = 0; epoch < 6; ++epoch) {
      for (uint64_t p = 0; p < 12; ++p) {
        const int touches = (p % 3 == 0) ? 6 : 1;
        for (int t = 0; t < touches; ++t) {
          svm.ReadVirtual(base + p * kPage + (p % 7), &byte, 1);
        }
      }
      engine.RunUntil(engine.Now() + cfg.epoch_ps + 1);
    }
    tiering.Stop();
    engine.RunUntilIdle();
    *stats_fp = tiering.stats().Fingerprint();
    *heat_fp = tiering.HeatHistogram().Fingerprint();
    *migrations = svm.migrations();
  };

  uint64_t fp1 = 0, heat1 = 0, mig1 = 0;
  uint64_t fp2 = 0, heat2 = 0, mig2 = 0;
  run(&fp1, &heat1, &mig1);
  run(&fp2, &heat2, &mig2);
  EXPECT_EQ(fp1, fp2);
  EXPECT_EQ(heat1, heat2);
  EXPECT_EQ(mig1, mig2);
  EXPECT_GT(mig1, 0u);
}

}  // namespace
}  // namespace mmu
}  // namespace coyote

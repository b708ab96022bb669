// Unit tests for the memory substrate: sparse store, host allocator, card
// memory with striping, GPU memory.

#include <gtest/gtest.h>

#include <vector>

#include "src/memsys/card_memory.h"
#include "src/memsys/gpu_memory.h"
#include "src/memsys/host_memory.h"
#include "src/memsys/nvme.h"
#include "src/memsys/sparse_memory.h"
#include "src/sim/engine.h"
#include "src/sim/rng.h"

namespace coyote {
namespace memsys {
namespace {

TEST(SparseMemoryTest, RoundTripWithinChunk) {
  SparseMemory mem;
  const std::vector<uint8_t> data{1, 2, 3, 4, 5};
  mem.Write(100, data.data(), data.size());
  std::vector<uint8_t> out(5);
  mem.Read(100, out.data(), 5);
  EXPECT_EQ(out, data);
}

TEST(SparseMemoryTest, CrossChunkBoundary) {
  SparseMemory mem;
  std::vector<uint8_t> data(200'000);
  sim::Rng rng(1);
  rng.FillBytes(data.data(), data.size());
  const uint64_t addr = SparseMemory::kChunkBytes - 1234;  // straddles chunks
  mem.Write(addr, data.data(), data.size());
  std::vector<uint8_t> out(data.size());
  mem.Read(addr, out.data(), out.size());
  EXPECT_EQ(out, data);
}

TEST(SparseMemoryTest, UntouchedMemoryReadsZero) {
  SparseMemory mem;
  std::vector<uint8_t> out(64, 0xFF);
  mem.Read(1ull << 40, out.data(), out.size());
  for (uint8_t b : out) {
    EXPECT_EQ(b, 0);
  }
  EXPECT_EQ(mem.resident_bytes(), 0u);
}

TEST(SparseMemoryTest, FillAndResidency) {
  SparseMemory mem;
  mem.Fill(0, 0xAB, 100);
  uint8_t b = 0;
  mem.Read(99, &b, 1);
  EXPECT_EQ(b, 0xAB);
  EXPECT_EQ(mem.resident_bytes(), SparseMemory::kChunkBytes);
}

TEST(HostMemoryTest, AllocationAlignmentPerKind) {
  HostMemory mem;
  const uint64_t reg = mem.Allocate(100, AllocKind::kRegular);
  EXPECT_EQ(reg % 4096, 0u);
  const uint64_t huge = mem.Allocate(100, AllocKind::kHuge2M);
  EXPECT_EQ(huge % (2ull << 20), 0u);
  const uint64_t giant = mem.Allocate(100, AllocKind::kHuge1G);
  EXPECT_EQ(giant % (1ull << 30), 0u);
  EXPECT_EQ(mem.num_allocations(), 3u);
}

TEST(HostMemoryTest, SizesRoundUpToPage) {
  HostMemory mem;
  const uint64_t addr = mem.Allocate(1, AllocKind::kHuge2M);
  auto alloc = mem.FindAllocation(addr);
  ASSERT_TRUE(alloc.has_value());
  EXPECT_EQ(alloc->bytes, 2ull << 20);
}

TEST(HostMemoryTest, FindAllocationByInteriorAddress) {
  HostMemory mem;
  const uint64_t addr = mem.Allocate(8192, AllocKind::kRegular);
  auto alloc = mem.FindAllocation(addr + 5000);
  ASSERT_TRUE(alloc.has_value());
  EXPECT_EQ(alloc->addr, addr);
  EXPECT_FALSE(mem.FindAllocation(addr + 8192).has_value());
  EXPECT_FALSE(mem.FindAllocation(42).has_value());
}

TEST(HostMemoryTest, FreeRemovesAllocation) {
  HostMemory mem;
  const uint64_t addr = mem.Allocate(4096, AllocKind::kRegular);
  EXPECT_TRUE(mem.Free(addr));
  EXPECT_FALSE(mem.Free(addr));
  EXPECT_FALSE(mem.FindAllocation(addr).has_value());
}

TEST(HostMemoryTest, AllocationsDoNotOverlap) {
  HostMemory mem;
  std::vector<std::pair<uint64_t, uint64_t>> ranges;
  sim::Rng rng(2);
  for (int i = 0; i < 50; ++i) {
    const uint64_t n = rng.NextBounded(1 << 20) + 1;
    const auto kind = static_cast<AllocKind>(rng.NextBounded(2));  // reg / 2M
    const uint64_t a = mem.Allocate(n, kind);
    const auto alloc = mem.FindAllocation(a);
    for (const auto& [base, len] : ranges) {
      EXPECT_TRUE(a + alloc->bytes <= base || base + len <= a);
    }
    ranges.emplace_back(a, alloc->bytes);
  }
}

TEST(CardMemoryTest, ChannelMappingStripes) {
  sim::Engine engine;
  CardMemory::Config cfg;
  cfg.num_channels = 8;
  cfg.stripe_bytes = 4096;
  CardMemory card(&engine, cfg);
  EXPECT_EQ(card.ChannelFor(0), 0u);
  EXPECT_EQ(card.ChannelFor(4096), 1u);
  EXPECT_EQ(card.ChannelFor(4096ull * 8), 0u);  // wraps
  EXPECT_EQ(card.ChannelFor(4095), 0u);
}

TEST(CardMemoryTest, SingleChannelBandwidth) {
  sim::Engine engine;
  CardMemory::Config cfg;
  cfg.num_channels = 1;
  cfg.mmu_bypass = true;  // isolate the channel model
  CardMemory card(&engine, cfg);
  const uint64_t bytes = 1 << 20;
  bool done = false;
  card.Access(0, bytes, 0, [&] { done = true; });
  engine.RunUntilIdle();
  ASSERT_TRUE(done);
  const double gbps = sim::BandwidthGBps(bytes, engine.Now());
  // 14.4 GB/s raw * 0.6 efficiency = 8.64 GB/s.
  EXPECT_NEAR(gbps, 8.64, 0.1);
}

TEST(CardMemoryTest, StripedAccessUsesAllChannels) {
  sim::Engine engine;
  CardMemory::Config cfg;
  cfg.num_channels = 4;
  cfg.mmu_bypass = true;
  CardMemory card(&engine, cfg);
  const uint64_t bytes = 4 << 20;
  bool done = false;
  card.Access(0, bytes, 0, [&] { done = true; });
  engine.RunUntilIdle();
  ASSERT_TRUE(done);
  const double gbps = sim::BandwidthGBps(bytes, engine.Now());
  EXPECT_NEAR(gbps, 4 * 8.64, 0.5);
}

TEST(CardMemoryTest, CrossbarCapsVirtualizedBandwidth) {
  sim::Engine engine;
  CardMemory::Config cfg;
  cfg.num_channels = 32;
  cfg.mmu_bypass = false;
  CardMemory card(&engine, cfg);
  const uint64_t bytes = 32 << 20;
  bool done = false;
  card.Access(0, bytes, 0, [&] { done = true; });
  engine.RunUntilIdle();
  ASSERT_TRUE(done);
  const double gbps = sim::BandwidthGBps(bytes, engine.Now());
  // Cap = 4 KB / 50 ns ~= 82 GB/s, well below 32 * 8.64 = 276 GB/s raw.
  EXPECT_LT(gbps, 85.0);
  EXPECT_GT(gbps, 70.0);
}

TEST(CardMemoryTest, AllocateIsContiguousAndAligned) {
  sim::Engine engine;
  CardMemory card(&engine, {});
  const uint64_t a = card.Allocate(100);
  const uint64_t b = card.Allocate(100);
  EXPECT_EQ(a % 4096, 0u);
  EXPECT_EQ(b, a + 4096);
}

TEST(CardMemoryTest, ZeroLengthAccessCompletes) {
  sim::Engine engine;
  CardMemory card(&engine, {});
  bool done = false;
  card.Access(0, 0, 0, [&] { done = true; });
  engine.RunUntilIdle();
  EXPECT_TRUE(done);
}

TEST(GpuMemoryTest, AllocateAligned256) {
  GpuMemory gpu;
  const uint64_t a = gpu.Allocate(100);
  const uint64_t b = gpu.Allocate(100);
  EXPECT_EQ(a % 256, 0u);
  EXPECT_EQ(b, a + 256);
  gpu.store().Fill(a, 0x5A, 100);
  uint8_t v = 0;
  gpu.store().Read(a + 50, &v, 1);
  EXPECT_EQ(v, 0x5A);
}

TEST(NvmeTest, CommandLatencyAndBandwidth) {
  sim::Engine engine;
  memsys::NvmeDrive drive(&engine);
  // Small read: dominated by command latency (75 us).
  bool done = false;
  drive.ReadCommand(0, 1, 0, [&] { done = true; });
  engine.RunUntilIdle();
  EXPECT_TRUE(done);
  EXPECT_GE(engine.Now(), sim::Microseconds(75));
  EXPECT_LT(engine.Now(), sim::Microseconds(80));

  // Large read: bandwidth-bound at 7 GB/s.
  const sim::TimePs start = engine.Now();
  done = false;
  drive.ReadCommand(0, 64ull << 20 >> 12, 0, [&] { done = true; });  // 64 MiB
  engine.RunUntilIdle();
  const double gbps = sim::BandwidthGBps(64ull << 20, engine.Now() - start);
  EXPECT_NEAR(gbps, 7.0, 0.2);
}

TEST(NvmeTest, WritesAckFasterThanReads) {
  sim::Engine engine;
  memsys::NvmeDrive drive(&engine);
  sim::TimePs write_done = 0, read_done = 0;
  drive.WriteCommand(0, 1, 0, [&] { write_done = engine.Now(); });
  engine.RunUntilIdle();
  const sim::TimePs mark = engine.Now();
  drive.ReadCommand(0, 1, 0, [&] { read_done = engine.Now() - mark; });
  engine.RunUntilIdle();
  EXPECT_LT(write_done, read_done);  // write-back cache ack vs media read
  EXPECT_EQ(drive.reads(), 1u);
  EXPECT_EQ(drive.writes(), 1u);
}

TEST(NvmeTest, StoreIsBlockAddressedAndPersistent) {
  sim::Engine engine;
  memsys::NvmeDrive drive(&engine);
  std::vector<uint8_t> block(4096);
  sim::Rng rng(5);
  rng.FillBytes(block.data(), block.size());
  drive.store().Write(42ull * 4096, block.data(), block.size());
  std::vector<uint8_t> back(4096);
  drive.store().Read(42ull * 4096, back.data(), back.size());
  EXPECT_EQ(back, block);
  EXPECT_GT(drive.num_blocks(), 1'000'000u);  // 1 TB of 4K blocks
}

TEST(NvmeTest, AllocateIsBlockAlignedAndMonotone) {
  sim::Engine engine;
  memsys::NvmeDrive drive(&engine);
  // Sub-block request still consumes a whole block (the tiering service's
  // swap slots never alias).
  EXPECT_EQ(drive.Allocate(100), 0u);
  EXPECT_EQ(drive.Allocate(4096), 4096u);
  EXPECT_EQ(drive.Allocate(2ull << 20), 2 * 4096u);
  EXPECT_EQ(drive.allocated_bytes(), 2 * 4096u + (2ull << 20));
}

// Property: card bandwidth scales ~linearly with channel count when striped
// and bypassed (no shared bottleneck).
class CardScaling : public ::testing::TestWithParam<uint32_t> {};

TEST_P(CardScaling, LinearWithChannels) {
  const uint32_t channels = GetParam();
  sim::Engine engine;
  CardMemory::Config cfg;
  cfg.num_channels = channels;
  cfg.mmu_bypass = true;
  CardMemory card(&engine, cfg);
  const uint64_t bytes = static_cast<uint64_t>(channels) << 20;
  bool done = false;
  card.Access(0, bytes, 0, [&] { done = true; });
  engine.RunUntilIdle();
  ASSERT_TRUE(done);
  const double gbps = sim::BandwidthGBps(bytes, engine.Now());
  EXPECT_NEAR(gbps, 8.64 * channels, 0.15 * 8.64 * channels);
}

INSTANTIATE_TEST_SUITE_P(Channels, CardScaling, ::testing::Values(1, 2, 4, 8, 16, 32));

}  // namespace
}  // namespace memsys
}  // namespace coyote

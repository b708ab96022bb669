// Unit tests for the dynamic layer: XDMA, data mover (packetization,
// credits, reordering, SVM integration), writeback, interrupts.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/axi/stream.h"
#include "src/dyn/data_mover.h"
#include "src/dyn/writeback.h"
#include "src/dyn/xdma.h"
#include "src/memsys/card_memory.h"
#include "src/memsys/gpu_memory.h"
#include "src/memsys/host_memory.h"
#include "src/memsys/nvme.h"
#include "src/mmu/mmu.h"
#include "src/mmu/svm.h"
#include "src/sim/engine.h"
#include "src/sim/rng.h"

namespace coyote {
namespace dyn {
namespace {

constexpr uint64_t kPage = 2ull << 20;

class DataMoverTest : public ::testing::Test {
 protected:
  DataMoverTest()
      : card_(&engine_, {}),
        nvme_(&engine_),
        svm_(&engine_, &host_, &card_, &gpu_, kPage, &nvme_),
        xdma_(&engine_, {}),
        mover_(&engine_, &svm_, &card_, &gpu_, &xdma_, {}),
        mmu_(&engine_, &svm_.page_table(), {.page_bytes = kPage}) {
    svm_.set_hooks(mover_.MakeMigrationHooks());
    mover_.SetNvme(&nvme_);
    mover_.RegisterVfpga(0, &mmu_);
  }

  uint64_t MakeBuffer(uint64_t bytes, uint64_t seed) {
    const uint64_t addr = host_.Allocate(bytes, memsys::AllocKind::kHuge2M);
    svm_.RegisterHostBuffer(addr, ((bytes + kPage - 1) / kPage) * kPage);
    std::vector<uint8_t> data(bytes);
    sim::Rng rng(seed);
    rng.FillBytes(data.data(), bytes);
    svm_.WriteVirtual(addr, data.data(), bytes);
    return addr;
  }

  sim::Engine engine_;
  memsys::HostMemory host_;
  memsys::CardMemory card_;
  memsys::GpuMemory gpu_;
  memsys::NvmeDrive nvme_;
  mmu::Svm svm_;
  XdmaCore xdma_;
  DataMover mover_;
  mmu::Mmu mmu_;
};

TEST_F(DataMoverTest, ReadPacketizesAt4K) {
  const uint64_t addr = MakeBuffer(20000, 1);
  axi::Stream dst;
  bool done = false;
  mover_.Read({.vfpga_id = 0, .vaddr = addr, .bytes = 20000}, &dst,
              [&](bool ok) { done = ok; });
  // Consume as delivered so credits replenish.
  uint64_t packets = 0, bytes = 0;
  dst.set_on_data(nullptr);
  engine_.RunUntilCondition([&] {
    while (auto p = dst.Pop()) {
      ++packets;
      bytes += p->data.size();
    }
    return done;
  });
  while (auto p = dst.Pop()) {
    ++packets;
    bytes += p->data.size();
  }
  EXPECT_EQ(packets, 5u);  // 4 x 4096 + 3616
  EXPECT_EQ(bytes, 20000u);
}

TEST_F(DataMoverTest, ReadDeliversInOrderWithCorrectPayload) {
  constexpr uint64_t kBytes = 64 * 1024;
  const uint64_t addr = MakeBuffer(kBytes, 2);
  axi::Stream dst;
  std::vector<uint8_t> received;
  bool done = false;
  dst.set_on_data(nullptr);
  mover_.Read({.vfpga_id = 0, .tid = 7, .vaddr = addr, .bytes = kBytes}, &dst,
              [&](bool ok) { done = ok; });
  engine_.RunUntilCondition([&] {
    while (auto p = dst.Pop()) {
      EXPECT_EQ(p->tid, 7u);
      received.insert(received.end(), p->data.begin(), p->data.end());
    }
    return done;
  });
  while (auto p = dst.Pop()) {
    received.insert(received.end(), p->data.begin(), p->data.end());
  }
  std::vector<uint8_t> expected(kBytes);
  svm_.ReadVirtual(addr, expected.data(), kBytes);
  EXPECT_EQ(received, expected);
}

TEST_F(DataMoverTest, CreditsBoundOutstandingPackets) {
  // A vFPGA that never consumes: exactly `credits_per_stream` packets are
  // delivered into the stream, then the mover stalls (the §7.2 isolation
  // property) instead of flooding the shell.
  const uint64_t addr = MakeBuffer(1 << 20, 3);
  axi::Stream dst;
  bool done = false;
  mover_.Read({.vfpga_id = 0, .vaddr = addr, .bytes = 1 << 20}, &dst,
              [&](bool ok) { done = ok; });
  engine_.RunUntilIdle();
  EXPECT_FALSE(done);
  EXPECT_EQ(dst.size(), mover_.config().credits_per_stream);
  EXPECT_GT(mover_.ReadCredits(0, 0).stalls(), 0u);

  // Consuming resumes delivery to completion.
  uint64_t drained = 0;
  engine_.RunUntilCondition([&] {
    while (auto p = dst.Pop()) {
      drained += p->data.size();
    }
    return done;
  });
  while (auto p = dst.Pop()) {
    drained += p->data.size();
  }
  EXPECT_TRUE(done);
  EXPECT_EQ(drained, 1u << 20);
}

TEST_F(DataMoverTest, StalledVfpgaDoesNotBlockAnotherTenant) {
  mmu::Mmu mmu1(&engine_, &svm_.page_table(), {.page_bytes = kPage});
  mover_.RegisterVfpga(1, &mmu1);

  const uint64_t a = MakeBuffer(1 << 20, 4);
  const uint64_t b = MakeBuffer(1 << 20, 5);
  axi::Stream stalled_dst;  // never consumed
  axi::Stream live_dst;
  bool stalled_done = false, live_done = false;
  mover_.Read({.vfpga_id = 0, .vaddr = a, .bytes = 1 << 20}, &stalled_dst,
              [&](bool) { stalled_done = true; });
  mover_.Read({.vfpga_id = 1, .vaddr = b, .bytes = 1 << 20}, &live_dst,
              [&](bool ok) { live_done = ok; });
  uint64_t live_bytes = 0;
  engine_.RunUntilCondition([&] {
    while (auto p = live_dst.Pop()) {
      live_bytes += p->data.size();
    }
    return live_done;
  });
  EXPECT_TRUE(live_done);
  EXPECT_FALSE(stalled_done);
  EXPECT_EQ(live_bytes + live_dst.total_bytes() - live_dst.total_bytes(), live_bytes);
  EXPECT_EQ(live_bytes, 1u << 20);
}

TEST_F(DataMoverTest, WriteCommitsBytesToVirtualMemory) {
  const uint64_t dst_addr = MakeBuffer(16384, 6);
  axi::Stream src;
  bool done = false;
  mover_.Write({.vfpga_id = 0, .vaddr = dst_addr, .bytes = 16384}, &src,
               [&](bool ok) { done = ok; });
  std::vector<uint8_t> produced(16384);
  sim::Rng rng(7);
  rng.FillBytes(produced.data(), produced.size());
  for (int i = 0; i < 4; ++i) {
    axi::StreamPacket p;
    p.data.assign(produced.begin() + i * 4096, produced.begin() + (i + 1) * 4096);
    p.last = (i == 3);
    src.Push(std::move(p));
  }
  engine_.RunUntilCondition([&] { return done; });
  std::vector<uint8_t> back(16384);
  svm_.ReadVirtual(dst_addr, back.data(), back.size());
  EXPECT_EQ(back, produced);
}

TEST_F(DataMoverTest, SequentialWritesOnOneStreamServeFifo) {
  const uint64_t a = MakeBuffer(4096, 8);
  const uint64_t b = MakeBuffer(4096, 9);
  axi::Stream src;
  bool done_a = false, done_b = false;
  mover_.Write({.vfpga_id = 0, .vaddr = a, .bytes = 4096}, &src,
               [&](bool ok) { done_a = ok; });
  mover_.Write({.vfpga_id = 0, .vaddr = b, .bytes = 4096}, &src,
               [&](bool ok) { done_b = ok; });
  axi::StreamPacket p1;
  p1.data.assign(4096, 0xAA);
  src.Push(std::move(p1));
  axi::StreamPacket p2;
  p2.data.assign(4096, 0xBB);
  src.Push(std::move(p2));
  engine_.RunUntilCondition([&] { return done_a && done_b; });
  uint8_t va = 0, vb = 0;
  svm_.ReadVirtual(a, &va, 1);
  svm_.ReadVirtual(b, &vb, 1);
  EXPECT_EQ(va, 0xAA);
  EXPECT_EQ(vb, 0xBB);
}

TEST_F(DataMoverTest, CardTargetMigratesThenReads) {
  const uint64_t addr = MakeBuffer(8192, 10);
  axi::Stream dst;
  bool done = false;
  mover_.Read({.vfpga_id = 0, .vaddr = addr, .bytes = 8192, .target = mmu::MemKind::kCard},
              &dst, [&](bool ok) { done = ok; });
  engine_.RunUntilCondition([&] {
    while (dst.Pop()) {
    }
    return done;
  });
  EXPECT_TRUE(done);
  EXPECT_GE(svm_.migrations(), 1u);
  EXPECT_EQ(svm_.page_table().Find(addr)->kind, mmu::MemKind::kCard);
}

TEST_F(DataMoverTest, UnmappedReadRaisesPageFaultIrq) {
  axi::Stream dst;
  bool ok_flag = true;
  mover_.Read({.vfpga_id = 0, .vaddr = 0x100, .bytes = 4096}, &dst,
              [&](bool ok) { ok_flag = ok; });
  engine_.RunUntilIdle();
  EXPECT_FALSE(ok_flag);
  EXPECT_EQ(mover_.page_fault_irqs(), 1u);
  EXPECT_EQ(xdma_.msix_raised(), 1u);
}

TEST_F(DataMoverTest, ZeroByteOpsComplete) {
  axi::Stream s;
  int completions = 0;
  mover_.Read({.vfpga_id = 0, .vaddr = 0, .bytes = 0}, &s,
              [&](bool ok) { completions += ok ? 1 : 0; });
  mover_.Write({.vfpga_id = 0, .vaddr = 0, .bytes = 0}, &s,
               [&](bool ok) { completions += ok ? 1 : 0; });
  engine_.RunUntilIdle();
  EXPECT_EQ(completions, 2);
}

TEST_F(DataMoverTest, MigrateMovesWholeBuffer) {
  const uint64_t addr = MakeBuffer(4 * kPage, 11);
  bool done = false;
  mover_.Migrate(addr, 4 * kPage, mmu::MemKind::kCard, [&](bool ok) { done = ok; });
  engine_.RunUntilIdle();
  EXPECT_TRUE(done);
  EXPECT_EQ(svm_.migrations(), 4u);
  // Migration charged real time on the H2C link (8 MB at 12 GB/s > 600 us).
  EXPECT_GT(engine_.Now(), sim::Microseconds(600));
}

// Every path a packet takes through the data mover, in both directions: the
// page the transfer lands on decides the translation outcome (hit, residency
// fault with a migration, unmapped) and the physical leg (XDMA, HBM, the GPU
// link, NVMe). Each row pins the completion time (from submission), the
// status and the counters the path moves, so any change to the order or the
// cost of the calls on a path shows up here.
enum class PathPage : uint8_t {
  kHost,        // host page, host target
  kHostToCard,  // host page, card target: migrates first
  kGpu,         // RegisterGpuBuffer page, GPU target
  kNvme,        // page demoted to the drive, NVMe target: served in place
  kUnmapped,    // no mapping: page-fault MSI-X
};

struct PinnedPath {
  const char* name;
  bool write;
  PathPage page;
  sim::TimePs done_ps;
  bool ok;
  uint64_t page_fault_irqs;
  uint64_t msix_raised;
  uint64_t migrations;
  uint64_t h2c_bytes;
  uint64_t c2h_bytes;
  uint64_t events;
};

// name, write, page | done_ps, ok, page_fault_irqs, msix_raised, migrations,
// h2c_bytes, c2h_bytes, events
constexpr PinnedPath kPinnedPaths[] = {
    {"ReadHost", false, PathPage::kHost, 5'924'002, true, 0, 0, 0, 12'288, 0, 9},
    {"ReadHostToCard", false, PathPage::kHostToCard, 206'260'817, true, 0, 0, 1, 2'097'152, 0,
     1'035},
    {"ReadGpu", false, PathPage::kGpu, 6'128'800, true, 0, 0, 0, 0, 0, 9},
    {"ReadNvme", false, PathPage::kNvme, 80'755'429, true, 0, 0, 0, 0, 0, 9},
    {"ReadUnmapped", false, PathPage::kUnmapped, 4'000'000, false, 1, 1, 0, 0, 0, 4},
    {"WriteHost", true, PathPage::kHost, 5'924'002, true, 0, 0, 0, 0, 12'288, 9},
    {"WriteHostToCard", true, PathPage::kHostToCard, 206'260'817, true, 0, 0, 1, 2'097'152, 0,
     1'035},
    {"WriteGpu", true, PathPage::kGpu, 6'128'800, true, 0, 0, 0, 0, 0, 9},
    {"WriteNvme", true, PathPage::kNvme, 21'363'079, true, 0, 0, 0, 0, 0, 9},
    {"WriteUnmapped", true, PathPage::kUnmapped, 4'000'000, false, 1, 1, 0, 0, 0, 4},
};

class DataMoverPathTest : public DataMoverTest,
                          public ::testing::WithParamInterface<PinnedPath> {};

TEST_P(DataMoverPathTest, PinnedTimeStatusAndCounters) {
  const PinnedPath& p = GetParam();
  constexpr uint64_t kPacket = 4096;
  constexpr uint64_t kBytes = 3 * kPacket;
  std::vector<uint8_t> payload(kBytes);
  sim::Rng rng(21);
  rng.FillBytes(payload.data(), kBytes);

  uint64_t vaddr = 0x100;
  mmu::MemKind target = mmu::MemKind::kHost;
  switch (p.page) {
    case PathPage::kHost:
      vaddr = MakeBuffer(kBytes, 20);
      break;
    case PathPage::kHostToCard:
      vaddr = MakeBuffer(kBytes, 20);
      target = mmu::MemKind::kCard;
      break;
    case PathPage::kGpu:
      vaddr = svm_.RegisterGpuBuffer(kBytes);
      target = mmu::MemKind::kGpu;
      break;
    case PathPage::kNvme:
      vaddr = MakeBuffer(kBytes, 20);
      target = mmu::MemKind::kNvme;
      svm_.EnsureResident(vaddr, kPage, mmu::MemKind::kNvme, [] {});
      engine_.RunUntilIdle();
      ASSERT_EQ(svm_.page_table().Find(vaddr)->kind, mmu::MemKind::kNvme);
      break;
    case PathPage::kUnmapped:
      break;
  }
  const bool mapped = p.page != PathPage::kUnmapped;
  if (mapped && !p.write) {
    svm_.WriteVirtual(vaddr, payload.data(), kBytes);
  }

  const sim::TimePs start = engine_.Now();
  const uint64_t migrations0 = svm_.migrations();
  const uint64_t h2c0 = xdma_.h2c().total_bytes();
  const uint64_t c2h0 = xdma_.c2h().total_bytes();
  const uint64_t events0 = engine_.events_executed();

  const TransferRequest req{
      .vfpga_id = 0, .tid = 3, .vaddr = vaddr, .bytes = kBytes, .target = target};
  axi::Stream stream;
  std::optional<bool> status;
  sim::TimePs done_at = 0;
  int completions = 0;
  auto done = [&](bool ok) {
    status = ok;
    done_at = engine_.Now();
    ++completions;
  };
  if (p.write) {
    for (uint64_t off = 0; off < kBytes; off += kPacket) {
      axi::StreamPacket pkt;
      pkt.data.assign(payload.begin() + static_cast<std::ptrdiff_t>(off),
                      payload.begin() + static_cast<std::ptrdiff_t>(off + kPacket));
      pkt.last = (off + kPacket == kBytes);
      stream.Push(std::move(pkt));
    }
    mover_.Write(req, &stream, done);
  } else {
    mover_.Read(req, &stream, done);
  }
  engine_.RunUntilIdle();

  ASSERT_EQ(completions, 1);
  EXPECT_EQ(*status, p.ok);
  EXPECT_EQ(done_at - start, p.done_ps);
  EXPECT_EQ(mover_.page_fault_irqs(), p.page_fault_irqs);
  EXPECT_EQ(xdma_.msix_raised(), p.msix_raised);
  EXPECT_EQ(svm_.migrations() - migrations0, p.migrations);
  EXPECT_EQ(xdma_.h2c().total_bytes() - h2c0, p.h2c_bytes);
  EXPECT_EQ(xdma_.c2h().total_bytes() - c2h0, p.c2h_bytes);
  EXPECT_EQ(engine_.events_executed() - events0, p.events);

  // The data moved is the payload, whichever path carried it.
  if (p.ok) {
    std::vector<uint8_t> moved;
    if (p.write) {
      moved.resize(kBytes);
      svm_.ReadVirtual(vaddr, moved.data(), kBytes);
    } else {
      while (auto pkt = stream.Pop()) {
        EXPECT_EQ(pkt->tid, 3u);
        moved.insert(moved.end(), pkt->data.begin(), pkt->data.end());
      }
    }
    EXPECT_EQ(moved, payload);
  } else if (!p.write) {
    EXPECT_TRUE(stream.Empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Paths, DataMoverPathTest, ::testing::ValuesIn(kPinnedPaths),
                         [](const ::testing::TestParamInfo<PinnedPath>& row) {
                           return std::string(row.param.name);
                         });

// The two directions' fault handlers differ on purpose: a read fault always
// raises the page-fault MSI-X, a write fault does nothing once its op has
// completed. An abort that lands while a residency fault is migrating the
// page, followed by an unmap, shows the difference.
class DataMoverFaultAfterAbortTest : public DataMoverTest,
                                     public ::testing::WithParamInterface<bool> {};

TEST_P(DataMoverFaultAfterAbortTest, RaisesMsixOnlyForTheRead) {
  const bool write = GetParam();
  const uint64_t vaddr = MakeBuffer(3 * 4096, 22);
  const TransferRequest req{
      .vfpga_id = 0, .vaddr = vaddr, .bytes = 3 * 4096, .target = mmu::MemKind::kCard};
  axi::Stream stream;
  int completions = 0;
  bool last_ok = true;
  auto done = [&](bool ok) {
    ++completions;
    last_ok = ok;
  };
  if (write) {
    for (int i = 0; i < 3; ++i) {
      axi::StreamPacket pkt;
      pkt.data.assign(4096, static_cast<uint8_t>(i));
      stream.Push(std::move(pkt));
    }
    mover_.Write(req, &stream, done);
  } else {
    mover_.Read(req, &stream, done);
  }
  uint64_t aborted = 0;
  engine_.ScheduleAt(sim::Microseconds(50), [&] {
    aborted = mover_.AbortVfpga(0);
    svm_.page_table().Unmap(vaddr);
  });
  engine_.RunUntilIdle();
  EXPECT_EQ(aborted, 1u);
  EXPECT_EQ(completions, 1);
  EXPECT_FALSE(last_ok);
  EXPECT_EQ(svm_.migrations(), 1u);
  EXPECT_EQ(mover_.page_fault_irqs(), write ? 0u : 1u);
  EXPECT_EQ(xdma_.msix_raised(), write ? 0u : 1u);
  EXPECT_EQ(engine_.Now(), write ? 205'736'742u : 207'736'742u);
}

INSTANTIATE_TEST_SUITE_P(Directions, DataMoverFaultAfterAbortTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& row) {
                           return std::string(row.param ? "Write" : "Read");
                         });

TEST(XdmaTest, MsixDeliveryLatencyAndHandler) {
  sim::Engine engine;
  XdmaCore xdma(&engine, {});
  uint32_t got_vector = 0;
  uint64_t got_value = 0;
  xdma.SetMsixHandler([&](uint32_t v, uint64_t val) {
    got_vector = v;
    got_value = val;
  });
  xdma.RaiseMsix(kMsixUserBase + 3, 0x1234);
  engine.RunUntilIdle();
  EXPECT_EQ(got_vector, kMsixUserBase + 3);
  EXPECT_EQ(got_value, 0x1234u);
  EXPECT_EQ(engine.Now(), XdmaCore::kMsixLatency);
  EXPECT_EQ(xdma.msix_raised(), 1u);
}

TEST(WritebackTest, CountersIncrementViaC2hWrites) {
  sim::Engine engine;
  memsys::HostMemory host;
  sim::Link c2h(&engine, {12'000'000'000ull, 0, 0});
  WritebackEngine wb(&engine, &host, &c2h);

  const uint64_t slot = host.Allocate(64, memsys::AllocKind::kRegular);
  wb.RegisterSlot({0, 1, true}, slot);
  EXPECT_EQ(wb.ReadCounter({0, 1, true}), 0u);
  wb.Complete({0, 1, true});
  wb.Complete({0, 1, true});
  engine.RunUntilIdle();
  EXPECT_EQ(wb.ReadCounter({0, 1, true}), 2u);
  EXPECT_EQ(wb.writebacks(), 2u);
  // Untracked keys are ignored, not fatal.
  wb.Complete({9, 9, false});
  engine.RunUntilIdle();
  EXPECT_EQ(wb.writebacks(), 2u);
}

// Property: for any packet size, a read moves exactly the requested bytes in
// ceil(bytes/packet) packets (page boundaries permitting).
class PacketizationSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PacketizationSweep, ExactByteCountAnyPacketSize) {
  const uint64_t packet_bytes = GetParam();
  sim::Engine engine;
  memsys::HostMemory host;
  memsys::CardMemory card(&engine, {});
  memsys::GpuMemory gpu;
  mmu::Svm svm(&engine, &host, &card, &gpu, kPage);
  XdmaCore xdma(&engine, {});
  DataMover::Config cfg;
  cfg.packet_bytes = packet_bytes;
  cfg.credits_per_stream = 4;
  DataMover mover(&engine, &svm, &card, &gpu, &xdma, cfg);
  mmu::Mmu mmu(&engine, &svm.page_table(), {.page_bytes = kPage});
  mover.RegisterVfpga(0, &mmu);

  const uint64_t bytes = 100'000;
  const uint64_t addr = host.Allocate(bytes, memsys::AllocKind::kHuge2M);
  svm.RegisterHostBuffer(addr, kPage);

  axi::Stream dst;
  bool done = false;
  uint64_t delivered = 0, packets = 0;
  mover.Read({.vfpga_id = 0, .vaddr = addr, .bytes = bytes}, &dst,
             [&](bool ok) { done = ok; });
  engine.RunUntilCondition([&] {
    while (auto p = dst.Pop()) {
      delivered += p->data.size();
      ++packets;
    }
    return done;
  });
  while (auto p = dst.Pop()) {
    delivered += p->data.size();
    ++packets;
  }
  EXPECT_EQ(delivered, bytes);
  EXPECT_EQ(packets, (bytes + packet_bytes - 1) / packet_bytes);
}

INSTANTIATE_TEST_SUITE_P(PacketSizes, PacketizationSweep,
                         ::testing::Values(512, 1024, 4096, 16384, 65536));

}  // namespace
}  // namespace dyn
}  // namespace coyote

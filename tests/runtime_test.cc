// End-to-end tests of the device runtime: cThread API, data movement through
// kernels, shared virtual memory, reconfiguration, writeback and interrupts.

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <string>
#include <vector>

#include "src/net/network.h"
#include "src/runtime/crcnfg.h"
#include "src/runtime/cthread.h"
#include "src/runtime/device.h"
#include "src/runtime/serving.h"
#include "src/services/aes.h"
#include "src/services/aes_kernels.h"
#include "src/services/hll.h"
#include "src/services/pointer_chase.h"
#include "src/services/vector_kernels.h"
#include "src/sim/hash.h"
#include "src/sim/rng.h"
#include "src/synth/flow.h"
#include "src/synth/netlist.h"

namespace coyote {
namespace runtime {
namespace {

fabric::ShellConfigDesc DefaultShell(uint32_t num_vfpgas = 2) {
  fabric::ShellConfigDesc shell;
  shell.name = "test-shell";
  shell.services = {fabric::Service::kHostStream, fabric::Service::kCardMemory};
  shell.num_vfpgas = num_vfpgas;
  return shell;
}

SimDevice::Config DefaultConfig(uint32_t num_vfpgas = 2) {
  SimDevice::Config cfg;
  cfg.shell = DefaultShell(num_vfpgas);
  return cfg;
}

std::vector<uint8_t> RandomBytes(uint64_t n, uint64_t seed) {
  std::vector<uint8_t> v(n);
  sim::Rng rng(seed);
  rng.FillBytes(v.data(), n);
  return v;
}

TEST(CThreadTest, GetMemRegistersPagesAndWarmsTlb) {
  SimDevice dev(DefaultConfig());
  CThread t(&dev, 0);
  const uint64_t addr = t.GetMem({Alloc::kHpf, 4096});
  EXPECT_NE(addr, 0u);
  // Page mapped host-resident.
  auto entry = dev.svm().page_table().Find(addr);
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->kind, mmu::MemKind::kHost);
  // TLB warm: a lookup hits.
  EXPECT_TRUE(dev.vfpga_mmu(0).tlb().Lookup(addr).has_value());
  EXPECT_TRUE(t.FreeMem(addr));
  EXPECT_FALSE(t.FreeMem(addr));
}

TEST(CThreadTest, BufferReadWriteRoundTrip) {
  SimDevice dev(DefaultConfig());
  CThread t(&dev, 0);
  const uint64_t addr = t.GetMem({Alloc::kReg, 10000});
  const auto data = RandomBytes(10000, 1);
  t.WriteBuffer(addr, data.data(), data.size());
  std::vector<uint8_t> back(10000);
  t.ReadBuffer(addr, back.data(), back.size());
  EXPECT_EQ(data, back);
}

TEST(CThreadTest, CsrAccessReachesKernelRegisters) {
  SimDevice dev(DefaultConfig());
  CThread t(&dev, 0);
  t.SetCsr(0xDEADBEEFCAFEF00Dull, 7);
  EXPECT_EQ(dev.vfpga(0).csr().Peek(7), 0xDEADBEEFCAFEF00Dull);
  EXPECT_EQ(t.GetCsr(7), 0xDEADBEEFCAFEF00Dull);
  // CSR access costs simulated time (BAR round trips).
  EXPECT_GT(dev.engine().Now(), 0u);
}

TEST(CThreadTest, LocalTransferThroughPassthroughPreservesData) {
  SimDevice dev(DefaultConfig());
  dev.vfpga(0).LoadKernel(std::make_unique<services::PassthroughKernel>());
  CThread t(&dev, 0);

  constexpr uint64_t kBytes = 64 * 1024;
  const auto data = RandomBytes(kBytes, 2);

  // The typed serving envelope replaces the hand-rolled
  // GetMem/WriteBuffer/SgEntry/InvokeSync/ReadBuffer sequence.
  serving::ServingRequest req;
  req.kernel = "passthrough";
  req.payload = axi::BufferView(data);
  std::vector<uint8_t> out;
  const serving::ServingCompletion done = serving::ExecuteSync(&t, req, &out);
  EXPECT_EQ(done.status, OpStatus::kOk);
  EXPECT_EQ(data, out);
  EXPECT_EQ(done.response_hash, sim::FnvHash(data.data(), data.size()));
  EXPECT_GT(done.completed_at, 0u);

  // Timing sanity: 64 KB both directions over a 12 GB/s link plus kernel
  // time; must be more than the pure link time and less than 1 ms.
  EXPECT_GT(dev.engine().Now(), sim::TransferTime(kBytes, 12'000'000'000ull));
  EXPECT_LT(dev.engine().Now(), sim::Milliseconds(1));
}

TEST(CThreadTest, ZeroLengthTransferCompletes) {
  SimDevice dev(DefaultConfig());
  dev.vfpga(0).LoadKernel(std::make_unique<services::PassthroughKernel>());
  CThread t(&dev, 0);
  SgEntry sg;
  EXPECT_TRUE(t.InvokeSync(Oper::kNoop, sg));
  EXPECT_TRUE(t.InvokeSync(Oper::kLocalTransfer, sg));
}

TEST(CThreadTest, UnmappedAddressFailsTaskAndRaisesPageFault) {
  SimDevice dev(DefaultConfig());
  dev.vfpga(0).LoadKernel(std::make_unique<services::PassthroughKernel>());
  CThread t(&dev, 0);
  SgEntry sg;
  sg.local = {.src_addr = 0x100000, .src_len = 4096, .dst_addr = 0, .dst_len = 0};
  EXPECT_FALSE(t.InvokeSync(Oper::kLocalRead, sg));
  EXPECT_GE(dev.data_mover().page_fault_irqs(), 1u);
}

TEST(CThreadTest, WritebackCountersAdvanceOnCompletion) {
  SimDevice dev(DefaultConfig());
  dev.vfpga(0).LoadKernel(std::make_unique<services::PassthroughKernel>());
  CThread t(&dev, 0);
  const uint64_t src = t.GetMem({Alloc::kHpf, 4096});
  const uint64_t dst = t.GetMem({Alloc::kHpf, 4096});
  SgEntry sg;
  sg.local = {.src_addr = src, .src_len = 4096, .dst_addr = dst, .dst_len = 4096};
  ASSERT_TRUE(t.InvokeSync(Oper::kLocalTransfer, sg));
  dev.engine().RunUntilIdle();
  EXPECT_EQ(dev.writeback().ReadCounter({0, t.ctid(), true}), 1u);
  ASSERT_TRUE(t.InvokeSync(Oper::kLocalTransfer, sg));
  dev.engine().RunUntilIdle();
  EXPECT_EQ(dev.writeback().ReadCounter({0, t.ctid(), true}), 2u);
}

TEST(CThreadTest, MigrationMovesPagesAndDataSurvives) {
  SimDevice dev(DefaultConfig());
  CThread t(&dev, 0);
  constexpr uint64_t kBytes = 1 << 20;
  const uint64_t addr = t.GetMem({Alloc::kHpf, kBytes});
  const auto data = RandomBytes(kBytes, 3);
  t.WriteBuffer(addr, data.data(), kBytes);

  SgEntry sg;
  sg.local.src_addr = addr;
  sg.local.src_len = kBytes;
  ASSERT_TRUE(t.InvokeSync(Oper::kMigrateToCard, sg));
  EXPECT_EQ(dev.svm().page_table().Find(addr)->kind, mmu::MemKind::kCard);
  EXPECT_GE(dev.svm().migrations(), 1u);

  // Data readable through the virtual address space from card residence.
  std::vector<uint8_t> back(kBytes);
  t.ReadBuffer(addr, back.data(), kBytes);
  EXPECT_EQ(data, back);

  ASSERT_TRUE(t.InvokeSync(Oper::kMigrateToHost, sg));
  EXPECT_EQ(dev.svm().page_table().Find(addr)->kind, mmu::MemKind::kHost);
  t.ReadBuffer(addr, back.data(), kBytes);
  EXPECT_EQ(data, back);
}

TEST(CThreadTest, CardTargetTransferFaultsPagesToCard) {
  SimDevice dev(DefaultConfig());
  dev.vfpga(0).LoadKernel(std::make_unique<services::CardPassthroughKernel>());
  CThread t(&dev, 0);
  constexpr uint64_t kBytes = 256 * 1024;
  const uint64_t src = t.GetMem({Alloc::kHpf, kBytes});
  const uint64_t dst = t.GetMem({Alloc::kHpf, kBytes});
  const auto data = RandomBytes(kBytes, 4);
  t.WriteBuffer(src, data.data(), kBytes);

  SgEntry sg;
  sg.local = {.src_addr = src,
              .src_len = kBytes,
              .dst_addr = dst,
              .dst_len = kBytes,
              .src_stream = 0,
              .dst_stream = 0,
              .src_target = mmu::MemKind::kCard,
              .dst_target = mmu::MemKind::kCard};
  ASSERT_TRUE(t.InvokeSync(Oper::kLocalTransfer, sg));

  // Pages were pulled to the card by the access (GPU-style page fault).
  EXPECT_EQ(dev.svm().page_table().Find(src)->kind, mmu::MemKind::kCard);
  std::vector<uint8_t> out(kBytes);
  t.ReadBuffer(dst, out.data(), kBytes);
  EXPECT_EQ(data, out);
}

TEST(CThreadTest, UserInterruptReachesCallback) {
  SimDevice dev(DefaultConfig());
  CThread t(&dev, 0);
  uint64_t seen = 0;
  t.SetInterruptCallback([&seen](uint64_t value) { seen = value; });
  dev.vfpga(0).RaiseUserInterrupt(0x42);
  dev.engine().RunUntilIdle();
  EXPECT_EQ(seen, 0x42u);
}

// --- One row per op kind a cThread issues --------------------------------------

// A row issues its ops one after another on 4 KiB buffers and pins, from the
// first Invoke, when the last op completes, its status, and the bytes that
// crossed the host link each way.
struct OpPathRow {
  const char* name;
  std::vector<Oper> opers;
  bool storage = false;                       // shell has the NVMe service
  mmu::MemKind target = mmu::MemKind::kHost;  // of the local src and dst
  sim::TimePs took = 0;
  OpStatus status = OpStatus::kOk;
  uint64_t h2c = 0;
  uint64_t c2h = 0;
};

class OpPathTest : public ::testing::TestWithParam<OpPathRow> {};

TEST_P(OpPathTest, CompletesAtItsPinnedTimeAndBytes) {
  const OpPathRow& row = GetParam();
  SimDevice::Config cfg = DefaultConfig();
  if (row.storage) {
    cfg.shell.services.push_back(fabric::Service::kStorage);
  }
  SimDevice dev(cfg);
  if (row.target == mmu::MemKind::kCard) {
    dev.vfpga(0).LoadKernel(std::make_unique<services::CardPassthroughKernel>());
  } else {
    dev.vfpga(0).LoadKernel(std::make_unique<services::PassthroughKernel>());
  }
  CThread t(&dev, 0);
  constexpr uint64_t kBytes = 4096;
  const uint64_t src = t.GetMem({Alloc::kHpf, kBytes});
  const uint64_t dst = t.GetMem({Alloc::kHpf, kBytes});
  const auto data = RandomBytes(kBytes, 9);
  t.WriteBuffer(src, data.data(), kBytes);
  SgEntry sg;
  sg.local = {.src_addr = src,
              .src_len = kBytes,
              .dst_addr = dst,
              .dst_len = kBytes,
              .src_target = row.target,
              .dst_target = row.target};
  sg.storage = {.lba = 8, .vaddr = src, .len = kBytes};
  sg.rdma = {.qpn = 1, .local_addr = src, .remote_addr = dst, .len = kBytes};

  sim::TimePs done_at = 0;
  t.SetCompletionCallback([&](CThread::Task, OpStatus) { done_at = dev.engine().Now(); });
  const sim::TimePs start = dev.engine().Now();
  OpStatus status = OpStatus::kPending;
  for (const Oper oper : row.opers) {
    const CThread::Task task = t.Invoke(oper, sg);
    t.Wait(task);
    status = t.Status(task);
  }
  EXPECT_EQ(done_at - start, row.took);
  EXPECT_EQ(status, row.status);
  EXPECT_EQ(dev.xdma().h2c().total_bytes(), row.h2c);
  EXPECT_EQ(dev.xdma().c2h().total_bytes(), row.c2h);
}

INSTANTIATE_TEST_SUITE_P(
    CThread, OpPathTest,
    ::testing::Values(
        // Every completion also writes a 64-byte writeback counter over C2H.
        OpPathRow{.name = "Noop", .opers = {Oper::kNoop}, .took = 5'000'000, .c2h = 64},
        OpPathRow{.name = "HostTransfer",
                  .opers = {Oper::kLocalTransfer},
                  .took = 7'761'334,
                  .h2c = 4096,
                  .c2h = 4096 + 64},
        // The card kernel faults both 2 MiB hugepages to the card over H2C.
        OpPathRow{.name = "CardTransfer",
                  .opers = {Oper::kLocalTransfer},
                  .target = mmu::MemKind::kCard,
                  .took = 409'537'634,
                  .h2c = 2 * (2 << 20),
                  .c2h = 64},
        OpPathRow{.name = "ReadOnly",
                  .opers = {Oper::kLocalRead},
                  .took = 6'245'334,
                  .h2c = 4096,
                  .c2h = 64},
        OpPathRow{.name = "MigrateToCardAndBack",
                  .opers = {Oper::kMigrateToCard, Oper::kMigrateToHost},
                  .took = 387'399'409,
                  .h2c = 2 << 20,
                  .c2h = (2 << 20) + 2 * 64},
        OpPathRow{.name = "NvmeWriteThenRead",
                  .opers = {Oper::kStorageWrite, Oper::kStorageRead},
                  .storage = true,
                  .took = 101'372'836,
                  .c2h = 2 * 64},
        OpPathRow{.name = "NvmeReadWithoutTheService",
                  .opers = {Oper::kStorageRead},
                  .took = 5'000'000,
                  .status = OpStatus::kError,
                  .c2h = 64},
        OpPathRow{.name = "RemoteWriteWithoutTheService",
                  .opers = {Oper::kRemoteWrite},
                  .took = 5'000'000,
                  .status = OpStatus::kError,
                  .c2h = 64}),
    [](const ::testing::TestParamInfo<OpPathRow>& row) { return row.param.name; });

// A task retired before its doorbell, kInvokeLatency after Invoke, starts
// nothing: neither a host-side abort right after Invoke nor a deadline that
// fires first lets its read or write reach the data mover. Only the forced
// completion's 64-byte writeback crosses C2H.
TEST(CThreadTest, TaskRetiredBeforeItsDoorbellMovesNoData) {
  for (const OpStatus how : {OpStatus::kAborted, OpStatus::kDeadlineExceeded}) {
    SCOPED_TRACE(how == OpStatus::kAborted ? "aborted" : "deadline");
    SimDevice dev(DefaultConfig());
    dev.vfpga(0).LoadKernel(std::make_unique<services::PassthroughKernel>());
    CThread t(&dev, 0);
    constexpr uint64_t kBytes = 4096;
    const uint64_t src = t.GetMem({Alloc::kHpf, kBytes});
    const uint64_t dst = t.GetMem({Alloc::kHpf, kBytes});
    SgEntry sg;
    sg.local = {.src_addr = src, .src_len = kBytes, .dst_addr = dst, .dst_len = kBytes};
    if (how == OpStatus::kDeadlineExceeded) {
      t.SetOpDeadline(sim::Microseconds(1));
    }
    const CThread::Task task = t.Invoke(Oper::kLocalTransfer, sg);
    if (how == OpStatus::kAborted) {
      EXPECT_EQ(t.AbortPending(), 1u);
    }
    dev.engine().RunUntilIdle();
    EXPECT_EQ(t.Status(task), how);
    EXPECT_EQ(dev.data_mover().packets_moved(), 0u);
    EXPECT_EQ(dev.xdma().h2c().total_bytes(), 0u);
    EXPECT_EQ(dev.xdma().c2h().total_bytes(), 64u);
  }
}

// --- AES end-to-end ---------------------------------------------------------

TEST(AesEndToEnd, EcbMatchesSoftwareAes) {
  SimDevice dev(DefaultConfig());
  dev.vfpga(0).LoadKernel(std::make_unique<services::AesEcbKernel>());
  CThread t(&dev, 0);

  const uint64_t kKeyLo = 0x6167717a7a767668ull;
  const uint64_t kKeyHi = 0x1122334455667788ull;
  t.SetCsr(kKeyLo, services::kAesCsrKeyLo);
  t.SetCsr(kKeyHi, services::kAesCsrKeyHi);

  constexpr uint64_t kBytes = 32 * 1024;
  const auto plain = RandomBytes(kBytes, 5);

  serving::ServingRequest req;
  req.kernel = "aes-ecb";
  req.payload = axi::BufferView(plain);
  std::vector<uint8_t> cipher;
  ASSERT_EQ(serving::ExecuteSync(&t, req, &cipher).status, OpStatus::kOk);

  services::Aes128 sw(kKeyLo, kKeyHi);
  EXPECT_EQ(cipher, sw.EncryptEcb(plain));
}

TEST(AesEndToEnd, CbcMatchesSoftwareAesWithIv) {
  SimDevice dev(DefaultConfig());
  dev.vfpga(0).LoadKernel(std::make_unique<services::AesCbcKernel>());
  CThread t(&dev, 0);

  const uint64_t kKeyLo = 0x0123456789abcdefull;
  const uint64_t kKeyHi = 0xfedcba9876543210ull;
  const uint64_t kIvLo = 0x0807060504030201ull;
  const uint64_t kIvHi = 0x100f0e0d0c0b0a09ull;
  t.SetCsr(kKeyLo, services::kAesCsrKeyLo);
  t.SetCsr(kKeyHi, services::kAesCsrKeyHi);
  t.SetCsr(kIvLo, services::kAesCsrIvLo);
  t.SetCsr(kIvHi, services::kAesCsrIvHi);

  constexpr uint64_t kBytes = 16 * 1024;
  const auto plain = RandomBytes(kBytes, 6);

  serving::ServingRequest req;
  req.kernel = "aes-cbc";
  req.payload = axi::BufferView(plain);
  std::vector<uint8_t> cipher;
  ASSERT_EQ(serving::ExecuteSync(&t, req, &cipher).status, OpStatus::kOk);

  std::array<uint8_t, 16> iv;
  for (int i = 0; i < 8; ++i) {
    iv[i] = static_cast<uint8_t>(kIvLo >> (8 * i));
    iv[8 + i] = static_cast<uint8_t>(kIvHi >> (8 * i));
  }
  services::Aes128 sw(kKeyLo, kKeyHi);
  EXPECT_EQ(cipher, sw.EncryptCbc(plain, iv));
}

TEST(AesEndToEnd, CbcMultiThreadedLanesAreIndependentAndCorrect) {
  SimDevice::Config cfg = DefaultConfig();
  cfg.vfpga.num_host_streams = 8;
  SimDevice dev(cfg);
  dev.vfpga(0).LoadKernel(std::make_unique<services::AesCbcKernel>());

  const uint64_t kKeyLo = 0x1111111122222222ull;
  const uint64_t kKeyHi = 0x3333333344444444ull;

  constexpr int kThreads = 4;
  constexpr uint64_t kBytes = 8 * 1024;
  std::vector<std::unique_ptr<CThread>> threads;
  std::vector<uint64_t> srcs, dsts;
  std::vector<std::vector<uint8_t>> plains;
  std::vector<CThread::Task> tasks;

  for (int i = 0; i < kThreads; ++i) {
    threads.push_back(std::make_unique<CThread>(&dev, 0));
  }
  threads[0]->SetCsr(kKeyLo, services::kAesCsrKeyLo);
  threads[0]->SetCsr(kKeyHi, services::kAesCsrKeyHi);

  for (int i = 0; i < kThreads; ++i) {
    srcs.push_back(threads[i]->GetMem({Alloc::kHpf, kBytes}));
    dsts.push_back(threads[i]->GetMem({Alloc::kHpf, kBytes}));
    plains.push_back(RandomBytes(kBytes, 100 + i));
    threads[i]->WriteBuffer(srcs[i], plains[i].data(), kBytes);
  }
  for (int i = 0; i < kThreads; ++i) {
    SgEntry sg;
    sg.local = {.src_addr = srcs[i], .src_len = kBytes, .dst_addr = dsts[i],
                .dst_len = kBytes};
    tasks.push_back(threads[i]->Invoke(Oper::kLocalTransfer, sg));
  }
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_TRUE(threads[i]->Wait(tasks[i]));
  }

  services::Aes128 sw(kKeyLo, kKeyHi);
  const std::array<uint8_t, 16> iv{};  // CSR IV regs are zero
  for (int i = 0; i < kThreads; ++i) {
    std::vector<uint8_t> cipher(kBytes);
    threads[i]->ReadBuffer(dsts[i], cipher.data(), kBytes);
    EXPECT_EQ(cipher, sw.EncryptCbc(plains[i], iv)) << "thread " << i;
  }
}

TEST(AesEndToEnd, CbcMultiThreadingImprovesThroughput) {
  // The Fig. 10(b) effect in miniature: 4 threads on one vFPGA finish 4
  // messages in much less than 4x the single-thread time.
  auto run = [](int threads_n) -> sim::TimePs {
    SimDevice::Config cfg = DefaultConfig();
    cfg.vfpga.num_host_streams = 8;
    SimDevice dev(cfg);
    dev.vfpga(0).LoadKernel(std::make_unique<services::AesCbcKernel>());
    constexpr uint64_t kBytes = 32 * 1024;
    std::vector<std::unique_ptr<CThread>> threads;
    std::vector<CThread::Task> tasks;
    for (int i = 0; i < threads_n; ++i) {
      threads.push_back(std::make_unique<CThread>(&dev, 0));
      const uint64_t src = threads[i]->GetMem({Alloc::kHpf, kBytes});
      const uint64_t dst = threads[i]->GetMem({Alloc::kHpf, kBytes});
      SgEntry sg;
      sg.local = {.src_addr = src, .src_len = kBytes, .dst_addr = dst, .dst_len = kBytes};
      tasks.push_back(threads[i]->Invoke(Oper::kLocalTransfer, sg));
    }
    for (int i = 0; i < threads_n; ++i) {
      threads[i]->Wait(tasks[i]);
    }
    return dev.engine().Now();
  };
  const sim::TimePs t1 = run(1);
  const sim::TimePs t4 = run(4);
  // 4x the work in < 1.5x the time (pipeline slots were idle before).
  EXPECT_LT(t4, t1 * 3 / 2);
}

// --- HLL end-to-end ----------------------------------------------------------

TEST(HllEndToEnd, EstimateWithinFivePercent) {
  SimDevice dev(DefaultConfig());
  dev.vfpga(0).LoadKernel(std::make_unique<services::HllKernel>());
  CThread t(&dev, 0);

  constexpr uint64_t kItems = 100'000;
  constexpr uint64_t kDistinct = 20'000;
  std::vector<uint64_t> items(kItems);
  sim::Rng rng(7);
  for (auto& x : items) {
    x = rng.NextBounded(kDistinct);
  }
  std::vector<uint8_t> bytes(kItems * 8);
  std::memcpy(bytes.data(), items.data(), bytes.size());

  serving::ServingRequest req;
  req.kernel = "hll";
  req.payload = axi::BufferView(std::move(bytes));
  req.response_bytes = 8;  // the envelope supports asymmetric responses
  std::vector<uint8_t> out;
  ASSERT_EQ(serving::ExecuteSync(&t, req, &out).status, OpStatus::kOk);

  double estimate = 0;
  std::memcpy(&estimate, out.data(), 8);
  EXPECT_NEAR(estimate, static_cast<double>(kDistinct), 0.05 * kDistinct);
}

TEST(CThreadTest, ShellStatusRegistersReflectLiveCounters) {
  SimDevice dev(DefaultConfig());
  dev.vfpga(0).LoadKernel(std::make_unique<services::PassthroughKernel>());
  CThread t(&dev, 0);
  auto& bar = dev.xdma().bar();
  EXPECT_EQ(bar.Read(SimDevice::kStatusH2cBytes), 0u);

  const uint64_t src = t.GetMem({Alloc::kHpf, 64 << 10});
  const uint64_t dst = t.GetMem({Alloc::kHpf, 64 << 10});
  SgEntry sg;
  sg.local = {.src_addr = src, .src_len = 64 << 10, .dst_addr = dst, .dst_len = 64 << 10};
  ASSERT_TRUE(t.InvokeSync(Oper::kLocalTransfer, sg));
  dev.engine().RunUntilIdle();

  EXPECT_GE(bar.Read(SimDevice::kStatusH2cBytes), 64u << 10);
  EXPECT_GE(bar.Read(SimDevice::kStatusC2hBytes), 64u << 10);
  EXPECT_GE(bar.Read(SimDevice::kStatusPacketsMoved), 32u);  // 16 + 16 packets
  EXPECT_GE(bar.Read(SimDevice::kStatusWritebacks), 1u);
  const uint32_t v0 = SimDevice::kStatusVfpgaBase;
  EXPECT_GT(bar.Read(v0 + SimDevice::kStatusTlbHits), 0u);
  EXPECT_EQ(bar.Read(SimDevice::kStatusPageFaults), 0u);
  // Counters are live: an interrupt shows up immediately.
  dev.vfpga(0).RaiseUserInterrupt(1);
  EXPECT_EQ(bar.Read(v0 + SimDevice::kStatusUserIrqs), 1u);
}

// --- Send queues ---------------------------------------------------------------

// A vFPGA's remote send-queue entries run over the RDMA service: a read
// fetches the peer's bytes and a write lands them at the peer, each at the
// entry's vaddr on both nodes. A shell without RDMA completes a remote entry
// with an error and moves nothing.
TEST(SendQueueTest, RemoteEntriesRunOverRdmaAndFailWithoutIt) {
  sim::Engine engine;
  net::Network network(&engine, {});
  constexpr uint32_t kIpA = 0x0A000001, kIpB = 0x0A000002;
  SimDevice::Config cfg = DefaultConfig(1);
  cfg.shell.services.push_back(fabric::Service::kRdma);
  cfg.ip = kIpA;
  SimDevice a(cfg, &network, &engine);
  cfg.ip = kIpB;
  SimDevice b(cfg, &network, &engine);
  CThread ta(&a, 0);
  CThread tb(&b, 0);
  const uint32_t qp_a = ta.CreateQp();
  const uint32_t qp_b = tb.CreateQp();
  ta.ConnectQp(qp_a, kIpB, qp_b);
  tb.ConnectQp(qp_b, kIpA, qp_a);

  constexpr uint64_t kBytes = 8 << 10;
  constexpr uint64_t kHalf = kBytes / 2;
  const uint64_t buf = ta.GetMem({Alloc::kHpf, kBytes});
  ASSERT_EQ(tb.GetMem({Alloc::kHpf, kBytes}), buf);  // one vaddr on both nodes
  const auto remote_bytes = RandomBytes(kHalf, 71);
  const auto local_bytes = RandomBytes(kHalf, 72);
  tb.WriteBuffer(buf, remote_bytes.data(), kHalf);
  ta.WriteBuffer(buf + kHalf, local_bytes.data(), kHalf);

  vfpga::SendQueueEntry read;
  read.vaddr = buf;
  read.bytes = kHalf;
  read.tid = 1;
  read.remote = true;
  read.qpn = qp_a;
  vfpga::SendQueueEntry write = read;
  write.is_write = true;
  write.vaddr = buf + kHalf;
  write.tid = 2;
  a.vfpga(0).PostSend(read);
  a.vfpga(0).PostSend(write);
  engine.RunUntilIdle();

  const auto& done = a.vfpga(0).completions();
  ASSERT_EQ(done.size(), 2u);
  for (const vfpga::CompletionEntry& c : done) {
    EXPECT_TRUE(c.ok) << "tid " << c.tid;
    EXPECT_EQ(c.is_write, c.tid == 2) << "tid " << c.tid;
    EXPECT_EQ(c.bytes, kHalf);
  }
  std::vector<uint8_t> got(kHalf);
  ta.ReadBuffer(buf, got.data(), kHalf);
  EXPECT_EQ(got, remote_bytes);  // the read fetched the peer's bytes
  tb.ReadBuffer(buf + kHalf, got.data(), kHalf);
  EXPECT_EQ(got, local_bytes);  // the write landed at the peer
  EXPECT_EQ(a.data_mover().packets_moved(), 0u);  // no local DMA stood in

  SimDevice plain(DefaultConfig(1));
  ASSERT_EQ(plain.roce(), nullptr);
  CThread tp(&plain, 0);
  vfpga::SendQueueEntry orphan = read;
  orphan.vaddr = tp.GetMem({Alloc::kHpf, kBytes});
  orphan.qpn = 0;
  plain.vfpga(0).PostSend(orphan);
  plain.engine().RunUntilIdle();
  ASSERT_EQ(plain.vfpga(0).completions().size(), 1u);
  EXPECT_FALSE(plain.vfpga(0).completions().front().ok);
  EXPECT_EQ(plain.data_mover().packets_moved(), 0u);
}

// --- Memory tiering service ----------------------------------------------------

TEST(TieringServiceTest, EnablingTieringAgainReplacesTheRunningService) {
  SimDevice dev(DefaultConfig(1));
  mmu::Tiering::Config cfg;
  cfg.policy = mmu::Tiering::Policy::kStatic;
  cfg.epoch_ps = sim::Microseconds(10);
  dev.EnableTiering(cfg);
  // The first service's next tick is pending when the second replaces it;
  // that tick must die with the service it belongs to.
  dev.engine().RunUntil(dev.engine().Now() + sim::Microseconds(15));
  mmu::Tiering& second = dev.EnableTiering(cfg);
  ASSERT_EQ(dev.tiering(), &second);
  dev.engine().RunUntil(dev.engine().Now() + 10 * cfg.epoch_ps + 1);
  second.Stop();
  dev.engine().RunUntilIdle();

  EXPECT_EQ(second.stats().value("tiering.epochs"), 10u);
  EXPECT_EQ(second.epoch(), 10u);
}

// --- Storage service (paper §10 future work) ----------------------------------

TEST(StorageTest, RoundTripThroughTheNvmeService) {
  SimDevice::Config cfg = DefaultConfig();
  cfg.shell.services.push_back(fabric::Service::kStorage);
  SimDevice dev(cfg);
  ASSERT_NE(dev.nvme(), nullptr);
  CThread t(&dev, 0);

  constexpr uint64_t kBytes = 256 << 10;
  const uint64_t buf = t.GetMem({Alloc::kHpf, kBytes});
  const auto data = RandomBytes(kBytes, 55);
  t.WriteBuffer(buf, data.data(), kBytes);

  // Persist to the drive, scribble over memory, read back from the drive.
  SgEntry sg;
  sg.storage = {.lba = 128, .vaddr = buf, .len = kBytes};
  ASSERT_TRUE(t.InvokeSync(Oper::kStorageWrite, sg));
  std::vector<uint8_t> zero(kBytes, 0);
  t.WriteBuffer(buf, zero.data(), kBytes);
  const sim::TimePs read_start = dev.engine().Now();
  ASSERT_TRUE(t.InvokeSync(Oper::kStorageRead, sg));
  const sim::TimePs read_time = dev.engine().Now() - read_start;

  std::vector<uint8_t> back(kBytes);
  t.ReadBuffer(buf, back.data(), kBytes);
  EXPECT_EQ(back, data);
  // Timing: at least the command latency (75 us) + transfer at 7 GB/s.
  EXPECT_GT(read_time, sim::Microseconds(75));
  EXPECT_LT(read_time, sim::Milliseconds(1));
  EXPECT_EQ(dev.nvme()->reads(), 1u);
  EXPECT_EQ(dev.nvme()->writes(), 1u);
}

TEST(StorageTest, DriveContentsSurviveShellReconfiguration) {
  SimDevice::Config cfg = DefaultConfig();
  cfg.shell.services.push_back(fabric::Service::kStorage);
  SimDevice dev(cfg);
  CThread t(&dev, 0);
  const uint64_t buf = t.GetMem({Alloc::kHpf, 4096});
  const auto data = RandomBytes(4096, 56);
  t.WriteBuffer(buf, data.data(), 4096);
  SgEntry sg;
  sg.storage = {.lba = 0, .vaddr = buf, .len = 4096};
  ASSERT_TRUE(t.InvokeSync(Oper::kStorageWrite, sg));

  // Reconfigure to a shell WITHOUT storage: the drive is unreachable...
  synth::BuildFlow flow(dev.floorplan());
  fabric::ShellConfigDesc no_storage = cfg.shell;
  no_storage.name = "no-storage";
  no_storage.services = {fabric::Service::kHostStream, fabric::Service::kCardMemory};
  auto out = flow.RunShellFlow(no_storage, {});
  dev.WriteBitstreamFile("/bit/nostore.bin", out.shell_bitstream);
  ASSERT_TRUE(CRcnfg(&dev).ReconfigureShell("/bit/nostore.bin").ok);
  EXPECT_EQ(dev.nvme(), nullptr);
  CThread t2(&dev, 0);
  const uint64_t buf2 = t2.GetMem({Alloc::kHpf, 4096});
  SgEntry sg2;
  sg2.storage = {.lba = 0, .vaddr = buf2, .len = 4096};
  EXPECT_FALSE(t2.InvokeSync(Oper::kStorageRead, sg2));

  // ...but its contents persist: reconfigure storage back and read.
  auto with = flow.RunShellFlow(cfg.shell, {});
  dev.WriteBitstreamFile("/bit/store.bin", with.shell_bitstream);
  ASSERT_TRUE(CRcnfg(&dev).ReconfigureShell("/bit/store.bin").ok);
  CThread t3(&dev, 0);
  const uint64_t buf3 = t3.GetMem({Alloc::kHpf, 4096});
  SgEntry sg3;
  sg3.storage = {.lba = 0, .vaddr = buf3, .len = 4096};
  ASSERT_TRUE(t3.InvokeSync(Oper::kStorageRead, sg3));
  std::vector<uint8_t> back(4096);
  t3.ReadBuffer(buf3, back.data(), 4096);
  EXPECT_EQ(back, data);
}

// --- Portability across parts (paper §3: U55C, U250, U280) -------------------

class PartSweep : public ::testing::TestWithParam<fabric::FpgaPart> {};

TEST_P(PartSweep, SameApplicationRunsOnEveryCard) {
  // The thin static layer makes designs portable: the identical application
  // code runs unchanged on HBM (U55C/U280) and DDR (U250) cards.
  SimDevice::Config cfg = DefaultConfig();
  cfg.part = GetParam();
  SimDevice dev(cfg);
  dev.vfpga(0).LoadKernel(std::make_unique<services::PassthroughKernel>());
  CThread t(&dev, 0);
  constexpr uint64_t kBytes = 128 << 10;
  const uint64_t src = t.GetMem({Alloc::kHpf, kBytes});
  const uint64_t dst = t.GetMem({Alloc::kHpf, kBytes});
  const auto data = RandomBytes(kBytes, 77);
  t.WriteBuffer(src, data.data(), kBytes);
  SgEntry sg;
  sg.local = {.src_addr = src, .src_len = kBytes, .dst_addr = dst, .dst_len = kBytes};
  ASSERT_TRUE(t.InvokeSync(Oper::kLocalTransfer, sg));
  // Card migration also works against the part's own memory geometry.
  SgEntry mig;
  mig.local.src_addr = src;
  mig.local.src_len = kBytes;
  ASSERT_TRUE(t.InvokeSync(Oper::kMigrateToCard, mig));
  std::vector<uint8_t> out(kBytes);
  t.ReadBuffer(dst, out.data(), kBytes);
  EXPECT_EQ(out, data);
  EXPECT_EQ(dev.card_memory().config().num_channels, GetParam().memory_channels);
}

INSTANTIATE_TEST_SUITE_P(Parts, PartSweep,
                         ::testing::Values(fabric::kAlveoU55C, fabric::kAlveoU250,
                                           fabric::kAlveoU280));

// --- Pointer chasing via hardware send queues (paper §7.1) -------------------

class PointerChaseTest : public ::testing::Test {
 protected:
  // Builds a linked list of `n` nodes at random-ish spots inside a buffer;
  // returns {head_vaddr, expected_sum}.
  std::pair<uint64_t, int64_t> BuildList(CThread& t, int n, uint64_t seed) {
    const uint64_t buf = t.GetMem({Alloc::kHpf, static_cast<uint64_t>(n) * 64});
    sim::Rng rng(seed);
    std::vector<uint64_t> order(n);
    for (int i = 0; i < n; ++i) {
      order[i] = buf + static_cast<uint64_t>(i) * 64;  // spaced nodes
    }
    // Shuffle traversal order so hops are not sequential.
    for (int i = n - 1; i > 0; --i) {
      std::swap(order[i], order[rng.NextBounded(static_cast<uint64_t>(i) + 1)]);
    }
    int64_t sum = 0;
    for (int i = 0; i < n; ++i) {
      const uint64_t next = (i + 1 < n) ? order[i + 1] : 0;
      const int64_t value = static_cast<int64_t>(rng.NextBounded(1000)) - 500;
      sum += value;
      uint8_t node[16];
      std::memcpy(node, &next, 8);
      std::memcpy(node + 8, &value, 8);
      t.WriteBuffer(order[i], node, 16);
    }
    return {order[0], sum};
  }
};

TEST_F(PointerChaseTest, TraversesAndSumsWithoutHostInvolvement) {
  SimDevice dev(DefaultConfig());
  dev.vfpga(0).LoadKernel(std::make_unique<services::PointerChaseKernel>());
  CThread t(&dev, 0);
  auto [head, expected_sum] = BuildList(t, 200, 42);

  uint64_t irq_value = 0;
  bool irq_seen = false;
  t.SetInterruptCallback([&](uint64_t v) {
    irq_value = v;
    irq_seen = true;
  });

  t.SetCsr(head, services::kChaseCsrHead);
  t.SetCsr(0, services::kChaseCsrMaxNodes);
  const uint64_t sends_before = dev.vfpga(0).sends_posted();
  t.SetCsr(1, services::kChaseCsrStart);  // doorbell
  dev.WaitFor([&] { return t.GetCsr(services::kChaseCsrDone) == 1; });
  dev.engine().RunUntilIdle();

  EXPECT_EQ(t.GetCsr(services::kChaseCsrVisited), 200u);
  EXPECT_EQ(static_cast<int64_t>(t.GetCsr(services::kChaseCsrSum)), expected_sum);
  // Every hop was a hardware-issued descriptor.
  EXPECT_EQ(dev.vfpga(0).sends_posted() - sends_before, 200u);
  EXPECT_TRUE(irq_seen);
  EXPECT_EQ(static_cast<int64_t>(irq_value), expected_sum);
}

TEST_F(PointerChaseTest, CycleGuardStopsAtMaxNodes) {
  SimDevice dev(DefaultConfig());
  dev.vfpga(0).LoadKernel(std::make_unique<services::PointerChaseKernel>());
  CThread t(&dev, 0);
  // Two nodes pointing at each other: an infinite cycle.
  const uint64_t buf = t.GetMem({Alloc::kHpf, 4096});
  uint8_t node[16];
  const uint64_t a = buf, b = buf + 64;
  int64_t one = 1;
  std::memcpy(node, &b, 8);
  std::memcpy(node + 8, &one, 8);
  t.WriteBuffer(a, node, 16);
  std::memcpy(node, &a, 8);
  t.WriteBuffer(b, node, 16);

  t.SetCsr(a, services::kChaseCsrHead);
  t.SetCsr(50, services::kChaseCsrMaxNodes);
  t.SetCsr(1, services::kChaseCsrStart);
  dev.WaitFor([&] { return t.GetCsr(services::kChaseCsrDone) == 1; });
  EXPECT_EQ(t.GetCsr(services::kChaseCsrVisited), 50u);
}

TEST_F(PointerChaseTest, EmptyListCompletesImmediately) {
  SimDevice dev(DefaultConfig());
  dev.vfpga(0).LoadKernel(std::make_unique<services::PointerChaseKernel>());
  CThread t(&dev, 0);
  t.SetCsr(0, services::kChaseCsrHead);
  t.SetCsr(1, services::kChaseCsrStart);
  dev.WaitFor([&] { return t.GetCsr(services::kChaseCsrDone) == 1; });
  EXPECT_EQ(t.GetCsr(services::kChaseCsrVisited), 0u);
}

// --- Reconfiguration ----------------------------------------------------------

class ReconfigTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cfg_ = DefaultConfig(2);
    dev_ = std::make_unique<SimDevice>(cfg_);
    dev_->RegisterKernelFactory("passthrough",
                                []() { return std::make_unique<services::PassthroughKernel>(); });
    dev_->RegisterKernelFactory("aes_ecb",
                                []() { return std::make_unique<services::AesEcbKernel>(); });

    // Build bitstreams with the real flows.
    synth::BuildFlow flow(dev_->floorplan());
    synth::Netlist passthrough{"passthrough", {synth::LibraryModule("passthrough")}};
    shell_out_ = flow.RunShellFlow(cfg_.shell, {passthrough});
    ASSERT_TRUE(shell_out_.ok) << shell_out_.error;
    dev_->WriteBitstreamFile("/bit/shell.bin", shell_out_.shell_bitstream);
    dev_->WriteBitstreamFile("/bit/passthrough.bin", shell_out_.app_bitstreams[0]);

    synth::Netlist aes{"aes_ecb", {synth::LibraryModule("aes_core")}};
    synth::BuildOutput aes_out = flow.RunAppFlow(aes, 1, shell_out_);
    ASSERT_TRUE(aes_out.ok) << aes_out.error;
    dev_->WriteBitstreamFile("/bit/aes.bin", aes_out.app_bitstreams[0]);
  }

  SimDevice::Config cfg_;
  std::unique_ptr<SimDevice> dev_;
  synth::BuildOutput shell_out_;
};

TEST_F(ReconfigTest, AppReconfigLoadsKernel) {
  CRcnfg rcnfg(dev_.get());
  auto result = rcnfg.ReconfigureApp("/bit/passthrough.bin", 0);
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_NE(dev_->vfpga(0).kernel(), nullptr);
  EXPECT_EQ(dev_->vfpga(0).kernel()->name(), "passthrough");
  EXPECT_GT(result.kernel_latency, 0u);
  EXPECT_GT(result.total_latency, result.kernel_latency);
}

// The device's reconfiguration is event-driven: on_done runs exactly once,
// from an event and never inside the call, for a good program and for a
// validation failure (one zero-delay event later) alike.
TEST_F(ReconfigTest, OnDoneRunsOnceFromAnEventNeverInsideTheCall) {
  for (const std::string path : {"/bit/passthrough.bin", "/bit/missing.bin"}) {
    const sim::TimePs start = dev_->engine().Now();
    std::vector<SimDevice::ReconfigResult> results;
    std::vector<sim::TimePs> at;
    dev_->ReconfigureApp(path, 0, [&](const SimDevice::ReconfigResult& r) {
      results.push_back(r);
      at.push_back(dev_->engine().Now());
    });
    EXPECT_TRUE(results.empty()) << path;
    dev_->engine().RunUntilIdle();
    ASSERT_EQ(results.size(), 1u) << path;
    if (path == "/bit/passthrough.bin") {
      EXPECT_TRUE(results[0].ok) << results[0].error;
      EXPECT_EQ(at[0], start + results[0].total_latency);
      EXPECT_NE(dev_->vfpga(0).kernel(), nullptr);
    } else {
      EXPECT_FALSE(results[0].ok);
      EXPECT_NE(results[0].error.find("no such bitstream"), std::string::npos);
      EXPECT_EQ(at[0], start);
    }
  }
}

TEST_F(ReconfigTest, AppLinkedAgainstOtherShellIsRejected) {
  // Build an app against a *different* shell config.
  fabric::ShellConfigDesc other = cfg_.shell;
  other.page_bytes = 1ull << 30;
  synth::BuildFlow flow(dev_->floorplan());
  auto other_shell = flow.RunShellFlow(other, {});
  ASSERT_TRUE(other_shell.ok) << other_shell.error;
  synth::Netlist aes{"aes_ecb", {synth::LibraryModule("aes_core")}};
  auto app = flow.RunAppFlow(aes, 0, other_shell);
  ASSERT_TRUE(app.ok);
  dev_->WriteBitstreamFile("/bit/wrong.bin", app.app_bitstreams[0]);

  CRcnfg rcnfg(dev_.get());
  auto result = rcnfg.ReconfigureApp("/bit/wrong.bin", 0);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("different shell"), std::string::npos);
}

TEST_F(ReconfigTest, ShellReconfigSwapsServicesAndResetsApps) {
  CRcnfg rcnfg(dev_.get());
  ASSERT_TRUE(rcnfg.ReconfigureApp("/bit/passthrough.bin", 0).ok);
  ASSERT_NE(dev_->vfpga(0).kernel(), nullptr);

  // New shell with 1 GB pages.
  fabric::ShellConfigDesc next = cfg_.shell;
  next.name = "hugepage-shell";
  next.page_bytes = 1ull << 30;
  synth::BuildFlow flow(dev_->floorplan());
  auto out = flow.RunShellFlow(next, {});
  ASSERT_TRUE(out.ok);
  dev_->WriteBitstreamFile("/bit/shell2.bin", out.shell_bitstream);

  auto result = rcnfg.ReconfigureShell("/bit/shell2.bin");
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(dev_->active_shell().page_bytes, 1ull << 30);
  EXPECT_EQ(dev_->vfpga(0).kernel(), nullptr);  // apps reset with the shell
  // Old-shell app no longer loads.
  EXPECT_FALSE(rcnfg.ReconfigureApp("/bit/passthrough.bin", 0).ok);
}

TEST_F(ReconfigTest, ShellReconfigOrderOfMagnitudeFasterThanVivado) {
  CRcnfg rcnfg(dev_.get());
  auto result = rcnfg.ReconfigureShell("/bit/shell.bin");
  ASSERT_TRUE(result.ok) << result.error;

  synth::BuildFlow flow(dev_->floorplan());
  const double vivado_s = flow.VivadoFullProgramSeconds(
      shell_out_.shell_bitstream.occupied + synth::LibraryModule("static_layer").res);
  EXPECT_GT(vivado_s * 1000.0, 10.0 * sim::ToMilliseconds(result.total_latency));
}

TEST(V1CompatTest, SingleStreamInterfaceLikeCoyoteV1) {
  // Coyote v1's interface limitation (Table 1: "Host, card, net (single)"):
  // the compat baseline exposes one host stream regardless of configuration.
  SimDevice::Config cfg = DefaultConfig();
  cfg.vfpga.num_host_streams = 8;
  cfg.v1_compat = true;
  SimDevice dev(cfg);
  EXPECT_EQ(dev.vfpga(0).config().num_host_streams, 1u);
  EXPECT_EQ(dev.vfpga(0).config().num_card_streams, 1u);
  // All cThreads collapse onto stream 0; transfers still work.
  dev.vfpga(0).LoadKernel(std::make_unique<services::PassthroughKernel>());
  CThread a(&dev, 0), b(&dev, 0);
  EXPECT_NE(a.ctid(), b.ctid());
  const uint64_t src = a.GetMem({Alloc::kHpf, 8192});
  const uint64_t dst = a.GetMem({Alloc::kHpf, 8192});
  const auto data = RandomBytes(8192, 88);
  a.WriteBuffer(src, data.data(), data.size());
  SgEntry sg;
  sg.local = {.src_addr = src, .src_len = 8192, .dst_addr = dst, .dst_len = 8192};
  ASSERT_TRUE(a.InvokeSync(Oper::kLocalTransfer, sg));
  std::vector<uint8_t> out(8192);
  a.ReadBuffer(dst, out.data(), out.size());
  EXPECT_EQ(out, data);
}

TEST_F(ReconfigTest, V1CompatCannotReconfigureShell) {
  SimDevice::Config cfg = DefaultConfig(2);
  cfg.v1_compat = true;
  SimDevice dev(cfg);
  dev.WriteBitstreamFile("/bit/shell.bin", shell_out_.shell_bitstream);
  auto result = CRcnfg(&dev).ReconfigureShell("/bit/shell.bin");
  EXPECT_FALSE(result.ok);
}

}  // namespace
}  // namespace runtime
}  // namespace coyote

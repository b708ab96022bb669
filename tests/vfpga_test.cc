// Unit tests for the vFPGA container: the generic application interface of
// paper Fig. 5 (streams, CSRs, interrupts, send/completion queues, kernel
// lifecycle).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/services/vector_kernels.h"
#include "src/sim/engine.h"
#include "src/sim/wire.h"
#include "src/vfpga/checkpoint.h"
#include "src/vfpga/kernel.h"
#include "src/vfpga/vfpga.h"

namespace coyote {
namespace vfpga {
namespace {

Vfpga::Config SmallConfig() {
  return Vfpga::Config{.num_host_streams = 2, .num_card_streams = 2, .num_net_streams = 1};
}

TEST(VfpgaTest, StreamsAreIndependentPerIndexAndKind) {
  sim::Engine engine;
  Vfpga region(&engine, 3, SmallConfig());
  EXPECT_EQ(region.id(), 3u);

  axi::StreamPacket p;
  p.data = {1};
  region.host_in(0).Push(std::move(p));
  EXPECT_EQ(region.host_in(0).size(), 1u);
  EXPECT_TRUE(region.host_in(1).Empty());
  EXPECT_TRUE(region.card_in(0).Empty());
  EXPECT_TRUE(region.net_in(0).Empty());
}

TEST(VfpgaTest, InterruptChannelRoutesToHandler) {
  sim::Engine engine;
  Vfpga region(&engine, 0, SmallConfig());
  std::vector<uint64_t> values;
  region.SetInterruptHandler([&](uint64_t v) { values.push_back(v); });
  region.RaiseUserInterrupt(1);
  region.RaiseUserInterrupt(0xFFFF);
  EXPECT_EQ(values, (std::vector<uint64_t>{1, 0xFFFF}));
  EXPECT_EQ(region.user_interrupts(), 2u);
  // No handler: counted, not fatal.
  region.SetInterruptHandler(nullptr);
  region.RaiseUserInterrupt(2);
  EXPECT_EQ(region.user_interrupts(), 3u);
}

TEST(VfpgaTest, SendQueueInvokesShellHandler) {
  sim::Engine engine;
  Vfpga region(&engine, 0, SmallConfig());
  SendQueueEntry seen;
  region.SetSendHandler([&](const SendQueueEntry& e) { seen = e; });
  SendQueueEntry entry;
  entry.is_write = true;
  entry.vaddr = 0x1000;
  entry.bytes = 512;
  entry.stream = 1;
  entry.tid = 7;
  entry.target = mmu::MemKind::kCard;
  region.PostSend(entry);
  EXPECT_TRUE(seen.is_write);
  EXPECT_EQ(seen.vaddr, 0x1000u);
  EXPECT_EQ(seen.bytes, 512u);
  EXPECT_EQ(seen.stream, 1u);
  EXPECT_EQ(seen.tid, 7u);
  EXPECT_EQ(seen.target, mmu::MemKind::kCard);
  EXPECT_EQ(region.sends_posted(), 1u);
}

TEST(VfpgaTest, CompletionQueueAccumulatesAndNotifies) {
  sim::Engine engine;
  Vfpga region(&engine, 0, SmallConfig());
  int notified = 0;
  region.SetCompletionHandler([&](const CompletionEntry& e) {
    ++notified;
    EXPECT_TRUE(e.ok);
  });
  region.PushCompletion({.is_write = false, .stream = 0, .tid = 1, .bytes = 64, .ok = true});
  region.PushCompletion({.is_write = true, .stream = 1, .tid = 2, .bytes = 128, .ok = true});
  EXPECT_EQ(notified, 2);
  ASSERT_EQ(region.completions().size(), 2u);
  EXPECT_EQ(region.completions()[0].bytes, 64u);
  EXPECT_TRUE(region.completions()[1].is_write);
}

TEST(VfpgaTest, KernelLifecycleAttachDetach) {
  sim::Engine engine;
  Vfpga region(&engine, 0, SmallConfig());
  EXPECT_EQ(region.kernel(), nullptr);

  region.LoadKernel(std::make_unique<services::PassthroughKernel>());
  ASSERT_NE(region.kernel(), nullptr);
  EXPECT_EQ(region.kernel()->name(), "passthrough");

  // The kernel wired itself to the streams: data flows.
  axi::StreamPacket p;
  p.data.assign(64, 0x42);
  region.host_in(0).Push(std::move(p));
  engine.RunUntilIdle();
  EXPECT_EQ(region.host_out(0).size(), 1u);

  // Reconfiguration: loading a new kernel detaches the old one.
  region.LoadKernel(std::make_unique<services::PassthroughKernel>());
  ASSERT_NE(region.kernel(), nullptr);
  region.UnloadKernel();
  EXPECT_EQ(region.kernel(), nullptr);

  // With no kernel, input queues just buffer (nothing consumes).
  axi::StreamPacket q;
  q.data.assign(64, 0x43);
  region.host_in(0).Push(std::move(q));
  engine.RunUntilIdle();
  EXPECT_EQ(region.host_in(0).size(), 1u);
}

TEST(VfpgaTest, CsrFileIsPerRegion) {
  sim::Engine engine;
  Vfpga a(&engine, 0, SmallConfig());
  Vfpga b(&engine, 1, SmallConfig());
  a.csr().Write(0, 0xAAAA);
  b.csr().Write(0, 0xBBBB);
  EXPECT_EQ(a.csr().Read(0), 0xAAAAu);
  EXPECT_EQ(b.csr().Read(0), 0xBBBBu);
}

// --- CYK1 checkpoints ---------------------------------------------------------

TEST(CheckpointTest, WriterReaderRoundtripPreservesEveryFieldType) {
  sim::wire::Writer w = ckpt::Begin(/*flags=*/0x0102);
  w.U8(0xAB);
  w.U16(0xBEEF);
  w.U32(0xDEADBEEFu);
  w.U64(0x0123456789ABCDEFull);
  w.Str("tenant-7");
  w.Bytes(std::vector<uint8_t>{1, 2, 3, 4, 5});
  const std::vector<uint8_t> blob = std::move(w).Seal();

  uint16_t flags = 0;
  sim::wire::Reader r = ckpt::Open(blob, &flags);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(flags, 0x0102);
  EXPECT_EQ(r.U8(), 0xAB);
  EXPECT_EQ(r.U16(), 0xBEEF);
  EXPECT_EQ(r.U32(), 0xDEADBEEFu);
  EXPECT_EQ(r.U64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.Str(), "tenant-7");
  EXPECT_EQ(r.Bytes(), (std::vector<uint8_t>{1, 2, 3, 4, 5}));
  EXPECT_TRUE(r.AtEnd());
}

TEST(CheckpointTest, CrcTrailerRejectsAnySingleBitFlip) {
  sim::wire::Writer w = ckpt::Begin();
  w.U64(42);
  w.Str("payload");
  const std::vector<uint8_t> blob = std::move(w).Seal();
  ASSERT_TRUE(ckpt::Open(blob).ok());

  // Flip one bit anywhere — header, payload, or the trailer itself — and the
  // whole checkpoint must be rejected before a single field is handed out.
  for (size_t i = 0; i < blob.size(); ++i) {
    std::vector<uint8_t> bad = blob;
    bad[i] ^= 0x10;
    EXPECT_FALSE(ckpt::Open(bad).ok()) << "byte " << i;
  }
}

TEST(CheckpointTest, TruncatedOrOverlongBlobIsRejected) {
  sim::wire::Writer w = ckpt::Begin();
  w.U32(7);
  const std::vector<uint8_t> blob = std::move(w).Seal();
  for (size_t len = 0; len < blob.size(); ++len) {
    const std::vector<uint8_t> cut(blob.begin(), blob.begin() + static_cast<long>(len));
    EXPECT_FALSE(ckpt::Open(cut).ok()) << "len " << len;
  }
  std::vector<uint8_t> padded = blob;
  padded.push_back(0);
  EXPECT_FALSE(ckpt::Open(padded).ok());
}

// Lowercase hex of a byte string, for comparing against a pinned layout.
std::string Hex(const std::vector<uint8_t>& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string s;
  for (const uint8_t b : bytes) {
    s += kDigits[b >> 4];
    s += kDigits[b & 0xF];
  }
  return s;
}

// The round trips here would pass a codec that moved a field on both sides;
// this pins every byte of a CYK1 blob: header with non-zero flags, a region
// snapshot, CRC trailer.
TEST(CheckpointTest, FlaggedRegionSnapshotGoldenBytes) {
  RegionSnapshot snap;
  snap.kernel_name = "passthrough";
  snap.csr = {{0, 0x11}, {3, 0x0102030405060708ull}};
  snap.beats_retired = 0xA0B0C0D0E0ull;
  snap.kernel_state = {0xDE, 0xAD, 0xBE, 0xEF};
  sim::wire::Writer w = ckpt::Begin(/*flags=*/0x0102);
  snap.AppendTo(&w);
  EXPECT_EQ(Hex(std::move(w).Seal()),
            "43594b3101000201"                // magic, version, flags
            "0b000000706173737468726f756768"  // kernel name
            "02000000"                        // CSR count
            "000000001100000000000000"        // CSR 0
            "030000000807060504030201"        // CSR 3
            "e0d0c0b0a0000000"                // beats retired
            "04000000deadbeef"                // kernel state
            "68abc483");                      // CRC-32
}

TEST(CheckpointTest, RegionSnapshotRoundtripsCsrsBeatsAndKernelState) {
  sim::Engine engine;
  Vfpga src(&engine, 0, SmallConfig());
  src.LoadKernel(std::make_unique<services::PassthroughKernel>());
  src.csr().Write(3, 0x33);
  src.csr().Write(0, 0x11);

  // Push data through so the kernel accumulates private state and the
  // region retires beats — the parts a reprogram would lose.
  axi::StreamPacket p;
  p.data.assign(64, 0x42);
  src.host_in(0).Push(std::move(p));
  engine.RunUntilIdle();
  ASSERT_GT(src.beats_retired(), 0u);

  const RegionSnapshot snap = CaptureRegion(src);
  EXPECT_EQ(snap.kernel_name, "passthrough");
  EXPECT_EQ(snap.beats_retired, src.beats_retired());

  // Embed into a CYK1 stream and read it back — the orchestrator's path.
  sim::wire::Writer w = ckpt::Begin();
  snap.AppendTo(&w);
  const std::vector<uint8_t> blob = std::move(w).Seal();
  sim::wire::Reader r = ckpt::Open(blob);
  ASSERT_TRUE(r.ok());
  RegionSnapshot parsed;
  ASSERT_TRUE(parsed.ParseFrom(&r));
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(parsed, snap);

  // Restore onto a fresh region with the same kernel resident: CSRs, beat
  // counter, and kernel state all carry over.
  Vfpga dst(&engine, 1, SmallConfig());
  dst.LoadKernel(std::make_unique<services::PassthroughKernel>());
  ASSERT_TRUE(RestoreRegion(dst, parsed));
  EXPECT_EQ(dst.csr().Read(0), 0x11u);
  EXPECT_EQ(dst.csr().Read(3), 0x33u);
  EXPECT_EQ(dst.beats_retired(), src.beats_retired());
  const RegionSnapshot again = CaptureRegion(dst);
  EXPECT_EQ(again, snap);
}

TEST(CheckpointTest, RestoreRejectsKernelMismatch) {
  sim::Engine engine;
  Vfpga src(&engine, 0, SmallConfig());
  src.LoadKernel(std::make_unique<services::PassthroughKernel>());
  const RegionSnapshot snap = CaptureRegion(src);

  Vfpga empty(&engine, 1, SmallConfig());
  EXPECT_FALSE(RestoreRegion(empty, snap));  // no kernel resident
}

TEST(CheckpointTest, SameStateProducesBitIdenticalBlobs) {
  auto capture = [] {
    sim::Engine engine;
    Vfpga region(&engine, 0, SmallConfig());
    region.LoadKernel(std::make_unique<services::PassthroughKernel>());
    region.csr().Write(5, 0x55);
    axi::StreamPacket p;
    p.data.assign(64, 0x17);
    region.host_in(0).Push(std::move(p));
    engine.RunUntilIdle();
    sim::wire::Writer w = ckpt::Begin();
    CaptureRegion(region).AppendTo(&w);
    return std::move(w).Seal();
  };
  EXPECT_EQ(capture(), capture());
}

}  // namespace
}  // namespace vfpga
}  // namespace coyote

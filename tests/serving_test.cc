// Serving fabric tests: the typed request envelope, the rpc framing it rides
// on, the Router's admission/fair-queue/batching/routing/failure policies in
// isolation, and the full ServingFabric under reconfiguration storms and node
// kills. The cluster-level contract under test: every submitted request gets
// exactly one typed completion — shed, error, aborted, expired, or ok — and
// the whole fabric is bit-identical across same-seed runs and 1/2/4/8-shard
// placements.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/net/rpc.h"
#include "src/runtime/cthread.h"
#include "src/runtime/device.h"
#include "src/runtime/router.h"
#include "src/runtime/serving.h"
#include "src/services/vector_kernels.h"
#include "src/sim/access_guard.h"
#include "src/sim/engine.h"
#include "src/sim/hash.h"
#include "src/sim/rng.h"
#include "src/sim/time.h"
#include "src/sim/wire.h"

namespace coyote {
namespace runtime {
namespace {

// --- rpc framing --------------------------------------------------------------

TEST(RpcFrameTest, RoundTripPreservesEveryFieldAndValidates) {
  sim::wire::Writer w;
  w.U8(7);
  w.U16(0xBEEF);
  w.U32(0xDEADBEEFu);
  w.U64(0x0123456789ABCDEFull);
  w.I32(-42);
  w.Str("serve.bin");
  const std::vector<uint8_t> frame = net::rpc::Seal(net::rpc::MsgType::kRequestBatch, w);

  sim::wire::Reader r = net::rpc::Open(frame, net::rpc::MsgType::kRequestBatch);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(net::rpc::Open(frame, net::rpc::MsgType::kCompletion).ok());  // type checked
  EXPECT_EQ(r.U8(), 7u);
  EXPECT_EQ(r.U16(), 0xBEEFu);
  EXPECT_EQ(r.U32(), 0xDEADBEEFu);
  EXPECT_EQ(r.U64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.I32(), -42);
  EXPECT_EQ(r.Str(), "serve.bin");
  EXPECT_TRUE(r.AtEnd());
}

TEST(RpcFrameTest, AnySingleByteFlipRejectsTheWholeFrame) {
  sim::wire::Writer w;
  w.U64(0x1122334455667788ull);
  w.Str("integrity");
  const std::vector<uint8_t> frame = net::rpc::Seal(net::rpc::MsgType::kCompletion, w);

  // The CRC trailer covers everything before it, so no single corrupted byte
  // — header, payload, or the trailer itself — may survive validation.
  for (size_t i = 0; i < frame.size(); ++i) {
    std::vector<uint8_t> bad = frame;
    bad[i] ^= 0x01;
    sim::wire::Reader r = net::rpc::Open(bad, net::rpc::MsgType::kCompletion);
    EXPECT_FALSE(r.ok()) << "byte " << i << " flip was accepted";
    EXPECT_FALSE(r.AtEnd()) << "byte " << i << " flip reads as a complete frame";
    EXPECT_EQ(r.U64(), 0u);  // reads after rejection yield zero
  }
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

// The round trips above would pass a codec that moved a field on both sides;
// these pin every byte of a CYRP frame, with the fields in the order
// ServingFabric writes them.
TEST(RpcFrameTest, RequestBatchGoldenBytes) {
  sim::wire::Writer w;
  w.U32(2);                      // node
  w.U32(1);                      // request count
  w.U64(0x1122334455667788ull);  // id
  w.U32(7);                      // tenant
  w.Str("aes.bin");              // kernel
  w.U64(512);                    // payload bytes
  w.U64(256);                    // response bytes
  w.U64(90'000'000);             // deadline
  w.U32(3);                      // priority
  w.I32(-1);                     // region hint
  w.U64(1'000'000);              // submitted at
  w.U32(0);                      // retries
  EXPECT_EQ(Hex(net::rpc::Seal(net::rpc::MsgType::kRequestBatch, w)),
            "43595250010001004b000000"                          // header
            "0200000001000000"                                  // node, count
            "887766554433221107000000"                          // id, tenant
            "070000006165732e62696e"                            // kernel
            "00020000000000000001000000000000"                  // payload, response bytes
            "804a5d0500000000"                                  // deadline
            "03000000ffffffff"                                  // priority, region hint
            "40420f000000000000000000"                          // submitted at, retries
            "ca1e406a");                                        // CRC-32
}

TEST(RpcFrameTest, CompletionGoldenBytes) {
  sim::wire::Writer w;
  w.U64(0x1122334455667788ull);  // id
  w.U32(7);                      // tenant
  w.U8(0);                       // status
  w.U32(2);                      // node
  w.I32(5);                      // region
  w.U64(1'000'000);              // submitted at
  w.U64(13'500'000);             // completed at
  w.U64(0xFEDCBA9876543210ull);  // response hash
  EXPECT_EQ(Hex(net::rpc::Seal(net::rpc::MsgType::kCompletion, w)),
            "43595250010002002d000000"          // header
            "88776655443322110700000000"        // id, tenant, status
            "0200000005000000"                  // node, region
            "40420f000000000060fecd0000000000"  // submitted at, completed at
            "1032547698badcfe"                  // response hash
            "a6e62e77");                        // CRC-32
}

TEST(RpcFrameTest, RegionStateGoldenBytes) {
  sim::wire::Writer w;
  w.U32(2);         // node
  w.U32(1);         // region
  w.Str("kv.bin");  // kernel; empty while quarantined
  EXPECT_EQ(Hex(net::rpc::Seal(net::rpc::MsgType::kRegionState, w)),
            "435952500100030012000000"  // header
            "0200000001000000"          // node, region
            "060000006b762e62696e"      // kernel
            "92e91144");                // CRC-32
}

// --- the request envelope -----------------------------------------------------

TEST(ServingEnvelopeTest, ExecuteSyncEchoesPayloadAndWitnessesIntegrity) {
  SimDevice::Config cfg;
  cfg.shell.name = "envelope-shell";
  cfg.shell.services = {fabric::Service::kHostStream, fabric::Service::kCardMemory};
  cfg.shell.num_vfpgas = 1;
  SimDevice dev(cfg);
  dev.vfpga(0).LoadKernel(std::make_unique<services::PassthroughKernel>());
  CThread t(&dev, 0);

  std::vector<uint8_t> data(777);
  sim::Rng rng(3);
  rng.FillBytes(data.data(), data.size());

  serving::ServingRequest req;
  req.id = 42;
  req.tenant = 9;
  req.kernel = "echo";
  req.payload = axi::BufferView(data);

  std::vector<uint8_t> out;
  const serving::ServingCompletion done = serving::ExecuteSync(&t, req, &out);
  EXPECT_EQ(done.status, OpStatus::kOk);
  EXPECT_EQ(done.id, 42u);
  EXPECT_EQ(done.tenant, 9u);
  EXPECT_EQ(out, data);
  // The echo kernel makes the completion an end-to-end integrity witness.
  EXPECT_EQ(done.response_hash, sim::FnvHash(data.data(), data.size()));
  EXPECT_GT(done.completed_at, 0u);
}

// --- the region executor ------------------------------------------------------

// One passthrough region and a 32-byte executor on it: small enough that a
// whole checkpoint section reads as a few lines of hex.
class RegionExecTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kBytes = 32;

  static SimDevice::Config OneRegion() {
    SimDevice::Config cfg;
    cfg.shell.name = "exec-shell";
    cfg.shell.services = {fabric::Service::kHostStream, fabric::Service::kCardMemory};
    cfg.shell.num_vfpgas = 1;
    return cfg;
  }

  RegionExecTest() : dev_(OneRegion()) {
    dev_.vfpga(0).LoadKernel(std::make_unique<services::PassthroughKernel>());
  }

  std::unique_ptr<serving::RegionExec> MakeExec() {
    return std::make_unique<serving::RegionExec>(
        &dev_, 0, /*ctid=*/-1, kBytes, [this](OpStatus status) { done_.push_back(status); });
  }

  // A 16-byte request whose payload is 0x00..0x0f.
  serving::ServingRequest Req() {
    std::vector<uint8_t> payload(16);
    for (size_t i = 0; i < payload.size(); ++i) {
      payload[i] = static_cast<uint8_t>(i);
    }
    payload_ = payload;
    serving::ServingRequest req;
    req.payload = axi::BufferView(std::move(payload));
    return req;
  }

  static std::string Section(serving::RegionExec* exec) {
    sim::wire::Writer w;
    exec->WriteSection(&w);
    return Hex(w.bytes());
  }

  SimDevice dev_;
  std::vector<uint8_t> payload_;
  std::vector<OpStatus> done_;
};

// Pins every byte of the executor's checkpoint section: a u32 op count, each
// op's kind and buffer-relative src/dst offsets and lengths, then each
// buffer's dirty segments (u32 count; u64 offset and length-prefixed bytes).
TEST_F(RegionExecTest, SectionGoldenBytesIdleInFlightAndHeld) {
  std::unique_ptr<serving::RegionExec> exec = MakeExec();
  // Idle: no op, and neither buffer has a written page.
  EXPECT_EQ(Section(exec.get()),
            "00000000"                          // no op
            "00000000"                          // src: no segment
            "00000000");                        // dst: no segment

  ASSERT_TRUE(exec->Start(Req()));
  // Let the doorbell land so the data mover holds the op's DMA.
  dev_.engine().RunUntil(dev_.engine().Now() + SimDevice::kInvokeLatency);
  ASSERT_TRUE(exec->busy());
  // In flight: the op rides along, and the staged payload is the src
  // buffer's one dirty segment.
  const std::string in_flight = Section(exec.get());
  EXPECT_EQ(in_flight,
            "01000000"                          // one op
            "01"                                // kLocalTransfer
            "00000000000000001000000000000000"  // src offset 0, 16 bytes
            "00000000000000001000000000000000"  // dst offset 0, 16 bytes
            "01000000"                          // src: one segment
            "000000000000000020000000"          // offset 0, 32 bytes
            "000102030405060708090a0b0c0d0e0f00000000000000000000000000000000"
            "00000000");                        // dst: no segment

  // Held: quiesce aborts the op and keeps it; the section does not change.
  exec->Quiesce(OpStatus::kAborted);
  EXPECT_FALSE(exec->busy());
  EXPECT_EQ(done_, std::vector<OpStatus>{OpStatus::kAborted});
  EXPECT_EQ(Section(exec.get()), in_flight);

  // The held op is re-issued exactly once, then runs to completion.
  EXPECT_TRUE(exec->Reissue());
  EXPECT_FALSE(exec->Reissue());
  EXPECT_TRUE(exec->busy());
  dev_.engine().RunUntilIdle();
  EXPECT_EQ(done_, (std::vector<OpStatus>{OpStatus::kAborted, OpStatus::kOk}));
  EXPECT_EQ(exec->ReadBack(payload_.size()), payload_);
  // Idle again: the retired op no longer rides along; both buffers ship.
  EXPECT_EQ(Section(exec.get()),
            "00000000"                          // no op
            "01000000"                          // src: one segment
            "000000000000000020000000"          // offset 0, 32 bytes
            "000102030405060708090a0b0c0d0e0f00000000000000000000000000000000"
            "01000000"                          // dst: one segment
            "000000000000000020000000"          // offset 0, 32 bytes
            "000102030405060708090a0b0c0d0e0f00000000000000000000000000000000");
}

// The executor holds at most one op, so a section that claims two is
// malformed: it is rejected whole, and nothing is held for Reissue.
TEST_F(RegionExecTest, ReadSectionRejectsTwoOps) {
  std::unique_ptr<serving::RegionExec> exec = MakeExec();
  sim::wire::Writer w;
  w.U32(2);  // two ops
  for (int i = 0; i < 2; ++i) {
    w.U8(static_cast<uint8_t>(Oper::kLocalTransfer));
    w.U64(0);   // src offset
    w.U64(16);  // src bytes
    w.U64(0);   // dst offset
    w.U64(16);  // dst bytes
  }
  w.U32(0);  // src: no segment
  w.U32(0);  // dst: no segment
  sim::wire::Reader r(w.bytes().data(), w.bytes().size());
  EXPECT_FALSE(exec->ReadSection(&r));
  EXPECT_FALSE(exec->Reissue());
  EXPECT_FALSE(exec->busy());
}

// The executor only ever writes a local transfer within its buffers and
// segments clipped to them, so a section with anything else is rejected
// whole and nothing is held: re-issuing it would DMA past a buffer or start
// an NVMe or RoCE op, and a segment past the end would write past a buffer.
// A range that ends exactly at the end of its buffer is accepted.
TEST_F(RegionExecTest, ReadSectionRejectsOutOfRangeInput) {
  struct Case {
    const char* what;
    Oper oper;
    uint64_t src_off, src_len, dst_off, dst_len;
    uint64_t seg_off, seg_len;  // one src segment
    bool accepted;
  };
  const Case cases[] = {
      {"storage op", Oper::kStorageWrite, 0, 16, 0, 16, 0, 16, false},
      {"remote op", Oper::kRemoteWrite, 0, 16, 0, 16, 0, 16, false},
      {"src range past the end", Oper::kLocalTransfer, kBytes - 8, 16, 0, 16, 0, 16, false},
      {"dst range at the end", Oper::kLocalTransfer, 0, 16, kBytes, 1, 0, 16, false},
      {"segment at the end", Oper::kLocalTransfer, 0, 16, 0, 16, kBytes, 1, false},
      {"segment past the end", Oper::kLocalTransfer, 0, 16, 0, 16, kBytes - 8, 16, false},
      {"everything up to the end", Oper::kLocalTransfer, 0, kBytes, 16, 16, 16, 16, true},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    std::unique_ptr<serving::RegionExec> exec = MakeExec();
    sim::wire::Writer w;
    w.U32(1);  // one op
    w.U8(static_cast<uint8_t>(c.oper));
    w.U64(c.src_off);
    w.U64(c.src_len);
    w.U64(c.dst_off);
    w.U64(c.dst_len);
    w.U32(1);  // src: one segment
    w.U64(c.seg_off);
    w.Bytes(std::vector<uint8_t>(c.seg_len, 0xab));
    w.U32(0);  // dst: no segment
    sim::wire::Reader r(w.bytes().data(), w.bytes().size());
    EXPECT_EQ(exec->ReadSection(&r), c.accepted);
    EXPECT_EQ(exec->Reissue(), c.accepted);
  }
}

// --- Router policies in isolation ---------------------------------------------

class RouterTest : public ::testing::Test {
 protected:
  struct CapturedBatch {
    uint32_t node = 0;
    std::vector<serving::ServingRequest> batch;
    sim::TimePs at = 0;  // when the router flushed it
  };

  void MakeRouter(Router::Config c, uint32_t num_nodes = 1) {
    c.num_nodes = num_nodes;
    router_ = std::make_unique<Router>(&engine_, c);
    router_->SetBatchSink([this](uint32_t node, std::vector<serving::ServingRequest> b) {
      batches_.push_back({node, std::move(b), engine_.Now()});
    });
    router_->SetCompletionObserver(
        [this](const serving::ServingCompletion& done) { completions_.push_back(done); });
    for (uint32_t n = 0; n < num_nodes; ++n) {
      router_->SetNodeResident(n, {"k.bin"});
    }
  }

  static serving::ServingRequest Req(uint32_t tenant, const std::string& kernel = "k.bin") {
    serving::ServingRequest r;
    r.tenant = tenant;
    r.kernel = kernel;
    r.payload = axi::BufferView(std::vector<uint8_t>(8, static_cast<uint8_t>(tenant)));
    return r;
  }

  void SubmitAt(sim::TimePs t, serving::ServingRequest r) {
    engine_.ScheduleAt(
        t, [this, r = std::move(r)]() mutable { router_->Submit(std::move(r)); });
  }

  // Delivers a node's kOk completion for inflight id `id` with the correct
  // integrity hash (the payload Req() builds for `tenant`).
  void CompleteAt(sim::TimePs t, uint64_t id, uint32_t tenant, uint32_t node) {
    engine_.ScheduleAt(t, [this, id, tenant, node]() {
      const std::vector<uint8_t> payload(8, static_cast<uint8_t>(tenant));
      serving::ServingCompletion c;
      c.id = id;
      c.tenant = tenant;
      c.status = OpStatus::kOk;
      c.node = node;
      c.region = 0;
      c.completed_at = engine_.Now();
      c.response_hash = sim::FnvHash(payload.data(), payload.size());
      router_->OnCompletion(c);
    });
  }

  uint64_t Count(const char* key) const { return router_->counters().value(key); }

  sim::Engine engine_;
  std::unique_ptr<Router> router_;
  std::vector<CapturedBatch> batches_;
  std::vector<serving::ServingCompletion> completions_;
};

TEST_F(RouterTest, AdmissionBucketShedsPastTheBurstBank) {
  Router::Config c;
  c.admit_period = sim::Microseconds(100);  // far slower than the burst below
  c.bucket_burst = 2;
  c.batch_max = 8;
  MakeRouter(c);

  for (int i = 0; i < 5; ++i) {
    SubmitAt(sim::Microseconds(1), Req(/*tenant=*/1));
  }
  engine_.RunUntil(sim::Microseconds(50));

  // 2 tokens banked -> 2 admitted and flushed, 3 shed at the front door.
  EXPECT_EQ(Count("router.offered"), 5u);
  EXPECT_EQ(Count("router.shed.bucket"), 3u);
  ASSERT_EQ(batches_.size(), 1u);
  EXPECT_EQ(batches_[0].batch.size(), 2u);
  ASSERT_EQ(completions_.size(), 3u);
  for (const auto& done : completions_) {
    EXPECT_EQ(done.status, OpStatus::kShed);
  }
}

TEST_F(RouterTest, FairQueueInterleavesTenantsRoundRobin) {
  Router::Config c;
  c.batch_max = 4;
  MakeRouter(c);

  // Tenant 1 floods three requests before tenant 2's single one arrives; the
  // round-robin drain (quantum 1) must not make tenant 2 wait out the flood.
  SubmitAt(sim::Microseconds(1), Req(1));
  SubmitAt(sim::Microseconds(1), Req(1));
  SubmitAt(sim::Microseconds(1), Req(1));
  SubmitAt(sim::Microseconds(1), Req(2));
  engine_.RunUntil(sim::Microseconds(10));

  ASSERT_EQ(batches_.size(), 1u);
  const auto& b = batches_[0].batch;
  ASSERT_EQ(b.size(), 4u);
  EXPECT_EQ(b[0].tenant, 1u);
  EXPECT_EQ(b[1].tenant, 2u);  // interleaved, not last
  EXPECT_EQ(b[2].tenant, 1u);
  EXPECT_EQ(b[3].tenant, 1u);
  for (const auto& r : b) {
    EXPECT_EQ(r.region_hint, 0);  // the router stamped the placement hint
  }
}

// One flush rule: the requests one dispatch pass routes to a node ship as one
// batch when the pass ends. The node's one region is busy from the first
// request on, and no request is held for it.
TEST_F(RouterTest, BusyNodeTakesEachDispatchPassAsOneBatchAtItsSubmitTime) {
  MakeRouter(Router::Config{});

  SubmitAt(sim::Microseconds(1), Req(1));  // never completes: the region stays busy
  for (int i = 0; i < 3; ++i) {
    SubmitAt(sim::Microseconds(5), Req(1));
  }
  for (int i = 0; i < 2; ++i) {
    SubmitAt(sim::Microseconds(7), Req(2));
  }
  engine_.RunUntil(sim::Microseconds(50));

  ASSERT_EQ(batches_.size(), 3u);
  EXPECT_EQ(batches_[0].batch.size(), 1u);
  EXPECT_EQ(batches_[0].at, sim::Microseconds(1));
  EXPECT_EQ(batches_[1].batch.size(), 3u);
  EXPECT_EQ(batches_[1].at, sim::Microseconds(5));
  EXPECT_EQ(batches_[2].batch.size(), 2u);
  EXPECT_EQ(batches_[2].at, sim::Microseconds(7));
  EXPECT_EQ(Count("router.flush.size"), 0u);
  EXPECT_EQ(Count("router.batches"), 3u);
}

// batch_max caps a frame, not a pass: a larger burst ships as several frames
// at the instant it arrives.
TEST_F(RouterTest, BurstPastBatchMaxSplitsIntoCappedFramesAtOnce) {
  Router::Config c;
  c.batch_max = 3;
  MakeRouter(c);

  for (int i = 0; i < 8; ++i) {
    SubmitAt(sim::Microseconds(2), Req(1));
  }
  engine_.RunUntil(sim::Microseconds(50));

  ASSERT_EQ(batches_.size(), 3u);
  const size_t sizes[] = {3, 3, 2};
  for (size_t i = 0; i < batches_.size(); ++i) {
    EXPECT_EQ(batches_[i].batch.size(), sizes[i]);
    EXPECT_EQ(batches_[i].at, sim::Microseconds(2));
  }
  EXPECT_EQ(Count("router.flush.size"), 2u);
  EXPECT_EQ(Count("router.batches"), 3u);
}

// Nothing waits at the router for a region to free, so a completion that
// finds the tenant queues empty has nothing to ship.
TEST_F(RouterTest, CompletionShipsNoBatch) {
  MakeRouter(Router::Config{});

  SubmitAt(sim::Microseconds(1), Req(1));
  SubmitAt(sim::Microseconds(1), Req(1));
  CompleteAt(sim::Microseconds(5), /*id=*/1, /*tenant=*/1, /*node=*/0);
  engine_.RunUntil(sim::Microseconds(4));
  EXPECT_EQ(Count("router.batches"), 1u);
  engine_.RunUntil(sim::Microseconds(50));

  EXPECT_EQ(Count("router.batches"), 1u);
  ASSERT_EQ(batches_.size(), 1u);
  EXPECT_EQ(batches_[0].batch.size(), 2u);
  ASSERT_EQ(completions_.size(), 1u);
  EXPECT_EQ(completions_[0].status, OpStatus::kOk);
  EXPECT_FALSE(router_->Settled());  // id 2 is still in flight
}

// node_window is the one hold left at the router: a request past it waits in
// its tenant queue and ships at the completion that frees a slot.
TEST_F(RouterTest, FullNodeWindowHoldsARequestUntilACompletionFreesASlot) {
  Router::Config c;
  c.node_window = 2;
  MakeRouter(c);

  for (int i = 0; i < 3; ++i) {
    SubmitAt(sim::Microseconds(1), Req(1));
  }
  engine_.RunUntil(sim::Microseconds(4));
  ASSERT_EQ(batches_.size(), 1u);
  EXPECT_EQ(batches_[0].batch.size(), 2u);

  CompleteAt(sim::Microseconds(5), /*id=*/1, /*tenant=*/1, /*node=*/0);
  engine_.RunUntil(sim::Microseconds(50));
  ASSERT_EQ(batches_.size(), 2u);
  ASSERT_EQ(batches_[1].batch.size(), 1u);
  EXPECT_EQ(batches_[1].batch[0].id, 3u);
  EXPECT_EQ(batches_[1].at, sim::Microseconds(5));
  EXPECT_EQ(Count("router.shed.queue_full"), 0u);
}

TEST_F(RouterTest, FullTenantQueueShedsTyped) {
  Router::Config c;
  c.tenant_queue_cap = 2;
  MakeRouter(c);

  // The dispatch pass runs after every submission at this instant, so tenant
  // 1's queue holds two and sheds three; tenant 2 has its own cap.
  for (int i = 0; i < 5; ++i) {
    SubmitAt(sim::Microseconds(1), Req(1));
  }
  SubmitAt(sim::Microseconds(1), Req(2));
  engine_.RunUntil(sim::Microseconds(10));

  EXPECT_EQ(Count("router.shed.queue_full"), 3u);
  ASSERT_EQ(completions_.size(), 3u);
  for (const auto& done : completions_) {
    EXPECT_EQ(done.status, OpStatus::kShed);
    EXPECT_EQ(done.tenant, 1u);
  }
  ASSERT_EQ(batches_.size(), 1u);
  EXPECT_EQ(batches_[0].batch.size(), 3u);
}

TEST_F(RouterTest, NoResidentKernelShedsTyped) {
  MakeRouter(Router::Config{});
  SubmitAt(sim::Microseconds(1), Req(1, "missing.bin"));
  engine_.RunUntil(sim::Microseconds(10));

  EXPECT_EQ(Count("router.shed.no_kernel"), 1u);
  ASSERT_EQ(completions_.size(), 1u);
  EXPECT_EQ(completions_[0].status, OpStatus::kShed);
  EXPECT_TRUE(router_->Settled());
}

TEST_F(RouterTest, ExpiredDeadlineCompletesTypedBeforeRouting) {
  MakeRouter(Router::Config{});
  serving::ServingRequest r = Req(1);
  r.deadline = 1;  // already past by submission time
  SubmitAt(sim::Microseconds(1), std::move(r));
  engine_.RunUntil(sim::Microseconds(10));

  EXPECT_EQ(Count("router.expired"), 1u);
  ASSERT_EQ(completions_.size(), 1u);
  EXPECT_EQ(completions_[0].status, OpStatus::kDeadlineExceeded);
  EXPECT_TRUE(batches_.empty());
}

// Detection itself is the cluster's job (cluster_test); here the death
// arrives the way the detector delivers it.
TEST_F(RouterTest, NodeDeathEvacuatesInflightAndReroutes) {
  MakeRouter(Router::Config{}, /*num_nodes=*/2);

  // One request lands on node 0 (tie-break: lowest id) and never completes.
  SubmitAt(sim::Microseconds(1), Req(1));
  engine_.ScheduleAt(sim::Microseconds(151), [this]() { router_->MarkNodeDead(0); });
  // The rerouted copy completes on node 1.
  CompleteAt(sim::Microseconds(200), /*id=*/1, /*tenant=*/1, /*node=*/1);
  engine_.RunUntil(sim::Microseconds(300));

  EXPECT_FALSE(router_->node_alive(0));
  EXPECT_TRUE(router_->node_alive(1));
  EXPECT_EQ(Count("router.node_dead"), 1u);
  EXPECT_EQ(Count("router.evacuated"), 1u);
  ASSERT_EQ(batches_.size(), 2u);
  EXPECT_EQ(batches_[0].node, 0u);
  EXPECT_EQ(batches_[1].node, 1u);
  EXPECT_EQ(batches_[1].batch[0].id, 1u);       // the same request, rerouted
  EXPECT_EQ(batches_[1].batch[0].retries, 1u);  // one death survived
  ASSERT_EQ(completions_.size(), 1u);
  EXPECT_EQ(completions_[0].status, OpStatus::kOk);
  EXPECT_EQ(Count("router.integrity.ok"), 1u);
  EXPECT_EQ(Count("router.integrity.mismatch"), 0u);
  EXPECT_TRUE(router_->Settled());
}

TEST_F(RouterTest, RetriesAreCappedThenTheRequestSheds) {
  Router::Config c;
  c.retry_max = 1;
  MakeRouter(c, /*num_nodes=*/2);

  SubmitAt(sim::Microseconds(1), Req(1));
  engine_.ScheduleAt(sim::Microseconds(10), [this]() { router_->MarkNodeDead(0); });
  engine_.ScheduleAt(sim::Microseconds(20), [this]() { router_->MarkNodeDead(1); });
  engine_.RunUntil(sim::Microseconds(100));

  EXPECT_EQ(Count("router.node_dead"), 2u);
  EXPECT_EQ(Count("router.evacuated"), 1u);      // first death reroutes...
  EXPECT_EQ(Count("router.shed.retries"), 1u);   // ...second hits the cap
  ASSERT_EQ(completions_.size(), 1u);
  EXPECT_EQ(completions_[0].status, OpStatus::kShed);
  EXPECT_TRUE(router_->Settled());
}

TEST_F(RouterTest, StaleCompletionsAreCountedAndDropped) {
  MakeRouter(Router::Config{});
  CompleteAt(sim::Microseconds(1), /*id=*/999, /*tenant=*/1, /*node=*/0);
  engine_.RunUntil(sim::Microseconds(10));

  EXPECT_EQ(Count("router.stale_completion"), 1u);
  EXPECT_EQ(router_->completions(), 0u);
}

// --- the full fabric ----------------------------------------------------------

ServingFabric::Config QuietFabric(uint32_t num_nodes, uint32_t regions_per_node) {
  ServingFabric::Config c;
  c.num_nodes = num_nodes;
  c.regions_per_node = regions_per_node;
  c.seed = 0x5E11AB1Eull;
  c.kernel_factory = [] { return std::make_unique<services::PassthroughKernel>(); };
  c.loadgen.duration = 0;  // no open-loop traffic; tests drive SubmitAt
  return c;
}

serving::ServingRequest FabricReq(uint32_t tenant, uint64_t bytes = 64) {
  serving::ServingRequest r;
  r.tenant = tenant;
  r.kernel = "serve.bin";
  std::vector<uint8_t> p(bytes);
  sim::Rng rng(1000 + tenant);
  rng.FillBytes(p.data(), bytes);
  r.payload = axi::BufferView(std::move(p));
  return r;
}

uint64_t StatusSum(const sim::CounterSet& ctr) {
  return ctr.value("router.done.ok") + ctr.value("router.done.error") +
         ctr.value("router.done.aborted") + ctr.value("router.done.deadline") +
         ctr.value("router.done.shed");
}

// The ISSUE's headline coverage case: a batched request whose target region
// gets quarantined mid-batch must complete with a typed error — never hang.
TEST(ServingFabricTest, QuarantineMidBatchCompletesTypedErrorNotHang) {
  ServingFabric::Config c = QuietFabric(/*num_nodes=*/1, /*regions_per_node=*/1);
  c.router.batch_max = 8;
  // The storm quarantines the fabric's only region from 30us to 130us.
  c.storms = {{sim::Microseconds(30), 0, 0, sim::Microseconds(100)}};
  // Background open-loop traffic keeps the fabric live through every phase
  // below (Run settles — and stops firing scheduled submissions — the moment
  // the router drains, so the probes need company until the last one lands).
  c.loadgen.duration = sim::Microseconds(250);
  c.loadgen.session_gap = sim::Microseconds(10);
  c.loadgen.requests_per_session_max = 2;
  c.loadgen.think_gap = sim::Microseconds(2);
  c.loadgen.payload_bytes_min = 64;
  c.loadgen.payload_bytes_max = 128;
  c.loadgen.active_tenants = 2;
  c.loadgen.tenant_universe = 4;
  ServingFabric fab(c);

  // Before the storm: should flow. An 8-wide batch right at storm onset and
  // four requests landing mid-quarantine: must come back typed. After the
  // storm: the region reset makes the kernel resident again -> ok.
  for (int i = 0; i < 4; ++i) {
    fab.SubmitAt(sim::Microseconds(20), FabricReq(1));
  }
  for (int i = 0; i < 8; ++i) {
    fab.SubmitAt(sim::Microseconds(29), FabricReq(2));
  }
  for (int i = 0; i < 4; ++i) {
    fab.SubmitAt(sim::Microseconds(60), FabricReq(3));
  }
  for (int i = 0; i < 2; ++i) {
    fab.SubmitAt(sim::Microseconds(200), FabricReq(4));
  }

  ASSERT_TRUE(fab.Run(sim::Milliseconds(2), sim::Microseconds(50)));
  const sim::CounterSet& ctr = fab.router().counters();
  EXPECT_GE(ctr.value("router.offered"), 18u);  // 18 probes + loadgen traffic
  // The cluster contract: exactly one completion per offered request, and
  // every one of them carries a typed terminal status — nothing hangs.
  EXPECT_EQ(fab.router().completions(), ctr.value("router.offered"));
  EXPECT_EQ(StatusSum(ctr), fab.router().completions());
  // The 8-wide batch at storm onset comes back aborted or failed fast at the
  // node (no eligible resident region). The node then reports the
  // quarantine, so the four mid-quarantine probes shed typed at the router:
  // no alive node has the kernel resident.
  EXPECT_GE(ctr.value("router.done.error") + ctr.value("router.done.aborted"), 4u);
  EXPECT_GE(ctr.value("router.shed.no_kernel"), 4u);
  // The post-storm pair proves the region recovered and serves again.
  EXPECT_GE(ctr.value("router.done.ok"), 2u);
  EXPECT_EQ(ctr.value("router.integrity.mismatch"), 0u);
  EXPECT_EQ(fab.frame_errors(), 0u);
  EXPECT_EQ(fab.storms_begun(), 1u);
}

// A storm's quarantine reaches the router in a region-state frame: while it
// lasts, requests route around the region instead of failing at the node,
// and the reset puts the region back in the routing table.
TEST(ServingFabricTest, QuarantinedRegionLeavesTheRoutingTableUntilItsReset) {
  ServingFabric::Config c = QuietFabric(/*num_nodes=*/2, /*regions_per_node=*/1);
  c.storms = {{sim::Microseconds(10), 0, 0, sim::Microseconds(50)}};
  ServingFabric fab(c);
  std::vector<serving::ServingCompletion> done;
  fab.router().SetCompletionObserver(
      [&done](const serving::ServingCompletion& d) { done.push_back(d); });
  // Both nodes idle each time: least loaded ties, so the lowest id would win.
  fab.SubmitAt(sim::Microseconds(20), FabricReq(/*tenant=*/1));  // quarantined
  fab.SubmitAt(sim::Microseconds(80), FabricReq(/*tenant=*/2));  // after reset

  // One 100 us window holds both submissions before the fabric settles.
  ASSERT_TRUE(fab.Run(sim::Milliseconds(1), sim::Microseconds(100)));
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0].status, OpStatus::kOk);
  EXPECT_EQ(done[0].node, 1u);
  EXPECT_EQ(done[1].status, OpStatus::kOk);
  EXPECT_EQ(done[1].node, 0u);
  EXPECT_EQ(fab.scheduler(0).stats().value("sched.failed.no_resident"), 0u);
  EXPECT_EQ(fab.frame_errors(), 0u);
}

// A node kill under open-loop load: the detector declares the death, the
// router evacuates, and the fabric still settles with one typed completion per offered request.
TEST(ServingFabricTest, NodeKillUnderLoadSettlesWithTypedCompletions) {
  ServingFabric::Config c = QuietFabric(/*num_nodes=*/2, /*regions_per_node=*/1);
  c.router.heartbeat_window = sim::Microseconds(250);
  c.loadgen.duration = sim::Microseconds(400);
  c.loadgen.session_gap = sim::Microseconds(10);
  c.loadgen.requests_per_session_max = 3;
  c.loadgen.think_gap = sim::Microseconds(2);
  c.loadgen.payload_bytes_min = 64;
  c.loadgen.payload_bytes_max = 128;
  c.loadgen.active_tenants = 4;
  c.loadgen.tenant_universe = 8;
  c.kills = {{sim::Microseconds(150), 1}};
  ServingFabric fab(c);

  ASSERT_TRUE(fab.Run(sim::Milliseconds(4), sim::Microseconds(100)));
  const sim::CounterSet& ctr = fab.router().counters();
  EXPECT_GT(ctr.value("router.offered"), 0u);
  EXPECT_EQ(fab.router().completions(), ctr.value("router.offered"));
  EXPECT_EQ(StatusSum(ctr), fab.router().completions());
  EXPECT_EQ(ctr.value("router.node_dead"), 1u);
  EXPECT_FALSE(fab.router().node_alive(1));
  EXPECT_GT(ctr.value("router.done.ok"), 0u);  // the survivor kept serving
  EXPECT_EQ(ctr.value("router.integrity.mismatch"), 0u);
  EXPECT_EQ(fab.frame_errors(), 0u);
}

// A payload larger than the executor's staging buffers fails typed at the
// node and frees the region at once: the next request on it runs.
TEST(ServingFabricTest, OversizedPayloadCompletesErrorOnceAndFreesTheRegion) {
  ServingFabric fab(QuietFabric(/*num_nodes=*/1, /*regions_per_node=*/1));
  std::vector<serving::ServingCompletion> done;
  fab.router().SetCompletionObserver(
      [&done](const serving::ServingCompletion& c) { done.push_back(c); });
  fab.SubmitAt(sim::Microseconds(10), FabricReq(/*tenant=*/1, /*bytes=*/5000));
  fab.SubmitAt(sim::Microseconds(11), FabricReq(/*tenant=*/2));

  ASSERT_TRUE(fab.Run(sim::Milliseconds(1), sim::Microseconds(50)));
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0].tenant, 1u);
  EXPECT_EQ(done[0].status, OpStatus::kError);
  EXPECT_EQ(done[1].tenant, 2u);
  EXPECT_EQ(done[1].status, OpStatus::kOk);
  EXPECT_EQ(done[1].region, 0);
  EXPECT_EQ(fab.router().completions(), 2u);
  EXPECT_EQ(fab.router().counters().value("router.integrity.mismatch"), 0u);
}

// A request whose deadline is still ahead when the router dispatches it, but
// passes while its batch frame is on the wire, expires on the node: it
// completes typed from there, without a region, and the router's own expiry
// check never fires.
TEST(ServingFabricTest, DeadlinePassedInFlightCompletesFromTheNode) {
  ServingFabric fab(QuietFabric(/*num_nodes=*/1, /*regions_per_node=*/1));
  std::vector<serving::ServingCompletion> done;
  fab.router().SetCompletionObserver(
      [&done](const serving::ServingCompletion& c) { done.push_back(c); });
  serving::ServingRequest req = FabricReq(/*tenant=*/1);
  // The idle node takes it at 1 us; the frame reaches the node after 1.5 us.
  req.deadline = sim::Nanoseconds(1500);
  fab.SubmitAt(sim::Microseconds(1), std::move(req));

  ASSERT_TRUE(fab.Run(sim::Milliseconds(1), sim::Microseconds(50)));
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].status, OpStatus::kDeadlineExceeded);
  EXPECT_EQ(done[0].node, 0u);
  EXPECT_EQ(done[0].region, -1);
  EXPECT_EQ(done[0].completed_at, 1'612'560u);
  EXPECT_EQ(fab.router().counters().value("router.expired"), 0u);
  EXPECT_EQ(fab.router().counters().value("router.done.deadline"), 1u);
}

// Same seed, shard placements {1, 2, 4, 8}: the fabric fingerprint — every
// completion folded in delivery order plus all counters — is bit-identical.
TEST(ServingFabricTest, SameSeedFingerprintIsShardPlacementInvariant) {
  auto run = [](uint32_t num_shards) -> uint64_t {
    ServingFabric::Config c;
    c.num_nodes = 3;
    c.regions_per_node = 2;
    c.num_shards = num_shards;
    c.seed = 0xFAB51DEull;
    c.kernel_names = {"kv.bin", "vec.bin"};
    c.kernel_factory = [] { return std::make_unique<services::PassthroughKernel>(); };
    c.router.batch_max = 4;
    c.router.heartbeat_window = sim::Microseconds(250);
    c.loadgen.duration = sim::Microseconds(400);
    c.loadgen.session_gap = sim::Microseconds(8);
    c.loadgen.requests_per_session_max = 3;
    c.loadgen.think_gap = sim::Microseconds(2);
    c.loadgen.payload_bytes_min = 64;
    c.loadgen.payload_bytes_max = 256;
    c.loadgen.active_tenants = 4;
    c.loadgen.tenant_universe = 12;
    c.loadgen.churn_period = sim::Microseconds(200);
    c.loadgen.burst_permille = 50;
    c.loadgen.burst_size = 4;
    // Chaos in the mix so the invariance covers the failure paths too.
    c.storms = {{sim::Microseconds(100), 0, 0, sim::Microseconds(80)}};
    c.kills = {{sim::Microseconds(200), 2}};
    ServingFabric fab(c);
    EXPECT_TRUE(fab.Run(sim::Milliseconds(4), sim::Microseconds(100)))
        << num_shards << " shards did not settle";
    return fab.Fingerprint();
  };

  const uint64_t golden = run(1);
  // Pinned, not only compared run against run: a change that shifts every
  // placement the same way still fails here.
  EXPECT_EQ(golden, 0x7e96aee69150ff15ull);
  EXPECT_EQ(run(1), golden);  // same-seed rerun
  EXPECT_EQ(run(2), golden);
  EXPECT_EQ(run(4), golden);
  EXPECT_EQ(run(8), golden);
}

// Guard-armed builds replay every scenario above under the deterministic race
// detector; any same-epoch cross-actor conflict recorded while this binary
// ran is a real reentrancy bug in the serving tier.
TEST(ServingFabricTest, NoAccessGuardConflictsAcrossServingTests) {
  for (const auto& conflict : sim::AccessLedger::Global().conflicts()) {
    ADD_FAILURE() << conflict.ToString();
  }
}

}  // namespace
}  // namespace runtime
}  // namespace coyote

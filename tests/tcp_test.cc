// Unit tests for the TCP/IP offload stack.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/memsys/card_memory.h"
#include "src/memsys/gpu_memory.h"
#include "src/memsys/host_memory.h"
#include "src/mmu/svm.h"
#include "src/net/network.h"
#include "src/net/packets.h"
#include "src/net/tcp.h"
#include "src/sim/engine.h"
#include "src/sim/fault.h"
#include "src/sim/rng.h"

namespace coyote {
namespace net {
namespace {

constexpr uint64_t kPage = 2ull << 20;

TEST(TcpSegmentTest, BuildParseRoundTrip) {
  TcpSegmentMeta meta;
  meta.src_ip = 0x0A000001;
  meta.dst_ip = 0x0A000002;
  meta.src_port = 0xC001;
  meta.dst_port = 5001;
  meta.seq = 1'000'000;
  meta.ack = 2'000'000;
  meta.flags = kTcpAck | kTcpSyn;
  meta.window = 256;
  std::vector<uint8_t> payload{9, 8, 7};
  auto parsed = ParseTcpSegment(BuildTcpSegment(meta, payload));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->meta.src_port, meta.src_port);
  EXPECT_EQ(parsed->meta.dst_port, meta.dst_port);
  EXPECT_EQ(parsed->meta.seq, meta.seq);
  EXPECT_EQ(parsed->meta.ack, meta.ack);
  EXPECT_EQ(parsed->meta.flags, meta.flags);
  EXPECT_EQ(parsed->meta.window, meta.window);
  EXPECT_EQ(parsed->payload, payload);
}

TEST(TcpSegmentTest, RejectsNonTcp) {
  EXPECT_FALSE(ParseTcpSegment({}).has_value());
  // A RoCE (UDP) frame must not parse as TCP.
  FrameMeta roce;
  roce.opcode = Opcode::kSendOnly;
  EXPECT_FALSE(ParseTcpSegment(BuildFrame(roce, {})).has_value());
  // And vice versa: a TCP segment must not parse as RoCE.
  TcpSegmentMeta tcp;
  EXPECT_FALSE(ParseFrame(BuildTcpSegment(tcp, {})).has_value());
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

// The round trip above would pass a codec that moved a field on both sides;
// this pins every byte of the segment layout.
TEST(TcpSegmentTest, SegmentGoldenBytes) {
  TcpSegmentMeta meta;
  meta.src_ip = 0x0A000001;
  meta.dst_ip = 0x0A000002;
  meta.src_port = 0xC001;
  meta.dst_port = 5001;
  meta.seq = 0x01020304;
  meta.ack = 0xA0B0C0D0u;
  meta.flags = kTcpAck;
  meta.window = 0x1234;
  EXPECT_EQ(Hex(BuildTcpSegment(meta, {9, 8, 7})),
            "02000a00000202000a0000010800"              // Ethernet
            "4500002b00004000400600000a0000010a000002"  // IPv4
            "c001138901020304a0b0c0d05010123400000000"  // TCP
            "090807");                                  // payload
}

class TcpTest : public ::testing::Test {
 protected:
  TcpTest()
      : nw_(&engine_, {}),
        card_a_(&engine_, {}),
        card_b_(&engine_, {}),
        svm_a_(&engine_, &host_a_, &card_a_, &gpu_a_, kPage),
        svm_b_(&engine_, &host_b_, &card_b_, &gpu_b_, kPage),
        client_(&engine_, &nw_, 0x0A000001, &svm_a_),
        server_(&engine_, &nw_, 0x0A000002, &svm_b_) {
    buf_a_ = host_a_.Allocate(8ull << 20, memsys::AllocKind::kHuge2M);
    svm_a_.RegisterHostBuffer(buf_a_, 8ull << 20);
    buf_b_ = host_b_.Allocate(8ull << 20, memsys::AllocKind::kHuge2M);
    svm_b_.RegisterHostBuffer(buf_b_, 8ull << 20);
  }

  // Establishes a connection; returns {client_conn, server_conn}.
  std::pair<TcpStack::ConnId, TcpStack::ConnId> Establish() {
    TcpStack::ConnId client_conn = 0, server_conn = 0;
    server_.Listen(5001, [&](TcpStack::ConnId c) { server_conn = c; });
    client_.Connect(0x0A000002, 5001,
                    [&](TcpStack::ConnId c, bool ok) { client_conn = ok ? c : 0; });
    engine_.RunUntilCondition([&] { return client_conn != 0 && server_conn != 0; });
    return {client_conn, server_conn};
  }

  sim::Engine engine_;
  Network nw_;
  memsys::HostMemory host_a_, host_b_;
  memsys::CardMemory card_a_, card_b_;
  memsys::GpuMemory gpu_a_, gpu_b_;
  mmu::Svm svm_a_, svm_b_;
  TcpStack client_, server_;
  uint64_t buf_a_ = 0, buf_b_ = 0;
};

TEST_F(TcpTest, HandshakeEstablishesBothSides) {
  auto [c, s] = Establish();
  EXPECT_TRUE(client_.IsOpen(c));
  EXPECT_TRUE(server_.IsOpen(s));
  // Handshake: SYN + SYN-ACK + ACK = 3 segments minimum.
  EXPECT_GE(client_.segments_sent() + server_.segments_sent(), 3u);
}

TEST_F(TcpTest, ConnectToClosedPortNeverCompletes) {
  bool called = false;
  client_.Connect(0x0A000002, 9999, [&](TcpStack::ConnId, bool) { called = true; });
  engine_.RunUntil(sim::Milliseconds(2));
  EXPECT_FALSE(called);  // SYN retransmits, no listener answers
  EXPECT_GT(client_.retransmitted_segments(), 0u);
}

TEST_F(TcpTest, StreamTransferDeliversExactBytes) {
  auto [c, s] = Establish();
  constexpr uint64_t kBytes = 2 << 20;
  std::vector<uint8_t> data(kBytes);
  sim::Rng rng(1);
  rng.FillBytes(data.data(), kBytes);
  svm_a_.WriteVirtual(buf_a_, data.data(), kBytes);

  std::vector<uint8_t> received;
  server_.SetRecvHandler(s, [&](std::vector<uint8_t> chunk) {
    received.insert(received.end(), chunk.begin(), chunk.end());
  });
  bool done = false;
  client_.Send(c, buf_a_, kBytes, [&](bool ok) { done = ok; });
  engine_.RunUntilCondition([&] { return done; });
  EXPECT_EQ(received, data);
  EXPECT_EQ(client_.bytes_acked(), kBytes);
}

TEST_F(TcpTest, WindowLimitsInflightBytes) {
  auto [c, s] = Establish();
  // The peer advertises a bounded window; the sender must pace rather than
  // blast the whole backlog at once: so at any instant in-flight <= window.
  constexpr uint64_t kBytes = 4 << 20;
  server_.SetRecvHandler(s, [](std::vector<uint8_t>) {});
  bool done = false;
  client_.Send(c, buf_a_, kBytes, [&](bool ok) { done = ok; });
  // Step and check the invariant as the transfer progresses.
  for (int i = 0; i < 2000 && !done; ++i) {
    engine_.Step();
  }
  engine_.RunUntilCondition([&] { return done; });
  EXPECT_TRUE(done);
}

TEST_F(TcpTest, LossRecoveryGoBackN) {
  auto [c, s] = Establish();
  constexpr uint64_t kBytes = 512 << 10;
  std::vector<uint8_t> data(kBytes);
  sim::Rng rng(2);
  rng.FillBytes(data.data(), kBytes);
  svm_a_.WriteVirtual(buf_a_, data.data(), kBytes);

  uint64_t count = 0;
  nw_.SetDropFilter([&count](uint64_t) {
    ++count;
    return count == 7 || count == 20;
  });
  std::vector<uint8_t> received;
  server_.SetRecvHandler(s, [&](std::vector<uint8_t> chunk) {
    received.insert(received.end(), chunk.begin(), chunk.end());
  });
  bool done = false;
  client_.Send(c, buf_a_, kBytes, [&](bool ok) { done = ok; });
  engine_.RunUntilCondition([&] { return done; });
  EXPECT_EQ(received, data);
  EXPECT_GT(client_.retransmitted_segments(), 0u);
}

TEST_F(TcpTest, BidirectionalStreams) {
  auto [c, s] = Establish();
  std::vector<uint8_t> up(100'000, 0xAA), down(50'000, 0xBB);
  svm_a_.WriteVirtual(buf_a_, up.data(), up.size());
  svm_b_.WriteVirtual(buf_b_, down.data(), down.size());
  std::vector<uint8_t> got_up, got_down;
  server_.SetRecvHandler(s, [&](std::vector<uint8_t> d) {
    got_up.insert(got_up.end(), d.begin(), d.end());
  });
  client_.SetRecvHandler(c, [&](std::vector<uint8_t> d) {
    got_down.insert(got_down.end(), d.begin(), d.end());
  });
  bool done_up = false, done_down = false;
  client_.Send(c, buf_a_, up.size(), [&](bool ok) { done_up = ok; });
  server_.Send(s, buf_b_, down.size(), [&](bool ok) { done_down = ok; });
  engine_.RunUntilCondition([&] { return done_up && done_down; });
  EXPECT_EQ(got_up, up);
  EXPECT_EQ(got_down, down);
}

TEST_F(TcpTest, MultipleSendsOnOneConnectionStaySequenced) {
  auto [c, s] = Establish();
  std::vector<uint8_t> all;
  server_.SetRecvHandler(s, [&](std::vector<uint8_t> d) {
    all.insert(all.end(), d.begin(), d.end());
  });
  std::vector<uint8_t> expected;
  int completions = 0;
  for (int i = 0; i < 3; ++i) {
    std::vector<uint8_t> part(10'000, static_cast<uint8_t>(0x10 + i));
    svm_a_.WriteVirtual(buf_a_ + i * 10'000, part.data(), part.size());
    expected.insert(expected.end(), part.begin(), part.end());
    client_.Send(c, buf_a_ + i * 10'000, part.size(), [&](bool) { ++completions; });
  }
  engine_.RunUntilCondition([&] { return completions == 3; });
  EXPECT_EQ(all, expected);
}

// A zero-byte send ends at the sequence the send before it ended at, so it
// must not take over that send's completion: each completes once, ok.
TEST_F(TcpTest, ZeroByteSendAfterASendCompletesEachOnce) {
  auto [c, s] = Establish();
  int sized = 0, empty = 0;
  bool sized_ok = false, empty_ok = false;
  client_.Send(c, buf_a_, 4096, [&](bool ok) {
    ++sized;
    sized_ok = ok;
  });
  client_.Send(c, buf_a_, 0, [&](bool ok) {
    ++empty;
    empty_ok = ok;
  });
  engine_.RunUntil(engine_.Now() + sim::Milliseconds(2));
  EXPECT_EQ(sized, 1);
  EXPECT_TRUE(sized_ok);
  EXPECT_EQ(empty, 1);
  EXPECT_TRUE(empty_ok);
}

TEST_F(TcpTest, CloseAfterSendDeliversEverythingFirst) {
  // Graceful close: the FIN must follow the last queued byte.
  auto [c, s] = Establish();
  std::vector<uint8_t> data(300'000);
  sim::Rng rng(9);
  rng.FillBytes(data.data(), data.size());
  svm_a_.WriteVirtual(buf_a_, data.data(), data.size());
  std::vector<uint8_t> received;
  server_.SetRecvHandler(s, [&](std::vector<uint8_t> d) {
    received.insert(received.end(), d.begin(), d.end());
  });
  client_.Send(c, buf_a_, data.size(), nullptr);
  client_.Close(c);  // immediately — data still in flight
  engine_.RunUntil(engine_.Now() + sim::Milliseconds(5));
  EXPECT_EQ(received, data);
  EXPECT_FALSE(client_.IsOpen(c));
  EXPECT_FALSE(server_.IsOpen(s));
}

TEST_F(TcpTest, CloseTearsDownBothSides) {
  auto [c, s] = Establish();
  client_.Close(c);
  engine_.RunUntil(engine_.Now() + sim::Milliseconds(1));
  EXPECT_FALSE(client_.IsOpen(c));
  EXPECT_FALSE(server_.IsOpen(s));
}

TEST_F(TcpTest, BlackholedSendErrorCompletesAfterRetryBudget) {
  auto [c, s] = Establish();
  nw_.SetDropFilter([](uint64_t) { return true; });  // total blackhole

  // The send can never be acknowledged: backoff runs, the retry budget
  // drains, and the completion fires with ok=false — never a silent hang.
  bool done = false, ok = true;
  client_.Send(c, buf_a_, 64 << 10, [&](bool k) {
    done = true;
    ok = k;
  });
  ASSERT_TRUE(engine_.RunUntilCondition([&] { return done; }));
  EXPECT_FALSE(ok);
  EXPECT_EQ(client_.retries_exhausted(), 1u);
  EXPECT_GT(client_.backoff_events(), 0u);
  EXPECT_GT(client_.error_completions(), 0u);
  EXPECT_FALSE(client_.IsOpen(c));  // the failed connection is torn down
}

TEST_F(TcpTest, HandshakeIntoBlackholeFailsWithTypedError) {
  nw_.SetDropFilter([](uint64_t) { return true; });
  bool called = false, ok = true;
  client_.Connect(0x0A000002, 5001, [&](TcpStack::ConnId, bool k) {
    called = true;
    ok = k;
  });
  ASSERT_TRUE(engine_.RunUntilCondition([&] { return called; }));
  EXPECT_FALSE(ok);
  EXPECT_EQ(client_.retries_exhausted(), 1u);
  EXPECT_GT(client_.error_completions(), 0u);
}

TEST_F(TcpTest, PinnedSendUnderFivePercentFrameLoss) {
  // Completion time, engine events and the retransmit count are pinned: a
  // change to segmentation, acknowledgement or the RTO timer moves them.
  auto [c, s] = Establish();
  sim::FaultPlan plan;
  plan.seed = 6;
  plan.frame_drop_rate = 0.05;
  sim::FaultInjector injector(&engine_, plan);
  nw_.SetFaultInjector(&injector);
  constexpr uint64_t kBytes = 64 << 10;
  std::vector<uint8_t> data(kBytes);
  sim::Rng rng(44);
  rng.FillBytes(data.data(), kBytes);
  svm_a_.WriteVirtual(buf_a_, data.data(), kBytes);
  std::vector<uint8_t> received;
  server_.SetRecvHandler(s, [&](std::vector<uint8_t> chunk) {
    received.insert(received.end(), chunk.begin(), chunk.end());
  });
  int completions = 0;
  sim::TimePs done_at = 0;
  client_.Send(c, buf_a_, kBytes, [&](bool ok) {
    EXPECT_TRUE(ok);
    ++completions;
    done_at = engine_.Now();
  });
  engine_.RunUntilIdle();
  EXPECT_EQ(received, data);
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(done_at, 820'759'840u);
  EXPECT_EQ(client_.retransmitted_segments(), 19u);
  EXPECT_EQ(client_.timeouts(), 3u);
  EXPECT_EQ(client_.backoff_events(), 3u);
  EXPECT_EQ(engine_.events_executed(), 366u);
}

TEST_F(TcpTest, ThroughputReasonableOn100G) {
  auto [c, s] = Establish();
  constexpr uint64_t kBytes = 8 << 20;
  server_.SetRecvHandler(s, [](std::vector<uint8_t>) {});
  bool done = false;
  const sim::TimePs start = engine_.Now();
  client_.Send(c, buf_a_, kBytes, [&](bool ok) { done = ok; });
  engine_.RunUntilCondition([&] { return done; });
  const double gbps = sim::BandwidthGBps(kBytes, engine_.Now() - start);
  // Window-paced, ACK-clocked: must stay within line rate but be efficient.
  EXPECT_GT(gbps, 5.0);
  EXPECT_LE(gbps, 12.5);
}

}  // namespace
}  // namespace net
}  // namespace coyote

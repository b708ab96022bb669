// Unit tests for the networking substrate: RoCE v2 packet formats, the
// switched network, the RDMA stack and the traffic sniffer.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/memsys/card_memory.h"
#include "src/memsys/gpu_memory.h"
#include "src/memsys/host_memory.h"
#include "src/mmu/svm.h"
#include "src/net/network.h"
#include "src/net/packets.h"
#include "src/net/roce.h"
#include "src/net/sniffer.h"
#include "src/sim/engine.h"
#include "src/sim/fault.h"
#include "src/sim/hash.h"
#include "src/sim/rng.h"

namespace coyote {
namespace net {
namespace {

constexpr uint64_t kPage = 2ull << 20;

TEST(PacketsTest, BuildParseRoundTripWriteOnly) {
  FrameMeta meta;
  meta.src_ip = 0x0A000001;
  meta.dst_ip = 0x0A000002;
  meta.opcode = Opcode::kWriteOnly;
  meta.dest_qpn = 0x123;
  meta.psn = 0x456;
  meta.ack_req = true;
  meta.reth_vaddr = 0xDEADBEEF000;
  meta.reth_rkey = 0x77;
  meta.reth_len = 4096;
  std::vector<uint8_t> payload(4096);
  sim::Rng rng(1);
  rng.FillBytes(payload.data(), payload.size());

  const std::vector<uint8_t> frame = BuildFrame(meta, payload);
  EXPECT_EQ(frame.size(), FrameOverheadBytes(meta.opcode) + payload.size());

  auto parsed = ParseFrame(frame);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->meta.src_ip, meta.src_ip);
  EXPECT_EQ(parsed->meta.dst_ip, meta.dst_ip);
  EXPECT_EQ(parsed->meta.opcode, Opcode::kWriteOnly);
  EXPECT_EQ(parsed->meta.dest_qpn, 0x123u);
  EXPECT_EQ(parsed->meta.psn, 0x456u);
  EXPECT_TRUE(parsed->meta.ack_req);
  EXPECT_EQ(parsed->meta.reth_vaddr, meta.reth_vaddr);
  EXPECT_EQ(parsed->meta.reth_len, 4096u);
  EXPECT_EQ(parsed->payload, payload);
}

TEST(PacketsTest, AckCarriesAeth) {
  FrameMeta meta;
  meta.opcode = Opcode::kAck;
  meta.psn = 99;
  meta.aeth_syndrome = 0;
  meta.aeth_msn = 99;
  auto parsed = ParseFrame(BuildFrame(meta, {}));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->meta.opcode, Opcode::kAck);
  EXPECT_EQ(parsed->meta.aeth_msn, 99u);
  EXPECT_TRUE(parsed->payload.empty());
}

TEST(PacketsTest, OpcodeClassification) {
  EXPECT_TRUE(OpcodeHasReth(Opcode::kWriteFirst));
  EXPECT_TRUE(OpcodeHasReth(Opcode::kReadRequest));
  EXPECT_FALSE(OpcodeHasReth(Opcode::kWriteMiddle));
  EXPECT_TRUE(OpcodeHasAeth(Opcode::kAck));
  EXPECT_FALSE(OpcodeHasAeth(Opcode::kReadResponseMiddle));  // per IB spec
  EXPECT_TRUE(OpcodeIsReadResponse(Opcode::kReadResponseMiddle));
  EXPECT_TRUE(OpcodeIsLastOrOnly(Opcode::kSendOnly));
  EXPECT_FALSE(OpcodeIsLastOrOnly(Opcode::kSendFirst));
}

TEST(PacketsTest, MalformedFramesRejected) {
  EXPECT_FALSE(ParseFrame({}).has_value());
  EXPECT_FALSE(ParseFrame(std::vector<uint8_t>(10, 0)).has_value());
  // Non-IPv4 ethertype.
  FrameMeta meta;
  meta.opcode = Opcode::kSendOnly;
  std::vector<uint8_t> frame = BuildFrame(meta, {});
  frame[12] = 0x86;  // not 0x0800
  EXPECT_FALSE(ParseFrame(frame).has_value());
}

TEST(PacketsTest, Ipv4HeaderChecksumValidates) {
  FrameMeta meta;
  meta.opcode = Opcode::kSendOnly;
  meta.src_ip = 0x0A000001;
  meta.dst_ip = 0x0A000002;
  const auto frame = BuildFrame(meta, {1, 2, 3});
  // Recompute: one's-complement sum over the IP header must be 0xFFFF.
  uint32_t sum = 0;
  for (size_t i = kEthHeaderBytes; i < kEthHeaderBytes + kIpv4HeaderBytes; i += 2) {
    sum += static_cast<uint32_t>(frame[i] << 8 | frame[i + 1]);
  }
  while (sum >> 16) {
    sum = (sum & 0xFFFF) + (sum >> 16);
  }
  EXPECT_EQ(sum, 0xFFFFu);
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
// these pin every byte of the RoCE v2 layout.
TEST(PacketsTest, WriteWithRethGoldenBytes) {
  FrameMeta meta;
  meta.dst_mac = MacAddr{{0x02, 0x00, 0x0A, 0x00, 0x00, 0x02}};
  meta.src_mac = MacAddr{{0x02, 0x00, 0x0A, 0x00, 0x00, 0x01}};
  meta.src_ip = 0x0A000001;
  meta.dst_ip = 0x0A000002;
  meta.opcode = Opcode::kWriteOnly;
  meta.dest_qpn = 0x123456;
  meta.psn = 0xABCDEF;
  meta.ack_req = true;
  meta.reth_vaddr = 0x0123456789ABCDEFull;
  meta.reth_rkey = 0xCAFEF00Du;
  meta.reth_len = 4;
  EXPECT_EQ(Hex(BuildFrame(meta, {0xAA, 0xBB, 0xCC, 0xDD})),
            "02000a00000202000a0000010800"              // Ethernet
            "4502004000004000401126a90a0000010a000002"  // IPv4
            "c00012b7002c0000"                          // UDP
            "0a80ffff0012345600abcdef"                  // BTH
            "0123456789abcdefcafef00d00000004"          // RETH
            "aabbccdd"                                  // payload
            "29e5ceb6");                                // ICRC
}

TEST(PacketsTest, AckWithAethGoldenBytes) {
  FrameMeta meta;
  meta.dst_mac = MacAddr{{0x02, 0x00, 0x0A, 0x00, 0x00, 0x01}};
  meta.src_mac = MacAddr{{0x02, 0x00, 0x0A, 0x00, 0x00, 0x02}};
  meta.src_ip = 0x0A000002;
  meta.dst_ip = 0x0A000001;
  meta.opcode = Opcode::kAck;
  meta.dest_qpn = 0x000321;
  meta.psn = 0x010203;
  meta.aeth_syndrome = 0x61;
  meta.aeth_msn = 0x123456;
  EXPECT_EQ(Hex(BuildFrame(meta, {})),
            "02000a00000102000a0000020800"              // Ethernet
            "4502003000004000401126b90a0000020a000001"  // IPv4
            "c00012b7001c0000"                          // UDP
            "1100ffff0000032100010203"                  // BTH
            "61123456"                                  // AETH
            "eb3367ff");                                // ICRC
}

TEST(NetworkTest, DeliversFramesWithLatencyAndBandwidth) {
  sim::Engine engine;
  Network nw(&engine, {});
  std::vector<uint8_t> received;
  nw.AttachPort(1, nullptr);
  nw.AttachPort(2, [&](axi::BufferView f) { received = f.ToVector(); });
  std::vector<uint8_t> frame(12500, 0xAB);  // 12.5 KB = 1 us at 100G per hop
  nw.Transmit(0, 2, frame);
  engine.RunUntilIdle();
  EXPECT_EQ(received.size(), frame.size());
  // tx serialization + switch + rx serialization = 1 us + 0.6 us + 1 us.
  EXPECT_EQ(engine.Now(), sim::Microseconds(2.6));
  EXPECT_EQ(nw.frames_delivered(), 1u);
}

TEST(NetworkTest, UnroutableFramesDrop) {
  sim::Engine engine;
  Network nw(&engine, {});
  nw.AttachPort(1, nullptr);
  nw.Transmit(0, 99, std::vector<uint8_t>(100));
  engine.RunUntilIdle();
  EXPECT_EQ(nw.frames_dropped(), 1u);
  EXPECT_EQ(nw.frames_delivered(), 0u);
}

TEST(NetworkTest, DropFilterInjectsLoss) {
  sim::Engine engine;
  Network nw(&engine, {});
  int received = 0;
  nw.AttachPort(1, nullptr);
  nw.AttachPort(2, [&](axi::BufferView) { ++received; });
  nw.SetDropFilter([](uint64_t index) { return index % 2 == 0; });
  for (int i = 0; i < 10; ++i) {
    nw.Transmit(0, 2, std::vector<uint8_t>(100));
  }
  engine.RunUntilIdle();
  EXPECT_EQ(received, 5);
  EXPECT_EQ(nw.frames_dropped(), 5u);
}

class RoceTest : public ::testing::Test {
 protected:
  RoceTest()
      : nw_(&engine_, {}),
        card_a_(&engine_, {}),
        card_b_(&engine_, {}),
        svm_a_(&engine_, &host_a_, &card_a_, &gpu_a_, kPage),
        svm_b_(&engine_, &host_b_, &card_b_, &gpu_b_, kPage),
        a_(&engine_, &nw_, 0x0A000001, &svm_a_),
        b_(&engine_, &nw_, 0x0A000002, &svm_b_) {
    qp_a_ = a_.CreateQp();
    qp_b_ = b_.CreateQp();
    a_.Connect(qp_a_, 0x0A000002, qp_b_);
    b_.Connect(qp_b_, 0x0A000001, qp_a_);
    buf_a_ = host_a_.Allocate(16ull << 20, memsys::AllocKind::kHuge2M);
    svm_a_.RegisterHostBuffer(buf_a_, 16ull << 20);
    buf_b_ = host_b_.Allocate(16ull << 20, memsys::AllocKind::kHuge2M);
    svm_b_.RegisterHostBuffer(buf_b_, 16ull << 20);
  }

  std::vector<uint8_t> FillA(uint64_t bytes, uint64_t seed) {
    std::vector<uint8_t> data(bytes);
    sim::Rng rng(seed);
    rng.FillBytes(data.data(), bytes);
    svm_a_.WriteVirtual(buf_a_, data.data(), bytes);
    return data;
  }

  sim::Engine engine_;
  Network nw_;
  memsys::HostMemory host_a_, host_b_;
  memsys::CardMemory card_a_, card_b_;
  memsys::GpuMemory gpu_a_, gpu_b_;
  mmu::Svm svm_a_, svm_b_;
  RoceStack a_, b_;
  uint32_t qp_a_ = 0, qp_b_ = 0;
  uint64_t buf_a_ = 0, buf_b_ = 0;
};

TEST_F(RoceTest, WriteMovesBytesAndCompletes) {
  const auto data = FillA(1 << 20, 1);
  bool done = false;
  a_.PostWrite(qp_a_, buf_a_, buf_b_, data.size(), [&](bool ok) { done = ok; });
  engine_.RunUntilCondition([&] { return done; });
  std::vector<uint8_t> got(data.size());
  svm_b_.ReadVirtual(buf_b_, got.data(), got.size());
  EXPECT_EQ(got, data);
  // 256 MTU frames + trailing ACKs.
  EXPECT_GE(a_.tx_frames(), 256u);
  EXPECT_EQ(a_.retransmitted_frames(), 0u);
}

TEST_F(RoceTest, WriteArrivalHandlerSeesMessageBounds) {
  const auto data = FillA(10000, 2);
  uint64_t got_vaddr = 0, got_bytes = 0;
  b_.SetWriteArrivalHandler(qp_b_, [&](uint64_t vaddr, uint64_t bytes) {
    got_vaddr = vaddr;
    got_bytes = bytes;
  });
  bool done = false;
  a_.PostWrite(qp_a_, buf_a_, buf_b_ + 512, 10000, [&](bool ok) { done = ok; });
  engine_.RunUntilCondition([&] { return done; });
  EXPECT_EQ(got_vaddr, buf_b_ + 512);
  EXPECT_EQ(got_bytes, 10000u);
}

TEST_F(RoceTest, SendDeliversPayloadToHandler) {
  const auto data = FillA(9000, 3);
  std::vector<uint8_t> received;
  b_.SetRecvHandler(qp_b_, [&](std::vector<uint8_t> d) { received = std::move(d); });
  bool done = false;
  a_.PostSend(qp_a_, buf_a_, 9000, [&](bool ok) { done = ok; });
  engine_.RunUntilCondition([&] { return done; });
  EXPECT_EQ(received, data);
}

TEST_F(RoceTest, ReadFetchesRemoteBytes) {
  std::vector<uint8_t> remote(3 << 20);
  sim::Rng rng(4);
  rng.FillBytes(remote.data(), remote.size());
  svm_b_.WriteVirtual(buf_b_, remote.data(), remote.size());

  bool done = false;
  a_.PostRead(qp_a_, buf_a_, buf_b_, remote.size(), [&](bool ok) { done = ok; });
  engine_.RunUntilCondition([&] { return done; });
  std::vector<uint8_t> got(remote.size());
  svm_a_.ReadVirtual(buf_a_, got.data(), got.size());
  EXPECT_EQ(got, remote);
}

// A read's responses take PSNs, and the requester numbers the write behind
// it after them: the responder must expect that PSN, not discard the write.
TEST_F(RoceTest, WriteBehindAReadOnOneQpCompletes) {
  std::vector<uint8_t> remote(10000);
  sim::Rng rng(8);
  rng.FillBytes(remote.data(), remote.size());
  svm_b_.WriteVirtual(buf_b_, remote.data(), remote.size());
  constexpr uint64_t kWriteOffset = 1 << 20;
  const auto data = FillA(9000, 9);  // at buf_a_; the read lands above it

  int read_ok = -1, write_ok = -1;
  a_.PostRead(qp_a_, buf_a_ + kWriteOffset, buf_b_, remote.size(),
              [&](bool ok) { read_ok = ok; });
  a_.PostWrite(qp_a_, buf_a_, buf_b_ + kWriteOffset, data.size(),
               [&](bool ok) { write_ok = ok; });
  engine_.RunUntilIdle();

  EXPECT_EQ(read_ok, 1);
  EXPECT_EQ(write_ok, 1);
  std::vector<uint8_t> got(remote.size());
  svm_a_.ReadVirtual(buf_a_ + kWriteOffset, got.data(), got.size());
  EXPECT_EQ(got, remote);
  got.resize(data.size());
  svm_b_.ReadVirtual(buf_b_ + kWriteOffset, got.data(), got.size());
  EXPECT_EQ(got, data);
  EXPECT_EQ(a_.retransmitted_frames(), 0u);
}

// The first write is lost, so the read behind it arrives ahead of the
// expected PSN. The responder discards it like a data frame; the go-back-N
// resend then delivers write, read and write in order, and the second write
// is not discarded behind a read the responder served out of turn.
TEST_F(RoceTest, ReadAheadOfALostWriteIsResentInOrder) {
  std::vector<uint8_t> remote(4000);
  sim::Rng rng(10);
  rng.FillBytes(remote.data(), remote.size());
  svm_b_.WriteVirtual(buf_b_, remote.data(), remote.size());
  constexpr uint64_t kReadOffset = 1 << 20;
  constexpr uint64_t kFirstOffset = 2 << 20;
  constexpr uint64_t kSecondOffset = 3 << 20;
  const auto data = FillA(3000, 11);  // both writes send these bytes
  uint64_t count = 0;
  nw_.SetDropFilter([&count](uint64_t) { return ++count == 1; });

  int first_ok = -1, read_ok = -1, second_ok = -1;
  a_.PostWrite(qp_a_, buf_a_, buf_b_ + kFirstOffset, 1000, [&](bool ok) { first_ok = ok; });
  a_.PostRead(qp_a_, buf_a_ + kReadOffset, buf_b_, remote.size(),
              [&](bool ok) { read_ok = ok; });
  a_.PostWrite(qp_a_, buf_a_, buf_b_ + kSecondOffset, data.size(),
               [&](bool ok) { second_ok = ok; });
  engine_.RunUntilIdle();

  EXPECT_EQ(first_ok, 1);
  EXPECT_EQ(read_ok, 1);
  EXPECT_EQ(second_ok, 1);
  std::vector<uint8_t> got(remote.size());
  svm_a_.ReadVirtual(buf_a_ + kReadOffset, got.data(), got.size());
  EXPECT_EQ(got, remote);
  got.resize(data.size());
  svm_b_.ReadVirtual(buf_b_ + kSecondOffset, got.data(), got.size());
  EXPECT_EQ(got, data);
  got.resize(1000);
  svm_b_.ReadVirtual(buf_b_ + kFirstOffset, got.data(), got.size());
  EXPECT_EQ(got, std::vector<uint8_t>(data.begin(), data.begin() + 1000));
  EXPECT_GT(a_.retransmitted_frames(), 0u);
}

// The write behind a read is acked while one of the read's responses is
// lost. The ACK covers the read request's PSN, but only the read's last
// response retires the request, so the resend fetches the lost response
// instead of leaving the read waiting forever.
TEST_F(RoceTest, LostReadResponseBehindAnAckedWriteIsFetchedAgain) {
  std::vector<uint8_t> remote(10000);  // three responses
  sim::Rng rng(12);
  rng.FillBytes(remote.data(), remote.size());
  svm_b_.WriteVirtual(buf_b_, remote.data(), remote.size());
  constexpr uint64_t kReadOffset = 1 << 20;
  constexpr uint64_t kWriteOffset = 2 << 20;
  const auto data = FillA(1000, 13);
  // Frames 1 and 2 are A's read request and write; frame 3 is B's first
  // read response.
  uint64_t count = 0;
  nw_.SetDropFilter([&count](uint64_t) { return ++count == 3; });

  int read_ok = -1, write_ok = -1;
  a_.PostRead(qp_a_, buf_a_ + kReadOffset, buf_b_, remote.size(),
              [&](bool ok) { read_ok = ok; });
  a_.PostWrite(qp_a_, buf_a_, buf_b_ + kWriteOffset, data.size(),
               [&](bool ok) { write_ok = ok; });
  engine_.RunUntilIdle();

  EXPECT_EQ(read_ok, 1);
  EXPECT_EQ(write_ok, 1);
  std::vector<uint8_t> got(remote.size());
  svm_a_.ReadVirtual(buf_a_ + kReadOffset, got.data(), got.size());
  EXPECT_EQ(got, remote);
  got.resize(data.size());
  svm_b_.ReadVirtual(buf_b_ + kWriteOffset, got.data(), got.size());
  EXPECT_EQ(got, data);
  EXPECT_EQ(a_.retransmitted_frames(), 1u);  // the read request alone
}

TEST_F(RoceTest, GoBackNRecoversFromLoss) {
  // Drop two data frames of the first transmission; the timeout-driven
  // go-back-N retransmission must still deliver the exact payload.
  const auto data = FillA(256 << 10, 5);
  uint64_t count = 0;
  nw_.SetDropFilter([&count](uint64_t) {
    ++count;
    return count == 10 || count == 30;
  });
  bool done = false;
  a_.PostWrite(qp_a_, buf_a_, buf_b_, data.size(), [&](bool ok) { done = ok; });
  engine_.RunUntilCondition([&] { return done; });
  EXPECT_TRUE(done);
  EXPECT_GT(a_.retransmitted_frames(), 0u);
  std::vector<uint8_t> got(data.size());
  svm_b_.ReadVirtual(buf_b_, got.data(), got.size());
  EXPECT_EQ(got, data);
}

TEST_F(RoceTest, ReadRecoversFromResponseLoss) {
  std::vector<uint8_t> remote(64 << 10);
  sim::Rng rng(6);
  rng.FillBytes(remote.data(), remote.size());
  svm_b_.WriteVirtual(buf_b_, remote.data(), remote.size());
  uint64_t count = 0;
  nw_.SetDropFilter([&count](uint64_t) { return ++count == 5; });
  bool done = false;
  a_.PostRead(qp_a_, buf_a_, buf_b_, remote.size(), [&](bool ok) { done = ok; });
  engine_.RunUntilCondition([&] { return done; });
  EXPECT_TRUE(done);
  std::vector<uint8_t> got(remote.size());
  svm_a_.ReadVirtual(buf_a_, got.data(), got.size());
  EXPECT_EQ(got, remote);
}

TEST_F(RoceTest, ThroughputApproachesLineRate) {
  const uint64_t bytes = 16ull << 20;
  FillA(bytes, 7);
  bool done = false;
  const sim::TimePs start = engine_.Now();
  a_.PostWrite(qp_a_, buf_a_, buf_b_, bytes, [&](bool ok) { done = ok; });
  engine_.RunUntilCondition([&] { return done; });
  const double gbps = sim::BandwidthGBps(bytes, engine_.Now() - start);
  // 100G line rate is 12.5 GB/s; headers + ACK turnaround cost a bit.
  EXPECT_GT(gbps, 11.0);
  EXPECT_LE(gbps, 12.5);
}

TEST_F(RoceTest, ConcurrentBidirectionalTraffic) {
  const auto data_a = FillA(1 << 20, 8);
  std::vector<uint8_t> data_b(1 << 20);
  sim::Rng rng(9);
  rng.FillBytes(data_b.data(), data_b.size());
  svm_b_.WriteVirtual(buf_b_ + (8 << 20), data_b.data(), data_b.size());

  bool done_a = false, done_b = false;
  a_.PostWrite(qp_a_, buf_a_, buf_b_, data_a.size(), [&](bool ok) { done_a = ok; });
  b_.PostWrite(qp_b_, buf_b_ + (8 << 20), buf_a_ + (8 << 20), data_b.size(),
               [&](bool ok) { done_b = ok; });
  engine_.RunUntilCondition([&] { return done_a && done_b; });
  std::vector<uint8_t> got_b(1 << 20), got_a(1 << 20);
  svm_b_.ReadVirtual(buf_b_, got_b.data(), got_b.size());
  svm_a_.ReadVirtual(buf_a_ + (8 << 20), got_a.data(), got_a.size());
  EXPECT_EQ(got_b, data_a);
  EXPECT_EQ(got_a, data_b);
}

TEST_F(RoceTest, SnifferTapSeesAllTrafficAndFilters) {
  TrafficSniffer sniffer(&engine_);
  a_.SetTap([&](const axi::BufferView& f, bool is_tx) { sniffer.OnFrame(f, is_tx); });
  sniffer.Start();
  const auto data = FillA(64 << 10, 10);
  bool done = false;
  a_.PostWrite(qp_a_, buf_a_, buf_b_, data.size(), [&](bool ok) { done = ok; });
  engine_.RunUntilCondition([&] { return done; });
  sniffer.Stop();
  // 16 data frames out + at least 1 ACK in.
  EXPECT_GE(sniffer.frames().size(), 17u);

  // Filter: TX only.
  TrafficSniffer rx_only(&engine_);
  TrafficSniffer::Filter f;
  f.capture_tx = false;
  rx_only.SetFilter(f);
  rx_only.Start();
  a_.SetTap([&](const axi::BufferView& fr, bool is_tx) { rx_only.OnFrame(fr, is_tx); });
  done = false;
  a_.PostWrite(qp_a_, buf_a_, buf_b_, data.size(), [&](bool ok) { done = ok; });
  engine_.RunUntilCondition([&] { return done; });
  for (const auto& cap : rx_only.frames()) {
    EXPECT_FALSE(cap.is_tx);
  }
  EXPECT_GT(rx_only.dropped_by_filter(), 0u);
}

TEST(SnifferTest, PcapFormatIsWellFormed) {
  sim::Engine engine;
  TrafficSniffer sniffer(&engine);
  sniffer.Start();
  FrameMeta meta;
  meta.opcode = Opcode::kSendOnly;
  engine.ScheduleAt(sim::Seconds(3) + sim::Microseconds(250), [&] {
    sniffer.OnFrame(BuildFrame(meta, {1, 2, 3, 4}), true);
  });
  engine.RunUntilIdle();
  const std::vector<uint8_t> pcap = sniffer.ToPcap();
  ASSERT_GE(pcap.size(), 24u + 16u);
  // Little-endian magic.
  EXPECT_EQ(pcap[0], 0xd4);
  EXPECT_EQ(pcap[1], 0xc3);
  EXPECT_EQ(pcap[2], 0xb2);
  EXPECT_EQ(pcap[3], 0xa1);
  // Link type Ethernet at offset 20.
  EXPECT_EQ(pcap[20], 1);
  // First record header: ts_sec = 3, ts_usec = 250.
  EXPECT_EQ(pcap[24], 3);
  EXPECT_EQ(pcap[28], 250);
  // incl_len matches the frame.
  const uint32_t incl = pcap[32] | pcap[33] << 8 | pcap[34] << 16;
  EXPECT_EQ(incl, FrameOverheadBytes(Opcode::kSendOnly) + 4);
}

TEST(SnifferTest, PcapGoldenBytes) {
  sim::Engine engine;
  TrafficSniffer sniffer(&engine);
  sniffer.Start();
  FrameMeta meta;
  meta.src_ip = 0x0A000001;
  meta.dst_ip = 0x0A000002;
  meta.opcode = Opcode::kSendOnly;
  meta.dest_qpn = 7;
  meta.psn = 0x0100;
  engine.ScheduleAt(sim::Seconds(300) + sim::Microseconds(70'000), [&] {
    sniffer.OnFrame(BuildFrame(meta, {1, 2, 3, 4}), true);
  });
  engine.RunUntilIdle();
  EXPECT_EQ(Hex(sniffer.ToPcap()),
            "d4c3b2a1020004000000000000000000ffff000001000000"  // global header
            "2c010000701101003e0000003e000000"                  // record header
            "0000000000000000000000000800"                      // frame: Ethernet
            "4502003000004000401126b90a0000010a000002"          // IPv4
            "c00012b7001c0000"                                  // UDP
            "0400ffff0000000700000100"                          // BTH
            "01020304"                                          // payload
            "bc57c93b");                                        // ICRC
}

TEST(SnifferTest, HeadersOnlyTruncates) {
  sim::Engine engine;
  TrafficSniffer sniffer(&engine);
  TrafficSniffer::Filter f;
  f.headers_only = true;
  sniffer.SetFilter(f);
  sniffer.Start();
  FrameMeta meta;
  meta.opcode = Opcode::kWriteOnly;
  meta.reth_len = 4096;
  sniffer.OnFrame(BuildFrame(meta, std::vector<uint8_t>(4096, 0xCC)), true);
  ASSERT_EQ(sniffer.frames().size(), 1u);
  const auto& cap = sniffer.frames()[0];
  EXPECT_LT(cap.bytes.size(), 100u);
  EXPECT_GT(cap.original_len, 4096u);
}

TEST(SnifferTest, OpcodeFilterSelectsFrames) {
  sim::Engine engine;
  TrafficSniffer sniffer(&engine);
  TrafficSniffer::Filter f;
  f.opcode = Opcode::kAck;
  sniffer.SetFilter(f);
  sniffer.Start();
  FrameMeta ack;
  ack.opcode = Opcode::kAck;
  FrameMeta send;
  send.opcode = Opcode::kSendOnly;
  sniffer.OnFrame(BuildFrame(ack, {}), true);
  sniffer.OnFrame(BuildFrame(send, {}), true);
  EXPECT_EQ(sniffer.frames().size(), 1u);
  EXPECT_EQ(sniffer.dropped_by_filter(), 1u);
}

TEST_F(RoceTest, TwoQpsOnOneStackStayIsolated) {
  // A second connection between the same two stacks; concurrent writes on
  // both QPs must land in their own destinations with correct bytes.
  const uint32_t qa2 = a_.CreateQp();
  const uint32_t qb2 = b_.CreateQp();
  a_.Connect(qa2, 0x0A000002, qb2);
  b_.Connect(qb2, 0x0A000001, qa2);

  const auto d1 = FillA(256 << 10, 30);
  std::vector<uint8_t> d2(256 << 10);
  sim::Rng rng(31);
  rng.FillBytes(d2.data(), d2.size());
  svm_a_.WriteVirtual(buf_a_ + (4 << 20), d2.data(), d2.size());

  bool done1 = false, done2 = false;
  a_.PostWrite(qp_a_, buf_a_, buf_b_, d1.size(), [&](bool ok) { done1 = ok; });
  a_.PostWrite(qa2, buf_a_ + (4 << 20), buf_b_ + (4 << 20), d2.size(),
               [&](bool ok) { done2 = ok; });
  engine_.RunUntilCondition([&] { return done1 && done2; });
  std::vector<uint8_t> g1(d1.size()), g2(d2.size());
  svm_b_.ReadVirtual(buf_b_, g1.data(), g1.size());
  svm_b_.ReadVirtual(buf_b_ + (4 << 20), g2.data(), g2.size());
  EXPECT_EQ(g1, d1);
  EXPECT_EQ(g2, d2);
}

TEST_F(RoceTest, AckCoalescingBoundsAckTraffic) {
  // 1 MB = 256 data frames; with ack_interval 16 the receiver sends roughly
  // 256/16 acks plus the per-message last-frame ack — far fewer than one ack
  // per frame.
  const auto data = FillA(1 << 20, 32);
  bool done = false;
  a_.PostWrite(qp_a_, buf_a_, buf_b_, data.size(), [&](bool ok) { done = ok; });
  engine_.RunUntilCondition([&] { return done; });
  EXPECT_LE(b_.tx_frames(), 256u / 16 + 4);
  EXPECT_GE(b_.tx_frames(), 256u / 16);
}

TEST_F(RoceTest, SnifferIpFilterSelectsDirection) {
  TrafficSniffer sniffer(&engine_);
  TrafficSniffer::Filter f;
  f.src_ip = 0x0A000002;  // only frames FROM node B (acks, on A's RX)
  sniffer.SetFilter(f);
  sniffer.Start();
  a_.SetTap([&](const axi::BufferView& fr, bool is_tx) { sniffer.OnFrame(fr, is_tx); });
  const auto data = FillA(64 << 10, 33);
  bool done = false;
  a_.PostWrite(qp_a_, buf_a_, buf_b_, data.size(), [&](bool ok) { done = ok; });
  engine_.RunUntilCondition([&] { return done; });
  EXPECT_GT(sniffer.frames().size(), 0u);
  for (const auto& cap : sniffer.frames()) {
    auto parsed = ParseFrame(cap.bytes);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->meta.src_ip, 0x0A000002u);
  }
  a_.SetTap(nullptr);
}

TEST_F(RoceTest, InboundOffloadTransformsPayloadOnPath) {
  // The paper's SmartNIC/DPU position (§6.2): network data flows through the
  // vFPGA. Here the "kernel" is a byte-wise XOR stage wired between the
  // stack and memory; what lands in B's memory is the transformed data.
  axi::Stream to_kernel, from_kernel;
  to_kernel.set_on_data([&]() {
    while (auto p = to_kernel.Pop()) {
      uint8_t* bytes = p->data.data();  // mutable access: copy-on-write detach
      for (size_t i = 0; i < p->data.size(); ++i) {
        bytes[i] ^= 0x5A;
      }
      from_kernel.Push(std::move(*p));
    }
  });
  b_.SetInboundOffload(&to_kernel, &from_kernel);

  const auto data = FillA(64 << 10, 20);
  uint64_t arrival_bytes = 0;
  b_.SetWriteArrivalHandler(qp_b_, [&](uint64_t, uint64_t bytes) { arrival_bytes = bytes; });
  bool done = false;
  a_.PostWrite(qp_a_, buf_a_, buf_b_, data.size(), [&](bool ok) { done = ok; });
  engine_.RunUntilCondition([&] { return done && arrival_bytes != 0; });

  std::vector<uint8_t> got(data.size());
  svm_b_.ReadVirtual(buf_b_, got.data(), got.size());
  std::vector<uint8_t> expected = data;
  for (auto& byte : expected) {
    byte ^= 0x5A;
  }
  EXPECT_EQ(got, expected);
  EXPECT_EQ(arrival_bytes, data.size());

  // Disabling the offload restores the direct path.
  b_.SetInboundOffload(nullptr, nullptr);
  done = false;
  a_.PostWrite(qp_a_, buf_a_, buf_b_, data.size(), [&](bool ok) { done = ok; });
  engine_.RunUntilCondition([&] { return done; });
  svm_b_.ReadVirtual(buf_b_, got.data(), got.size());
  EXPECT_EQ(got, data);
}

// The constants below pin completion times, engine events, loss-recovery
// counters and every frame A's tap sees. A change to segmentation, PSNs,
// acknowledgement or the retransmit timers moves them.

TEST_F(RoceTest, PinnedTwoFrameSendAndReadTimingAndFrames) {
  uint64_t frames = 0;
  uint64_t frame_hash = sim::kFnvOffset;
  a_.SetTap([&](const axi::BufferView& f, bool is_tx) {
    ++frames;
    sim::FnvFoldU64(&frame_hash, is_tx ? 1 : 0);
    sim::FnvFold(&frame_hash, f.data(), f.size());
  });
  const auto sent = FillA(4097, 40);
  std::vector<uint8_t> received;
  b_.SetRecvHandler(qp_b_, [&](std::vector<uint8_t> d) { received = std::move(d); });
  sim::TimePs send_at = 0;
  a_.PostSend(qp_a_, buf_a_, sent.size(), [&](bool ok) {
    EXPECT_TRUE(ok);
    send_at = engine_.Now();
  });
  engine_.RunUntilIdle();
  EXPECT_EQ(received, sent);

  std::vector<uint8_t> remote(4097);
  sim::Rng rng(41);
  rng.FillBytes(remote.data(), remote.size());
  svm_b_.WriteVirtual(buf_b_ + 8192, remote.data(), remote.size());
  sim::TimePs read_at = 0;
  a_.PostRead(qp_a_, buf_a_ + 8192, buf_b_ + 8192, remote.size(), [&](bool ok) {
    EXPECT_TRUE(ok);
    read_at = engine_.Now();
  });
  engine_.RunUntilIdle();
  std::vector<uint8_t> got(remote.size());
  svm_a_.ReadVirtual(buf_a_ + 8192, got.data(), got.size());
  EXPECT_EQ(got, remote);

  EXPECT_EQ(send_at, 3'279'280u);
  EXPECT_EQ(read_at, 103'282'160u);
  EXPECT_EQ(frames, 6u);
  EXPECT_EQ(frame_hash, 0xbffe31e719157bbdull);
  EXPECT_EQ(engine_.events_executed(), 33u);
}

TEST_F(RoceTest, PinnedWriteUnderThirtyPercentFrameLoss) {
  sim::FaultPlan plan;
  plan.seed = 3;
  plan.frame_drop_rate = 0.3;
  sim::FaultInjector injector(&engine_, plan);
  nw_.SetFaultInjector(&injector);
  const auto data = FillA(64 << 10, 42);
  int completions = 0;
  sim::TimePs done_at = 0;
  a_.PostWrite(qp_a_, buf_a_, buf_b_, data.size(), [&](bool ok) {
    EXPECT_TRUE(ok);
    ++completions;
    done_at = engine_.Now();
  });
  engine_.RunUntilIdle();
  std::vector<uint8_t> got(data.size());
  svm_b_.ReadVirtual(buf_b_, got.data(), got.size());
  EXPECT_EQ(got, data);
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(done_at, 713'149'440u);
  EXPECT_EQ(a_.retransmitted_frames(), 62u);
  EXPECT_EQ(a_.timeouts(), 5u);
  EXPECT_EQ(a_.backoff_events(), 5u);
  EXPECT_EQ(a_.retries_exhausted(), 0u);
  EXPECT_EQ(engine_.events_executed(), 331u);
}

TEST_F(RoceTest, PinnedWriteAtNinetyPercentFrameLossExhaustsRetryBudget) {
  sim::FaultPlan plan;
  plan.seed = 5;
  plan.frame_drop_rate = 0.9;
  sim::FaultInjector injector(&engine_, plan);
  nw_.SetFaultInjector(&injector);
  FillA(64 << 10, 43);
  int completions = 0;
  sim::TimePs done_at = 0;
  a_.PostWrite(qp_a_, buf_a_, buf_b_, 64 << 10, [&](bool ok) {
    EXPECT_FALSE(ok);
    ++completions;
    done_at = engine_.Now();
  });
  engine_.RunUntilIdle();
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(done_at, 15'100'000'000u);
  EXPECT_EQ(a_.qp_state(qp_a_), RoceStack::QpState::kError);
  EXPECT_EQ(a_.retries_exhausted(), 1u);
  EXPECT_EQ(a_.error_completions(), 1u);
  EXPECT_EQ(a_.timeouts(), 9u);  // the first timeout plus eight retries
  EXPECT_EQ(a_.retransmitted_frames(), 128u);
  EXPECT_EQ(a_.backoff_events(), 5u);
  EXPECT_EQ(engine_.events_executed(), 213u);
}

// Property: write payload integrity for any message size (boundary cases
// around the MTU).
class RoceSizeSweep : public RoceTest, public ::testing::WithParamInterface<uint64_t> {};

TEST_P(RoceSizeSweep, WriteIntegrityAtMtuBoundaries) {
  const uint64_t bytes = GetParam();
  const auto data = FillA(bytes, bytes);
  bool done = false;
  a_.PostWrite(qp_a_, buf_a_, buf_b_, bytes, [&](bool ok) { done = ok; });
  engine_.RunUntilCondition([&] { return done; });
  std::vector<uint8_t> got(bytes);
  svm_b_.ReadVirtual(buf_b_, got.data(), got.size());
  EXPECT_EQ(got, data);
}

INSTANTIATE_TEST_SUITE_P(Sizes, RoceSizeSweep,
                         ::testing::Values(1, 64, 4095, 4096, 4097, 8192, 12289, 65536));

}  // namespace
}  // namespace net
}  // namespace coyote

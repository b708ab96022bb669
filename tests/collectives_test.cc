// Unit tests for the collective-communication service (broadcast, allgather,
// allreduce over the RDMA mesh).

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/memsys/card_memory.h"
#include "src/memsys/gpu_memory.h"
#include "src/memsys/host_memory.h"
#include "src/mmu/svm.h"
#include "src/net/collectives.h"
#include "src/net/network.h"
#include "src/net/roce.h"
#include "src/sim/engine.h"
#include "src/sim/fault.h"
#include "src/sim/hash.h"
#include "src/sim/rng.h"

namespace coyote {
namespace net {
namespace {

constexpr uint64_t kPage = 2ull << 20;

// A simulated cluster of N Coyote nodes sharing one engine and network.
class Cluster {
 public:
  explicit Cluster(uint32_t n) : network_(&engine_, {}) {
    for (uint32_t i = 0; i < n; ++i) {
      auto node = std::make_unique<Node>();
      node->card = std::make_unique<memsys::CardMemory>(&engine_, memsys::CardMemory::Config{});
      node->svm = std::make_unique<mmu::Svm>(&engine_, &node->host, node->card.get(),
                                             &node->gpu, kPage);
      node->stack = std::make_unique<RoceStack>(&engine_, &network_, 0x0A000001 + i,
                                                node->svm.get());
      // Symmetric allocations: the data buffer lands at the same virtual
      // address on every node (SPMD-style).
      node->data_vaddr = node->host.Allocate(8ull << 20, memsys::AllocKind::kHuge2M);
      node->svm->RegisterHostBuffer(node->data_vaddr, 8ull << 20);
      node->scratch_vaddr = node->host.Allocate(8ull << 20, memsys::AllocKind::kHuge2M);
      node->svm->RegisterHostBuffer(node->scratch_vaddr, 8ull << 20);
      nodes_.push_back(std::move(node));
    }
    std::vector<CollectiveGroup::Member> members;
    for (auto& node : nodes_) {
      members.push_back({node->stack.get(), node->svm.get(), node->scratch_vaddr});
    }
    group_ = std::make_unique<CollectiveGroup>(&engine_, std::move(members));
  }

  struct Node {
    memsys::HostMemory host;
    std::unique_ptr<memsys::CardMemory> card;
    memsys::GpuMemory gpu;
    std::unique_ptr<mmu::Svm> svm;
    std::unique_ptr<RoceStack> stack;
    uint64_t data_vaddr = 0;
    uint64_t scratch_vaddr = 0;
  };

  sim::Engine engine_;
  Network network_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::unique_ptr<CollectiveGroup> group_;
};

TEST(CollectivesTest, BroadcastReachesAllNodes) {
  Cluster cluster(5);
  std::vector<uint8_t> data(1 << 20);
  sim::Rng rng(1);
  rng.FillBytes(data.data(), data.size());
  const uint64_t vaddr = cluster.nodes_[2]->data_vaddr;  // same on all nodes
  cluster.nodes_[2]->svm->WriteVirtual(vaddr, data.data(), data.size());

  bool done = false;
  cluster.group_->Broadcast(2, vaddr, data.size(), [&](bool) { done = true; });
  cluster.engine_.RunUntilCondition([&] { return done; });

  for (auto& node : cluster.nodes_) {
    std::vector<uint8_t> got(data.size());
    node->svm->ReadVirtual(vaddr, got.data(), got.size());
    EXPECT_EQ(got, data);
  }
}

TEST(CollectivesTest, BroadcastTrivialCases) {
  Cluster single(1);
  bool done = false;
  single.group_->Broadcast(0, single.nodes_[0]->data_vaddr, 100, [&](bool) { done = true; });
  single.engine_.RunUntilIdle();
  EXPECT_TRUE(done);

  Cluster pair(2);
  done = false;
  pair.group_->Broadcast(0, pair.nodes_[0]->data_vaddr, 0, [&](bool) { done = true; });
  pair.engine_.RunUntilIdle();
  EXPECT_TRUE(done);
}

TEST(CollectivesTest, AllGatherAssemblesAllChunks) {
  constexpr uint32_t kNodes = 4;
  constexpr uint64_t kChunk = 64 << 10;
  Cluster cluster(kNodes);
  // Node i contributes chunk i.
  for (uint32_t i = 0; i < kNodes; ++i) {
    std::vector<uint8_t> chunk(kChunk, static_cast<uint8_t>(0xA0 + i));
    cluster.nodes_[i]->svm->WriteVirtual(cluster.nodes_[i]->data_vaddr + i * kChunk,
                                         chunk.data(), kChunk);
  }
  bool done = false;
  cluster.group_->AllGather(cluster.nodes_[0]->data_vaddr, kChunk, [&](bool) { done = true; });
  cluster.engine_.RunUntilCondition([&] { return done; });

  for (uint32_t i = 0; i < kNodes; ++i) {
    for (uint32_t c = 0; c < kNodes; ++c) {
      uint8_t b = 0;
      cluster.nodes_[i]->svm->ReadVirtual(cluster.nodes_[i]->data_vaddr + c * kChunk + 7, &b,
                                          1);
      EXPECT_EQ(b, 0xA0 + c) << "node " << i << " chunk " << c;
    }
  }
}

void RunAllReduce(uint32_t n, uint64_t count) {
  Cluster cluster(n);
  std::vector<int32_t> expected(count, 0);
  for (uint32_t i = 0; i < n; ++i) {
    std::vector<int32_t> values(count);
    sim::Rng rng(100 + i);
    for (uint64_t e = 0; e < count; ++e) {
      values[e] = static_cast<int32_t>(rng.NextBounded(2000)) - 1000;
      expected[e] += values[e];
    }
    cluster.nodes_[i]->svm->WriteVirtual(cluster.nodes_[i]->data_vaddr, values.data(),
                                         count * 4);
  }
  bool done = false;
  cluster.group_->AllReduceInt32(cluster.nodes_[0]->data_vaddr, count, [&](bool) { done = true; });
  cluster.engine_.RunUntilCondition([&] { return done; });
  ASSERT_TRUE(done);
  for (uint32_t i = 0; i < n; ++i) {
    std::vector<int32_t> got(count);
    cluster.nodes_[i]->svm->ReadVirtual(cluster.nodes_[i]->data_vaddr, got.data(), count * 4);
    EXPECT_EQ(got, expected) << "node " << i;
  }
}

TEST(CollectivesTest, AllReduceSumsAcrossFourNodes) { RunAllReduce(4, 64 * 1024); }

TEST(CollectivesTest, AllReduceOddNodeCountAndUnevenChunks) {
  // count not divisible by n: last chunk is short.
  RunAllReduce(3, 10'001);
}

TEST(CollectivesTest, AllReduceTwoNodes) { RunAllReduce(2, 1024); }

TEST(CollectivesTest, AllReduceSingleElement) { RunAllReduce(4, 1); }

// Property: broadcast correctness for any root.
class BroadcastRootSweep : public ::testing::TestWithParam<uint32_t> {};

TEST_P(BroadcastRootSweep, AnyRootWorks) {
  const uint32_t root = GetParam();
  Cluster cluster(6);
  std::vector<uint8_t> data(100'000);
  sim::Rng rng(root);
  rng.FillBytes(data.data(), data.size());
  const uint64_t vaddr = cluster.nodes_[root]->data_vaddr;
  cluster.nodes_[root]->svm->WriteVirtual(vaddr, data.data(), data.size());
  bool done = false;
  cluster.group_->Broadcast(root, vaddr, data.size(), [&](bool) { done = true; });
  cluster.engine_.RunUntilCondition([&] { return done; });
  for (auto& node : cluster.nodes_) {
    std::vector<uint8_t> got(data.size());
    node->svm->ReadVirtual(vaddr, got.data(), got.size());
    EXPECT_EQ(got, data);
  }
}

INSTANTIATE_TEST_SUITE_P(Roots, BroadcastRootSweep, ::testing::Values(0, 1, 3, 5));

TEST(CollectivesTest, BroadcastScalesLogarithmically) {
  // Binomial tree: time grows ~log2(N), far below linear send-to-each.
  auto run = [](uint32_t n) {
    Cluster cluster(n);
    const uint64_t bytes = 4 << 20;
    bool done = false;
    cluster.group_->Broadcast(0, cluster.nodes_[0]->data_vaddr, bytes, [&](bool) { done = true; });
    cluster.engine_.RunUntilCondition([&] { return done; });
    return cluster.engine_.Now();
  };
  const sim::TimePs t2 = run(2);   // 1 round
  const sim::TimePs t8 = run(8);   // 3 rounds
  EXPECT_LT(t8, 4 * t2);           // log scaling, not 7x
  EXPECT_GT(t8, 2 * t2);
}

// How a collective completed: the number of completions, the last status
// and the simulated time of the last one.
struct Outcome {
  int completions = 0;
  bool ok = false;
  sim::TimePs at = 0;
};

CollectiveGroup::Completion RecordInto(Cluster& cluster, Outcome* out) {
  return [&cluster, out](bool ok) {
    ++out->completions;
    out->ok = ok;
    out->at = cluster.engine_.Now();
  };
}

// FNV-1a over `bytes` at `vaddr` on every node, in node order.
uint64_t HashAllNodes(Cluster& cluster, uint64_t vaddr, uint64_t bytes) {
  uint64_t h = sim::kFnvOffset;
  std::vector<uint8_t> buf(bytes);
  for (auto& node : cluster.nodes_) {
    node->svm->ReadVirtual(vaddr, buf.data(), bytes);
    sim::FnvFold(&h, buf.data(), bytes);
  }
  return h;
}

// Each node writes `bytes` of seeded random data at its data buffer.
void FillEachNode(Cluster& cluster, uint64_t bytes) {
  for (uint32_t i = 0; i < cluster.nodes_.size(); ++i) {
    std::vector<uint8_t> data(bytes);
    sim::Rng rng(500 + i);
    rng.FillBytes(data.data(), bytes);
    cluster.nodes_[i]->svm->WriteVirtual(cluster.nodes_[i]->data_vaddr, data.data(), bytes);
  }
}

// The constants below pin completion time, engine events and result bytes
// on 5 nodes with counts that split unevenly into chunks and MTU frames. A
// change to the step schedule, the segmentation or the retransmit timers
// moves them.
constexpr uint64_t kUnevenCount = 10'007;  // int32 elements: 5 chunks of 2002/1999

TEST(CollectivesTest, PinnedBroadcastFromRootOneOnFiveNodes) {
  Cluster cluster(5);
  FillEachNode(cluster, kUnevenCount * 4);
  const uint64_t vaddr = cluster.nodes_[0]->data_vaddr;
  Outcome out;
  cluster.group_->Broadcast(1, vaddr, kUnevenCount * 4, RecordInto(cluster, &out));
  cluster.engine_.RunUntilIdle();
  EXPECT_EQ(out.completions, 1);
  EXPECT_TRUE(out.ok);
  EXPECT_EQ(out.at, 18'580'320u);
  EXPECT_EQ(cluster.engine_.events_executed(), 260u);
  EXPECT_EQ(HashAllNodes(cluster, vaddr, kUnevenCount * 4), 0xf015c2ac9ddf8e47ull);
}

TEST(CollectivesTest, PinnedAllGatherOnFiveNodes) {
  constexpr uint64_t kChunk = 5000;  // two frames per chunk
  Cluster cluster(5);
  FillEachNode(cluster, 5 * kChunk);
  const uint64_t vaddr = cluster.nodes_[0]->data_vaddr;
  Outcome out;
  cluster.group_->AllGather(vaddr, kChunk, RecordInto(cluster, &out));
  cluster.engine_.RunUntilIdle();
  EXPECT_EQ(out.completions, 1);
  EXPECT_TRUE(out.ok);
  EXPECT_EQ(out.at, 13'416'320u);
  EXPECT_EQ(cluster.engine_.events_executed(), 344u);
  EXPECT_EQ(HashAllNodes(cluster, vaddr, 5 * kChunk), 0xc75636a57227fa24ull);
}

TEST(CollectivesTest, PinnedAllReduceOnFiveNodes) {
  // 10'007 elements split 2002 x 4 + 1999; 6 elements split 2, 2, 2, 0, 0,
  // so two chunks of every step are empty.
  struct Pin {
    uint64_t count;
    sim::TimePs at;
    uint64_t events;
    uint64_t hash;
  };
  for (const Pin& pin : {Pin{kUnevenCount, 28'757'760, 689, 0x1c0af0593a559119},
                         Pin{6, 20'984'320, 270, 0xe1fd269e3fe10913}}) {
    Cluster cluster(5);
    FillEachNode(cluster, pin.count * 4);
    const uint64_t vaddr = cluster.nodes_[0]->data_vaddr;
    Outcome out;
    cluster.group_->AllReduceInt32(vaddr, pin.count, RecordInto(cluster, &out));
    cluster.engine_.RunUntilIdle();
    EXPECT_EQ(out.completions, 1) << pin.count;
    EXPECT_TRUE(out.ok) << pin.count;
    EXPECT_EQ(out.at, pin.at) << pin.count;
    EXPECT_EQ(cluster.engine_.events_executed(), pin.events) << pin.count;
    EXPECT_EQ(HashAllNodes(cluster, vaddr, pin.count * 4), pin.hash) << pin.count;
  }
}

TEST(CollectivesTest, TrivialAllGatherAndAllReduceCompleteTrueOnceOneEventLater) {
  // One node, or zero bytes on three nodes: nothing moves, and each
  // collective still completes exactly once, never inside the call.
  for (const uint32_t n : {1u, 3u}) {
    Cluster cluster(n);
    const uint64_t units = n == 1 ? 64 : 0;
    const uint64_t vaddr = cluster.nodes_[0]->data_vaddr;
    Outcome gather, reduce;
    cluster.group_->AllGather(vaddr, units, RecordInto(cluster, &gather));
    cluster.group_->AllReduceInt32(vaddr, units, RecordInto(cluster, &reduce));
    EXPECT_EQ(gather.completions + reduce.completions, 0) << n;
    cluster.engine_.RunUntilIdle();
    EXPECT_EQ(gather.completions, 1) << n;
    EXPECT_TRUE(gather.ok) << n;
    EXPECT_EQ(reduce.completions, 1) << n;
    EXPECT_TRUE(reduce.ok) << n;
    EXPECT_EQ(cluster.engine_.events_executed(), 2u) << n;
    EXPECT_EQ(cluster.engine_.Now(), 0u) << n;
  }
}

TEST(CollectivesTest, WedgedQpFailsAllReduceOnceAtPinnedTime) {
  // Member 2's first posted WRITE wedges its QP to member 3: the retry budget
  // trips, that WRITE completes false, and the collective completes false
  // once, at the end of the first reduce-scatter step.
  Cluster cluster(5);
  FillEachNode(cluster, kUnevenCount * 4);
  sim::FaultPlan plan;
  plan.qp_wedge_first_n = 1;
  sim::FaultInjector injector(&cluster.engine_, plan);
  cluster.nodes_[2]->stack->SetFaultInjector(&injector);
  Outcome out;
  cluster.group_->AllReduceInt32(cluster.nodes_[0]->data_vaddr, kUnevenCount,
                                 RecordInto(cluster, &out));
  cluster.engine_.RunUntilIdle();
  EXPECT_EQ(out.completions, 1);
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(out.at, 15'100'000'000u);
  EXPECT_EQ(cluster.engine_.events_executed(), 78u);
  EXPECT_EQ(cluster.nodes_[2]->stack->retries_exhausted(), 1u);
  EXPECT_EQ(cluster.nodes_[2]->stack->error_completions(), 1u);
}

}  // namespace
}  // namespace net
}  // namespace coyote

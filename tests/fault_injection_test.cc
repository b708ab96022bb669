// Fault-injection tests: a seeded FaultPlan must be (a) survivable — every
// workload completes with bit-identical results under frame loss, corruption,
// duplication and delay — and (b) replayable — the same seed reproduces the
// exact same fault schedule and the same final statistics.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/memsys/card_memory.h"
#include "src/memsys/gpu_memory.h"
#include "src/memsys/host_memory.h"
#include "src/mmu/svm.h"
#include "src/net/network.h"
#include "src/net/roce.h"
#include "src/sim/engine.h"
#include "src/sim/fault.h"
#include "src/sim/rng.h"

namespace coyote {
namespace net {
namespace {

constexpr uint64_t kPage = 2ull << 20;

// Two RoCE endpoints over a faulty switch.
class FaultyRoceTest : public ::testing::Test {
 protected:
  FaultyRoceTest()
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

  void Inject(const sim::FaultPlan& plan) {
    injector_ = std::make_unique<sim::FaultInjector>(&engine_, plan);
    nw_.SetFaultInjector(injector_.get());
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
  std::unique_ptr<sim::FaultInjector> injector_;
  uint32_t qp_a_ = 0, qp_b_ = 0;
  uint64_t buf_a_ = 0, buf_b_ = 0;
};

// The acceptance-criteria plan: 1% drop + 0.1% corruption.
sim::FaultPlan LossyPlan(uint64_t seed) {
  sim::FaultPlan plan;
  plan.seed = seed;
  plan.frame_drop_rate = 0.01;
  plan.frame_corrupt_rate = 0.001;
  return plan;
}

TEST_F(FaultyRoceTest, WriteSurvivesDropAndCorruption) {
  Inject(LossyPlan(42));
  const auto data = FillA(4 << 20, 1);  // ~1k MTU frames
  bool done = false, ok = false;
  a_.PostWrite(qp_a_, buf_a_, buf_b_, data.size(), [&](bool k) {
    done = true;
    ok = k;
  });
  engine_.RunUntilCondition([&] { return done; });
  ASSERT_TRUE(ok);

  std::vector<uint8_t> got(data.size());
  svm_b_.ReadVirtual(buf_b_, got.data(), got.size());
  EXPECT_EQ(got, data);

  // Faults actually happened and were absorbed.
  EXPECT_GT(injector_->counters().value("net.frame_drop"), 0u);
  EXPECT_GT(a_.retransmitted_frames(), 0u);
  // Bounded recovery: go-back-N resends at most the unacked window per loss
  // (with corruption losses drawn from the same plan), never an unbounded
  // retry storm.
  const uint64_t losses = injector_->counters().value("net.frame_drop") +
                          injector_->counters().value("net.frame_corrupt");
  EXPECT_LT(a_.retransmitted_frames(), 128 * losses);
  EXPECT_EQ(a_.retries_exhausted(), 0u);
}

TEST_F(FaultyRoceTest, CorruptedFramesFailIcrcAndGetRetransmitted) {
  sim::FaultPlan plan;
  plan.seed = 7;
  plan.frame_corrupt_rate = 0.02;
  Inject(plan);

  const auto data = FillA(2 << 20, 2);
  bool done = false, ok = false;
  a_.PostWrite(qp_a_, buf_a_, buf_b_, data.size(), [&](bool k) {
    done = true;
    ok = k;
  });
  engine_.RunUntilCondition([&] { return done; });
  ASSERT_TRUE(ok);

  std::vector<uint8_t> got(data.size());
  svm_b_.ReadVirtual(buf_b_, got.data(), got.size());
  EXPECT_EQ(got, data);
  EXPECT_GT(nw_.frames_corrupted(), 0u);
  // Every corrupted frame that reached a stack was rejected by the ICRC.
  EXPECT_GT(a_.rx_malformed() + b_.rx_malformed(), 0u);
}

TEST_F(FaultyRoceTest, DuplicatesAndDelaysAreAbsorbed) {
  sim::FaultPlan plan;
  plan.seed = 9;
  plan.frame_duplicate_rate = 0.02;
  plan.frame_delay_rate = 0.02;
  plan.frame_delay_max = sim::Microseconds(40);  // below the ack timeout
  Inject(plan);

  const auto data = FillA(2 << 20, 3);
  bool done = false, ok = false;
  a_.PostWrite(qp_a_, buf_a_, buf_b_, data.size(), [&](bool k) {
    done = true;
    ok = k;
  });
  engine_.RunUntilCondition([&] { return done; });
  ASSERT_TRUE(ok);

  std::vector<uint8_t> got(data.size());
  svm_b_.ReadVirtual(buf_b_, got.data(), got.size());
  EXPECT_EQ(got, data);
  EXPECT_GT(nw_.frames_duplicated(), 0u);
  EXPECT_GT(nw_.frames_delayed(), 0u);
}

TEST_F(FaultyRoceTest, ReadSurvivesLossyPlan) {
  Inject(LossyPlan(11));
  std::vector<uint8_t> remote(2 << 20);
  sim::Rng rng(4);
  rng.FillBytes(remote.data(), remote.size());
  svm_b_.WriteVirtual(buf_b_, remote.data(), remote.size());

  bool done = false, ok = false;
  a_.PostRead(qp_a_, buf_a_, buf_b_, remote.size(), [&](bool k) {
    done = true;
    ok = k;
  });
  engine_.RunUntilCondition([&] { return done; });
  ASSERT_TRUE(ok);
  std::vector<uint8_t> got(remote.size());
  svm_a_.ReadVirtual(buf_a_, got.data(), got.size());
  EXPECT_EQ(got, remote);
}

TEST_F(FaultyRoceTest, BackoffGrowsUnderSustainedLoss) {
  // Heavy loss forces repeated timeouts on the same frames: the retransmit
  // timeout must double (bounded), not fire at a fixed period forever.
  sim::FaultPlan plan;
  plan.seed = 13;
  plan.frame_drop_rate = 0.30;
  Inject(plan);

  const auto data = FillA(256 << 10, 5);
  bool done = false;
  a_.PostWrite(qp_a_, buf_a_, buf_b_, data.size(), [&](bool) { done = true; });
  engine_.RunUntilCondition([&] { return done; });

  EXPECT_GT(a_.timeouts(), 0u);
  EXPECT_GE(a_.backoff_events(), 1u);
}

TEST_F(FaultyRoceTest, NodeOutageKillsTransferWithErrorCompletion) {
  // The peer dies shortly after the transfer starts and never comes back
  // within the retry budget: the sender must report failure, not hang.
  sim::FaultPlan plan;
  plan.seed = 17;
  plan.outages.push_back({0x0A000002, sim::Microseconds(50), sim::Seconds(10)});
  Inject(plan);

  const auto data = FillA(1 << 20, 6);
  bool done = false, ok = true;
  a_.PostWrite(qp_a_, buf_a_, buf_b_, data.size(), [&](bool k) {
    done = true;
    ok = k;
  });
  engine_.RunUntilCondition([&] { return done; });
  EXPECT_TRUE(done);
  EXPECT_FALSE(ok);
  EXPECT_EQ(a_.retries_exhausted(), 1u);
  EXPECT_EQ(a_.error_completions(), 1u);
  // The budget bounds the retry count.
  EXPECT_LE(a_.timeouts(), RoceStack::kMaxRetries + 1);
  EXPECT_GT(injector_->counters().value("net.outage_drop"), 0u);
}

TEST_F(FaultyRoceTest, NodeRecoversAfterOutageWindow) {
  // A short outage inside the retry budget: the transfer rides it out via
  // backoff and still completes correctly.
  sim::FaultPlan plan;
  plan.seed = 19;
  plan.outages.push_back({0x0A000002, sim::Microseconds(20), sim::Microseconds(400)});
  Inject(plan);

  const auto data = FillA(256 << 10, 7);
  bool done = false, ok = false;
  a_.PostWrite(qp_a_, buf_a_, buf_b_, data.size(), [&](bool k) {
    done = true;
    ok = k;
  });
  engine_.RunUntilCondition([&] { return done; });
  ASSERT_TRUE(ok);
  std::vector<uint8_t> got(data.size());
  svm_b_.ReadVirtual(buf_b_, got.data(), got.size());
  EXPECT_EQ(got, data);
  EXPECT_GT(injector_->counters().value("net.outage_drop"), 0u);
  EXPECT_EQ(a_.retries_exhausted(), 0u);
}

TEST_F(FaultyRoceTest, SameSeedReproducesSchedule) {
  // Run the identical workload twice under two injectors with the same seed:
  // fingerprints, counters and final payloads must match exactly.
  auto run = [](uint64_t seed, uint64_t* fingerprint, sim::CounterSet* counters,
                std::vector<uint8_t>* payload, sim::TimePs* final_time) {
    sim::Engine engine;
    Network nw(&engine, {});
    memsys::HostMemory host_a, host_b;
    memsys::CardMemory card_a(&engine, {}), card_b(&engine, {});
    memsys::GpuMemory gpu_a, gpu_b;
    mmu::Svm svm_a(&engine, &host_a, &card_a, &gpu_a, kPage);
    mmu::Svm svm_b(&engine, &host_b, &card_b, &gpu_b, kPage);
    RoceStack a(&engine, &nw, 0x0A000001, &svm_a);
    RoceStack b(&engine, &nw, 0x0A000002, &svm_b);
    const uint32_t qa = a.CreateQp();
    const uint32_t qb = b.CreateQp();
    a.Connect(qa, 0x0A000002, qb);
    b.Connect(qb, 0x0A000001, qa);
    const uint64_t buf_a = host_a.Allocate(8ull << 20, memsys::AllocKind::kHuge2M);
    svm_a.RegisterHostBuffer(buf_a, 8ull << 20);
    const uint64_t buf_b = host_b.Allocate(8ull << 20, memsys::AllocKind::kHuge2M);
    svm_b.RegisterHostBuffer(buf_b, 8ull << 20);

    sim::FaultInjector injector(&engine, LossyPlan(seed));
    nw.SetFaultInjector(&injector);

    std::vector<uint8_t> data(2 << 20);
    sim::Rng rng(99);
    rng.FillBytes(data.data(), data.size());
    svm_a.WriteVirtual(buf_a, data.data(), data.size());

    bool done = false;
    a.PostWrite(qa, buf_a, buf_b, data.size(), [&](bool) { done = true; });
    engine.RunUntilCondition([&] { return done; });

    *fingerprint = injector.ScheduleFingerprint();
    *counters = injector.counters();
    payload->resize(data.size());
    svm_b.ReadVirtual(buf_b, payload->data(), payload->size());
    *final_time = engine.Now();
  };

  uint64_t fp1 = 0, fp2 = 0;
  sim::CounterSet c1, c2;
  std::vector<uint8_t> p1, p2;
  sim::TimePs t1 = 0, t2 = 0;
  run(1234, &fp1, &c1, &p1, &t1);
  run(1234, &fp2, &c2, &p2, &t2);

  EXPECT_EQ(fp1, fp2);
  EXPECT_EQ(c1, c2);
  EXPECT_EQ(c1.Fingerprint(), c2.Fingerprint());
  EXPECT_EQ(p1, p2);
  EXPECT_EQ(t1, t2);
  EXPECT_GT(c1.total(), 0u);

  // A different seed produces a different schedule.
  uint64_t fp3 = 0;
  sim::CounterSet c3;
  std::vector<uint8_t> p3;
  sim::TimePs t3 = 0;
  run(5678, &fp3, &c3, &p3, &t3);
  EXPECT_NE(fp1, fp3);
  // ...but the delivered payload is still correct.
  EXPECT_EQ(p3, p1);
}

TEST(FaultInjectorTest, DomainsAreIndependent) {
  // Drawing network decisions must not perturb the reconfig schedule: the
  // reconfig stream of a fresh injector matches one that interleaved
  // thousands of network draws.
  sim::Engine engine;
  sim::FaultPlan plan;
  plan.seed = 77;
  plan.frame_drop_rate = 0.5;
  plan.reconfig_fail_rate = 0.3;

  sim::FaultInjector solo(&engine, plan);
  std::vector<bool> expected;
  for (int i = 0; i < 100; ++i) {
    expected.push_back(solo.NextReconfigFails());
  }

  sim::FaultInjector mixed(&engine, plan);
  std::vector<bool> got;
  for (int i = 0; i < 100; ++i) {
    for (int j = 0; j < 37; ++j) {
      mixed.OnFrame(1, 2, 1500);
    }
    got.push_back(mixed.NextReconfigFails());
  }
  EXPECT_EQ(got, expected);
}

TEST(FaultInjectorTest, FailFirstNIsDeterministic) {
  sim::Engine engine;
  sim::FaultPlan plan;
  plan.seed = 3;
  plan.reconfig_fail_first_n = 2;
  sim::FaultInjector injector(&engine, plan);
  EXPECT_TRUE(injector.NextReconfigFails());
  EXPECT_TRUE(injector.NextReconfigFails());
  EXPECT_FALSE(injector.NextReconfigFails());
  EXPECT_EQ(injector.counters().value("reconfig.fail"), 2u);
}

}  // namespace
}  // namespace net
}  // namespace coyote

// Chaos/soak tests: every workload the repo models — AES offload, HLL
// cardinality, NN inference, RDMA ping-pong, collectives — must produce
// bit-identical results with a fault plan active (XDMA stalls, TLB-miss
// storms, frame drops/corruption, failing ICAP programs). Faults may cost
// simulated time and retries; they must never cost correctness. Every plan
// is seeded, so a failing run is replayable from the seed printed in the
// assertion message.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "src/memsys/card_memory.h"
#include "src/sim/access_guard.h"
#include "src/memsys/gpu_memory.h"
#include "src/memsys/host_memory.h"
#include "src/mmu/svm.h"
#include "src/net/collectives.h"
#include "src/net/network.h"
#include "src/net/roce.h"
#include "src/runtime/crcnfg.h"
#include "src/runtime/cthread.h"
#include "src/runtime/device.h"
#include "src/runtime/serving.h"
#include "src/runtime/supervisor.h"
#include "src/services/aes.h"
#include "src/services/aes_kernels.h"
#include "src/services/hll.h"
#include "src/services/nn.h"
#include "src/services/vector_kernels.h"
#include "src/sim/engine.h"
#include "src/sim/fault.h"
#include "src/sim/hash.h"
#include "src/sim/rng.h"
#include "src/synth/flow.h"
#include "src/synth/netlist.h"

namespace coyote {
namespace {

using runtime::Alloc;
using runtime::CThread;
using runtime::Oper;
using runtime::SgEntry;
using runtime::OpStatus;
using runtime::SimDevice;
namespace serving = runtime::serving;

SimDevice::Config DeviceConfig() {
  SimDevice::Config cfg;
  cfg.shell.name = "chaos-shell";
  cfg.shell.services = {fabric::Service::kHostStream, fabric::Service::kCardMemory};
  cfg.shell.num_vfpgas = 1;
  return cfg;
}

// Host-link chaos: stall a fraction of XDMA packets and force TLB misses so
// translations storm the driver-fallback path.
sim::FaultPlan HostChaosPlan(uint64_t seed) {
  sim::FaultPlan plan;
  plan.seed = seed;
  // The data mover submits few, large DMA packets per transfer, so the stall
  // rate must be high for a short workload to hit one.
  plan.xdma_stall_rate = 0.9;
  plan.xdma_stall_ps = sim::Microseconds(5);
  plan.tlb_force_miss_rate = 0.25;
  return plan;
}

// The acceptance-criteria network plan: 1% drop + 0.1% corruption.
sim::FaultPlan LossyNetPlan(uint64_t seed) {
  sim::FaultPlan plan;
  plan.seed = seed;
  plan.frame_drop_rate = 0.01;
  plan.frame_corrupt_rate = 0.001;
  return plan;
}

std::vector<uint8_t> RandomBytes(uint64_t n, uint64_t seed) {
  std::vector<uint8_t> v(n);
  sim::Rng rng(seed);
  rng.FillBytes(v.data(), n);
  return v;
}

// Supervisor tuned for soak time scales: tight watchdog, short hang window.
runtime::Supervisor::Config SoakSupervisorConfig() {
  runtime::Supervisor::Config cfg;
  cfg.watchdog_period = sim::Microseconds(20);
  cfg.heartbeat_deadline = sim::Microseconds(60);
  cfg.probation_ticks = 2;
  return cfg;
}

// --- Device workloads under host-link chaos ----------------------------------

TEST(ChaosSoakTest, AesOffloadBitIdenticalUnderHostChaos) {
  const uint64_t kKeyLo = 0x6167717a7a767668ull;
  const uint64_t kKeyHi = 0x1122334455667788ull;
  constexpr uint64_t kBytes = 32 * 1024;
  const auto plain = RandomBytes(kBytes, 11);

  auto run = [&](bool chaos) -> std::pair<std::vector<uint8_t>, sim::TimePs> {
    SimDevice dev(DeviceConfig());
    std::unique_ptr<sim::FaultInjector> injector;
    if (chaos) {
      injector = std::make_unique<sim::FaultInjector>(&dev.engine(), HostChaosPlan(11));
      dev.AttachFaultInjector(injector.get());
    }
    dev.vfpga(0).LoadKernel(std::make_unique<services::AesEcbKernel>());
    CThread t(&dev, 0);
    t.SetCsr(kKeyLo, services::kAesCsrKeyLo);
    t.SetCsr(kKeyHi, services::kAesCsrKeyHi);
    serving::ServingRequest req;
    req.kernel = "aes-ecb";
    req.payload = axi::BufferView(plain);
    const sim::TimePs start = dev.engine().Now();
    std::vector<uint8_t> cipher;
    const serving::ServingCompletion done = serving::ExecuteSync(&t, req, &cipher);
    EXPECT_EQ(done.status, OpStatus::kOk);
    const sim::TimePs elapsed = done.completed_at - start;
    if (chaos) {
      // The plan actually perturbed the run.
      EXPECT_GT(injector->counters().value("xdma.stall"), 0u);
      EXPECT_GT(injector->counters().value("mmu.forced_tlb_miss"), 0u);
    }
    return {std::move(cipher), elapsed};
  };

  const auto [clean_cipher, clean_time] = run(false);
  const auto [chaos_cipher, chaos_time] = run(true);
  services::Aes128 sw(kKeyLo, kKeyHi);
  EXPECT_EQ(clean_cipher, sw.EncryptEcb(plain));
  EXPECT_EQ(chaos_cipher, clean_cipher);   // bit-identical under faults
  EXPECT_GT(chaos_time, clean_time);       // faults cost time, not correctness
}

TEST(ChaosSoakTest, HllEstimateBitIdenticalUnderHostChaos) {
  constexpr uint64_t kItems = 50'000;
  std::vector<uint64_t> items(kItems);
  sim::Rng rng(12);
  for (auto& x : items) {
    x = rng.NextBounded(10'000);
  }

  auto run = [&](bool chaos) -> double {
    SimDevice dev(DeviceConfig());
    std::unique_ptr<sim::FaultInjector> injector;
    if (chaos) {
      injector = std::make_unique<sim::FaultInjector>(&dev.engine(), HostChaosPlan(12));
      dev.AttachFaultInjector(injector.get());
    }
    dev.vfpga(0).LoadKernel(std::make_unique<services::HllKernel>());
    CThread t(&dev, 0);
    std::vector<uint8_t> bytes(kItems * 8);
    std::memcpy(bytes.data(), items.data(), bytes.size());
    serving::ServingRequest req;
    req.kernel = "hll";
    req.payload = axi::BufferView(std::move(bytes));
    req.response_bytes = 8;
    std::vector<uint8_t> out;
    EXPECT_EQ(serving::ExecuteSync(&t, req, &out).status, OpStatus::kOk);
    double estimate = 0;
    std::memcpy(&estimate, out.data(), 8);
    return estimate;
  };

  const double clean = run(false);
  const double chaos = run(true);
  EXPECT_EQ(clean, chaos);  // exact double equality: same registers, same sum
  EXPECT_NEAR(clean, 10'000.0, 0.05 * 10'000.0);
}

TEST(ChaosSoakTest, NnInferenceBitIdenticalUnderHostChaos) {
  const services::MlpSpec spec = services::MakeIntrusionDetectionMlp();
  constexpr size_t kSamples = 32;
  std::vector<int8_t> inputs(kSamples * spec.input_dim());
  sim::Rng rng(13);
  for (auto& x : inputs) {
    x = static_cast<int8_t>(static_cast<int64_t>(rng.NextBounded(255)) - 127);
  }

  auto run = [&](bool chaos) -> std::vector<int8_t> {
    SimDevice dev(DeviceConfig());
    std::unique_ptr<sim::FaultInjector> injector;
    if (chaos) {
      injector = std::make_unique<sim::FaultInjector>(&dev.engine(), HostChaosPlan(13));
      dev.AttachFaultInjector(injector.get());
    }
    dev.vfpga(0).LoadKernel(std::make_unique<services::NnKernel>(spec));
    CThread t(&dev, 0);
    std::vector<uint8_t> in_bytes(inputs.size());
    std::memcpy(in_bytes.data(), inputs.data(), inputs.size());
    serving::ServingRequest req;
    req.kernel = "nn";
    req.payload = axi::BufferView(std::move(in_bytes));
    req.response_bytes = kSamples * spec.output_dim();
    std::vector<uint8_t> out_bytes;
    EXPECT_EQ(serving::ExecuteSync(&t, req, &out_bytes).status, OpStatus::kOk);
    std::vector<int8_t> out(out_bytes.size());
    std::memcpy(out.data(), out_bytes.data(), out_bytes.size());
    return out;
  };

  const auto clean = run(false);
  const auto chaos = run(true);
  EXPECT_EQ(clean, chaos);
  // And both match the software model sample-by-sample.
  for (size_t s = 0; s < kSamples; ++s) {
    const auto expect = services::MlpForward(spec, &inputs[s * spec.input_dim()]);
    for (uint32_t j = 0; j < spec.output_dim(); ++j) {
      ASSERT_EQ(clean[s * spec.output_dim() + j], expect[j]) << "sample " << s;
    }
  }
}

// --- Reconfiguration under ICAP faults ----------------------------------------

class ReconfigChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cfg_ = DeviceConfig();
    dev_ = std::make_unique<SimDevice>(cfg_);
    dev_->RegisterKernelFactory(
        "passthrough", []() { return std::make_unique<services::PassthroughKernel>(); });
    synth::BuildFlow flow(dev_->floorplan());
    synth::Netlist passthrough{"passthrough", {synth::LibraryModule("passthrough")}};
    auto out = flow.RunShellFlow(cfg_.shell, {passthrough});
    ASSERT_TRUE(out.ok) << out.error;
    dev_->WriteBitstreamFile("/bit/app.bin", out.app_bitstreams[0]);
    dev_->WriteBitstreamFile("/bit/fallback.bin", out.app_bitstreams[0]);
  }

  SimDevice::Config cfg_;
  std::unique_ptr<SimDevice> dev_;
};

TEST_F(ReconfigChaosTest, DriverRetriesFailedProgramsAndSucceeds) {
  sim::FaultPlan plan;
  plan.seed = 21;
  plan.reconfig_fail_first_n = 2;  // budget is 3 attempts: the third lands
  sim::FaultInjector injector(&dev_->engine(), plan);
  dev_->AttachFaultInjector(&injector);

  runtime::CRcnfg rcnfg(dev_.get());
  const auto result = rcnfg.ReconfigureApp("/bit/app.bin", 0);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.attempts, 3u);
  EXPECT_FALSE(result.used_fallback);
  EXPECT_EQ(injector.counters().value("reconfig.fail"), 2u);
  EXPECT_EQ(dev_->reconfig_controller().programs_failed(), 2u);
  EXPECT_NE(dev_->vfpga(0).kernel(), nullptr);
}

TEST_F(ReconfigChaosTest, FallbackBitstreamLandsWhenPrimaryExhaustsRetries) {
  sim::FaultPlan plan;
  plan.seed = 22;
  plan.reconfig_fail_first_n = 3;  // primary's whole budget fails
  sim::FaultInjector injector(&dev_->engine(), plan);
  dev_->AttachFaultInjector(&injector);

  runtime::CRcnfg rcnfg(dev_.get());
  const auto result = rcnfg.ReconfigureAppWithFallback("/bit/app.bin", "/bit/fallback.bin", 0);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.used_fallback);
  EXPECT_EQ(result.attempts, 4u);  // 3 failed on primary + 1 good on fallback
  EXPECT_NE(dev_->vfpga(0).kernel(), nullptr);
}

TEST_F(ReconfigChaosTest, FailedReconfigLeavesRegionEmptyAndReportsError) {
  sim::FaultPlan plan;
  plan.seed = 23;
  plan.reconfig_fail_rate = 1.0;  // nothing ever lands
  sim::FaultInjector injector(&dev_->engine(), plan);
  dev_->AttachFaultInjector(&injector);

  runtime::CRcnfg rcnfg(dev_.get());
  const auto result = rcnfg.ReconfigureApp("/bit/app.bin", 0);
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.attempts, SimDevice::kReconfigMaxRetries);
  EXPECT_NE(result.error.find("attempts"), std::string::npos);
  EXPECT_EQ(dev_->vfpga(0).kernel(), nullptr);
}

// --- Hang profiles: supervised recovery under chaos ----------------------------

TEST_F(ReconfigChaosTest, HungKernelRecoveredBySupervisor) {
  sim::FaultPlan plan;
  plan.seed = 24;
  plan.kernel_hang_first_n = 1;  // the first kernel wedges on first data
  plan.xdma_stall_rate = 0.5;    // host-link chaos stays on during recovery
  plan.xdma_stall_ps = sim::Microseconds(2);
  sim::FaultInjector injector(&dev_->engine(), plan);
  dev_->AttachFaultInjector(&injector);
  ASSERT_TRUE(runtime::CRcnfg(dev_.get()).ReconfigureApp("/bit/app.bin", 0).ok);

  runtime::Supervisor sup(dev_.get(), nullptr, SoakSupervisorConfig());
  sup.SetLastKnownGood(0, "/bit/app.bin");
  sup.Start();

  CThread t(dev_.get(), 0);
  constexpr uint64_t kBytes = 64 << 10;
  const auto data = RandomBytes(kBytes, 24);
  const uint64_t src = t.GetMem({Alloc::kHpf, kBytes});
  const uint64_t dst = t.GetMem({Alloc::kHpf, kBytes});
  t.WriteBuffer(src, data.data(), kBytes);
  SgEntry sg;
  sg.local = {.src_addr = src, .src_len = kBytes, .dst_addr = dst, .dst_len = kBytes};

  // The wedged transfer error-completes instead of hanging: the watchdog
  // detects the flat heartbeats and the recovery aborts the stuck DMA.
  EXPECT_FALSE(t.InvokeSync(Oper::kLocalTransfer, sg));
  EXPECT_EQ(sup.hangs_detected(), 1u);

  // The retry goes out at once, while the region still reprograms, and
  // completes on the hot-swapped kernel bit-identically.
  const CThread::Task retry = t.Invoke(Oper::kLocalTransfer, sg);
  ASSERT_TRUE(dev_->WaitFor([&] { return sup.recoveries() == 1; }));
  EXPECT_EQ(sup.recoveries(), 1u);
  EXPECT_EQ(injector.counters().value("kernel.hang"), 1u);
  EXPECT_TRUE(t.Wait(retry));
  std::vector<uint8_t> out(kBytes);
  t.ReadBuffer(dst, out.data(), kBytes);
  EXPECT_EQ(out, data);
  sup.Stop();
}

TEST_F(ReconfigChaosTest, IcapFailureMidRecoveryIsAbsorbedByDriverRetry) {
  sim::FaultPlan plan;
  plan.seed = 25;
  plan.kernel_hang_first_n = 1;
  plan.reconfig_fail_first_n = 1;  // the first recovery program aborts mid-bitstream
  sim::FaultInjector injector(&dev_->engine(), plan);
  dev_->AttachFaultInjector(&injector);
  // Load directly so the injected ICAP failure is saved for the recovery path.
  dev_->vfpga(0).LoadKernel(std::make_unique<services::PassthroughKernel>());

  runtime::Supervisor sup(dev_.get(), nullptr, SoakSupervisorConfig());
  sup.SetLastKnownGood(0, "/bit/app.bin");
  sup.Start();

  CThread t(dev_.get(), 0);
  constexpr uint64_t kBytes = 64 << 10;
  const auto data = RandomBytes(kBytes, 25);
  const uint64_t src = t.GetMem({Alloc::kHpf, kBytes});
  const uint64_t dst = t.GetMem({Alloc::kHpf, kBytes});
  t.WriteBuffer(src, data.data(), kBytes);
  SgEntry sg;
  sg.local = {.src_addr = src, .src_len = kBytes, .dst_addr = dst, .dst_len = kBytes};
  EXPECT_FALSE(t.InvokeSync(Oper::kLocalTransfer, sg));
  ASSERT_TRUE(dev_->WaitFor([&] { return sup.recoveries() == 1; }));

  // Layered recovery: the transient ICAP abort is retried by the driver's
  // own program budget (ReconfigureApp restages and the second attempt
  // lands), so the supervisor's recovery budget — reserved for persistent
  // failure — is untouched, and the incident ends recovered on attempt one.
  EXPECT_EQ(injector.counters().value("reconfig.fail"), 1u);
  EXPECT_EQ(dev_->reconfig_controller().programs_failed(), 1u);
  EXPECT_EQ(sup.failed_recoveries(), 0u);
  EXPECT_EQ(sup.recoveries(), 1u);
  ASSERT_EQ(sup.incidents().size(), 1u);
  EXPECT_TRUE(sup.incidents()[0].recovered);
  EXPECT_GT(sup.incidents()[0].mttr, 0u);

  EXPECT_TRUE(t.InvokeSync(Oper::kLocalTransfer, sg));
  std::vector<uint8_t> out(kBytes);
  t.ReadBuffer(dst, out.data(), kBytes);
  EXPECT_EQ(out, data);
  sup.Stop();
}

// --- Networked workloads under a lossy fabric ---------------------------------

constexpr uint64_t kPage = 2ull << 20;

// A simulated cluster of RoCE nodes on one lossy network (the
// collectives_test harness plus a fault injector).
class LossyCluster {
 public:
  LossyCluster(uint32_t n, uint64_t seed) : LossyCluster(n, LossyNetPlan(seed)) {}

  LossyCluster(uint32_t n, const sim::FaultPlan& plan)
      : network_(&engine_, {}), injector_(&engine_, plan) {
    network_.SetFaultInjector(&injector_);
    for (uint32_t i = 0; i < n; ++i) {
      auto node = std::make_unique<Node>();
      node->card =
          std::make_unique<memsys::CardMemory>(&engine_, memsys::CardMemory::Config{});
      node->svm = std::make_unique<mmu::Svm>(&engine_, &node->host, node->card.get(),
                                             &node->gpu, kPage);
      node->stack = std::make_unique<net::RoceStack>(&engine_, &network_, 0x0A000001 + i,
                                                     node->svm.get());
      node->stack->SetFaultInjector(&injector_);
      node->data_vaddr = node->host.Allocate(8ull << 20, memsys::AllocKind::kHuge2M);
      node->svm->RegisterHostBuffer(node->data_vaddr, 8ull << 20);
      node->scratch_vaddr = node->host.Allocate(8ull << 20, memsys::AllocKind::kHuge2M);
      node->svm->RegisterHostBuffer(node->scratch_vaddr, 8ull << 20);
      nodes_.push_back(std::move(node));
    }
    std::vector<net::CollectiveGroup::Member> members;
    for (auto& node : nodes_) {
      members.push_back({node->stack.get(), node->svm.get(), node->scratch_vaddr});
    }
    group_ = std::make_unique<net::CollectiveGroup>(&engine_, std::move(members));
  }

  struct Node {
    memsys::HostMemory host;
    std::unique_ptr<memsys::CardMemory> card;
    memsys::GpuMemory gpu;
    std::unique_ptr<mmu::Svm> svm;
    std::unique_ptr<net::RoceStack> stack;
    uint64_t data_vaddr = 0;
    uint64_t scratch_vaddr = 0;
  };

  sim::Engine engine_;
  net::Network network_;
  sim::FaultInjector injector_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::unique_ptr<net::CollectiveGroup> group_;
};

TEST(ChaosSoakTest, RdmaPingpongSurvivesLossyFabric) {
  LossyCluster cluster(2, 31);
  auto& a = *cluster.nodes_[0];
  auto& b = *cluster.nodes_[1];
  const uint32_t qp_a = a.stack->CreateQp();
  const uint32_t qp_b = b.stack->CreateQp();
  a.stack->Connect(qp_a, b.stack->ip(), qp_b);
  b.stack->Connect(qp_b, a.stack->ip(), qp_a);

  constexpr uint64_t kBytes = 1 << 20;
  const auto payload = RandomBytes(kBytes, 31);
  a.svm->WriteVirtual(a.data_vaddr, payload.data(), kBytes);
  b.stack->SetWriteArrivalHandler(qp_b, [&](uint64_t, uint64_t got) {
    b.stack->PostWrite(qp_b, b.data_vaddr, a.scratch_vaddr, got, nullptr);
  });
  for (int i = 0; i < 4; ++i) {
    bool pong = false;
    a.stack->SetWriteArrivalHandler(qp_a, [&](uint64_t, uint64_t) { pong = true; });
    a.stack->PostWrite(qp_a, a.data_vaddr, b.data_vaddr, kBytes, nullptr);
    ASSERT_TRUE(cluster.engine_.RunUntilCondition([&] { return pong; })) << "iteration " << i;
  }

  // Payload intact at B and in the echo at A.
  std::vector<uint8_t> at_b(kBytes), at_a(kBytes);
  b.svm->ReadVirtual(b.data_vaddr, at_b.data(), kBytes);
  a.svm->ReadVirtual(a.scratch_vaddr, at_a.data(), kBytes);
  EXPECT_EQ(at_b, payload);
  EXPECT_EQ(at_a, payload);

  // The acceptance criteria: faults really fired, recovery used backoff, the
  // retry budget was never exhausted and the retry count stayed bounded.
  const uint64_t drops = cluster.injector_.counters().value("net.frame_drop");
  const uint64_t corrupts = cluster.injector_.counters().value("net.frame_corrupt");
  EXPECT_GT(drops, 0u);
  EXPECT_GE(a.stack->backoff_events() + b.stack->backoff_events(), 1u);
  EXPECT_EQ(a.stack->retries_exhausted(), 0u);
  EXPECT_EQ(b.stack->retries_exhausted(), 0u);
  EXPECT_EQ(a.stack->error_completions(), 0u);
  const uint64_t retransmits =
      a.stack->retransmitted_frames() + b.stack->retransmitted_frames();
  EXPECT_GT(retransmits, 0u);
  // Go-back-N resends a window per loss, never more than ~a window's worth.
  EXPECT_LT(retransmits, 64 * (drops + corrupts + 1));
}

TEST(ChaosSoakTest, WedgedQpFailsToErrorStateAndResetsCleanly) {
  sim::FaultPlan plan;
  plan.seed = 33;
  plan.qp_wedge_first_n = 1;  // the first posted WR wedges its QP's egress
  LossyCluster cluster(2, plan);
  auto& a = *cluster.nodes_[0];
  auto& b = *cluster.nodes_[1];
  const uint32_t qp_a = a.stack->CreateQp();
  const uint32_t qp_b = b.stack->CreateQp();
  a.stack->Connect(qp_a, b.stack->ip(), qp_b);
  b.stack->Connect(qp_b, a.stack->ip(), qp_a);

  constexpr uint64_t kBytes = 256 << 10;
  const auto payload = RandomBytes(kBytes, 33);
  a.svm->WriteVirtual(a.data_vaddr, payload.data(), kBytes);

  // The wedged QP transmits nothing: timeouts back off, the retry budget
  // drains, and the WR error-completes instead of hanging forever.
  bool done = false, ok = true;
  a.stack->PostWrite(qp_a, a.data_vaddr, b.data_vaddr, kBytes, [&](bool k) {
    done = true;
    ok = k;
  });
  ASSERT_TRUE(cluster.engine_.RunUntilCondition([&] { return done; }));
  EXPECT_FALSE(ok);
  EXPECT_EQ(a.stack->qp_state(qp_a), net::RoceStack::QpState::kError);
  EXPECT_EQ(a.stack->retries_exhausted(), 1u);
  EXPECT_GT(a.stack->backoff_events(), 0u);
  EXPECT_GT(a.stack->error_completions(), 0u);

  // SQ drain semantics: posts on the errored QP bounce with error CQEs.
  bool bounced = false, bounced_ok = true;
  a.stack->PostWrite(qp_a, a.data_vaddr, b.data_vaddr, 4096, [&](bool k) {
    bounced = true;
    bounced_ok = k;
  });
  ASSERT_TRUE(cluster.engine_.RunUntilCondition([&] { return bounced; }));
  EXPECT_FALSE(bounced_ok);

  // Driver-mediated re-init handshake: both ends reset, then re-Connect.
  EXPECT_TRUE(a.stack->ResetQp(qp_a));
  EXPECT_TRUE(b.stack->ResetQp(qp_b));
  a.stack->Connect(qp_a, b.stack->ip(), qp_b);
  b.stack->Connect(qp_b, a.stack->ip(), qp_a);
  EXPECT_EQ(a.stack->qp_state(qp_a), net::RoceStack::QpState::kReadyToSend);

  bool done2 = false, ok2 = false;
  a.stack->PostWrite(qp_a, a.data_vaddr, b.data_vaddr, kBytes, [&](bool k) {
    done2 = true;
    ok2 = k;
  });
  ASSERT_TRUE(cluster.engine_.RunUntilCondition([&] { return done2; }));
  EXPECT_TRUE(ok2);
  std::vector<uint8_t> got(kBytes);
  b.svm->ReadVirtual(b.data_vaddr, got.data(), kBytes);
  EXPECT_EQ(got, payload);  // the reset pair delivers intact data
}

TEST(ChaosSoakTest, AllReduceBitIdenticalUnderLossyFabric) {
  constexpr uint32_t kNodes = 4;
  constexpr uint64_t kCount = 8 * 1024;
  LossyCluster cluster(kNodes, 32);
  std::vector<int32_t> expected(kCount, 0);
  for (uint32_t i = 0; i < kNodes; ++i) {
    std::vector<int32_t> values(kCount);
    sim::Rng rng(300 + i);
    for (uint64_t e = 0; e < kCount; ++e) {
      values[e] = static_cast<int32_t>(rng.NextBounded(2000)) - 1000;
      expected[e] += values[e];
    }
    cluster.nodes_[i]->svm->WriteVirtual(cluster.nodes_[i]->data_vaddr, values.data(),
                                         kCount * 4);
  }
  bool done = false;
  cluster.group_->AllReduceInt32(cluster.nodes_[0]->data_vaddr, kCount, [&](bool) { done = true; });
  ASSERT_TRUE(cluster.engine_.RunUntilCondition([&] { return done; }));

  for (uint32_t i = 0; i < kNodes; ++i) {
    std::vector<int32_t> got(kCount);
    cluster.nodes_[i]->svm->ReadVirtual(cluster.nodes_[i]->data_vaddr, got.data(), kCount * 4);
    EXPECT_EQ(got, expected) << "node " << i;
    EXPECT_EQ(cluster.nodes_[i]->stack->retries_exhausted(), 0u);
  }
  // Every frame consulted the plan (whether or not a fault fired).
  EXPECT_GT(cluster.injector_.decisions(), 0u);
}

TEST(ChaosSoakTest, MultiSeedSoakAllWorkloadsStayCorrect) {
  // Soak: sweep fault schedules. Each seed produces a different loss pattern;
  // every one of them must still deliver correct bytes everywhere.
  for (uint64_t seed = 100; seed < 104; ++seed) {
    LossyCluster cluster(3, seed);
    auto& a = *cluster.nodes_[0];
    auto& b = *cluster.nodes_[1];
    const uint32_t qp_a = a.stack->CreateQp();
    const uint32_t qp_b = b.stack->CreateQp();
    a.stack->Connect(qp_a, b.stack->ip(), qp_b);
    b.stack->Connect(qp_b, a.stack->ip(), qp_a);

    // Workload 1: a bulk RDMA WRITE.
    constexpr uint64_t kBytes = 256 << 10;
    const auto payload = RandomBytes(kBytes, seed);
    a.svm->WriteVirtual(a.data_vaddr, payload.data(), kBytes);
    bool write_done = false, write_ok = false;
    a.stack->PostWrite(qp_a, a.data_vaddr, b.data_vaddr, kBytes, [&](bool ok) {
      write_done = true;
      write_ok = ok;
    });
    ASSERT_TRUE(cluster.engine_.RunUntilCondition([&] { return write_done; }))
        << "seed " << seed;
    EXPECT_TRUE(write_ok) << "seed " << seed;
    std::vector<uint8_t> got(kBytes);
    b.svm->ReadVirtual(b.data_vaddr, got.data(), kBytes);
    EXPECT_EQ(got, payload) << "seed " << seed;

    // Workload 2: an allreduce across all three nodes.
    constexpr uint64_t kCount = 4096;
    std::vector<int32_t> expected(kCount, 0);
    for (uint32_t i = 0; i < 3; ++i) {
      std::vector<int32_t> values(kCount);
      sim::Rng rng(seed * 10 + i);
      for (uint64_t e = 0; e < kCount; ++e) {
        values[e] = static_cast<int32_t>(rng.NextBounded(2000)) - 1000;
        expected[e] += values[e];
      }
      cluster.nodes_[i]->svm->WriteVirtual(cluster.nodes_[i]->data_vaddr, values.data(),
                                           kCount * 4);
    }
    bool reduce_done = false;
    cluster.group_->AllReduceInt32(cluster.nodes_[0]->data_vaddr, kCount,
                                   [&](bool) { reduce_done = true; });
    ASSERT_TRUE(cluster.engine_.RunUntilCondition([&] { return reduce_done; }))
        << "seed " << seed;
    for (uint32_t i = 0; i < 3; ++i) {
      std::vector<int32_t> sums(kCount);
      cluster.nodes_[i]->svm->ReadVirtual(cluster.nodes_[i]->data_vaddr, sums.data(),
                                          kCount * 4);
      EXPECT_EQ(sums, expected) << "seed " << seed << " node " << i;
      EXPECT_EQ(cluster.nodes_[i]->stack->retries_exhausted(), 0u) << "seed " << seed;
    }
    EXPECT_GT(cluster.injector_.decisions(), 0u);
  }
}

// --- Combined chaos: the acceptance soak ---------------------------------------

// 64 sequential clients across 2 supervised regions with kernel hangs, XDMA
// stalls, and TLB-miss storms all active. The loop finishing at all is the
// headline assertion: every client sees either success or a typed error
// completion — never a hang. Running the identical scenario twice must
// reproduce the same recovery trace, fault schedule, and output bytes.
TEST(ChaosSoakTest, SixtyFourClientCombinedChaosSoakIsHangFreeAndDeterministic) {
  auto run = [](uint64_t seed) {
    SimDevice::Config cfg = DeviceConfig();
    cfg.shell.num_vfpgas = 2;
    SimDevice dev(cfg);
    dev.RegisterKernelFactory(
        "passthrough", []() { return std::make_unique<services::PassthroughKernel>(); });
    synth::BuildFlow flow(dev.floorplan());
    synth::Netlist passthrough{"passthrough", {synth::LibraryModule("passthrough")}};
    auto built = flow.RunShellFlow(cfg.shell, {passthrough});
    EXPECT_TRUE(built.ok) << built.error;
    dev.WriteBitstreamFile("/bit/app.bin", built.app_bitstreams[0]);

    sim::FaultPlan plan;
    plan.seed = seed;
    plan.kernel_hang_rate = 0.6;  // per freshly-programmed kernel
    plan.xdma_stall_rate = 0.3;
    plan.xdma_stall_ps = sim::Microseconds(2);
    plan.tlb_force_miss_rate = 0.1;
    sim::FaultInjector injector(&dev.engine(), plan);
    dev.AttachFaultInjector(&injector);
    EXPECT_TRUE(runtime::CRcnfg(&dev).ReconfigureApp("/bit/app.bin", 0).ok);
    EXPECT_TRUE(runtime::CRcnfg(&dev).ReconfigureApp("/bit/app.bin", 1).ok);

    runtime::Supervisor sup(&dev, nullptr, SoakSupervisorConfig());
    sup.SetLastKnownGood(0, "/bit/app.bin");
    sup.SetLastKnownGood(1, "/bit/app.bin");
    sup.Start();

    uint64_t ok_count = 0, err_count = 0;
    uint64_t data_hash = 0xcbf29ce484222325ull;  // FNV-1a over successful outputs
    for (uint32_t client = 0; client < 64; ++client) {
      CThread t(&dev, client % 2);
      constexpr uint64_t kBytes = 64 << 10;
      const auto data = RandomBytes(kBytes, 1000 + client);
      serving::ServingRequest req;
      req.tenant = client;
      req.kernel = "passthrough";
      req.payload = axi::BufferView(data);
      std::vector<uint8_t> out;
      const serving::ServingCompletion done = serving::ExecuteSync(&t, req, &out);
      if (done.status == OpStatus::kOk) {
        ++ok_count;
        EXPECT_EQ(out, data) << "client " << client;
        EXPECT_EQ(done.response_hash, sim::FnvHash(out.data(), out.size()));
        for (const uint8_t byte : out) {
          data_hash ^= byte;
          data_hash *= 0x100000001b3ull;
        }
      } else {
        ++err_count;  // typed error completion, not a hang
      }
    }
    sup.Stop();

    EXPECT_EQ(ok_count + err_count, 64u);  // the loop completed: zero hangs
    EXPECT_GT(ok_count, 0u);
    EXPECT_GT(sup.hangs_detected(), 0u);   // the chaos really bit
    // Every detection ends the incident chain one of two ways: a successful
    // recovery, or — for a region that keeps relapsing straight out of
    // probation until its carried budget runs dry — a permanent quarantine.
    // Quarantined regions bounce later work with typed errors, never hangs.
    EXPECT_EQ(sup.recoveries() + sup.permanent_quarantines(), sup.hangs_detected());
    EXPECT_LE(sup.permanent_quarantines(), 2u);  // at most one per region
    return std::make_tuple(ok_count, err_count, sup.hangs_detected(),
                           sup.permanent_quarantines(), sup.TraceFingerprint(),
                           injector.ScheduleFingerprint(), data_hash);
  };

  const auto first = run(77);
  const auto second = run(77);
  EXPECT_EQ(first, second);  // same seed => same recovery story, bit for bit
}

// Guard-armed builds (COYOTE_SANITIZE / Debug) run every soak above with the
// deterministic race detector live; any same-epoch cross-actor touch of the
// TLBs, page tables, credit counters, QP state, or scheduler queues recorded
// during this binary's lifetime is a real reentrancy bug, not chaos noise.
TEST(ChaosSoak, NoAccessGuardConflictsAcrossAllSoaks) {
  for (const auto& conflict : sim::AccessLedger::Global().conflicts()) {
    ADD_FAILURE() << conflict.ToString();
  }
}

}  // namespace
}  // namespace coyote

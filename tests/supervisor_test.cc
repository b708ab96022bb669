// Unit tests for the shell supervision layer: cThread op deadlines and typed
// completion statuses, scheduler quarantine, and the Supervisor's
// detect -> isolate -> recover -> report loop.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/runtime/crcnfg.h"
#include "src/runtime/cthread.h"
#include "src/runtime/device.h"
#include "src/runtime/scheduler.h"
#include "src/runtime/supervisor.h"
#include "src/services/vector_kernels.h"
#include "src/sim/access_guard.h"
#include "src/sim/engine.h"
#include "src/sim/fault.h"
#include "src/sim/rng.h"
#include "src/synth/flow.h"
#include "src/synth/netlist.h"

namespace coyote {
namespace {

using runtime::Alloc;
using runtime::CRcnfg;
using runtime::CThread;
using runtime::KernelScheduler;
using runtime::Oper;
using runtime::OpStatus;
using runtime::SgEntry;
using runtime::SimDevice;
using runtime::Supervisor;

// The scheduler Request grew routing fields (tenant, region_hint,
// require_resident) between bitstream_path and run; build it explicitly.
KernelScheduler::Request SchedReq(std::string bitstream_path,
                                  std::function<void(uint32_t, std::function<void()>)> run) {
  KernelScheduler::Request r;
  r.bitstream_path = std::move(bitstream_path);
  r.run = std::move(run);
  return r;
}

// --- Shared device fixture ----------------------------------------------------

SimDevice::Config TwoRegionConfig() {
  SimDevice::Config cfg;
  cfg.shell.name = "supervised-shell";
  cfg.shell.services = {fabric::Service::kHostStream, fabric::Service::kCardMemory};
  cfg.shell.num_vfpgas = 2;
  return cfg;
}

Supervisor::Config FastWatchdog() {
  Supervisor::Config cfg;
  cfg.watchdog_period = sim::Microseconds(20);
  cfg.heartbeat_deadline = sim::Microseconds(60);
  cfg.probation_ticks = 2;
  cfg.max_recoveries = 3;
  return cfg;
}

class SupervisorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cfg_ = TwoRegionConfig();
    dev_ = std::make_unique<SimDevice>(cfg_);
    dev_->RegisterKernelFactory(
        "passthrough", []() { return std::make_unique<services::PassthroughKernel>(); });
    synth::BuildFlow flow(dev_->floorplan());
    synth::Netlist passthrough{"passthrough", {synth::LibraryModule("passthrough")}};
    auto out = flow.RunShellFlow(cfg_.shell, {passthrough});
    ASSERT_TRUE(out.ok) << out.error;
    dev_->WriteBitstreamFile("/bit/app.bin", out.app_bitstreams[0]);
  }

  void AttachChaos(const sim::FaultPlan& plan) {
    injector_ = std::make_unique<sim::FaultInjector>(&dev_->engine(), plan);
    dev_->AttachFaultInjector(injector_.get());
  }

  // A 64 KB passthrough transfer: 16 packets, deep enough that a wedged
  // kernel exhausts the 8 stream credits and strands the read op too.
  bool RunTransfer(CThread& t, std::vector<uint8_t>* out = nullptr) {
    constexpr uint64_t kBytes = 64 << 10;
    std::vector<uint8_t> data(kBytes);
    sim::Rng rng(5);
    rng.FillBytes(data.data(), kBytes);
    const uint64_t src = t.GetMem({Alloc::kHpf, kBytes});
    const uint64_t dst = t.GetMem({Alloc::kHpf, kBytes});
    t.WriteBuffer(src, data.data(), kBytes);
    SgEntry sg;
    sg.local = {.src_addr = src, .src_len = kBytes, .dst_addr = dst, .dst_len = kBytes};
    const bool ok = t.InvokeSync(Oper::kLocalTransfer, sg);
    if (ok && out != nullptr) {
      out->resize(kBytes);
      t.ReadBuffer(dst, out->data(), kBytes);
      EXPECT_EQ(*out, data);
    }
    return ok;
  }

  SimDevice::Config cfg_;
  std::unique_ptr<SimDevice> dev_;
  std::unique_ptr<sim::FaultInjector> injector_;
};

// --- cThread deadlines --------------------------------------------------------

TEST_F(SupervisorTest, OpDeadlineConvertsSilentStallToTypedError) {
  sim::FaultPlan plan;
  plan.seed = 41;
  plan.kernel_hang_first_n = 1;  // the kernel wedges on first data
  AttachChaos(plan);
  ASSERT_TRUE(CRcnfg(dev_.get()).ReconfigureApp("/bit/app.bin", 0).ok);

  CThread t(dev_.get(), 0);
  t.SetOpDeadline(sim::Microseconds(500));
  // Without the deadline nothing would complete the op: the kernel consumes
  // nothing, so neither DMA direction can finish, and InvokeSync would
  // return only once the engine ran out of events
  // (WaitOnAWedgedOpReturnsFalse).
  EXPECT_FALSE(RunTransfer(t));
  EXPECT_EQ(t.deadline_misses(), 1u);
  EXPECT_EQ(injector_->counters().value("kernel.hang"), 1u);

  // The most recent task carries the typed status.
  const CThread::Task task{t.tasks_issued() - 1};
  EXPECT_EQ(t.Status(task), OpStatus::kDeadlineExceeded);
}

TEST_F(SupervisorTest, WaitOnAWedgedOpReturnsFalse) {
  sim::FaultPlan plan;
  plan.seed = 50;
  plan.kernel_hang_first_n = 1;
  AttachChaos(plan);
  ASSERT_TRUE(CRcnfg(dev_.get()).ReconfigureApp("/bit/app.bin", 0).ok);

  // No deadline and no supervisor: nothing ever completes the op. Wait
  // returns once the engine runs out of events and must not report success.
  CThread t(dev_.get(), 0);
  EXPECT_FALSE(RunTransfer(t));
  const CThread::Task task{t.tasks_issued() - 1};
  EXPECT_FALSE(t.CheckCompleted(task));
  EXPECT_EQ(t.Status(task), OpStatus::kPending);
}

TEST_F(SupervisorTest, HealthyOpsCompleteWithOkStatusUnderDeadline) {
  ASSERT_TRUE(CRcnfg(dev_.get()).ReconfigureApp("/bit/app.bin", 0).ok);
  CThread t(dev_.get(), 0);
  t.SetOpDeadline(sim::Milliseconds(50));
  std::vector<uint8_t> out;
  EXPECT_TRUE(RunTransfer(t, &out));
  const CThread::Task task{t.tasks_issued() - 1};
  EXPECT_EQ(t.Status(task), OpStatus::kOk);
  EXPECT_EQ(t.deadline_misses(), 0u);
  // The op retired long before its deadline, which cancelled the timer: a
  // run past the deadline still counts no miss and keeps the status.
  dev_->engine().RunUntil(dev_->engine().Now() + sim::Milliseconds(60));
  EXPECT_EQ(t.deadline_misses(), 0u);
  EXPECT_EQ(t.Status(task), OpStatus::kOk);
}

TEST_F(SupervisorTest, AbortPendingMarksInFlightTasksAborted) {
  sim::FaultPlan plan;
  plan.seed = 42;
  plan.kernel_hang_first_n = 1;
  AttachChaos(plan);
  ASSERT_TRUE(CRcnfg(dev_.get()).ReconfigureApp("/bit/app.bin", 0).ok);

  CThread t(dev_.get(), 0);
  constexpr uint64_t kBytes = 64 << 10;
  const uint64_t src = t.GetMem({Alloc::kHpf, kBytes});
  const uint64_t dst = t.GetMem({Alloc::kHpf, kBytes});
  SgEntry sg;
  sg.local = {.src_addr = src, .src_len = kBytes, .dst_addr = dst, .dst_len = kBytes};
  const CThread::Task task = t.Invoke(Oper::kLocalTransfer, sg);
  dev_->engine().RunUntil(dev_->engine().Now() + sim::Milliseconds(1));
  ASSERT_FALSE(t.CheckCompleted(task));  // wedged: never completes on its own

  EXPECT_EQ(t.AbortPending(), 1u);
  EXPECT_TRUE(t.CheckCompleted(task));
  EXPECT_FALSE(t.Wait(task));
  EXPECT_EQ(t.Status(task), OpStatus::kAborted);
}

// --- Watchdog + recovery ------------------------------------------------------

TEST_F(SupervisorTest, WatchdogDetectsHungKernelAndRecoversRegion) {
  sim::FaultPlan plan;
  plan.seed = 43;
  plan.kernel_hang_first_n = 1;
  AttachChaos(plan);
  ASSERT_TRUE(CRcnfg(dev_.get()).ReconfigureApp("/bit/app.bin", 0).ok);

  Supervisor sup(dev_.get(), nullptr, FastWatchdog());
  sup.SetLastKnownGood(0, "/bit/app.bin");
  sup.Start();

  CThread t(dev_.get(), 0);
  // The hung transfer is aborted when the hang is detected, so InvokeSync
  // unblocks with an error instead of hanging forever; the reprogram ends
  // later.
  EXPECT_FALSE(RunTransfer(t));
  EXPECT_EQ(t.Status(CThread::Task{t.tasks_issued() - 1}), OpStatus::kError);

  EXPECT_EQ(sup.hangs_detected(), 1u);
  ASSERT_TRUE(dev_->WaitFor([&] { return sup.recoveries() == 1; }));
  EXPECT_EQ(sup.recoveries(), 1u);
  ASSERT_EQ(sup.incidents().size(), 1u);
  const Supervisor::Incident& inc = sup.incidents()[0];
  EXPECT_EQ(inc.vfpga_id, 0u);
  EXPECT_EQ(inc.fault_class, "kernel.hang");
  EXPECT_TRUE(inc.recovered);
  EXPECT_GT(inc.detect_latency, 0u);
  EXPECT_GT(inc.mttr, 0u);
  EXPECT_GT(dev_->data_mover().aborted_ops(), 0u);

  // Probation, then re-admission after the configured clean ticks.
  EXPECT_EQ(sup.health(0), Supervisor::RegionHealth::kProbation);
  ASSERT_TRUE(dev_->engine().RunUntilCondition([&] { return sup.readmissions() == 1; }));
  EXPECT_EQ(sup.health(0), Supervisor::RegionHealth::kHealthy);

  // The reprogrammed region is functional: the replacement kernel consumed
  // the fault plan's only hang, so this transfer runs clean end to end.
  std::vector<uint8_t> out;
  EXPECT_TRUE(RunTransfer(t, &out));
  sup.Stop();
}

TEST_F(SupervisorTest, DeadlineMissShortcutsTheWatchdogWindow) {
  sim::FaultPlan plan;
  plan.seed = 44;
  plan.kernel_hang_first_n = 1;
  AttachChaos(plan);
  ASSERT_TRUE(CRcnfg(dev_.get()).ReconfigureApp("/bit/app.bin", 0).ok);

  Supervisor::Config scfg = FastWatchdog();
  scfg.heartbeat_deadline = sim::Milliseconds(10);  // generous window...
  Supervisor sup(dev_.get(), nullptr, scfg);
  sup.SetLastKnownGood(0, "/bit/app.bin");
  sup.Start();

  CThread t(dev_.get(), 0);
  t.SetOpDeadline(sim::Microseconds(100));  // ...but the op deadline is tight
  EXPECT_FALSE(RunTransfer(t));
  EXPECT_EQ(t.Status(CThread::Task{t.tasks_issued() - 1}), OpStatus::kDeadlineExceeded);

  // The miss is early hang evidence: detection happens at the next watchdog
  // tick, long before the 10 ms heartbeat window would have elapsed — the
  // incident's detect latency (flat heartbeats -> detection) stays bounded
  // by the op deadline plus one watchdog period.
  ASSERT_TRUE(dev_->engine().RunUntilCondition([&] { return sup.recoveries() == 1; }));
  ASSERT_EQ(sup.incidents().size(), 1u);
  EXPECT_LT(sup.incidents()[0].detect_latency,
            sim::Microseconds(100) + 2 * FastWatchdog().watchdog_period);
  EXPECT_EQ(sup.incidents()[0].fault_class, "deadline.miss");
  sup.Stop();
}

// A reprogram does not blind the watchdog: while one region reprograms, the
// ticks keep sampling the others, so a second region's hang is detected
// within one heartbeat window plus one watchdog period.
TEST_F(SupervisorTest, SecondHangIsDetectedWhileTheFirstRegionReprograms) {
  sim::FaultPlan plan;
  plan.seed = 51;
  plan.kernel_hang_first_n = 2;  // both regions' kernels wedge on first data
  AttachChaos(plan);
  ASSERT_TRUE(CRcnfg(dev_.get()).ReconfigureApp("/bit/app.bin", 0).ok);
  ASSERT_TRUE(CRcnfg(dev_.get()).ReconfigureApp("/bit/app.bin", 1).ok);

  const Supervisor::Config scfg = FastWatchdog();
  Supervisor sup(dev_.get(), nullptr, scfg);
  sup.SetLastKnownGood(0, "/bit/app.bin");
  sup.SetLastKnownGood(1, "/bit/app.bin");
  sup.Start();

  constexpr uint64_t kBytes = 64 << 10;
  auto invoke = [](CThread& t) {
    SgEntry sg;
    sg.local = {.src_addr = t.GetMem({Alloc::kHpf, kBytes}), .src_len = kBytes,
                .dst_addr = t.GetMem({Alloc::kHpf, kBytes}), .dst_len = kBytes};
    return t.Invoke(Oper::kLocalTransfer, sg);
  };
  CThread t0(dev_.get(), 0);
  CThread t1(dev_.get(), 1);
  const CThread::Task a = invoke(t0);
  dev_->engine().RunUntil(dev_->engine().Now() + sim::Microseconds(40));
  const CThread::Task b = invoke(t1);
  ASSERT_TRUE(dev_->WaitFor([&] { return sup.recoveries() == 2; }));

  ASSERT_EQ(sup.incidents().size(), 2u);
  const Supervisor::Incident& first = sup.incidents()[0];
  const Supervisor::Incident& second = sup.incidents()[1];
  EXPECT_EQ(first.vfpga_id, 0u);
  EXPECT_EQ(second.vfpga_id, 1u);
  EXPECT_LE(second.detect_latency, scfg.heartbeat_deadline + scfg.watchdog_period);
  EXPECT_LT(second.detected_at, first.detected_at + first.mttr);  // 0 still reprogramming
  EXPECT_EQ(t0.Status(a), OpStatus::kError);
  EXPECT_EQ(t1.Status(b), OpStatus::kError);
  sup.Stop();
}

TEST_F(SupervisorTest, FailedRecoveryEscalatesToPermanentQuarantine) {
  sim::FaultPlan plan;
  plan.seed = 45;
  plan.kernel_hang_first_n = 1;
  plan.reconfig_fail_rate = 1.0;  // every ICAP program aborts mid-recovery
  AttachChaos(plan);
  // Initial load bypasses the (now always-failing) ICAP path.
  dev_->vfpga(0).LoadKernel(std::make_unique<services::PassthroughKernel>());

  Supervisor::Config scfg = FastWatchdog();
  scfg.max_recoveries = 2;
  Supervisor sup(dev_.get(), nullptr, scfg);
  sup.SetLastKnownGood(0, "/bit/app.bin");
  sup.Start();

  CThread t(dev_.get(), 0);
  EXPECT_FALSE(RunTransfer(t));

  ASSERT_TRUE(dev_->engine().RunUntilCondition(
      [&] { return sup.permanent_quarantines() == 1; }));
  EXPECT_EQ(sup.health(0), Supervisor::RegionHealth::kQuarantined);
  EXPECT_EQ(sup.recoveries(), 0u);
  EXPECT_EQ(sup.failed_recoveries(), 2u);  // the whole budget burned
  ASSERT_EQ(sup.incidents().size(), 1u);
  EXPECT_FALSE(sup.incidents()[0].recovered);
  // The wedged kernel was unloaded; the region is fenced, not thrashing.
  EXPECT_EQ(dev_->vfpga(0).kernel(), nullptr);

  // Fault isolation: the second region still serves transfers.
  EXPECT_FALSE(CRcnfg(dev_.get()).ReconfigureApp("/bit/app.bin", 1).ok);  // ICAP still failing
  dev_->vfpga(1).LoadKernel(std::make_unique<services::PassthroughKernel>());
  CThread t1(dev_.get(), 1);
  std::vector<uint8_t> out;
  EXPECT_TRUE(RunTransfer(t1, &out));
  sup.Stop();
}

TEST_F(SupervisorTest, RelapseMidProbationCarriesTheIncidentBudget) {
  // Three consecutive hangs with max_recoveries = 2: the first two recover
  // (attempts 1 and 2 of the incident chain), but the region relapses in
  // probation each time, so the third detection finds the budget already
  // spent and escalates to permanent quarantine — no ICAP failure needed.
  sim::FaultPlan plan;
  plan.seed = 47;
  plan.kernel_hang_first_n = 3;
  AttachChaos(plan);
  ASSERT_TRUE(CRcnfg(dev_.get()).ReconfigureApp("/bit/app.bin", 0).ok);

  Supervisor::Config scfg = FastWatchdog();
  scfg.max_recoveries = 2;
  scfg.probation_ticks = 50;  // long probation: the relapse always lands inside it
  Supervisor sup(dev_.get(), nullptr, scfg);
  sup.SetLastKnownGood(0, "/bit/app.bin");
  sup.Start();

  CThread t(dev_.get(), 0);
  EXPECT_FALSE(RunTransfer(t));  // hang #1
  ASSERT_TRUE(dev_->engine().RunUntilCondition([&] { return sup.recoveries() == 1; }));
  EXPECT_EQ(sup.health(0), Supervisor::RegionHealth::kProbation);

  EXPECT_FALSE(RunTransfer(t));  // hang #2, mid-probation: relapse, attempt 2
  ASSERT_TRUE(dev_->engine().RunUntilCondition([&] { return sup.recoveries() == 2; }));
  EXPECT_EQ(sup.health(0), Supervisor::RegionHealth::kProbation);

  EXPECT_FALSE(RunTransfer(t));  // hang #3: the chain's budget is gone
  ASSERT_TRUE(dev_->engine().RunUntilCondition(
      [&] { return sup.permanent_quarantines() == 1; }));
  EXPECT_EQ(sup.health(0), Supervisor::RegionHealth::kQuarantined);

  // The chain never readmitted, every reprogram succeeded, and the budget
  // carried across relapses instead of resetting per detection.
  EXPECT_EQ(sup.readmissions(), 0u);
  EXPECT_EQ(sup.failed_recoveries(), 0u);
  EXPECT_EQ(sup.hangs_detected(), 3u);
  ASSERT_EQ(sup.incidents().size(), 3u);
  EXPECT_EQ(sup.incidents()[1].fault_class, "probation.relapse");
  EXPECT_EQ(sup.incidents()[2].fault_class, "probation.relapse");
  EXPECT_FALSE(sup.incidents()[2].recovered);
  EXPECT_EQ(sup.events().value("probation.relapse"), 2u);
  sup.Stop();
}

TEST_F(SupervisorTest, CleanReadmissionResetsTheIncidentBudget) {
  // Contrast case: the same two hangs, but the region is allowed to finish
  // probation cleanly in between. Each hang is then a *fresh* incident with
  // a full budget, so even max_recoveries = 1 never escalates.
  sim::FaultPlan plan;
  plan.seed = 48;
  plan.kernel_hang_first_n = 2;
  AttachChaos(plan);
  ASSERT_TRUE(CRcnfg(dev_.get()).ReconfigureApp("/bit/app.bin", 0).ok);

  Supervisor::Config scfg = FastWatchdog();
  scfg.max_recoveries = 1;
  scfg.probation_ticks = 2;
  Supervisor sup(dev_.get(), nullptr, scfg);
  sup.SetLastKnownGood(0, "/bit/app.bin");
  sup.Start();

  CThread t(dev_.get(), 0);
  EXPECT_FALSE(RunTransfer(t));  // hang #1
  ASSERT_TRUE(dev_->engine().RunUntilCondition([&] { return sup.readmissions() == 1; }));
  EXPECT_EQ(sup.health(0), Supervisor::RegionHealth::kHealthy);

  EXPECT_FALSE(RunTransfer(t));  // hang #2, after clean re-admission
  ASSERT_TRUE(dev_->engine().RunUntilCondition([&] { return sup.readmissions() == 2; }));
  EXPECT_EQ(sup.recoveries(), 2u);
  EXPECT_EQ(sup.permanent_quarantines(), 0u);
  ASSERT_EQ(sup.incidents().size(), 2u);
  EXPECT_EQ(sup.incidents()[1].fault_class, "kernel.hang");  // not a relapse
  sup.Stop();
}

TEST_F(SupervisorTest, RetiredTasksKeepTheirAnswers) {
  // One cThread retires a task with every terminal status the tests above
  // produce, then runs 100 more ok ops; each id still answers as it did the
  // moment it retired.
  sim::FaultPlan plan;
  plan.seed = 49;
  plan.kernel_hang_first_n = 2;
  AttachChaos(plan);
  ASSERT_TRUE(CRcnfg(dev_.get()).ReconfigureApp("/bit/app.bin", 0).ok);
  Supervisor sup(dev_.get(), nullptr, FastWatchdog());
  sup.SetLastKnownGood(0, "/bit/app.bin");
  sup.Start();

  CThread t(dev_.get(), 0);
  struct Answer {
    OpStatus status;
    bool completed;
    bool waited;
  };
  std::vector<Answer> answers;
  auto answer = [&t](CThread::Task task) {
    return Answer{t.Status(task), t.CheckCompleted(task), t.Wait(task)};
  };
  auto retired = [&](OpStatus expected) {
    const CThread::Task task{t.tasks_issued() - 1};
    const Answer now = answer(task);
    EXPECT_EQ(now.status, expected) << "task " << task.id;
    EXPECT_TRUE(now.completed) << "task " << task.id;
    EXPECT_EQ(now.waited, expected == OpStatus::kOk) << "task " << task.id;
    answers.push_back(now);
  };

  // Hang #1: the watchdog's recovery aborts the region's DMA.
  EXPECT_FALSE(RunTransfer(t));
  retired(OpStatus::kError);
  ASSERT_TRUE(dev_->engine().RunUntilCondition([&] { return sup.readmissions() == 1; }));
  // Hang #2: the op deadline fires before the 60 us heartbeat window ends.
  t.SetOpDeadline(sim::Microseconds(20));
  EXPECT_FALSE(RunTransfer(t));
  retired(OpStatus::kDeadlineExceeded);
  t.SetOpDeadline(0);
  ASSERT_TRUE(dev_->engine().RunUntilCondition([&] { return sup.readmissions() == 2; }));
  EXPECT_TRUE(RunTransfer(t));
  retired(OpStatus::kOk);
  // A host-side cancel before the doorbell lands: the retired task starts
  // nothing, and keeps its kAborted answer.
  constexpr uint64_t kBytes = 4 << 10;
  const uint64_t src = t.GetMem({Alloc::kHpf, kBytes});
  const uint64_t dst = t.GetMem({Alloc::kHpf, kBytes});
  SgEntry sg;
  sg.local = {.src_addr = src, .src_len = kBytes, .dst_addr = dst, .dst_len = kBytes};
  t.Invoke(Oper::kLocalTransfer, sg);
  EXPECT_EQ(t.AbortPending(), 1u);
  retired(OpStatus::kAborted);
  dev_->engine().RunUntil(dev_->engine().Now() + sim::Milliseconds(1));

  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(t.InvokeSync(Oper::kLocalTransfer, sg));
    retired(OpStatus::kOk);
  }
  ASSERT_EQ(t.tasks_issued(), answers.size());
  EXPECT_EQ(t.AbortPending(), 0u);
  for (uint64_t id = 0; id < answers.size(); ++id) {
    const Answer now = answer(CThread::Task{id});
    EXPECT_EQ(now.status, answers[id].status) << "task " << id;
    EXPECT_EQ(now.completed, answers[id].completed) << "task " << id;
    EXPECT_EQ(now.waited, answers[id].waited) << "task " << id;
  }
  EXPECT_EQ(sup.recoveries(), 2u);
  sup.Stop();
}

TEST_F(SupervisorTest, TraceFingerprintIsIdenticalForSameSeed) {
  auto run = [](uint64_t seed) {
    SimDevice::Config cfg = TwoRegionConfig();
    SimDevice dev(cfg);
    dev.RegisterKernelFactory(
        "passthrough", []() { return std::make_unique<services::PassthroughKernel>(); });
    synth::BuildFlow flow(dev.floorplan());
    synth::Netlist passthrough{"passthrough", {synth::LibraryModule("passthrough")}};
    auto built = flow.RunShellFlow(cfg.shell, {passthrough});
    EXPECT_TRUE(built.ok);
    dev.WriteBitstreamFile("/bit/app.bin", built.app_bitstreams[0]);

    sim::FaultPlan plan;
    plan.seed = seed;
    plan.kernel_hang_first_n = 1;
    plan.xdma_stall_rate = 0.5;
    plan.xdma_stall_ps = sim::Microseconds(3);
    sim::FaultInjector injector(&dev.engine(), plan);
    dev.AttachFaultInjector(&injector);
    EXPECT_TRUE(CRcnfg(&dev).ReconfigureApp("/bit/app.bin", 0).ok);

    Supervisor sup(&dev, nullptr, FastWatchdog());
    sup.SetLastKnownGood(0, "/bit/app.bin");
    sup.Start();

    CThread t(&dev, 0);
    constexpr uint64_t kBytes = 64 << 10;
    const uint64_t src = t.GetMem({Alloc::kHpf, kBytes});
    const uint64_t dst = t.GetMem({Alloc::kHpf, kBytes});
    SgEntry sg;
    sg.local = {.src_addr = src, .src_len = kBytes, .dst_addr = dst, .dst_len = kBytes};
    EXPECT_FALSE(t.InvokeSync(Oper::kLocalTransfer, sg));
    EXPECT_TRUE(dev.engine().RunUntilCondition([&] { return sup.readmissions() == 1; }));
    sup.Stop();
    const sim::TimePs mttr = sup.incidents().empty() ? 0 : sup.incidents()[0].mttr;
    return std::make_tuple(sup.TraceFingerprint(), sup.events().total(), mttr);
  };

  const auto a = run(91);
  const auto b = run(91);
  EXPECT_EQ(a, b);  // identical fingerprint, event count, and MTTR
  EXPECT_GT(std::get<1>(a), 0u);
  EXPECT_GT(std::get<2>(a), 0u);
}

// --- Scheduler quarantine -----------------------------------------------------

TEST_F(SupervisorTest, QuarantinedRegionIsSkippedUntilReadmitted) {
  KernelScheduler sched(dev_.get(), KernelScheduler::Policy::kFcfs);
  sched.SetQuarantined(0, true);
  EXPECT_TRUE(sched.quarantined(0));
  EXPECT_EQ(sched.quarantine_events(), 1u);

  std::vector<uint32_t> placements;
  for (int i = 0; i < 2; ++i) {
    sched.Submit(SchedReq("/bit/app.bin", [&](uint32_t id, std::function<void()> done) {
                    placements.push_back(id);
                    done();
                  }));
  }
  dev_->engine().RunUntilIdle();
  ASSERT_TRUE(sched.Idle());
  EXPECT_EQ(placements, (std::vector<uint32_t>{1, 1}));  // region 0 fenced off

  sched.SetQuarantined(0, false);
  sched.Submit(SchedReq("/bit/app.bin", [&](uint32_t id, std::function<void()> done) {
                  placements.push_back(id);
                  done();
                }));
  dev_->engine().RunUntilIdle();
  EXPECT_EQ(placements.back(), 0u);  // FCFS picks the re-admitted region first
}

TEST_F(SupervisorTest, NoteRegionResetReapsTheHungRequest) {
  KernelScheduler sched(dev_.get(), KernelScheduler::Policy::kFcfs);
  std::function<void()> stuck_done;
  sched.Submit(SchedReq("/bit/app.bin", [&](uint32_t, std::function<void()> done) {
                  stuck_done = std::move(done);  // never called: the hang
                }));
  dev_->engine().RunUntilIdle();
  EXPECT_FALSE(sched.Idle());

  sched.NoteRegionReset(0, "/bit/app.bin");
  EXPECT_TRUE(sched.Idle());  // the hung request was reaped
  EXPECT_EQ(sched.reaped_requests(), 1u);
  EXPECT_EQ(sched.completed(), 1u);

  // The stale completion fires after recovery: it must be a no-op, not a
  // double-free of the region.
  stuck_done();
  EXPECT_TRUE(sched.Idle());
  EXPECT_EQ(sched.completed(), 1u);

  // The region still dispatches fresh work, and the recorded resident
  // bitstream means no redundant reconfiguration.
  const uint64_t reconfigs_before = sched.reconfigurations();
  bool ran = false;
  sched.Submit(SchedReq("/bit/app.bin", [&](uint32_t id, std::function<void()> done) {
                  ran = id == 0;
                  done();
                }));
  dev_->engine().RunUntilIdle();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sched.reconfigurations(), reconfigs_before);
}

TEST_F(SupervisorTest, SupervisedSchedulerRoutesAroundRecoveringRegion) {
  sim::FaultPlan plan;
  plan.seed = 46;
  plan.kernel_hang_first_n = 1;
  AttachChaos(plan);

  KernelScheduler sched(dev_.get(), KernelScheduler::Policy::kAffinity);
  Supervisor sup(dev_.get(), &sched, FastWatchdog());
  sup.SetLastKnownGood(0, "/bit/app.bin");
  sup.SetLastKnownGood(1, "/bit/app.bin");
  sup.Start();

  // One cThread per region, created up front (driver-side setup).
  CThread t0(dev_.get(), 0);
  CThread t1(dev_.get(), 1);
  std::vector<CThread*> threads{&t0, &t1};

  // Eight batch jobs; the first to touch a kernel wedges it (first_n=1). The
  // supervisor must recover that region while the scheduler keeps the other
  // region serving, and every job must complete (ok or typed error).
  int completed = 0;
  for (int job = 0; job < 8; ++job) {
    sched.Submit(SchedReq("/bit/app.bin", [&](uint32_t id, std::function<void()> done) {
                    CThread& t = *threads[id];
                    constexpr uint64_t kBytes = 32 << 10;
                    const uint64_t src = t.GetMem({Alloc::kHpf, kBytes});
                    const uint64_t dst = t.GetMem({Alloc::kHpf, kBytes});
                    SgEntry sg;
                    sg.local = {.src_addr = src, .src_len = kBytes,
                                .dst_addr = dst, .dst_len = kBytes};
                    const CThread::Task task = t.Invoke(Oper::kLocalTransfer, sg);
                    // Event-driven completion: poll from the event loop so the
                    // scheduler never blocks inside a dispatch.
                    auto poll = std::make_shared<std::function<void()>>();
                    std::weak_ptr<std::function<void()>> weak = poll;
                    *poll = [&, task, id, done = std::move(done), weak]() {
                      auto self = weak.lock();
                      if (!self) {
                        return;
                      }
                      if (threads[id]->CheckCompleted(task)) {
                        ++completed;
                        done();
                        return;
                      }
                      dev_->engine().ScheduleAfter(sim::Microseconds(10),
                                                   [self]() { (*self)(); });
                    };
                    dev_->engine().ScheduleAfter(sim::Microseconds(10),
                                                 [poll]() { (*poll)(); });
                  }));
  }
  ASSERT_TRUE(dev_->engine().RunUntilCondition([&] { return completed == 8; }));
  EXPECT_TRUE(sched.Idle());
  EXPECT_GE(sup.hangs_detected(), 1u);
  ASSERT_TRUE(dev_->WaitFor([&] { return sup.recoveries() >= 1; }));
  EXPECT_GE(sup.recoveries(), 1u);
  // Note: the hung job itself is typically freed by its own error completion
  // (the DMA abort at detection unblocks its poll) before its region's
  // reprogram ends, so the scheduler rarely needs to reap here —
  // NoteRegionResetReapsTheHungRequest covers the reap path directly.
  sup.Stop();
}

// Guard-armed builds (COYOTE_SANITIZE / Debug) run this whole suite with the
// deterministic race detector live; the supervisor's cross-actor recovery
// path must not introduce same-epoch conflicts.
TEST(SupervisorGuards, NoAccessGuardConflictsAcrossSuite) {
  for (const auto& conflict : sim::AccessLedger::Global().conflicts()) {
    ADD_FAILURE() << conflict.ToString();
  }
}

}  // namespace
}  // namespace coyote

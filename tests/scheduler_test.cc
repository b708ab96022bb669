// Unit tests for the on-demand kernel scheduler.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/runtime/scheduler.h"
#include "src/services/aes_kernels.h"
#include "src/services/hll.h"
#include "src/services/vector_kernels.h"
#include "src/synth/flow.h"
#include "src/synth/netlist.h"

namespace coyote {
namespace runtime {
namespace {

class SchedulerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SimDevice::Config cfg;
    cfg.shell.name = "sched";
    cfg.shell.services = {fabric::Service::kHostStream, fabric::Service::kCardMemory};
    cfg.shell.num_vfpgas = 2;
    dev_ = std::make_unique<SimDevice>(cfg);
    dev_->RegisterKernelFactory("hyperloglog",
                                []() { return std::make_unique<services::HllKernel>(); });
    dev_->RegisterKernelFactory("aes_ecb",
                                []() { return std::make_unique<services::AesEcbKernel>(); });
    dev_->RegisterKernelFactory("passthrough",
                                []() { return std::make_unique<services::PassthroughKernel>(); });

    synth::BuildFlow flow(dev_->floorplan());
    synth::Netlist hll{"hyperloglog", {synth::LibraryModule("hll_core")}};
    synth::Netlist aes{"aes_ecb", {synth::LibraryModule("aes_core")}};
    auto out = flow.RunShellFlow(cfg.shell, {hll, aes});
    ASSERT_TRUE(out.ok) << out.error;
    dev_->WriteBitstreamFile("/bit/hll.bin", out.app_bitstreams[0]);
    // Both kernels must be loadable into either region; rebuild AES for
    // region 0 too via the app flow.
    dev_->WriteBitstreamFile("/bit/aes.bin", out.app_bitstreams[1]);
    auto aes0 = flow.RunAppFlow(aes, 0, out);
    ASSERT_TRUE(aes0.ok);
    dev_->WriteBitstreamFile("/bit/aes0.bin", aes0.app_bitstreams[0]);
  }

  // A request whose work completes after 1 ms of simulated time.
  KernelScheduler::Request TimedRequest(const std::string& path, std::vector<std::string>* log,
                                        const std::string& tag) {
    KernelScheduler::Request r;
    r.bitstream_path = path;
    r.run = [this, log, tag](uint32_t, std::function<void()> done) {
      if (log != nullptr) {
        log->push_back(tag);
      }
      dev_->engine().ScheduleAfter(sim::Milliseconds(1), std::move(done));
    };
    return r;
  }

  struct Start {
    std::string tag;
    uint32_t region;
    sim::TimePs at;
  };

  // A request that logs when and where it starts, then holds its region for
  // `hold` of simulated time.
  KernelScheduler::Request HoldingRequest(const std::string& path, sim::TimePs hold,
                                          std::vector<Start>* log, const std::string& tag) {
    KernelScheduler::Request r;
    r.bitstream_path = path;
    r.run = [this, hold, log, tag](uint32_t vfpga_id, std::function<void()> done) {
      log->push_back({tag, vfpga_id, dev_->engine().Now()});
      dev_->engine().ScheduleAfter(hold, std::move(done));
    };
    return r;
  }

  // Region 0 holds hll.bin, region 1 aes.bin: recorded as resident without
  // loading either (require_resident work never reconfigures).
  void MakeKernelsResident(KernelScheduler& sched) {
    sched.NoteRegionReset(0, "/bit/hll.bin");
    sched.NoteRegionReset(1, "/bit/aes.bin");
  }

  void RunFor(sim::TimePs span) { dev_->engine().RunUntil(dev_->engine().Now() + span); }

  std::unique_ptr<SimDevice> dev_;
};

TEST_F(SchedulerTest, RunsRequestsToCompletion) {
  KernelScheduler sched(dev_.get(), KernelScheduler::Policy::kFcfs);
  std::vector<std::string> log;
  for (int i = 0; i < 5; ++i) {
    sched.Submit(TimedRequest("/bit/hll.bin", &log, "job" + std::to_string(i)));
  }
  dev_->WaitFor([&] { return sched.Idle(); });
  EXPECT_EQ(sched.completed(), 5u);
  EXPECT_EQ(log.size(), 5u);
}

TEST_F(SchedulerTest, AffinityAvoidsRedundantReconfigurations) {
  // 6 HLL jobs: FCFS with 2 regions may bounce kernels; affinity keeps the
  // kernel resident after the first load per region.
  KernelScheduler sched(dev_.get(), KernelScheduler::Policy::kAffinity);
  for (int i = 0; i < 6; ++i) {
    sched.Submit(TimedRequest("/bit/hll.bin", nullptr, ""));
  }
  dev_->WaitFor([&] { return sched.Idle(); });
  EXPECT_EQ(sched.completed(), 6u);
  // First job loads the kernel; the rest hit the resident copy (regions may
  // load it at most once each).
  EXPECT_LE(sched.reconfigurations(), 2u);
  EXPECT_GE(sched.affinity_hits(), 4u);
}

TEST_F(SchedulerTest, AffinityKeepsHotKernelsOnSeparateRegions) {
  KernelScheduler sched(dev_.get(), KernelScheduler::Policy::kAffinity);
  // Alternating kernels, two regions: each kernel should stick to its own
  // region -> exactly 2 reconfigurations total.
  for (int i = 0; i < 8; ++i) {
    sched.Submit(TimedRequest(i % 2 == 0 ? "/bit/hll.bin" : "/bit/aes.bin", nullptr, ""));
  }
  dev_->WaitFor([&] { return sched.Idle(); });
  EXPECT_EQ(sched.completed(), 8u);
  EXPECT_EQ(sched.reconfigurations(), 2u);
  EXPECT_EQ(sched.affinity_hits(), 6u);
}

TEST_F(SchedulerTest, BadBitstreamIsDroppedNotWedged) {
  KernelScheduler sched(dev_.get(), KernelScheduler::Policy::kFcfs);
  sched.Submit(TimedRequest("/bit/missing.bin", nullptr, ""));
  sched.Submit(TimedRequest("/bit/hll.bin", nullptr, ""));
  dev_->WaitFor([&] { return sched.Idle(); });
  EXPECT_EQ(sched.completed(), 2u);  // failed one counted, good one ran
}

TEST_F(SchedulerTest, ParallelRegionsOverlapWork) {
  KernelScheduler sched(dev_.get(), KernelScheduler::Policy::kAffinity);
  // Warm both regions: timed work keeps region 0 busy while job 2
  // dispatches, forcing it onto region 1.
  sched.Submit(TimedRequest("/bit/hll.bin", nullptr, ""));
  sched.Submit(TimedRequest("/bit/hll.bin", nullptr, ""));
  dev_->WaitFor([&] { return sched.Idle(); });
  ASSERT_EQ(sched.reconfigurations(), 2u);

  // Now 4 jobs of 10 ms each on 2 warm regions: ~20 ms if overlapped,
  // ~40 ms if serialized.
  const sim::TimePs start = dev_->engine().Now();
  auto work = [this](uint32_t, std::function<void()> done) {
    dev_->engine().ScheduleAfter(sim::Milliseconds(10), std::move(done));
  };
  for (int i = 0; i < 4; ++i) {
    KernelScheduler::Request r;
    r.bitstream_path = "/bit/hll.bin";
    r.run = work;
    sched.Submit(std::move(r));
  }
  dev_->WaitFor([&] { return sched.Idle(); });
  const double ms = sim::ToMilliseconds(dev_->engine().Now() - start);
  EXPECT_EQ(sched.reconfigurations(), 2u);  // no further loads
  EXPECT_LT(ms, 25.0);
  EXPECT_GE(ms, 20.0);
}

// --- Serving-tier contract: typed failures, hints, observability --------------

TEST_F(SchedulerTest, RequireResidentFailsFastWithTypedErrorWhenNothingHoldsTheKernel) {
  KernelScheduler sched(dev_.get(), KernelScheduler::Policy::kAffinity);
  std::vector<OpStatus> failures;
  KernelScheduler::Request r;
  r.bitstream_path = "/bit/hll.bin";  // valid, but not resident anywhere yet
  r.require_resident = true;
  r.run = [](uint32_t, std::function<void()> done) { done(); };
  r.failed = [&](OpStatus status) { failures.push_back(status); };
  sched.Submit(std::move(r));
  dev_->WaitFor([&] { return sched.Idle(); });

  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0], OpStatus::kError);
  EXPECT_EQ(sched.failed_requests(), 1u);
  EXPECT_EQ(sched.reconfigurations(), 0u);  // never tried to reprogram
  EXPECT_EQ(sched.stats().value("sched.failed.no_resident"), 1u);
}

TEST_F(SchedulerTest, RequireResidentFailsFastWhenTheResidentRegionIsQuarantined) {
  KernelScheduler sched(dev_.get(), KernelScheduler::Policy::kAffinity);
  // Warm region 0 with the kernel, then quarantine it mid-batch.
  sched.Submit(TimedRequest("/bit/hll.bin", nullptr, ""));
  dev_->WaitFor([&] { return sched.Idle(); });
  sched.SetQuarantined(0, true);

  std::vector<OpStatus> failures;
  KernelScheduler::Request r;
  r.bitstream_path = "/bit/hll.bin";
  r.require_resident = true;
  r.run = [](uint32_t, std::function<void()> done) { done(); };
  r.failed = [&](OpStatus status) { failures.push_back(status); };
  sched.Submit(std::move(r));
  dev_->WaitFor([&] { return sched.Idle(); });

  ASSERT_EQ(failures.size(), 1u);  // typed completion, not a hang
  EXPECT_EQ(failures[0], OpStatus::kError);

  // Region reset + re-admission: the same request shape now runs.
  sched.NoteRegionReset(0, "/bit/hll.bin");
  sched.SetQuarantined(0, false);
  bool ran = false;
  KernelScheduler::Request ok;
  ok.bitstream_path = "/bit/hll.bin";
  ok.require_resident = true;
  ok.run = [&](uint32_t, std::function<void()> done) {
    ran = true;
    done();
  };
  ok.failed = [&](OpStatus status) { failures.push_back(status); };
  sched.Submit(std::move(ok));
  dev_->WaitFor([&] { return sched.Idle(); });
  EXPECT_TRUE(ran);
  EXPECT_EQ(failures.size(), 1u);
}

TEST_F(SchedulerTest, RegionHintSteersPlacementWhenEligible) {
  KernelScheduler sched(dev_.get(), KernelScheduler::Policy::kAffinity);
  // Make the kernel resident on both regions.
  sched.Submit(TimedRequest("/bit/hll.bin", nullptr, ""));
  sched.Submit(TimedRequest("/bit/hll.bin", nullptr, ""));
  dev_->WaitFor([&] { return sched.Idle(); });

  std::vector<uint32_t> placed;
  for (const int32_t hint : {1, 0, 1}) {
    KernelScheduler::Request r;
    r.bitstream_path = "/bit/hll.bin";
    r.region_hint = hint;
    r.run = [&](uint32_t vfpga_id, std::function<void()> done) {
      placed.push_back(vfpga_id);
      done();
    };
    sched.Submit(std::move(r));
    dev_->WaitFor([&] { return sched.Idle(); });
  }
  EXPECT_EQ(placed, (std::vector<uint32_t>{1, 0, 1}));
}

TEST_F(SchedulerTest, TracksPerTenantDepthAndQuarantine) {
  KernelScheduler sched(dev_.get(), KernelScheduler::Policy::kAffinity);
  // Warm both regions first (reconfiguration advances simulated time by the
  // full program latency, which would otherwise let the fillers finish early).
  sched.Submit(TimedRequest("/bit/hll.bin", nullptr, ""));
  sched.Submit(TimedRequest("/bit/hll.bin", nullptr, ""));
  dev_->WaitFor([&] { return sched.Idle(); });

  // Two long fillers occupy both warm regions; the next three queue behind.
  for (int i = 0; i < 2; ++i) {
    KernelScheduler::Request filler;
    filler.bitstream_path = "/bit/hll.bin";
    filler.run = [this](uint32_t, std::function<void()> done) {
      dev_->engine().ScheduleAfter(sim::Milliseconds(50), std::move(done));
    };
    sched.Submit(std::move(filler));
  }
  dev_->engine().RunUntil(dev_->engine().Now() + sim::Microseconds(10));

  for (const uint32_t tenant : {7u, 7u, 9u}) {
    KernelScheduler::Request r = TimedRequest("/bit/hll.bin", nullptr, "");
    r.tenant = tenant;
    sched.Submit(std::move(r));
  }
  dev_->engine().RunUntil(dev_->engine().Now() + sim::Microseconds(10));

  // A tenant's queue depth is its submits minus its dispatches: 2 and 1.
  EXPECT_EQ(sched.stats().value("sched.submitted.tenant7"), 2u);
  EXPECT_EQ(sched.stats().value("sched.submitted.tenant9"), 1u);
  EXPECT_EQ(sched.stats().value("sched.dispatched.tenant7"), 0u);
  EXPECT_EQ(sched.stats().value("sched.dispatched.tenant9"), 0u);
  EXPECT_GE(sched.depth_histogram().count(), 5u);
  sched.SetQuarantined(1, true);
  EXPECT_EQ(sched.quarantine_events(), 1u);

  sched.SetQuarantined(1, false);
  dev_->WaitFor([&] { return sched.Idle(); });
  EXPECT_EQ(sched.stats().value("sched.dispatched.tenant7"), 2u);  // drained
  EXPECT_EQ(sched.stats().value("sched.dispatched.tenant9"), 1u);
}

// --- No head-of-line blocking: a request waits only for a region that can run it

TEST_F(SchedulerTest, ResidentRequestRunsWhileAnotherKernelWaitsForItsBusyRegion) {
  KernelScheduler sched(dev_.get(), KernelScheduler::Policy::kAffinity);
  MakeKernelsResident(sched);
  std::vector<Start> log;
  const auto resident = [&](const std::string& path, const std::string& tag) {
    KernelScheduler::Request r = HoldingRequest(path, sim::Milliseconds(10), &log, tag);
    r.require_resident = true;
    return r;
  };
  sched.Submit(resident("/bit/hll.bin", "a1"));  // holds region 0 for 10 ms
  RunFor(sim::Microseconds(10));
  sched.Submit(resident("/bit/hll.bin", "a2"));  // queues behind a1
  RunFor(sim::Microseconds(10));
  const sim::TimePs b_submitted = dev_->engine().Now();
  sched.Submit(resident("/bit/aes.bin", "b"));
  dev_->WaitFor([&] { return sched.Idle(); });

  ASSERT_EQ(log.size(), 3u);
  // b's region is idle, so b runs at once instead of waiting behind a2.
  EXPECT_EQ(log[1].tag, "b");
  EXPECT_EQ(log[1].region, 1u);
  EXPECT_EQ(log[1].at, b_submitted);
  // a2 runs only when a1 frees region 0.
  EXPECT_EQ(log[2].tag, "a2");
  EXPECT_EQ(log[2].region, 0u);
  EXPECT_EQ(log[2].at, log[0].at + sim::Milliseconds(10));
  EXPECT_EQ(sched.reconfigurations(), 0u);
}

// The hold rule: while a reconfiguration the scheduler started is in flight,
// it places nothing, not even a request whose kernel is resident on an idle
// region. That request starts when the reprogram ends. (Without the rule,
// bench_extensions' affinity run reprograms 13 times instead of 10.)
TEST_F(SchedulerTest, ResidentRequestWaitsForAnotherRegionsReprogramToEnd) {
  KernelScheduler sched(dev_.get(), KernelScheduler::Policy::kAffinity);
  sched.NoteRegionReset(1, "/bit/aes.bin");
  std::vector<Start> log;
  sched.Submit(HoldingRequest("/bit/hll.bin", sim::Milliseconds(1), &log, "a"));  // reprograms 0
  RunFor(sim::Microseconds(10));
  sched.Submit(HoldingRequest("/bit/aes.bin", sim::Milliseconds(1), &log, "b"));  // 1 is idle
  dev_->WaitFor([&] { return sched.Idle(); });

  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].tag, "a");
  EXPECT_EQ(log[0].region, 0u);
  EXPECT_GT(log[0].at, sim::Microseconds(10));  // after region 0's reprogram
  EXPECT_EQ(log[1].tag, "b");
  EXPECT_EQ(log[1].region, 1u);
  EXPECT_EQ(log[1].at, log[0].at);
  EXPECT_EQ(sched.reconfigurations(), 1u);
  EXPECT_EQ(sched.affinity_hits(), 1u);
}

TEST_F(SchedulerTest, WithoutRequireResidentABlockedHeadHoldsEveryLaterRequest) {
  KernelScheduler sched(dev_.get(), KernelScheduler::Policy::kAffinity);
  MakeKernelsResident(sched);
  std::vector<Start> log;
  sched.Submit(HoldingRequest("/bit/hll.bin", sim::Seconds(1), &log, "a_fill"));
  sched.Submit(HoldingRequest("/bit/aes.bin", sim::Milliseconds(1), &log, "b_fill"));
  RunFor(sim::Microseconds(10));
  sched.Submit(HoldingRequest("/bit/hll.bin", sim::Milliseconds(1), &log, "a"));
  sched.Submit(HoldingRequest("/bit/aes.bin", sim::Milliseconds(1), &log, "b"));
  dev_->WaitFor([&] { return sched.Idle(); });

  // b_fill frees region 1 first. Any request may use it, so the head, a,
  // takes it (reconfiguring it) although b's kernel was the one resident
  // there, and b waits for a.
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log[2].tag, "a");
  EXPECT_EQ(log[2].region, 1u);
  EXPECT_EQ(log[3].tag, "b");
  EXPECT_EQ(log[3].region, 1u);
  EXPECT_GE(log[3].at, log[2].at + sim::Milliseconds(1));
  EXPECT_EQ(sched.reconfigurations(), 2u);
}

}  // namespace
}  // namespace runtime
}  // namespace coyote

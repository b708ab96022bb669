// Recovery MTTR: detection latency and mean-time-to-repair per fault class.
//
// The supervision layer closes detect -> isolate -> recover -> report around
// a hung vFPGA (src/runtime/supervisor.h). This bench measures the two
// latencies an operator cares about, per detection path:
//
//   detect  — last heartbeat progress to the supervisor declaring the hang
//             (bounded by the heartbeat deadline + one watchdog period, or by
//             the cThread op deadline when the miss shortcuts the window)
//   MTTR    — detection to the region serving again (dominated by the
//             Table-3 app-bitstream reconfiguration latency; an injected
//             transient ICAP abort adds one full program retry)
//
// Every scenario runs twice with the same seed; the run is only reported as
// deterministic when detection latency, MTTR and the supervisor's trace
// fingerprint are bit-identical. Results land in BENCH_recovery.json.

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/runtime/crcnfg.h"
#include "src/runtime/cthread.h"
#include "src/runtime/device.h"
#include "src/runtime/supervisor.h"
#include "src/services/vector_kernels.h"
#include "src/sim/engine.h"
#include "src/sim/fault.h"
#include "src/sim/rng.h"
#include "src/sim/sharded_engine.h"
#include "src/synth/flow.h"
#include "src/synth/netlist.h"

namespace coyote {
namespace {

using runtime::Alloc;
using runtime::CThread;
using runtime::Oper;
using runtime::SgEntry;
using runtime::SimDevice;
using runtime::Supervisor;

enum class Mode {
  kWatchdogWindow,    // hang found by flat heartbeats over the deadline window
  kDeadlineShortcut,  // cThread op-deadline miss shortcuts the window
  kIcapTransient,     // recovery itself eats a transient ICAP abort
};

struct Scenario {
  const char* name;
  const char* fault_class;
  Mode mode;
};

constexpr Scenario kScenarios[] = {
    {"watchdog-window", "kernel.hang", Mode::kWatchdogWindow},
    {"deadline-shortcut", "deadline.miss", Mode::kDeadlineShortcut},
    {"icap-transient", "kernel.hang", Mode::kIcapTransient},
};

struct Outcome {
  bool ok = false;  // scenario ran end to end and the region recovered
  sim::TimePs detect_latency = 0;
  sim::TimePs mttr = 0;
  uint64_t trace_fingerprint = 0;
  uint64_t icap_programs_failed = 0;
  uint64_t supervisor_failed_recoveries = 0;

  bool operator==(const Outcome&) const = default;
};

// `engine == nullptr`: the device owns its engine (classic single-engine
// run). Otherwise the device executes on the caller's engine — the --shards
// mode places each scenario's device on a shard of a ShardedEngine to prove
// the recovery schedule is placement-invariant.
Outcome RunScenario(Mode mode, uint64_t seed, sim::Engine* engine = nullptr) {
  Outcome result;

  SimDevice::Config cfg;
  cfg.shell.name = "recovery-bench-shell";
  cfg.shell.services = {fabric::Service::kHostStream, fabric::Service::kCardMemory};
  cfg.shell.num_vfpgas = 2;
  SimDevice dev(cfg, nullptr, engine);
  dev.RegisterKernelFactory(
      "passthrough", []() { return std::make_unique<services::PassthroughKernel>(); });

  synth::BuildFlow flow(dev.floorplan());
  synth::Netlist passthrough{"passthrough", {synth::LibraryModule("passthrough")}};
  auto out = flow.RunShellFlow(cfg.shell, {passthrough});
  if (!out.ok) {
    return result;
  }
  dev.WriteBitstreamFile("/bit/app.bin", out.app_bitstreams[0]);

  sim::FaultPlan plan;
  plan.seed = seed;
  plan.kernel_hang_first_n = 1;  // the kernel wedges on its first data
  if (mode == Mode::kIcapTransient) {
    plan.reconfig_fail_first_n = 1;  // ...and the first reprogram aborts
  }
  sim::FaultInjector injector(&dev.engine(), plan);
  dev.AttachFaultInjector(&injector);

  if (mode == Mode::kIcapTransient) {
    // Load directly so the injected ICAP abort hits the *recovery* program,
    // not this setup step.
    dev.vfpga(0).LoadKernel(std::make_unique<services::PassthroughKernel>());
  } else {
    if (!runtime::CRcnfg(&dev).ReconfigureApp("/bit/app.bin", 0).ok) {
      return result;
    }
  }

  Supervisor::Config scfg;
  scfg.watchdog_period = sim::Microseconds(20);
  // The shortcut scenario gets a deliberately generous heartbeat window so
  // that any detection inside it must have come from the op-deadline miss.
  scfg.heartbeat_deadline = (mode == Mode::kDeadlineShortcut) ? sim::Milliseconds(10)
                                                              : sim::Microseconds(60);
  scfg.probation_ticks = 2;
  Supervisor sup(&dev, nullptr, scfg);
  sup.SetLastKnownGood(0, "/bit/app.bin");
  sup.Start();

  CThread t(&dev, 0);
  if (mode == Mode::kDeadlineShortcut) {
    t.SetOpDeadline(sim::Microseconds(100));
  }

  // A 64 KB transfer: deep enough that the wedged kernel strands both DMA
  // directions, guaranteeing the watchdog sees outstanding work.
  constexpr uint64_t kBytes = 64 << 10;
  std::vector<uint8_t> data(kBytes);
  sim::Rng fill(5);
  fill.FillBytes(data.data(), kBytes);
  const uint64_t src = t.GetMem({Alloc::kHpf, kBytes});
  const uint64_t dst = t.GetMem({Alloc::kHpf, kBytes});
  t.WriteBuffer(src, data.data(), kBytes);
  SgEntry sg;
  sg.local = {.src_addr = src, .src_len = kBytes, .dst_addr = dst, .dst_len = kBytes};
  if (t.InvokeSync(Oper::kLocalTransfer, sg)) {
    return result;  // the hang never fired; nothing to measure
  }
  if (!dev.engine().RunUntilCondition([&] { return sup.recoveries() == 1; })) {
    return result;
  }
  if (sup.incidents().size() != 1 || !sup.incidents()[0].recovered) {
    return result;
  }

  const Supervisor::Incident& inc = sup.incidents()[0];
  result.ok = true;
  result.detect_latency = inc.detect_latency;
  result.mttr = inc.mttr;
  result.trace_fingerprint = sup.TraceFingerprint();
  result.icap_programs_failed = dev.reconfig_controller().programs_failed();
  result.supervisor_failed_recoveries = sup.failed_recoveries();
  sup.Stop();
  return result;
}

double ToUs(sim::TimePs ps) { return static_cast<double>(ps) / 1e6; }

int Run() {
  constexpr uint64_t kSeed = 7;

  bench::PrintHeader(
      "Recovery MTTR: detection latency + repair time per fault class",
      "Shell supervision layer; app reconfiguration latency per Table 3");
  bench::Row("%-20s %-14s %14s %14s %8s %6s", "scenario", "fault class",
             "detect (us)", "MTTR (us)", "icap.rt", "det.");
  bench::PrintRule();

  bool all_ok = true;
  bool deterministic = true;
  std::vector<Outcome> outcomes;
  for (const Scenario& s : kScenarios) {
    const Outcome a = RunScenario(s.mode, kSeed);
    const Outcome b = RunScenario(s.mode, kSeed);  // same seed: must be bit-identical
    const bool det = a == b;
    all_ok = all_ok && a.ok;
    deterministic = deterministic && det;
    outcomes.push_back(a);
    if (!a.ok) {
      bench::Row("%-20s %-14s %31s", s.name, s.fault_class, "FAILED");
      continue;
    }
    bench::Row("%-20s %-14s %14.2f %14.2f %8llu %6s", s.name, s.fault_class,
               ToUs(a.detect_latency), ToUs(a.mttr),
               static_cast<unsigned long long>(a.icap_programs_failed),
               det ? "yes" : "NO");
  }

  bench::PrintRule();
  bench::Note("detect: last heartbeat progress -> supervisor declares the hang.");
  bench::Note("MTTR: detection -> region reprogrammed and serving (Table-3 latency).");
  bench::Note("icap.rt: transient ICAP aborts absorbed by the driver's program retry;");
  bench::Note("they lengthen MTTR but never reach the supervisor's recovery budget.");
  bench::Note(deterministic ? "det.: same-seed rerun reproduced every number bit-exactly."
                            : "det.: DETERMINISM VIOLATION — same-seed reruns diverged.");

  bench::BenchJsonWriter json("BENCH_recovery.json");
  if (json.ok()) {
    json.Field("bench", "recovery_mttr");
    json.Field("seed", kSeed);
    json.Field("deterministic", deterministic);
    json.BeginArray("scenarios");
    for (size_t i = 0; i < outcomes.size(); ++i) {
      const Scenario& s = kScenarios[i];
      const Outcome& o = outcomes[i];
      json.BeginObject();
      json.Field("name", s.name);
      json.Field("fault_class", s.fault_class);
      json.Field("ok", o.ok);
      json.Field("detect_latency_ps", o.detect_latency);
      json.Field("mttr_ps", o.mttr);
      json.Hex("trace_fingerprint", o.trace_fingerprint);
      json.Field("icap_programs_failed", o.icap_programs_failed);
      json.Field("supervisor_failed_recoveries", o.supervisor_failed_recoveries);
      json.End();
    }
    json.End();
    json.Close();
    bench::Note("wrote BENCH_recovery.json");
  }

  return (all_ok && deterministic) ? 0 : 1;
}

// --shards=N: replay every scenario with its device placed on a shard of an
// N-shard PDES engine and assert the per-fault-class outcome — detection
// latency, MTTR, and the supervisor's trace fingerprint — is bit-identical
// to the classic single-engine run. Each scenario is node-local (no
// cross-shard traffic), so placement must not perturb its schedule.
int RunShardsMode(uint32_t num_shards) {
  constexpr uint64_t kSeed = 7;

  bench::PrintHeader("Recovery MTTR: shard-placement invariance",
                     "same seed, single engine vs shard of an N-shard PDES engine");
  bench::Row("%-20s %-14s %10s", "scenario", "fault class", "identical");
  bench::PrintRule();

  bool all_identical = true;
  for (size_t i = 0; i < std::size(kScenarios); ++i) {
    const Scenario& s = kScenarios[i];
    const Outcome single = RunScenario(s.mode, kSeed);
    sim::ShardedEngine eng(sim::ShardedEngine::Config{
        .num_shards = num_shards, .lookahead = sim::Nanoseconds(100), .use_threads = false});
    const Outcome sharded =
        RunScenario(s.mode, kSeed, &eng.shard(static_cast<uint32_t>(i) % num_shards));
    const bool same = single.ok && sharded.ok && single == sharded;
    all_identical = all_identical && same;
    bench::Row("%-20s %-14s %10s", s.name, s.fault_class, same ? "yes" : "NO");
  }
  bench::PrintRule();
  bench::Note(all_identical
                  ? "every fault-class fingerprint is bit-identical to single-shard."
                  : "PLACEMENT DIVERGENCE — sharded outcomes differ from single-shard.");
  return all_identical ? 0 : 1;
}

}  // namespace
}  // namespace coyote

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--shards=", 0) == 0) {
      const int n = std::atoi(arg.c_str() + 9);
      if (n < 1) {
        std::fprintf(stderr, "bad --shards value: %s\n", arg.c_str());
        return 2;
      }
      return coyote::RunShardsMode(static_cast<uint32_t>(n));
    }
  }
  return coyote::Run();
}

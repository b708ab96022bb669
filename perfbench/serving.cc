// `serving`: the per-request control-plane workload.
//
// A ServingFabric of 4 nodes x 2 passthrough regions on one shard, fed by an
// open-loop LoadGen at bench_serving's knee settings with the session gap cut
// to 6 us, so the 1.3x diurnal peak crosses the 500k/s admission budget and
// the router sheds a few percent. Payloads are 64-512 B: the work is router
// admission, fair queueing, batching, the node schedulers and CYRP framing
// (one CRC per frame), not the data plane. Arrivals are scheduled in
// simulated time, so the generator never falls behind.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/harness.h"
#include "src/runtime/router.h"
#include "src/services/vector_kernels.h"
#include "src/sim/time.h"

namespace perfbench {
namespace {

using namespace coyote;

constexpr uint32_t kNodes = 4;
constexpr sim::TimePs kDuration = sim::Milliseconds(100);
constexpr sim::TimePs kHorizon = 4 * kDuration;
constexpr sim::TimePs kStep = sim::Microseconds(100);

runtime::ServingFabric::Config FabricConfig(uint64_t seed) {
  runtime::ServingFabric::Config c;
  c.num_nodes = kNodes;
  c.regions_per_node = 2;
  c.num_shards = 1;
  c.use_threads = false;
  c.seed = seed;
  c.kernel_names = {"kv.bin", "vec.bin"};
  c.kernel_factory = [] { return std::make_unique<services::PassthroughKernel>(); };

  c.router.admit_period = sim::Microseconds(2);  // 500k tokens/s
  c.router.bucket_burst = 64;
  c.router.tenant_queue_cap = 512;
  c.router.batch_max = 8;
  c.router.batch_timeout = sim::Microseconds(5);
  c.router.node_window = 16;
  c.router.heartbeat_window = sim::Microseconds(400);

  c.loadgen.duration = kDuration;
  c.loadgen.session_gap = sim::Microseconds(6);
  c.loadgen.requests_per_session_max = 4;
  c.loadgen.think_gap = sim::Microseconds(2);
  c.loadgen.payload_bytes_min = 64;
  c.loadgen.payload_bytes_max = 512;
  c.loadgen.active_tenants = 6;
  c.loadgen.tenant_universe = 24;
  c.loadgen.churn_period = sim::Microseconds(500);
  c.loadgen.diurnal_permille = {800, 1000, 1300, 1000};
  c.loadgen.phase_period = sim::Microseconds(250);
  c.loadgen.burst_permille = 40;
  c.loadgen.burst_size = 6;
  return c;
}

}  // namespace

RepResult RunServing(uint64_t seed, Tracer* tracer) {
  RepResult r;

  // Observed at the router: completions per request id, OK completions per
  // tenant, completion frames from nodes, and the last completion time.
  std::vector<uint8_t> completions_of;
  std::vector<uint64_t> ok_by_tenant;
  uint64_t node_frames = 0;
  sim::TimePs last_completion = 0;

  const double setup_start = Now();
  std::unique_ptr<runtime::ServingFabric> fab;
  {
    ScopedSpan span(tracer, "bench", "setup");
    {
      ScopedSpan ctor(tracer, "runtime", "ServingFabric::ServingFabric");
      fab = std::make_unique<runtime::ServingFabric>(FabricConfig(seed));
    }
    fab->router().SetCompletionObserver([&](const runtime::serving::ServingCompletion& c) {
      if (c.id >= completions_of.size()) {
        completions_of.resize(c.id + 1, 0);
      }
      completions_of[c.id] = static_cast<uint8_t>(std::min(completions_of[c.id] + 1, 255));
      if (c.node < kNodes) {
        ++node_frames;
      }
      if (c.status == runtime::OpStatus::kOk) {
        if (c.tenant >= ok_by_tenant.size()) {
          ok_by_tenant.resize(c.tenant + 1, 0);
        }
        ++ok_by_tenant[c.tenant];
      }
      last_completion = std::max(last_completion, c.completed_at);
    });
  }
  r.setup_s = Now() - setup_start;

  const double run_start = Now();
  bool settled = false;
  {
    ScopedSpan span(tracer, "bench", "run");
    // Run(t, t) advances to t and checks settlement once: the same sequence
    // as Run(kHorizon, kStep), with one span per step when traced.
    for (sim::TimePs t = kStep; t <= kHorizon && !settled; t += kStep) {
      ScopedSpan step(tracer, "runtime", "ServingFabric::Run");
      settled = fab->Run(t, t);
    }
  }
  r.wall_s = Now() - run_start;

  ScopedSpan check_span(tracer, "bench", "check");
  runtime::Router& router = fab->router();
  const sim::CounterSet& ctr = router.counters();
  const uint64_t offered = ctr.value("router.offered");
  r.attempted = offered;
  r.ok = ctr.value("router.done.ok");
  r.shed = ctr.value("router.done.shed");
  r.errors = offered - std::min(offered, r.ok + r.shed);

  if (!settled) {
    r.failures.push_back("serving: fabric did not settle within the horizon");
  }
  if (router.completions() != offered || completions_of.size() != offered + 1) {
    r.failures.push_back("serving: completions (" + std::to_string(router.completions()) +
                         ") != offered requests (" + std::to_string(offered) + ")");
  }
  for (uint64_t id = 1; id < completions_of.size(); ++id) {
    if (completions_of[id] != 1) {
      r.failures.push_back("serving: request " + std::to_string(id) + " completed " +
                           std::to_string(completions_of[id]) + " times");
      break;
    }
  }
  if (ctr.value("router.integrity.mismatch") != 0) {
    r.failures.push_back("serving: router.integrity.mismatch = " +
                         std::to_string(ctr.value("router.integrity.mismatch")));
  }
  if (fab->frame_errors() != 0) {
    r.failures.push_back("serving: frame_errors = " + std::to_string(fab->frame_errors()));
  }

  sim::Samples& lat = router.latency_us();
  const double settle_s = sim::ToSeconds(last_completion);
  r.sim["ok_frac"] = Ratio(static_cast<double>(r.ok), static_cast<double>(offered));
  r.sim["goodput_per_s"] = Ratio(static_cast<double>(r.ok), settle_s);
  r.sim["settle_ms"] = sim::ToMilliseconds(last_completion);
  r.sim["p50_us"] = lat.Percentile(50);
  r.sim["p99_us"] = lat.Percentile(99);

  Metrics& m = r.layer;
  m["p999_us"] = lat.Percentile(99.9);
  m["latency_samples"] = static_cast<double>(lat.count());

  const sim::ShardedEngine& eng = fab->sharded();
  m["sim.events"] = static_cast<double>(eng.events_executed());
  m["sim.windows"] = static_cast<double>(eng.stats().windows);
  m["sim.events_per_window"] = Ratio(m["sim.events"], m["sim.windows"]);
  m["sim.cross_shard_messages"] = static_cast<double>(eng.stats().cross_shard_messages);
  m["sim.lookahead_violations"] = static_cast<double>(eng.stats().lookahead_violations);
  m["sim.backpressure_stalls"] = static_cast<double>(eng.stats().backpressure_stalls);

  const uint64_t batches = ctr.value("router.batches");
  m["runtime.router.admitted"] = static_cast<double>(
      offered - ctr.value("router.shed.bucket") - ctr.value("router.shed.queue_full"));
  m["runtime.router.shed"] = static_cast<double>(r.shed);
  m["runtime.router.batch_mean"] = router.batch_histogram().mean();
  m["runtime.router.flush_timeout_frac"] =
      Ratio(static_cast<double>(ctr.value("router.flush.timeout")), static_cast<double>(batches));
  m["runtime.router.queue_depth_p99"] =
      static_cast<double>(router.depth_histogram().PercentileBound(99));

  std::vector<double> node_done;
  uint64_t sched_depth_p99 = 0;
  uint64_t affinity_hits = 0;
  uint64_t sched_submitted = 0;
  for (uint32_t n = 0; n < kNodes; ++n) {
    runtime::KernelScheduler& s = fab->scheduler(n);
    node_done.push_back(static_cast<double>(s.completed()));
    sched_depth_p99 = std::max(sched_depth_p99, s.depth_histogram().PercentileBound(99));
    affinity_hits += s.affinity_hits();
    sched_submitted += s.submitted();
  }
  m["runtime.router.node_balance"] = MinOverMax(node_done);
  m["runtime.sched.depth_p99"] = static_cast<double>(sched_depth_p99);
  m["runtime.sched.affinity_hit_frac"] =
      Ratio(static_cast<double>(affinity_hits), static_cast<double>(sched_submitted));

  std::vector<double> tenant_ok;
  for (const uint64_t n : ok_by_tenant) {
    if (n > 0) {
      tenant_ok.push_back(static_cast<double>(n));
    }
  }
  m["fair_min_max"] = MinOverMax(tenant_ok);

  // One request-batch frame per flushed batch plus one completion frame per
  // node-side completion; heartbeat frames are not counted.
  m["net.rpc.frames"] = static_cast<double>(batches + node_frames);
  m["net.rpc.frame_errors"] = static_cast<double>(fab->frame_errors());

  r.witness = fab->Fingerprint();
  return r;
}

}  // namespace perfbench

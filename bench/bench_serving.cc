// Serving fabric: goodput and tail latency vs offered load.
//
// An open-loop LoadGen offers traffic to the Router's admission/batching/
// routing tier in front of a 4-node simulated deployment (paper §9: many
// vFPGA apps behind one shell per node). The sweep holds the admission
// budget fixed and raises offered load through and past saturation:
//
//   light — well under the token rate: nothing sheds, and the batcher is
//           work-conserving, so a request to a node with an idle region
//           flushes at once: latency is the wire plus the node's own time.
//   knee  — near the admission budget: the bucket starts clipping the
//           diurnal peaks.
//   over  — several times the budget: admission sheds the excess at the
//           front door; goodput holds at the token rate instead of
//           collapsing (the point of admission control).
//
// The chaos scenario reruns the knee with reconfiguration storms
// (quarantine + region reset mid-batch, each reported to the Router, which
// routes around the region meanwhile) and a node kill (heartbeat-silence
// death declaration + evacuation) in the mix — goodput dips, nothing hangs,
// every request still gets exactly one typed completion.
//
// Determinism: the knee point reruns with the same seed and at 1/2/4-shard
// placements; the fabric fingerprint (every completion folded in delivery
// order + counters) must be bit-identical. Every JSON value except wall_*
// lines is deterministic — CI runs this twice and diffs.

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/runtime/router.h"
#include "src/services/vector_kernels.h"
#include "src/sim/time.h"

namespace coyote {
namespace {

constexpr uint64_t kSeed = 0xC0FFEE5Eull;
constexpr sim::TimePs kDuration = sim::Milliseconds(4);
constexpr sim::TimePs kHorizon = 4 * kDuration;
constexpr sim::TimePs kStep = sim::Microseconds(100);

struct Result {
  bool settled = false;
  uint64_t offered = 0;
  uint64_t ok = 0;
  uint64_t shed = 0;
  uint64_t errors = 0;
  uint64_t aborted = 0;
  uint64_t expired = 0;
  uint64_t batches = 0;
  uint64_t evacuated = 0;
  uint64_t node_deaths = 0;
  uint64_t storms = 0;
  uint64_t integrity_mismatch = 0;
  uint64_t frame_errors = 0;
  double goodput_rps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
  uint64_t fingerprint = 0;
  double wall_s = 0.0;
};

Result RunOne(sim::TimePs session_gap, uint32_t num_shards, bool chaos) {
  runtime::ServingFabric::Config c;
  c.num_nodes = 4;
  c.regions_per_node = 2;
  c.num_shards = num_shards;
  c.seed = kSeed;
  c.kernel_names = {"kv.bin", "vec.bin"};
  c.kernel_factory = [] { return std::make_unique<services::PassthroughKernel>(); };

  // Admission budget: one token per 2us (500k requests/s) with a 64-token
  // burst bank — the saturation point the sweep crosses.
  c.router.admit_period = sim::Microseconds(2);
  c.router.bucket_burst = 64;
  c.router.tenant_queue_cap = 512;
  c.router.batch_max = 8;
  c.router.batch_timeout = sim::Microseconds(5);
  c.router.node_window = 16;
  c.router.heartbeat_window = sim::Microseconds(400);

  c.loadgen.duration = kDuration;
  c.loadgen.session_gap = session_gap;
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

  if (chaos) {
    c.storms = {{sim::Microseconds(800), 0, 0, sim::Microseconds(120)},
                {sim::Microseconds(1600), 1, 1, sim::Microseconds(120)},
                {sim::Microseconds(2400), 2, 0, sim::Microseconds(120)}};
    c.kills = {{sim::Microseconds(2000), 3}};
  }

  bench::WallTimer timer;
  runtime::ServingFabric fab(c);
  Result r;
  r.settled = fab.Run(kHorizon, kStep);
  r.wall_s = timer.Seconds();

  const sim::CounterSet& ctr = fab.router().counters();
  r.offered = ctr.value("router.offered");
  r.ok = ctr.value("router.done.ok");
  r.shed = ctr.value("router.done.shed");
  r.errors = ctr.value("router.done.error");
  r.aborted = ctr.value("router.done.aborted");
  r.expired = ctr.value("router.done.deadline");
  r.batches = ctr.value("router.batches");
  r.evacuated = ctr.value("router.evacuated");
  r.node_deaths = ctr.value("router.node_dead");
  r.integrity_mismatch = ctr.value("router.integrity.mismatch");
  r.frame_errors = fab.frame_errors();
  r.storms = fab.storms_begun();
  r.goodput_rps = static_cast<double>(r.ok) /
                  (static_cast<double>(kDuration) * 1e-12);
  sim::Samples& lat = fab.router().latency_us();
  r.p50_us = lat.Percentile(50);
  r.p99_us = lat.Percentile(99);
  r.p999_us = lat.Percentile(99.9);
  r.fingerprint = fab.Fingerprint();
  return r;
}

void PrintResult(const char* name, const Result& r) {
  bench::Row("  %-8s offered %6" PRIu64 "  ok %6" PRIu64 "  shed %6" PRIu64
             "  goodput %8.0f req/s  p50 %7.1f us  p99 %7.1f us  p999 %7.1f us%s",
             name, r.offered, r.ok, r.shed, r.goodput_rps, r.p50_us, r.p99_us,
             r.p999_us, r.settled ? "" : "  [DID NOT SETTLE]");
}

void EmitPoint(bench::BenchJsonWriter* json, const char* name, const Result& r) {
  json->BeginObject();
  json->Field("name", name);
  json->Field("settled", r.settled);
  json->Field("offered", r.offered);
  json->Field("ok", r.ok);
  json->Field("shed", r.shed);
  json->Field("errors", r.errors);
  json->Field("aborted", r.aborted);
  json->Field("expired", r.expired);
  json->Field("batches", r.batches);
  json->Field("evacuated", r.evacuated);
  json->Field("node_deaths", r.node_deaths);
  json->Field("storms", r.storms);
  json->Field("integrity_mismatch", r.integrity_mismatch);
  json->Field("frame_errors", r.frame_errors);
  json->Field("goodput_rps", r.goodput_rps);
  json->Field("p50_us", r.p50_us);
  json->Field("p99_us", r.p99_us);
  json->Field("p999_us", r.p999_us);
  json->Hex("fingerprint", r.fingerprint);
  json->Wall("seconds", r.wall_s);
  json->End();
}

}  // namespace
}  // namespace coyote

int main() {
  using namespace coyote;

  bench::PrintHeader("Serving fabric: goodput & tail latency vs offered load",
                     "Coyote v2 serving tier (§9): admission, batching, routing");

  struct Point {
    const char* name;
    sim::TimePs session_gap;
    bool chaos;
  };
  const std::vector<Point> points = {
      {"light", sim::Microseconds(32), false},
      {"knee", sim::Microseconds(8), false},
      {"over", sim::Microseconds(2), false},
      {"chaos", sim::Microseconds(8), true},
  };

  std::vector<Result> results;
  bench::PrintRule();
  for (const Point& p : points) {
    results.push_back(RunOne(p.session_gap, /*num_shards=*/1, p.chaos));
    PrintResult(p.name, results.back());
  }
  bench::PrintRule();

  // Determinism: same seed -> same fingerprint; 1/2/4-shard placements ->
  // same fingerprint (for both the clean knee and the chaos mix).
  const Result knee2 = RunOne(sim::Microseconds(8), 1, false);
  const bool same_seed = knee2.fingerprint == results[1].fingerprint;
  const Result knee_s2 = RunOne(sim::Microseconds(8), 2, false);
  const Result knee_s4 = RunOne(sim::Microseconds(8), 4, false);
  const Result chaos_s2 = RunOne(sim::Microseconds(8), 2, true);
  const Result chaos_s4 = RunOne(sim::Microseconds(8), 4, true);
  const bool across_shards = knee_s2.fingerprint == results[1].fingerprint &&
                             knee_s4.fingerprint == results[1].fingerprint &&
                             chaos_s2.fingerprint == results[3].fingerprint &&
                             chaos_s4.fingerprint == results[3].fingerprint;
  bench::Note(same_seed ? "det.: same-seed rerun is bit-identical."
                        : "det.: SAME-SEED DIVERGENCE.");
  bench::Note(across_shards ? "det.: shard placements {1,2,4} are bit-identical."
                            : "det.: CROSS-SHARD DIVERGENCE.");

  const Result& light = results[0];
  const Result& over = results[2];
  const Result& chaos = results[3];
  const bool ok = light.settled && results[1].settled && over.settled &&
                  chaos.settled && light.shed == 0 && over.shed > over.offered / 4 &&
                  over.ok > 0 && chaos.node_deaths == 1 && chaos.storms == 3 &&
                  light.integrity_mismatch == 0 && chaos.integrity_mismatch == 0 &&
                  light.frame_errors == 0 && chaos.frame_errors == 0;
  bench::Note(ok ? "shape: light sheds nothing, over sheds at admission, chaos settles."
                 : "shape: UNEXPECTED (see JSON).");

  bench::BenchJsonWriter json("BENCH_serving.json");
  if (json.ok()) {
    json.Field("bench", "serving");
    json.Field("seed", kSeed);
    json.Field("nodes", 4);
    json.Field("regions_per_node", 2);
    json.Field("admit_tokens_per_sec", 500000);
    json.Field("deterministic_same_seed", same_seed);
    json.Field("deterministic_across_shards", across_shards);
    json.BeginArray("load_points");
    for (size_t i = 0; i < points.size(); ++i) {
      EmitPoint(&json, points[i].name, results[i]);
    }
    json.End();
    json.Close();
    bench::Note("wrote BENCH_serving.json");
  }

  return (ok && same_seed && across_shards) ? 0 : 1;
}

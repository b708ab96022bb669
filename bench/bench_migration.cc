// Fleet resilience: checkpoint capture cost, live-migration downtime, and
// cluster MTTR after a node kill.
//
// The orchestration layer (src/runtime/orchestrator.h) moves a tenant with
// quiesce -> checkpoint -> chunked transfer -> restore -> resume, and
// replays the last periodic checkpoint on a survivor when a node dies. This
// bench measures the three numbers an operator budgets against:
//
//   checkpoint  — CYK1 blob size, dirty pages shipped, and the serialize
//                 latency at the configured capture bandwidth
//   downtime    — quiesce to resume-on-destination for a planned migration
//   MTTR        — node kill to the last evacuated tenant executing again
//
// Every scenario runs at shard counts {1, 2, 4} and twice at the golden
// count with the same seed; the run is only reported as deterministic when
// the control-plane trace fingerprint, the injector schedules, settlement
// time, and every tenant's end-to-end data hash are bit-identical across
// all of them. Results land in BENCH_migration.json; wall-clock throughput
// goes under "wall_" keys so determinism diffs can filter it.

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/runtime/orchestrator.h"
#include "src/services/vector_kernels.h"
#include "src/sim/time.h"

namespace coyote {
namespace {

using runtime::Fleet;
using runtime::MigrationRecord;
using runtime::TenantOutcome;
using runtime::TenantSpec;

constexpr uint64_t kSeed = 11;
constexpr sim::TimePs kKillAt = sim::Microseconds(620);

Fleet::Config BaseConfig(uint32_t num_shards) {
  Fleet::Config c;
  c.num_shards = num_shards;
  c.seed = kSeed;
  c.kernel_factory = [] { return std::make_unique<services::PassthroughKernel>(); };
  return c;
}

// Everything a scenario reports, in simulated time only — the cross-shard
// and same-seed identity witness.
struct Metrics {
  bool settled = false;
  sim::TimePs settled_at = 0;
  uint64_t trace_fp = 0;
  uint64_t injector_fp = 0;
  uint64_t ckpt_bytes = 0;
  uint64_t ckpt_pages = 0;
  uint32_t chunks = 0;
  sim::TimePs capture_latency = 0;
  sim::TimePs downtime = 0;  // planned: quiesce->resume; kill: worst evacuee
  sim::TimePs mttr = 0;      // kill -> last evacuee resumed
  uint64_t evacuations = 0;
  uint64_t sheds = 0;
  std::vector<uint64_t> hashes;
  std::vector<TenantOutcome> outcomes;

  bool operator==(const Metrics&) const = default;
};

void FoldRecords(const Fleet& fleet, Metrics* m) {
  for (const MigrationRecord& rec : fleet.orchestrator().migrations()) {
    if (rec.outcome != "ok" && rec.outcome != "evacuated" && rec.outcome != "evacuated.fresh") {
      continue;
    }
    if (rec.ckpt_bytes > m->ckpt_bytes) {
      m->ckpt_bytes = rec.ckpt_bytes;
      m->ckpt_pages = rec.ckpt_pages;
      m->chunks = rec.chunks;
      m->capture_latency = sim::TransferTime(rec.ckpt_bytes, Fleet::kCaptureBps);
    }
    if (rec.downtime > m->downtime) {
      m->downtime = rec.downtime;
    }
    if (rec.reason == "node.dead" && rec.resumed_at > kKillAt) {
      const sim::TimePs repair = rec.resumed_at - kKillAt;
      if (repair > m->mttr) {
        m->mttr = repair;
      }
    }
  }
}

void Finish(Fleet* fleet, const std::vector<uint32_t>& ids, Metrics* m) {
  m->settled = fleet->Run(sim::Milliseconds(100));
  m->settled_at = fleet->orchestrator().settled_at();
  m->trace_fp = fleet->orchestrator().TraceFingerprint();
  m->injector_fp = fleet->InjectorFingerprint();
  m->evacuations = fleet->orchestrator().evacuations();
  m->sheds = fleet->orchestrator().sheds();
  for (const uint32_t id : ids) {
    m->hashes.push_back(fleet->tenant_data_hash(id));
    m->outcomes.push_back(fleet->tenant_outcome(id));
  }
  FoldRecords(*fleet, m);
}

// Planned live migration under light chunk loss: one tenant moves across the
// rack mid-run while two bystanders keep streaming.
Metrics RunPlanned(uint32_t num_shards) {
  Fleet::Config c = BaseConfig(num_shards);
  c.num_nodes = 3;
  c.fault_template.migration_chunk_drop_first_n = 1;
  Fleet fleet(c);

  std::vector<uint32_t> ids;
  for (uint32_t i = 0; i < 3; ++i) {
    TenantSpec spec;
    spec.name = "p" + std::to_string(i);
    spec.home_node = i;
    spec.items_total = 20;
    ids.push_back(fleet.AddTenant(spec));
  }
  fleet.ScheduleMigration(sim::Microseconds(150), ids[0], /*dst_node=*/2);

  Metrics m;
  Finish(&fleet, ids, &m);
  return m;
}

// Kill-one-node soak: two tenants on the doomed node resume from their last
// periodic checkpoint on survivors; MTTR covers death detection (missed
// heartbeats), checkpoint replay over the wire, and restore.
Metrics RunKillOneNode(uint32_t num_shards) {
  Fleet::Config c = BaseConfig(num_shards);
  c.num_nodes = 3;
  Fleet fleet(c);

  std::vector<uint32_t> ids;
  for (uint32_t i = 0; i < 4; ++i) {
    TenantSpec spec;
    spec.name = "k" + std::to_string(i);
    spec.home_node = i < 2 ? 0 : i - 1;
    spec.items_total = 30;
    spec.think_time = sim::Microseconds(25);
    ids.push_back(fleet.AddTenant(spec));
  }
  fleet.ScheduleKill(kKillAt, 0);

  Metrics m;
  Finish(&fleet, ids, &m);
  return m;
}

double ToUs(sim::TimePs ps) { return static_cast<double>(ps) / 1e6; }

int Run() {
  bench::PrintHeader("Fleet resilience: checkpoint size, migration downtime, kill-one-node MTTR",
                     "orchestration layer over the shell's monitoring registers");

  bench::WallTimer wall;
  const Metrics planned = RunPlanned(1);
  const Metrics planned_again = RunPlanned(1);  // same seed: must be bit-identical
  const Metrics killed = RunKillOneNode(1);
  const Metrics killed_again = RunKillOneNode(1);
  const double wall_golden_s = wall.Seconds();

  bool same_seed = planned == planned_again && killed == killed_again;
  bool across_shards = true;
  for (const uint32_t shards : {2u, 4u}) {
    across_shards = across_shards && RunPlanned(shards) == planned &&
                    RunKillOneNode(shards) == killed;
  }

  bench::Row("%-22s %12s %10s %8s %14s %12s", "scenario", "ckpt (KiB)", "pages",
             "chunks", "downtime (us)", "MTTR (us)");
  bench::PrintRule();
  bench::Row("%-22s %12.1f %10llu %8u %14.2f %12s", "planned-migration",
             static_cast<double>(planned.ckpt_bytes) / 1024.0,
             static_cast<unsigned long long>(planned.ckpt_pages), planned.chunks,
             ToUs(planned.downtime), "-");
  bench::Row("%-22s %12.1f %10llu %8u %14.2f %12.2f", "kill-one-node",
             static_cast<double>(killed.ckpt_bytes) / 1024.0,
             static_cast<unsigned long long>(killed.ckpt_pages), killed.chunks,
             ToUs(killed.downtime), ToUs(killed.mttr));
  bench::PrintRule();
  bench::Note("ckpt: largest successful CYK1 blob (CSRs + progress + dirty pages);");
  bench::Note("capture latency at the configured serialize bandwidth: " +
              std::to_string(ToUs(planned.capture_latency)) + " us.");
  bench::Note("downtime: tenant quiesced -> executing again on the destination.");
  bench::Note("MTTR: node kill -> last evacuated tenant resumed from checkpoint.");
  bench::Note(same_seed ? "same-seed reruns reproduced every metric bit-exactly."
                        : "SAME-SEED DETERMINISM VIOLATION.");
  bench::Note(across_shards ? "shard counts {1,2,4} agree on every metric."
                            : "CROSS-SHARD DIVERGENCE.");

  const bool ok = planned.settled && killed.settled && planned.sheds == 0 &&
                  killed.sheds == 0 && killed.evacuations == 2 && killed.mttr > 0;

  bench::BenchJsonWriter json("BENCH_migration.json");
  if (json.ok()) {
    json.Field("bench", "migration");
    json.Field("seed", kSeed);
    json.Field("deterministic_same_seed", same_seed);
    json.Field("deterministic_across_shards", across_shards);
    json.BeginObject("planned");
    json.Field("ckpt_bytes", planned.ckpt_bytes);
    json.Field("ckpt_pages", planned.ckpt_pages);
    json.Field("chunks", planned.chunks);
    json.Field("capture_latency_ps", planned.capture_latency);
    json.Field("downtime_ps", planned.downtime);
    json.Field("settled_at_ps", planned.settled_at);
    json.Hex("trace_fingerprint", planned.trace_fp);
    json.End();
    json.BeginObject("kill_one_node");
    json.Field("evacuations", killed.evacuations);
    json.Field("sheds", killed.sheds);
    json.Field("ckpt_bytes", killed.ckpt_bytes);
    json.Field("downtime_ps", killed.downtime);
    json.Field("mttr_ps", killed.mttr);
    json.Field("settled_at_ps", killed.settled_at);
    json.Hex("trace_fingerprint", killed.trace_fp);
    json.End();
    json.Wall("golden_runs_s", wall_golden_s);
    json.Close();
    bench::Note("wrote BENCH_migration.json");
  }

  return (ok && same_seed && across_shards) ? 0 : 1;
}

}  // namespace
}  // namespace coyote

int main() { return coyote::Run(); }

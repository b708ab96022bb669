// Fleet resilience layer: checkpoint/restore driven live migration and
// failure-driven evacuation across a simulated rack of Coyote v2 nodes.
//
// The Supervisor (src/runtime/supervisor.h) keeps one *node* healthy: it
// detects hung regions and hot-swaps them in place. This layer closes the
// loop one level up, across nodes — the role the paper assigns to the data
// center control plane sitting on the shell's monitoring registers:
//
//   Fleet         — the workload harness on a runtime::Cluster (the nodes,
//                   messaging, heartbeats and failure detector; the
//                   Orchestrator is the cluster's control node): event-driven
//                   tenant workloads, each on a serving::RegionExec (the
//                   executor the serving fabric's regions run on too), one
//                   fault injector per logical node, per-node supervisors,
//                   and checkpoint transfers: outbound ones by sender (a
//                   source node or the orchestrator), inbound ones by node.
//   Orchestrator  — the control plane. Takes node deaths from the cluster's
//                   detector, stores each tenant's periodic checkpoint, and
//                   drives the migration pipeline:
//
//       quiesce -> checkpoint -> transfer (chunked, RoCE-latency modeled,
//       lossy) -> restore -> resume
//
//   with bounded retransmit rounds and rollback to the source when the
//   destination cannot restore. When the detector declares a node dead, its
//   tenants are replayed from their last stored checkpoint on a survivor,
//   and when capacity runs out the lowest-priority tenant is shed with typed
//   kShed completions — degraded, never hung.
//
// Checkpoints use the CYK1 wire format (src/vfpga/checkpoint.h): the
// tenant's progress counters and region CSR/kernel state, then the
// executor's section — in-flight op descriptors rebased to buffer-relative
// offsets and the dirty-page manifest from the SVM layer (pages never
// written are not shipped — the restore target reproduces zero state for
// free). See DESIGN.md "Checkpoint wire format and migration protocol".

#ifndef SRC_RUNTIME_ORCHESTRATOR_H_
#define SRC_RUNTIME_ORCHESTRATOR_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/runtime/cluster.h"
#include "src/runtime/device.h"
#include "src/runtime/placement.h"
#include "src/runtime/serving.h"
#include "src/runtime/supervisor.h"
#include "src/sim/access_guard.h"
#include "src/sim/fault.h"
#include "src/sim/hash.h"
#include "src/sim/sharded_engine.h"
#include "src/sim/stats.h"
#include "src/sim/time.h"

namespace coyote {
namespace runtime {

// A fleet tenant: one kernel occupying one vFPGA region, streaming a fixed
// number of deterministic data items through it.
struct TenantSpec {
  std::string name;
  // Higher wins capacity fights; equal priorities shed the higher tenant id.
  uint32_t priority = 0;
  uint32_t home_node = 0;
  uint64_t items_total = 8;
  uint64_t item_bytes = 8 << 10;
  sim::TimePs think_time = sim::Microseconds(20);
};

// Terminal fate of a tenant, for settlement accounting.
enum class TenantOutcome : uint8_t {
  kRunning,  // not terminal yet
  kDone,     // all items retired (possibly after migration / evacuation)
  kShed,     // dropped by the orchestrator with kShed completions
};

// One quiesce->checkpoint->transfer->restore->resume attempt (or a
// checkpoint replay after a node death). Everything needed by
// BENCH_migration.json, in simulated picoseconds / bytes.
struct MigrationRecord {
  uint32_t tenant = 0;
  uint32_t src_node = 0;
  uint32_t dst_node = 0;
  std::string reason;  // "planned" or "node.dead"
  sim::TimePs started_at = 0;
  sim::TimePs quiesced_at = 0;   // tenant stopped executing on the source
  sim::TimePs resumed_at = 0;    // tenant executing again (dst or rollback)
  sim::TimePs downtime = 0;      // quiesced_at -> resumed_at
  uint64_t ckpt_bytes = 0;
  uint64_t ckpt_pages = 0;       // dirty pages shipped
  uint32_t chunks = 0;           // first-round transfer chunks
  uint32_t retransmit_rounds = 0;
  uint32_t restore_attempts = 0;
  // "ok" | "rollback.transfer" | "rollback.restore" | "rollback.dst_dead"
  // | "evacuated" | "evacuated.fresh" | "shed"
  std::string outcome;
};

class Orchestrator;

// The deployment: tenants, injectors and supervisors on a Cluster's nodes.
// Construction and Run() are host-side; everything else executes inside
// shard callbacks and communicates through Cluster::Post().
class Fleet {
 public:
  struct Config : ClusterConfig {
    // Per-node fault plan template; each node derives its injector seed from
    // `seed` and its node id, the orchestrator from id num_nodes.
    sim::FaultPlan fault_template;

    // Periodic tenant checkpoint cadence (0 disables periodic checkpoints;
    // a dead node's tenants then restart from scratch).
    sim::TimePs checkpoint_period = sim::Microseconds(300);
  };

  // Migration transport: checkpoint chunk size on the wire, capture
  // serialization bandwidth, and the retransmit budget and per-round backoff
  // for lost chunks. Link rate and switch latency come from `net`, the same
  // constants the RoCE fabric models.
  static constexpr uint64_t kChunkBytes = 4096;
  static constexpr uint64_t kCaptureBps = 8'000'000'000ull;
  static constexpr uint32_t kChunkRetryMax = 6;
  static constexpr sim::TimePs kChunkRetryBackoff = sim::Microseconds(5);
  // Restore attempts on the destination before the migration rolls back.
  static constexpr uint32_t kRestoreAttemptsMax = 2;

  // Name of the kernel kernel_factory preloads into every region. Restores
  // must find the same kernel resident (RestoreRegion matches by name); the
  // factory keeps this layer independent of the concrete kernel library.
  static constexpr std::string_view kKernelName = "passthrough";

  // Heartbeat silence after which a node is declared dead: four missed beats.
  static constexpr sim::TimePs kDeadWindow = 4 * Cluster::kHeartbeatPeriod;

  explicit Fleet(const Config& config);
  ~Fleet();
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  // --- Host-side setup (before Run) -------------------------------------------
  // Admits a tenant on its home node's first free region; with none free it
  // is shed at once. Returns the tenant id. Must be called before Run().
  uint32_t AddTenant(const TenantSpec& spec);
  // Schedules a migration command (orchestrator-driven) at simulated time t.
  void ScheduleMigration(sim::TimePs t, uint32_t tenant, uint32_t dst_node);
  // Schedules a hard node crash at simulated time t (Cluster::Kill): timers
  // stop, heartbeats go silent, every callback on the node becomes a no-op.
  void ScheduleKill(sim::TimePs t, uint32_t node);

  // Runs the fleet in fixed `step` windows until every tenant settled (done
  // or shed) or `horizon` elapses. Returns true when settled.
  bool Run(sim::TimePs horizon, sim::TimePs step = sim::Milliseconds(1));

  // --- Observation (host-side, after Run) --------------------------------------
  Orchestrator& orchestrator() { return *orch_; }
  const Orchestrator& orchestrator() const { return *orch_; }
  sim::ShardedEngine& sharded() { return cluster_.sharded(); }
  SimDevice& node_device(uint32_t node) { return cluster_.device(node); }
  Supervisor& node_supervisor(uint32_t node) { return *nodes_[node]->sup; }
  uint32_t num_nodes() const { return config_.num_nodes; }
  bool node_alive(uint32_t node) const { return cluster_.alive(node); }

  TenantOutcome tenant_outcome(uint32_t tenant) const;
  // Rolling FNV-1a over every item the tenant verified end-to-end; carried
  // through checkpoints, so it is the data-integrity witness for migration.
  uint64_t tenant_data_hash(uint32_t tenant) const;
  uint64_t tenant_items_done(uint32_t tenant) const;

  // Fault-schedule fingerprint folded over every injector (nodes then
  // orchestrator) — bit-identical across shard counts for one seed.
  uint64_t InjectorFingerprint() const;

 private:
  friend class Orchestrator;

  // Tenant execution state on a node: its region executor (one item op in
  // flight at a time, so a stale think-time timer cannot double-issue an
  // item) and its progress. Retired entries are kept (a cThread with
  // in-flight completions must outlive them); a released executor marks them.
  // A migration's source keeps the aborted op in the executor, for a
  // rollback to re-issue, and the checkpoint in transfer as its Outbound.
  struct TenantRt {
    uint32_t id = 0;
    TenantSpec spec;
    std::unique_ptr<serving::RegionExec> exec;
    uint64_t items_done = 0;
    uint64_t retries = 0;
    uint64_t data_hash = sim::kFnvOffset;
    bool running = false;  // false: quiesced / retired / shed
  };

  // A checkpoint transfer as its sender (a source node, or the orchestrator
  // replaying an evacuation) keeps it until the migration ends: the frozen
  // blob every round reads, and where it goes.
  struct Outbound {
    std::vector<uint8_t> blob;
    uint32_t dst = 0;
    int32_t dst_region = -1;
  };

  // A node's fleet-side extras; its device, liveness and guard live in the
  // Cluster.
  struct NodeRt {
    std::unique_ptr<Supervisor> sup;
    sim::Engine::EventId next_ckpt = sim::Engine::kNoEvent;  // StopNode cancels it
    // tenant id -> runtime (including retired entries).
    std::map<uint32_t, std::unique_ptr<TenantRt>> tenants;
    // In-progress inbound checkpoint transfers: tenant -> chunk id -> bytes.
    // Chunks accumulate across retransmit rounds; each round is one message,
    // its marker carrying the metadata and the chunks that survived the wire.
    using Chunks = std::map<uint32_t, std::vector<uint8_t>>;
    std::map<uint32_t, Chunks> inbound;
  };

  // --- Cluster hooks ---------------------------------------------------------
  void SetupNode(uint32_t node);
  void StartNode(uint32_t node);
  void StopNode(uint32_t node);
  // Appends logical node `logical`'s fault injector to injectors_.
  sim::FaultInjector* AddInjector(uint32_t logical);

  // --- Node-side handlers (shard context of the node) ---------------------------
  // The tenant's runtime on `node`; nullptr once the node was killed or when
  // it never hosted the tenant.
  TenantRt* LiveTenant(uint32_t node, uint32_t tenant);
  // A tenant runtime on (node, region): its executor, routing completions
  // to OnItemComplete.
  std::unique_ptr<TenantRt> NewTenant(uint32_t node, uint32_t tenant, const TenantSpec& spec,
                                      int32_t region);
  void StartTenantFresh(uint32_t node, uint32_t tenant, const TenantSpec& spec, int32_t region);
  // Fresh start, restore and rollback all resume here: re-issue the op the
  // executor holds, else start the next item.
  void Resume(uint32_t node, TenantRt& t);
  void StartItem(uint32_t node, uint32_t tenant);
  void OnItemComplete(uint32_t node, uint32_t tenant, OpStatus status);
  void CheckpointTick(uint32_t node);
  void BeginMigration(uint32_t node, uint32_t tenant, uint32_t dst_node, int32_t dst_region);
  void SendChunks(uint32_t src_logical, uint32_t tenant, const std::vector<uint32_t>& chunk_ids,
                  uint32_t round, sim::TimePs extra_delay);
  // Closes a round on the receiver: merges the chunks that arrived with the
  // marker into the transfer's inbound map, then requests a resend of the
  // missing ones or assembles and restores the blob.
  void OnTransferMarker(uint32_t node, uint32_t tenant, uint32_t src_logical, int32_t dst_region,
                        uint32_t total_chunks, uint32_t round, uint64_t corrupt_entropy,
                        NodeRt::Chunks arrived);
  void OnResendRequest(uint32_t src_logical, uint32_t tenant, std::vector<uint32_t> missing,
                       uint32_t round);
  void RequestResend(uint32_t node, uint32_t src_logical, uint32_t tenant,
                     std::vector<uint32_t> ids, uint32_t round);
  uint32_t ChunkCount(uint64_t bytes) const;
  void TryRestore(uint32_t node, uint32_t tenant, uint32_t src_logical, int32_t dst_region,
                  uint32_t round, std::vector<uint8_t> blob);
  // Rollback: the source resumes the tenant and reports to the orchestrator
  // with `record`, the index of the migration that rolled back.
  void ResumeAtSource(uint32_t node, uint32_t tenant, size_t record);
  void CleanupSource(uint32_t node, uint32_t tenant);
  void AbandonInbound(uint32_t node, uint32_t tenant);
  void ShedTenant(uint32_t node, uint32_t tenant);

  // Serializes a tenant's full state (progress, region snapshot, then the
  // executor's section: pending op and dirty pages) into a CYK1 blob.
  std::vector<uint8_t> BuildCheckpoint(uint32_t node, const TenantRt& t, uint64_t* pages_out);
  // Instantiates the tenant described by `blob` on (node, region). Returns
  // false when the blob fails validation or the region state mismatches.
  bool ApplyCheckpoint(uint32_t node, int32_t region, const std::vector<uint8_t>& blob);

  // Runs `cb` on the orchestrator: after `delay` from a node, in place when
  // the orchestrator itself is the sender.
  void PostToOrch(uint32_t src_logical, sim::TimePs delay, sim::InlineCallback cb) {
    if (src_logical == orch_logical_) {
      cb();
      return;
    }
    cluster_.Post(src_logical, orch_logical_, delay, std::move(cb));
  }

  Config config_;
  Cluster cluster_;
  uint32_t orch_logical_ = 0;  // the cluster's control node, == num_nodes
  // Declared after cluster_ so they go before the devices they point into.
  // Shard-owned: every mutation runs in the node's shard behind
  // cluster_.guard(node).
  std::vector<std::unique_ptr<NodeRt>> nodes_;
  // Indexed by logical node: nodes 0..N-1, then the orchestrator.
  std::vector<std::unique_ptr<sim::FaultInjector>> injectors_;
  // Checkpoint transfers by sender (indexed like injectors_), then tenant.
  // A sender's map is touched only on that sender's shard.
  std::vector<std::map<uint32_t, Outbound>> outbound_;
  std::unique_ptr<Orchestrator> orch_;
  uint32_t next_tenant_ = 0;
};

// The control plane. Lives on the cluster's control node (logical node
// `num_nodes`); every method below executes in that shard's context unless
// noted.
class Orchestrator {
 public:
  // Tenant bookkeeping from the orchestrator's point of view.
  struct TenantBook {
    TenantSpec spec;
    uint32_t node = 0;
    int32_t region = -1;
    TenantOutcome outcome = TenantOutcome::kRunning;
    // Index into migrations() of the tenant's open migration; empty when
    // none is open.
    std::optional<size_t> migration;
  };

  explicit Orchestrator(Fleet* fleet);

  // --- Control-plane events (shard context) ------------------------------------
  void OnCheckpoint(uint32_t tenant, std::vector<uint8_t> blob, uint64_t pages);
  void StartMigration(uint32_t tenant, uint32_t dst_node);
  void OnMigrationQuiesced(uint32_t tenant, sim::TimePs quiesced_at, uint64_t ckpt_bytes,
                           uint64_t ckpt_pages, uint32_t chunks);
  void OnTransferRound(uint32_t tenant, uint32_t round);
  void OnRestoreAttempt(uint32_t tenant);
  void OnMigrationDone(uint32_t tenant, sim::TimePs resumed_at);
  void OnMigrationFailed(uint32_t tenant, const std::string& why);
  // The source resumed after the rollback of migrations()[record]: stamps
  // that record, which closed when the rollback was ordered.
  void OnRollbackResumed(size_t record, sim::TimePs resumed_at);

  // --- Host-side observation ----------------------------------------------------
  bool AllSettled() const;
  const std::vector<MigrationRecord>& migrations() const { return records_; }
  const std::map<uint32_t, TenantBook>& tenants() const { return tenants_; }
  uint64_t deaths_declared() const { return events_.value("node.dead"); }
  uint64_t evacuations() const {
    return events_.value("evacuate") + events_.value("evacuate.fresh");
  }
  uint64_t sheds() const { return events_.value("shed"); }
  uint64_t rollbacks() const {
    return events_.value("rollback") + events_.value("rollback.dst_dead");
  }
  sim::TimePs settled_at() const { return settled_at_; }

  // Every control-plane event (admit, migrate.*, shed, node.dead, ...) with
  // its ids, counts and reason hashes; the fingerprint is the
  // cross-shard-count determinism witness for the whole fleet.
  const sim::CounterSet& events() const { return events_; }
  uint64_t TraceFingerprint() const { return events_.Fingerprint(); }

 private:
  friend class Fleet;

  struct StoredCkpt {
    std::vector<uint8_t> blob;
    uint64_t pages = 0;
  };

  // `region < 0` (no free region on the home node) sheds the tenant at once.
  void AdmitTenant(uint32_t tenant, const TenantSpec& spec, uint32_t node, int32_t region);
  // The tenant reached `outcome` on its node (`why` names a shed's cause):
  // free its region and wake an evacuation waiting for it.
  void Retire(uint32_t tenant, TenantOutcome outcome, const std::string& why);
  // Subscribed to the cluster's failure detector.
  void DeclareDead(uint32_t node);
  // False once the cluster's detector declared the node dead.
  bool BelievedAlive(uint32_t node) const;
  sim::TimePs Now();
  // Runs `cb` on `node` (delivery after the lookahead).
  void PostToNode(uint32_t node, sim::InlineCallback cb);
  void EvacuateTenant(uint32_t tenant);
  void ReleaseRegion(uint32_t node, int32_t region);
  // Lowest-priority running tenant strictly below `below` (ties: highest
  // id). Returns false when none qualifies.
  bool FindShedVictim(uint32_t below_priority, uint32_t* victim_out) const;
  bool FindFreeRegion(uint32_t* node_out, int32_t* region_out) const;
  // Appends a migration record from the tenant's node (started now) and
  // makes it the tenant's open one.
  MigrationRecord& OpenRecord(uint32_t tenant, TenantBook& book, uint32_t dst,
                              const char* reason);
  // The tenant's open migration; nullptr when none is open.
  MigrationRecord* ActiveRecord(uint32_t tenant);
  static void StampResumed(MigrationRecord* rec, sim::TimePs resumed_at);
  // Closes the active migration, and an evacuation replay's transfer with it.
  void EndMigration(uint32_t tenant, TenantBook& book);
  void CheckSettled();

  Fleet* fleet_;

  std::map<uint32_t, TenantBook> tenants_;
  // Orchestrator-authoritative placement books, one per node. Reservations
  // happen here before the destination node hears anything, so two
  // migrations can never race for one region.
  std::vector<RegionBook> regions_;
  // Last periodic checkpoint per tenant (evacuation replays these).
  std::map<uint32_t, StoredCkpt> ckpt_store_;
  // Tenants whose evacuation waits on a shed victim's region (victim -> evacuee).
  std::map<uint32_t, uint32_t> pending_evacuations_;

  std::vector<MigrationRecord> records_;
  sim::CounterSet events_;
  sim::TimePs settled_at_ = 0;
  bool settled_ = false;

  // Orchestrator-owned state maps, bound to the orchestrator's shard.
  sim::AccessGuard tenants_guard_{"orch.tenants"};
  sim::AccessGuard regions_guard_{"orch.regions"};
  sim::AccessGuard ckpt_guard_{"orch.ckpt_store"};
};

}  // namespace runtime
}  // namespace coyote

#endif  // SRC_RUNTIME_ORCHESTRATOR_H_

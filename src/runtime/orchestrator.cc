#include "src/runtime/orchestrator.h"

#include <algorithm>
#include <array>
#include <numeric>
#include <utility>

#include "src/runtime/serving.h"
#include "src/sim/wire.h"
#include "src/vfpga/checkpoint.h"

namespace coyote {
namespace runtime {

namespace {

// Deterministic per-tenant item payload; the restore target regenerates the
// same bytes, so the rolling data hash is a pure function of the spec.
uint8_t PatternByte(uint32_t tenant, uint64_t item, uint64_t i) {
  return static_cast<uint8_t>((tenant * 131 + item * 31 + i * 7) ^ (i >> 8));
}

// Chunk ids 0..n-1: one full transfer round.
std::vector<uint32_t> AllChunks(uint32_t n) {
  std::vector<uint32_t> ids(n);
  std::iota(ids.begin(), ids.end(), 0u);
  return ids;
}

}  // namespace

// ---------------------------------------------------------------------------
// Fleet: construction and host-side setup
// ---------------------------------------------------------------------------

Fleet::Fleet(const Config& config)
    : config_(config), cluster_(config_, kDeadWindow), orch_logical_(cluster_.control()) {
  nodes_.reserve(config_.num_nodes);
  outbound_.resize(config_.num_nodes + 1);
  cluster_.AddNodes({.kernel_at = [](uint32_t, uint32_t) { return std::string(kKernelName); },
                     .setup = [this](uint32_t node) { SetupNode(node); },
                     .start = [this](uint32_t node) { StartNode(node); },
                     .kill = [this](uint32_t node) { StopNode(node); }});

  AddInjector(orch_logical_);
  orch_ = std::make_unique<Orchestrator>(this);
}

Fleet::~Fleet() = default;

sim::FaultInjector* Fleet::AddInjector(uint32_t logical) {
  sim::FaultPlan plan = config_.fault_template;
  plan.seed = cluster_.NodeSeed(logical);
  return injectors_
      .emplace_back(std::make_unique<sim::FaultInjector>(&cluster_.EngineAt(logical), plan))
      .get();
}

void Fleet::SetupNode(uint32_t node) {
  auto n = std::make_unique<NodeRt>();
  SimDevice& dev = cluster_.device(node);
  dev.AttachFaultInjector(AddInjector(node));
  n->sup = std::make_unique<Supervisor>(&dev, nullptr, Supervisor::Config{});
  nodes_.push_back(std::move(n));
}

void Fleet::StartNode(uint32_t node) {
  NodeRt& n = *nodes_[node];
  if (config_.checkpoint_period > 0) {
    n.next_ckpt = cluster_.EngineAt(node).ScheduleAfter(config_.checkpoint_period,
                                                        [this, node]() { CheckpointTick(node); });
  }
  n.sup->Start();
}

// Kill hook: the node's heartbeat already stopped. Everything else decays
// passively: queued callbacks no-op on the alive check, and the detector
// declares the death once the heartbeat window lapses.
void Fleet::StopNode(uint32_t node) {
  sim::ActorScope actor(sim::kActorOrchestrator);
  NodeRt& n = *nodes_[node];
  cluster_.EngineAt(node).Cancel(n.next_ckpt);
  n.sup->Stop();
}

uint32_t Fleet::AddTenant(const TenantSpec& spec) {
  const uint32_t id = next_tenant_++;
  const int32_t region = orch_->regions_.at(spec.home_node).FindFree();
  // Host-side setup runs outside any shard context, so touching node state
  // directly (rather than through Post) is legal here.
  StartTenantFresh(spec.home_node, id, spec, region);
  orch_->AdmitTenant(id, spec, spec.home_node, region);
  return id;
}

void Fleet::ScheduleMigration(sim::TimePs t, uint32_t tenant, uint32_t dst_node) {
  cluster_.ScheduleOn(orch_logical_, t, [this, tenant, dst_node]() {
    orch_->StartMigration(tenant, dst_node);
  });
}

void Fleet::ScheduleKill(sim::TimePs t, uint32_t node) { cluster_.ScheduleKill(t, node); }

bool Fleet::Run(sim::TimePs horizon, sim::TimePs step) {
  return cluster_.Run(horizon, step, [this]() { return orch_->AllSettled(); });
}

TenantOutcome Fleet::tenant_outcome(uint32_t tenant) const {
  return orch_->tenants().at(tenant).outcome;
}

uint64_t Fleet::tenant_data_hash(uint32_t tenant) const {
  const auto& book = orch_->tenants().at(tenant);
  const auto& tenants = nodes_.at(book.node)->tenants;
  auto it = tenants.find(tenant);
  return it == tenants.end() ? 0 : it->second->data_hash;
}

uint64_t Fleet::tenant_items_done(uint32_t tenant) const {
  const auto& book = orch_->tenants().at(tenant);
  const auto& tenants = nodes_.at(book.node)->tenants;
  auto it = tenants.find(tenant);
  return it == tenants.end() ? 0 : it->second->items_done;
}

uint64_t Fleet::InjectorFingerprint() const {
  uint64_t h = sim::kFnvOffset;
  for (const auto& injector : injectors_) {
    sim::FnvFoldU64(&h, injector->ScheduleFingerprint());
  }
  return h;
}

// ---------------------------------------------------------------------------
// Fleet: tenant execution (node shard context)
// ---------------------------------------------------------------------------

Fleet::TenantRt* Fleet::LiveTenant(uint32_t node, uint32_t tenant) {
  if (!cluster_.alive(node)) {
    return nullptr;
  }
  auto& tenants = nodes_[node]->tenants;
  auto it = tenants.find(tenant);
  return it == tenants.end() ? nullptr : it->second.get();
}

std::unique_ptr<Fleet::TenantRt> Fleet::NewTenant(uint32_t node, uint32_t tenant,
                                                  const TenantSpec& spec, int32_t region) {
  auto t = std::make_unique<TenantRt>();
  t->id = tenant;
  t->spec = spec;
  t->exec = std::make_unique<serving::RegionExec>(
      &cluster_.device(node), static_cast<uint32_t>(region), /*ctid=*/-1, spec.item_bytes,
      [this, node, tenant](OpStatus status) { OnItemComplete(node, tenant, status); });
  return t;
}

void Fleet::StartTenantFresh(uint32_t node, uint32_t tenant, const TenantSpec& spec,
                             int32_t region) {
  sim::ActorScope actor(sim::kActorOrchestrator);
  if (!cluster_.alive(node) || region < 0) {
    return;
  }
  cluster_.guard(node).Write();
  std::unique_ptr<TenantRt>& t = nodes_[node]->tenants[tenant];
  t = NewTenant(node, tenant, spec, region);
  Resume(node, *t);
}

void Fleet::Resume(uint32_t node, TenantRt& t) {
  t.running = true;
  if (!t.exec->Reissue()) {
    StartItem(node, t.id);
  }
}

void Fleet::StartItem(uint32_t node, uint32_t tenant) {
  TenantRt* t = LiveTenant(node, tenant);
  if (t == nullptr || !t->running || t->exec->busy() || t->items_done >= t->spec.items_total) {
    return;
  }
  cluster_.guard(node).Write();
  // One item = one serving envelope: the same request shape the Router ships
  // to node schedulers, here issued directly on the tenant's resident region.
  // The fill reads the size and item index from locals, since a byte store
  // may alias *t. As a byte, i * 7 repeats every 256 bytes and i >> 8 is
  // fixed within a 256-byte block, so PatternByte(tenant, item, i) is
  // PatternByte(tenant, item, i % 256) XOR (i >> 8): one row per item, then
  // each block is the row XOR its block index.
  const uint64_t bytes = t->spec.item_bytes;
  const uint64_t item_index = t->items_done;
  std::array<uint8_t, 256> row{};
  for (uint32_t j = 0; j < row.size(); ++j) {
    row[j] = PatternByte(tenant, item_index, j);
  }
  std::vector<uint8_t> payload(bytes);
  uint8_t* out = payload.data();
  for (uint64_t block = 0; block < bytes; block += row.size()) {
    const uint8_t index = static_cast<uint8_t>(block >> 8);
    const uint64_t n = std::min<uint64_t>(row.size(), bytes - block);
    for (uint64_t j = 0; j < n; ++j) {
      out[block + j] = row[j] ^ index;
    }
  }
  serving::ServingRequest item;
  item.id = item_index;
  item.tenant = tenant;
  item.kernel = kKernelName;
  item.payload = axi::BufferView(std::move(payload));
  t->exec->Start(item);
}

void Fleet::OnItemComplete(uint32_t node, uint32_t tenant, OpStatus status) {
  sim::ActorScope actor(sim::kActorOrchestrator);
  TenantRt* t = LiveTenant(node, tenant);
  if (t == nullptr || !t->running) {
    return;  // quiesce/shed abort completions land here with running unset
  }
  cluster_.guard(node).Write();
  if (status == OpStatus::kOk) {
    const std::vector<uint8_t> out = t->exec->ReadBack(t->spec.item_bytes);
    const uint64_t item = t->items_done;
    sim::FnvFold(&t->data_hash, &item, sizeof(item));
    sim::FnvFold(&t->data_hash, out.data(), out.size());
    ++t->items_done;
    if (t->items_done >= t->spec.items_total) {
      // Retire in place and hand the region back through the orchestrator's
      // books.
      t->running = false;
      t->exec->Release();
      PostToOrch(node, 0, [this, tenant]() { orch_->Retire(tenant, TenantOutcome::kDone, ""); });
      return;
    }
    cluster_.After(node, t->spec.think_time, [this, node, tenant]() { StartItem(node, tenant); });
    return;
  }
  // Typed error completion (DMA abort, deadline): retry the same item after
  // a think-time backoff. kShed never reaches here (running is unset first).
  ++t->retries;
  cluster_.After(node, t->spec.think_time, [this, node, tenant]() { StartItem(node, tenant); });
}

// ---------------------------------------------------------------------------
// Fleet: periodic checkpoints (node shard context)
// ---------------------------------------------------------------------------

void Fleet::CheckpointTick(uint32_t node) {
  nodes_[node]->next_ckpt = cluster_.EngineAt(node).ScheduleAfter(
      config_.checkpoint_period, [this, node]() { CheckpointTick(node); });
  sim::ActorScope actor(sim::kActorOrchestrator);
  if (!cluster_.alive(node)) {
    return;
  }
  cluster_.guard(node).Write();
  for (auto& [tenant, t] : nodes_[node]->tenants) {
    if (!t->running) {
      continue;
    }
    // Non-disruptive capture: in-flight ops ride along as pending descriptors
    // and are re-issued whole on restore, so the tenant keeps executing.
    uint64_t pages = 0;
    std::vector<uint8_t> blob = BuildCheckpoint(node, *t, &pages);
    const sim::TimePs wire = cluster_.WireDelay(blob.size());
    const uint32_t tenant_id = tenant;
    PostToOrch(node, wire, [this, tenant_id, blob = std::move(blob), pages]() mutable {
      orch_->OnCheckpoint(tenant_id, std::move(blob), pages);
    });
  }
}

// ---------------------------------------------------------------------------
// Fleet: checkpoint serialization
// ---------------------------------------------------------------------------

std::vector<uint8_t> Fleet::BuildCheckpoint(uint32_t node, const TenantRt& t,
                                            uint64_t* pages_out) {
  sim::wire::Writer w = vfpga::ckpt::Begin();
  w.U32(t.id);
  w.Str(t.spec.name);
  w.U32(t.spec.priority);
  w.U64(t.spec.items_total);
  w.U64(t.spec.item_bytes);
  w.U64(t.spec.think_time);
  w.U64(t.items_done);
  w.U64(t.retries);
  w.U64(t.data_hash);
  vfpga::CaptureRegion(cluster_.device(node).vfpga(t.exec->region())).AppendTo(&w);
  *pages_out = t.exec->WriteSection(&w);
  return std::move(w).Seal();
}

bool Fleet::ApplyCheckpoint(uint32_t node, int32_t region, const std::vector<uint8_t>& blob) {
  sim::wire::Reader r = vfpga::ckpt::Open(blob);
  if (!r.ok() || region < 0) {
    return false;
  }
  const uint32_t tenant = r.U32();
  TenantSpec spec;
  spec.name = r.Str();
  spec.priority = r.U32();
  spec.items_total = r.U64();
  spec.item_bytes = r.U64();
  spec.think_time = r.U64();
  const uint64_t items_done = r.U64();
  const uint64_t retries = r.U64();
  const uint64_t data_hash = r.U64();

  vfpga::RegionSnapshot snap;
  if (!snap.ParseFrom(&r)) {
    return false;
  }
  std::unique_ptr<TenantRt> t = NewTenant(node, tenant, spec, region);
  if (!t->exec->ReadSection(&r) || !r.AtEnd() ||
      !vfpga::RestoreRegion(cluster_.device(node).vfpga(static_cast<uint32_t>(region)), snap)) {
    t->exec->Release();
    return false;
  }
  t->items_done = items_done;
  t->retries = retries;
  t->data_hash = data_hash;
  // The executor re-issues the op the quiesce cut short, rebased onto its
  // new buffers. One op in flight at most, so the data hash folds it once.
  std::unique_ptr<TenantRt>& placed = nodes_[node]->tenants[tenant];
  placed = std::move(t);
  Resume(node, *placed);
  return true;
}

// ---------------------------------------------------------------------------
// Fleet: migration pipeline (node shard context)
// ---------------------------------------------------------------------------

void Fleet::BeginMigration(uint32_t node, uint32_t tenant, uint32_t dst_node,
                           int32_t dst_region) {
  sim::ActorScope actor(sim::kActorOrchestrator);
  if (!cluster_.alive(node)) {
    return;  // the detector will declare this node dead and evacuate instead
  }
  TenantRt* t = LiveTenant(node, tenant);
  if (t == nullptr || !t->running) {
    PostToOrch(node, 0,
               [this, tenant]() { orch_->OnMigrationFailed(tenant, "src.not_running"); });
    return;
  }
  cluster_.guard(node).Write();

  // QUIESCE: stop issuing, then the executor holds and aborts the op in
  // flight and drains the region before capture.
  t->running = false;
  t->exec->Quiesce(OpStatus::kAborted);

  uint64_t pages = 0;
  Outbound& out = outbound_[node][tenant];
  out = {BuildCheckpoint(node, *t, &pages), dst_node, dst_region};
  const uint64_t bytes = out.blob.size();
  const uint32_t chunks = ChunkCount(bytes);
  const sim::TimePs quiesced = cluster_.NowAt(node);
  PostToOrch(node, 0, [this, tenant, quiesced, bytes, pages, chunks]() {
    orch_->OnMigrationQuiesced(tenant, quiesced, bytes, pages, chunks);
  });

  // TRANSFER: serialize-out at capture bandwidth, then chunks on the wire.
  SendChunks(node, tenant, AllChunks(chunks), /*round=*/0, sim::TransferTime(bytes, kCaptureBps));
}

void Fleet::SendChunks(uint32_t src_logical, uint32_t tenant,
                       const std::vector<uint32_t>& chunk_ids, uint32_t round,
                       sim::TimePs extra_delay) {
  const Outbound& out = outbound_[src_logical].at(tenant);
  const std::vector<uint8_t>& blob = out.blob;
  const uint32_t dst_node = out.dst;
  const int32_t dst_region = out.dst_region;
  const uint32_t total_chunks = ChunkCount(blob.size());
  sim::FaultInjector& injector = *injectors_[src_logical];
  uint64_t cumulative = 0;
  NodeRt::Chunks arrived;
  for (const uint32_t id : chunk_ids) {
    const uint64_t off = static_cast<uint64_t>(id) * kChunkBytes;
    const uint64_t len = std::min<uint64_t>(kChunkBytes, blob.size() - off);
    cumulative += len;
    if (injector.NextMigrationChunkDrop()) {
      continue;  // lost in flight; the receiver finds the gap when the round closes
    }
    arrived[id].assign(blob.begin() + static_cast<ptrdiff_t>(off),
                       blob.begin() + static_cast<ptrdiff_t>(off + len));
  }
  // One message per round: the chunks that survived the wire ride with the
  // marker that closes the round, which lands when the round's last byte
  // would. The marker always arrives (control channel) and carries the
  // per-round corruption draw.
  const uint64_t corrupt = injector.NextCheckpointCorrupt();
  const sim::TimePs marker_delay = extra_delay + cluster_.WireDelay(cumulative + 64);
  cluster_.Post(src_logical, dst_node, marker_delay,
                [this, dst_node, tenant, src_logical, dst_region, total_chunks, round, corrupt,
                 arrived = std::move(arrived)]() mutable {
                  OnTransferMarker(dst_node, tenant, src_logical, dst_region, total_chunks,
                                   round, corrupt, std::move(arrived));
                });
}

void Fleet::OnTransferMarker(uint32_t node, uint32_t tenant, uint32_t src_logical,
                             int32_t dst_region, uint32_t total_chunks, uint32_t round,
                             uint64_t corrupt_entropy, NodeRt::Chunks arrived) {
  sim::ActorScope actor(sim::kActorOrchestrator);
  if (!cluster_.alive(node)) {
    return;
  }
  cluster_.guard(node).Write();
  NodeRt& n = *nodes_[node];
  NodeRt::Chunks& chunks = n.inbound[tenant];
  for (auto& [id, bytes] : arrived) {
    chunks[id] = std::move(bytes);
  }

  std::vector<uint32_t> missing;
  for (uint32_t i = 0; i < total_chunks; ++i) {
    if (chunks.find(i) == chunks.end()) {
      missing.push_back(i);
    }
  }
  if (!missing.empty()) {
    RequestResend(node, src_logical, tenant, std::move(missing), round + 1);
    return;
  }

  std::vector<uint8_t> blob;
  for (uint32_t i = 0; i < total_chunks; ++i) {
    const std::vector<uint8_t>& c = chunks[i];
    blob.insert(blob.end(), c.begin(), c.end());
  }
  n.inbound.erase(tenant);
  if (corrupt_entropy != 0 && !blob.empty()) {
    // In-flight bit flip; the CYK1 CRC trailer catches it below.
    blob[corrupt_entropy % blob.size()] ^= static_cast<uint8_t>((corrupt_entropy >> 8) | 1);
  }
  TryRestore(node, tenant, src_logical, dst_region, round, std::move(blob));
}

void Fleet::OnResendRequest(uint32_t src_logical, uint32_t tenant, std::vector<uint32_t> missing,
                            uint32_t round) {
  sim::ActorScope actor(sim::kActorOrchestrator);
  if (!outbound_[src_logical].contains(tenant)) {
    return;  // the transfer already ended
  }
  const bool from_orch = src_logical == orch_logical_;
  if (round > kChunkRetryMax) {
    // Retransmit budget exhausted: the orchestrator rolls back (migration)
    // or sheds (evacuation — the source is already gone).
    const char* why = from_orch ? "evac.transfer" : "transfer";
    PostToOrch(src_logical, 0, [this, tenant, why]() { orch_->OnMigrationFailed(tenant, why); });
    return;
  }
  if (!from_orch) {
    if (!cluster_.alive(src_logical)) {
      return;  // a source that died mid-transfer is the detector's to handle
    }
    cluster_.guard(src_logical).Write();
  }
  PostToOrch(src_logical, 0, [this, tenant, round]() { orch_->OnTransferRound(tenant, round); });
  SendChunks(src_logical, tenant, missing, round, kChunkRetryBackoff * round);
}

void Fleet::RequestResend(uint32_t node, uint32_t src_logical, uint32_t tenant,
                          std::vector<uint32_t> ids, uint32_t round) {
  cluster_.Post(node, src_logical, 0,
                [this, src_logical, tenant, ids = std::move(ids), round]() mutable {
                  OnResendRequest(src_logical, tenant, std::move(ids), round);
                });
}

uint32_t Fleet::ChunkCount(uint64_t bytes) const {
  return static_cast<uint32_t>((bytes + kChunkBytes - 1) / kChunkBytes);
}

void Fleet::TryRestore(uint32_t node, uint32_t tenant, uint32_t src_logical, int32_t dst_region,
                       uint32_t round, std::vector<uint8_t> blob) {
  if (!vfpga::ckpt::Open(blob).ok()) {
    // CRC/framing reject: request a full resend — counts against the same
    // retransmit budget as a lost chunk.
    RequestResend(node, src_logical, tenant, AllChunks(ChunkCount(blob.size())), round + 1);
    return;
  }

  // RESTORE: bounded attempts, each subject to injected restore faults.
  bool restored = false;
  for (uint32_t attempt = 0; attempt < kRestoreAttemptsMax && !restored; ++attempt) {
    PostToOrch(node, 0, [this, tenant]() { orch_->OnRestoreAttempt(tenant); });
    if (injectors_[node]->NextRestoreFail()) {
      continue;
    }
    restored = ApplyCheckpoint(node, dst_region, blob);
  }
  if (!restored) {
    PostToOrch(node, 0, [this, tenant]() { orch_->OnMigrationFailed(tenant, "restore"); });
    return;
  }
  // RESUME: charge deserialize-in at capture bandwidth before declaring the
  // tenant live (the first re-issued op is already queued behind it).
  const sim::TimePs restore_ps = sim::TransferTime(blob.size(), kCaptureBps);
  cluster_.After(node, restore_ps, [this, node, tenant]() {
    const sim::TimePs resumed = cluster_.NowAt(node);
    PostToOrch(node, 0, [this, tenant, resumed]() { orch_->OnMigrationDone(tenant, resumed); });
  });
}

void Fleet::ResumeAtSource(uint32_t node, uint32_t tenant, size_t record) {
  sim::ActorScope actor(sim::kActorOrchestrator);
  TenantRt* t = LiveTenant(node, tenant);
  if (t == nullptr) {
    return;
  }
  cluster_.guard(node).Write();
  outbound_[node].erase(tenant);
  Resume(node, *t);
  const sim::TimePs resumed = cluster_.NowAt(node);
  PostToOrch(node, 0, [this, record, resumed]() { orch_->OnRollbackResumed(record, resumed); });
}

void Fleet::CleanupSource(uint32_t node, uint32_t tenant) {
  sim::ActorScope actor(sim::kActorOrchestrator);
  TenantRt* t = LiveTenant(node, tenant);
  if (t == nullptr) {
    return;
  }
  cluster_.guard(node).Write();
  t->exec->Release();
  outbound_[node].erase(tenant);
}

void Fleet::AbandonInbound(uint32_t node, uint32_t tenant) {
  sim::ActorScope actor(sim::kActorOrchestrator);
  if (!cluster_.alive(node)) {
    return;
  }
  cluster_.guard(node).Write();
  nodes_[node]->inbound.erase(tenant);
}

void Fleet::ShedTenant(uint32_t node, uint32_t tenant) {
  sim::ActorScope actor(sim::kActorOrchestrator);
  TenantRt* t = LiveTenant(node, tenant);
  if (t == nullptr) {
    return;
  }
  cluster_.guard(node).Write();
  if (!t->running && t->exec->released()) {
    // Retired (or already shed) before the command arrived; the tenant's own
    // retirement resolves any evacuation waiting on this region.
    return;
  }
  // Graceful degradation: typed kShed completions instead of a hang, then
  // the region and its buffers go back to the pool.
  t->running = false;
  t->exec->Quiesce(OpStatus::kShed);
  t->exec->Release();
  PostToOrch(node, 0,
             [this, tenant]() { orch_->Retire(tenant, TenantOutcome::kShed, "capacity"); });
}

// ---------------------------------------------------------------------------
// Orchestrator
// ---------------------------------------------------------------------------

Orchestrator::Orchestrator(Fleet* fleet)
    : fleet_(fleet), regions_(fleet->config_.num_nodes) {
  // The orchestrator's maps are touched from its own shard callbacks, from
  // host-side setup/observation, and (conceptually) alongside the engine /
  // DMA / supervisor actors whose completions feed it — all program-ordered
  // by the PDES merge contract. Declare the pairs so the ledger hunts real
  // reentrancy, and bind every map to the orchestrator's shard.
  auto& ledger = sim::AccessLedger::Global();
  ledger.DeclareOrdered(sim::kActorOrchestrator, sim::kActorHost);
  ledger.DeclareOrdered(sim::kActorOrchestrator, sim::kActorEngine);
  ledger.DeclareOrdered(sim::kActorOrchestrator, sim::kActorDma);
  ledger.DeclareOrdered(sim::kActorOrchestrator, sim::kActorSupervisor);
  const sim::ShardId shard = fleet_->cluster_.shard_of(fleet_->orch_logical_);
  tenants_guard_.BindShard(shard);
  regions_guard_.BindShard(shard);
  ckpt_guard_.BindShard(shard);
  for (RegionBook& book : regions_) {
    book.Reset(fleet_->config_.regions_per_node);
  }
  fleet_->cluster_.OnNodeDead([this](uint32_t node) { DeclareDead(node); });
}

bool Orchestrator::BelievedAlive(uint32_t node) const {
  return !fleet_->cluster_.declared_dead(node);
}

sim::TimePs Orchestrator::Now() { return fleet_->cluster_.NowAt(fleet_->orch_logical_); }

void Orchestrator::PostToNode(uint32_t node, sim::InlineCallback cb) {
  fleet_->cluster_.Post(fleet_->orch_logical_, node, 0, std::move(cb));
}

void Orchestrator::AdmitTenant(uint32_t tenant, const TenantSpec& spec, uint32_t node,
                               int32_t region) {
  tenants_guard_.Write();
  regions_guard_.Write();
  TenantBook& book = tenants_[tenant];
  book.spec = spec;
  book.node = node;
  book.region = region;
  regions_[node].Reserve(region, tenant);
  events_.Record("admit", {tenant, node, static_cast<uint64_t>(region), spec.priority}, Now());
  if (region < 0) {
    Retire(tenant, TenantOutcome::kShed, "admit.full");
  }
}

void Orchestrator::ReleaseRegion(uint32_t node, int32_t region) {
  if (BelievedAlive(node)) {
    regions_[node].Release(region);
  }
}

void Orchestrator::OnCheckpoint(uint32_t tenant, std::vector<uint8_t> blob, uint64_t pages) {
  sim::ActorScope actor(sim::kActorOrchestrator);
  ckpt_guard_.Write();
  auto it = tenants_.find(tenant);
  if (it == tenants_.end() || it->second.outcome != TenantOutcome::kRunning) {
    return;  // late checkpoint from a tenant that already settled
  }
  StoredCkpt& s = ckpt_store_[tenant];
  s.blob = std::move(blob);
  s.pages = pages;
}

void Orchestrator::StartMigration(uint32_t tenant, uint32_t dst_node) {
  sim::ActorScope actor(sim::kActorOrchestrator);
  tenants_guard_.Write();
  regions_guard_.Write();
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) {
    return;
  }
  TenantBook& book = it->second;
  if (dst_node >= regions_.size() || book.outcome != TenantOutcome::kRunning ||
      book.migration || !BelievedAlive(book.node) || !BelievedAlive(dst_node) ||
      regions_[dst_node].free() == 0 || dst_node == book.node) {
    events_.Record("migrate.reject", {tenant, dst_node}, Now());
    return;
  }
  const int32_t region = regions_[dst_node].FindFree();
  regions_[dst_node].Reserve(region, tenant);
  OpenRecord(tenant, book, dst_node, "planned").outcome = "ok";
  events_.Record("migrate.start", {tenant, book.node, dst_node, sim::FnvHash("planned")}, Now());

  const uint32_t src = book.node;
  PostToNode(src, [this, src, tenant, dst_node, region]() {
    fleet_->BeginMigration(src, tenant, dst_node, region);
  });
}

MigrationRecord& Orchestrator::OpenRecord(uint32_t tenant, TenantBook& book, uint32_t dst,
                                          const char* reason) {
  book.migration = records_.size();
  MigrationRecord& rec = records_.emplace_back();
  rec.tenant = tenant;
  rec.src_node = book.node;
  rec.dst_node = dst;
  rec.reason = reason;
  rec.started_at = Now();
  return rec;
}

void Orchestrator::StampResumed(MigrationRecord* rec, sim::TimePs resumed_at) {
  rec->resumed_at = resumed_at;
  rec->downtime = resumed_at - (rec->quiesced_at > 0 ? rec->quiesced_at : rec->started_at);
}

void Orchestrator::EndMigration(uint32_t tenant, TenantBook& book) {
  book.migration.reset();
  fleet_->outbound_[fleet_->orch_logical_].erase(tenant);
}

MigrationRecord* Orchestrator::ActiveRecord(uint32_t tenant) {
  auto it = tenants_.find(tenant);
  if (it == tenants_.end() || !it->second.migration) {
    return nullptr;
  }
  return &records_[*it->second.migration];
}

void Orchestrator::OnMigrationQuiesced(uint32_t tenant, sim::TimePs quiesced_at,
                                       uint64_t ckpt_bytes, uint64_t ckpt_pages,
                                       uint32_t chunks) {
  sim::ActorScope actor(sim::kActorOrchestrator);
  tenants_guard_.Write();
  MigrationRecord* rec = ActiveRecord(tenant);
  if (rec == nullptr) {
    return;
  }
  rec->quiesced_at = quiesced_at;
  rec->ckpt_bytes = ckpt_bytes;
  rec->ckpt_pages = ckpt_pages;
  rec->chunks = chunks;
  events_.Record("quiesce", {tenant, ckpt_bytes, ckpt_pages, chunks}, Now());
}

void Orchestrator::OnTransferRound(uint32_t tenant, uint32_t round) {
  sim::ActorScope actor(sim::kActorOrchestrator);
  tenants_guard_.Write();
  MigrationRecord* rec = ActiveRecord(tenant);
  if (rec == nullptr) {
    return;
  }
  rec->retransmit_rounds = std::max(rec->retransmit_rounds, round);
  events_.Record("transfer.retry", {tenant, round}, Now());
}

void Orchestrator::OnRestoreAttempt(uint32_t tenant) {
  sim::ActorScope actor(sim::kActorOrchestrator);
  tenants_guard_.Write();
  MigrationRecord* rec = ActiveRecord(tenant);
  if (rec == nullptr) {
    return;
  }
  ++rec->restore_attempts;
}

void Orchestrator::OnMigrationDone(uint32_t tenant, sim::TimePs resumed_at) {
  sim::ActorScope actor(sim::kActorOrchestrator);
  tenants_guard_.Write();
  regions_guard_.Write();
  MigrationRecord* rec = ActiveRecord(tenant);
  if (rec == nullptr) {
    return;
  }
  TenantBook& book = tenants_.at(tenant);
  StampResumed(rec, resumed_at);

  const uint32_t old_node = book.node;
  const int32_t old_region = book.region;
  book.node = rec->dst_node;
  book.region = regions_[rec->dst_node].FindTenant(tenant);
  EndMigration(tenant, book);
  events_.Record("resume", {tenant, book.node, rec->downtime, sim::FnvHash(rec->outcome)},
                 Now());

  // Source cleanup only applies to a live source (a planned migration); an
  // evacuated tenant's source is gone.
  if (BelievedAlive(old_node) && old_node != book.node) {
    ReleaseRegion(old_node, old_region);
    PostToNode(old_node, [this, old_node, tenant]() { fleet_->CleanupSource(old_node, tenant); });
  }
}

void Orchestrator::OnMigrationFailed(uint32_t tenant, const std::string& why) {
  sim::ActorScope actor(sim::kActorOrchestrator);
  tenants_guard_.Write();
  regions_guard_.Write();
  MigrationRecord* rec = ActiveRecord(tenant);
  if (rec == nullptr) {
    return;
  }
  TenantBook& book = tenants_.at(tenant);
  const size_t record = *book.migration;
  events_.Record("migrate.fail", {tenant, sim::FnvHash(why)}, Now());

  // Release the destination reservation in every failure shape. The
  // tenant's own region is on book.node, so any region it holds on another
  // destination is the reservation.
  if (rec->dst_node != book.node) {
    ReleaseRegion(rec->dst_node, regions_[rec->dst_node].FindTenant(tenant));
  }
  // A transfer out of retransmit budget leaves the chunks that arrived on
  // the destination; drop them, or a later transfer of this tenant there
  // merges with them. A failed restore needs nothing: the destination erased
  // its chunks before it tried the restore.
  if ((why == "transfer" || why == "evac.transfer") && BelievedAlive(rec->dst_node)) {
    const uint32_t dst = rec->dst_node;
    PostToNode(dst, [this, dst, tenant]() { fleet_->AbandonInbound(dst, tenant); });
  }
  EndMigration(tenant, book);

  if (why == "src.not_running") {
    rec->outcome = "abort.src_done";
    return;
  }
  if (BelievedAlive(book.node)) {
    // ROLLBACK: the source still holds the live state; resume it there.
    rec->outcome = "rollback." + why;
    events_.Record("rollback", {tenant, sim::FnvHash(why)}, Now());
    const uint32_t src = book.node;
    PostToNode(src,
               [this, src, tenant, record]() { fleet_->ResumeAtSource(src, tenant, record); });
    return;
  }
  // Evacuation failed and there is no source to roll back to: degrade.
  rec->outcome = "shed";
  Retire(tenant, TenantOutcome::kShed, why);
}

void Orchestrator::OnRollbackResumed(size_t record, sim::TimePs resumed_at) {
  sim::ActorScope actor(sim::kActorOrchestrator);
  tenants_guard_.Write();
  MigrationRecord& rec = records_[record];
  StampResumed(&rec, resumed_at);
  events_.Record("rollback.resumed", {rec.tenant}, Now());
}

void Orchestrator::Retire(uint32_t tenant, TenantOutcome outcome, const std::string& why) {
  sim::ActorScope actor(sim::kActorOrchestrator);
  tenants_guard_.Write();
  regions_guard_.Write();
  auto it = tenants_.find(tenant);
  if (it == tenants_.end() || it->second.outcome != TenantOutcome::kRunning) {
    return;
  }
  TenantBook& book = it->second;
  book.outcome = outcome;
  ReleaseRegion(book.node, book.region);
  book.region = -1;
  if (outcome == TenantOutcome::kShed) {
    events_.Record("shed", {tenant, sim::FnvHash(why)}, Now());
  } else {
    events_.Record("done", {tenant}, Now());
  }
  // An evacuation may have been waiting on this tenant's region (it was
  // picked as a shed victim) — the region is free now.
  auto pit = pending_evacuations_.find(tenant);
  if (pit != pending_evacuations_.end()) {
    const uint32_t evacuee = pit->second;
    pending_evacuations_.erase(pit);
    EvacuateTenant(evacuee);
  }
  CheckSettled();
}

void Orchestrator::DeclareDead(uint32_t node) {
  sim::ActorScope actor(sim::kActorOrchestrator);
  tenants_guard_.Write();
  regions_guard_.Write();
  regions_[node].CloseCapacity();
  events_.Record("node.dead", {node}, Now());

  // A victim that was mid-shed on this node will never ack; release its
  // waiting evacuee back into the normal path below.
  std::vector<uint32_t> orphaned;
  for (auto it = pending_evacuations_.begin(); it != pending_evacuations_.end();) {
    const auto vit = tenants_.find(it->first);
    if (vit != tenants_.end() && vit->second.node == node) {
      orphaned.push_back(it->second);
      it = pending_evacuations_.erase(it);
    } else {
      ++it;
    }
  }

  // Evacuations only edit books; no tenant enters or leaves the map here.
  for (auto& [id, book] : tenants_) {
    if (book.outcome != TenantOutcome::kRunning) {
      continue;
    }
    if (book.migration) {
      const size_t record = *book.migration;
      MigrationRecord& rec = records_[record];
      if (rec.dst_node == node && BelievedAlive(rec.src_node)) {
        // Destination died mid-restore: roll back to the live source.
        rec.outcome = "rollback.dst_dead";
        EndMigration(id, book);
        const uint32_t src = rec.src_node;
        events_.Record("rollback.dst_dead", {id}, Now());
        PostToNode(src, [this, src, id, record]() { fleet_->ResumeAtSource(src, id, record); });
        continue;
      }
      if (rec.src_node == node || rec.dst_node == node) {
        // Source died mid-transfer, or the destination died after it:
        // abandon the partial transfer and replay the stored checkpoint.
        rec.outcome = rec.src_node == node ? "abort.src_dead" : "abort.dst_dead";
        EndMigration(id, book);
        if (BelievedAlive(rec.dst_node)) {
          const uint32_t dst = rec.dst_node;
          // The reserved destination region frees up for the evacuation
          // placement decision below.
          ReleaseRegion(dst, regions_[dst].FindTenant(id));
          PostToNode(dst, [this, dst, id]() { fleet_->AbandonInbound(dst, id); });
        }
        EvacuateTenant(id);  // appends a record: rec is not read after this
      }
      continue;
    }
    if (book.node == node) {
      EvacuateTenant(id);
    }
  }
  for (const uint32_t evacuee : orphaned) {
    const auto eit = tenants_.find(evacuee);
    if (eit != tenants_.end() && eit->second.outcome == TenantOutcome::kRunning &&
        !eit->second.migration) {
      EvacuateTenant(evacuee);
    }
  }
}

bool Orchestrator::FindFreeRegion(uint32_t* node_out, int32_t* region_out) const {
  for (uint32_t node = 0; node < regions_.size(); ++node) {
    if (!BelievedAlive(node)) {
      continue;
    }
    const int32_t r = regions_[node].FindFree();
    if (r >= 0) {
      *node_out = node;
      *region_out = r;
      return true;
    }
  }
  return false;
}

bool Orchestrator::FindShedVictim(uint32_t below_priority, uint32_t* victim_out) const {
  bool found = false;
  uint32_t best_prio = 0;
  uint32_t best_id = 0;
  for (const auto& [id, book] : tenants_) {
    if (book.outcome != TenantOutcome::kRunning || book.migration ||
        !BelievedAlive(book.node) || book.spec.priority >= below_priority ||
        pending_evacuations_.find(id) != pending_evacuations_.end()) {
      continue;  // a victim already slated for another evacuee stays claimed
    }
    // Lowest priority loses; equal priorities shed the higher tenant id.
    if (!found || book.spec.priority < best_prio ||
        (book.spec.priority == best_prio && id > best_id)) {
      found = true;
      best_prio = book.spec.priority;
      best_id = id;
    }
  }
  if (found) {
    *victim_out = best_id;
  }
  return found;
}

void Orchestrator::EvacuateTenant(uint32_t tenant) {
  tenants_guard_.Write();
  regions_guard_.Write();
  ckpt_guard_.Read();
  TenantBook& book = tenants_[tenant];
  uint32_t dst = 0;
  int32_t region = -1;
  if (!FindFreeRegion(&dst, &region)) {
    uint32_t victim = 0;
    if (FindShedVictim(book.spec.priority, &victim)) {
      // Shed the victim first; its ack re-enters EvacuateTenant with a free
      // region. Deterministic: the shed command and the ack both ride the
      // ordered mailbox streams.
      pending_evacuations_[victim] = tenant;
      const uint32_t victim_node = tenants_[victim].node;
      events_.Record("shed.request", {victim, tenant}, Now());
      PostToNode(victim_node,
                 [this, victim_node, victim]() { fleet_->ShedTenant(victim_node, victim); });
      return;
    }
    // Nobody to displace: the evacuee itself degrades.
    Retire(tenant, TenantOutcome::kShed, "capacity");
    return;
  }

  regions_[dst].Reserve(region, tenant);
  MigrationRecord& rec = OpenRecord(tenant, book, dst, "node.dead");
  rec.quiesced_at = rec.started_at;  // downtime for an evacuation runs from detection

  auto cit = ckpt_store_.find(tenant);
  if (cit != ckpt_store_.end()) {
    const std::vector<uint8_t>& blob = cit->second.blob;
    rec.outcome = "evacuated";
    rec.ckpt_bytes = blob.size();
    rec.ckpt_pages = cit->second.pages;
    const uint32_t chunks = fleet_->ChunkCount(blob.size());
    rec.chunks = chunks;
    events_.Record("evacuate", {tenant, dst, static_cast<uint64_t>(region), blob.size()}, Now());
    // The orchestrator sends a copy of the stored checkpoint, as a source would.
    fleet_->outbound_[fleet_->orch_logical_][tenant] = {blob, dst, region};
    fleet_->SendChunks(fleet_->orch_logical_, tenant, AllChunks(chunks), /*round=*/0,
                       /*extra_delay=*/0);
    return;
  }

  // No checkpoint yet: restart from scratch on the survivor.
  rec.outcome = "evacuated.fresh";
  events_.Record("evacuate.fresh", {tenant, dst, static_cast<uint64_t>(region)}, Now());
  const TenantSpec spec = book.spec;
  PostToNode(dst, [this, dst, tenant, spec, region]() {
    fleet_->StartTenantFresh(dst, tenant, spec, region);
    const sim::TimePs resumed = fleet_->cluster_.NowAt(dst);
    fleet_->PostToOrch(dst, 0,
                       [this, tenant, resumed]() { OnMigrationDone(tenant, resumed); });
  });
}

void Orchestrator::CheckSettled() {
  if (settled_) {
    return;
  }
  for (const auto& [id, book] : tenants_) {
    (void)id;
    if (book.outcome == TenantOutcome::kRunning) {
      return;
    }
  }
  settled_ = true;
  settled_at_ = Now();
  events_.Record("settled", {}, Now());
}

bool Orchestrator::AllSettled() const { return settled_; }

}  // namespace runtime
}  // namespace coyote

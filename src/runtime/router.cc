#include "src/runtime/router.h"

#include <algorithm>
#include <utility>

#include "src/net/rpc.h"
#include "src/sim/wire.h"

namespace coyote {
namespace runtime {

// ---------------------------------------------------------------------------
// Router
// ---------------------------------------------------------------------------

Router::Router(sim::Engine* engine, const Config& config)
    : engine_(engine), config_(config) {
  nodes_.resize(config_.num_nodes);
  tokens_ = config_.bucket_burst;
}

void Router::SetNodeResident(uint32_t node, std::vector<std::string> region_kernels) {
  nodes_.at(node).region_kernel = std::move(region_kernels);
}

namespace {

// The completion counter for one status.
const char* DoneKey(OpStatus status) {
  switch (status) {
    case OpStatus::kOk:
      return "router.done.ok";
    case OpStatus::kError:
      return "router.done.error";
    case OpStatus::kDeadlineExceeded:
      return "router.done.deadline";
    case OpStatus::kAborted:
      return "router.done.aborted";
    case OpStatus::kShed:
      return "router.done.shed";
    default:
      return "router.done.pending";
  }
}

}  // namespace

serving::ServingCompletion Router::LocalCompletion(const serving::ServingRequest& req,
                                                   OpStatus status) const {
  serving::ServingCompletion c;
  c.id = req.id;
  c.tenant = req.tenant;
  c.status = status;
  c.node = config_.num_nodes;  // the router's own logical id
  c.region = -1;
  c.submitted_at = req.submitted_at;
  c.completed_at = engine_->Now();
  return c;
}

void Router::Complete(const serving::ServingCompletion& c) {
  ++completions_;
  counters_.Increment(DoneKey(c.status));
  if (c.status == OpStatus::kOk) {
    latency_us_.Add(static_cast<double>(c.completed_at - c.submitted_at) * 1e-6);
  }
  // Fold the completion into the determinism witness, in delivery order.
  sim::FnvFoldU64(&fp_, c.id);
  sim::FnvFoldU64(&fp_, c.tenant);
  sim::FnvFoldU64(&fp_, static_cast<uint64_t>(c.status));
  sim::FnvFoldU64(&fp_, (static_cast<uint64_t>(c.node) << 32) ^ static_cast<uint32_t>(c.region));
  sim::FnvFoldU64(&fp_, c.completed_at);
  sim::FnvFoldU64(&fp_, c.response_hash);
  if (observer_) {
    observer_(c);
  }
}

void Router::RefillBucket() {
  if (config_.admit_period == 0) {
    return;
  }
  const sim::TimePs now = engine_->Now();
  const uint64_t gained = (now - bucket_refill_at_) / config_.admit_period;
  if (gained > 0) {
    tokens_ = std::min<uint64_t>(config_.bucket_burst, tokens_ + gained);
    bucket_refill_at_ += gained * config_.admit_period;
  }
}

void Router::Submit(serving::ServingRequest req) {
  guard_.Write();
  req.id = ++last_id_;
  req.submitted_at = engine_->Now();
  counters_.Increment("router.offered");
  RefillBucket();
  if (config_.admit_period > 0) {
    if (tokens_ == 0) {
      counters_.Increment("router.shed.bucket");
      Complete(LocalCompletion(req, OpStatus::kShed));
      return;
    }
    --tokens_;
  }
  auto& q = tenant_queues_[req.tenant];
  if (q.size() >= config_.tenant_queue_cap) {
    counters_.Increment("router.shed.queue_full");
    Complete(LocalCompletion(req, OpStatus::kShed));
    return;
  }
  q.push_back(std::move(req));
  ++total_queued_;
  depth_hist_.Add(total_queued_);
  KickDispatch();
}

void Router::KickDispatch() {
  if (dispatch_pending_) {
    return;
  }
  dispatch_pending_ = true;
  // Deferred one event, like the node schedulers: a burst submitted at one
  // timestamp is dispatched together, seeing the full queue state.
  engine_->ScheduleAfter(0, [this]() {
    dispatch_pending_ = false;
    DispatchLoop();
  });
}

int32_t Router::RouteOf(const serving::ServingRequest& req) const {
  int32_t best = kBackpressure;
  uint64_t best_load = 0;
  bool any_resident = false;
  for (uint32_t n = 0; n < nodes_.size(); ++n) {
    const NodeView& v = nodes_[n];
    if (!v.alive || RegionHintOn(n, req.kernel) < 0) {
      continue;
    }
    any_resident = true;
    if (v.outstanding >= config_.node_window) {
      continue;
    }
    if (best < 0 || v.outstanding < best_load) {
      best = static_cast<int32_t>(n);
      best_load = v.outstanding;
    }
  }
  return best >= 0 ? best : (any_resident ? kBackpressure : kNoResident);
}

int32_t Router::RegionHintOn(uint32_t node, const std::string& kernel) const {
  const NodeView& v = nodes_[node];
  for (uint32_t r = 0; r < v.region_kernel.size(); ++r) {
    if (v.region_kernel[r] == kernel) {
      return static_cast<int32_t>(r);
    }
  }
  return -1;
}

void Router::DispatchLoop() {
  guard_.Write();
  bool progress = true;
  while (progress && total_queued_ > 0) {
    progress = false;
    // One round: each tenant with queued work gets at most one dispatch,
    // in cyclic tenant-id order starting just above the cursor.
    std::vector<uint32_t> order;
    order.reserve(tenant_queues_.size());
    for (auto it = tenant_queues_.upper_bound(rr_cursor_); it != tenant_queues_.end(); ++it) {
      if (!it->second.empty()) {
        order.push_back(it->first);
      }
    }
    for (auto it = tenant_queues_.begin(); it != tenant_queues_.end() && it->first <= rr_cursor_; ++it) {
      if (!it->second.empty()) {
        order.push_back(it->first);
      }
    }
    for (const uint32_t tenant : order) {
      auto& q = tenant_queues_[tenant];
      if (q.empty()) {
        continue;
      }
      serving::ServingRequest& head = q.front();
      if (head.deadline > 0 && engine_->Now() > head.deadline) {
        counters_.Increment("router.expired");
        Complete(LocalCompletion(head, OpStatus::kDeadlineExceeded));
        q.pop_front();
        --total_queued_;
        rr_cursor_ = tenant;
        progress = true;
        continue;
      }
      const int32_t node = RouteOf(head);
      if (node == kNoResident) {
        counters_.Increment("router.shed.no_kernel");
        Complete(LocalCompletion(head, OpStatus::kShed));
        q.pop_front();
        --total_queued_;
        rr_cursor_ = tenant;
        progress = true;
        continue;
      }
      if (node == kBackpressure) {
        continue;  // every candidate window is full; a completion will kick us
      }
      head.region_hint = RegionHintOn(static_cast<uint32_t>(node), head.kernel);
      serving::ServingRequest taken = std::move(head);
      q.pop_front();
      --total_queued_;
      rr_cursor_ = tenant;
      progress = true;
      AppendToBatch(static_cast<uint32_t>(node), std::move(taken));
    }
  }
  // The pass is over: every batch it filled ships now.
  for (uint32_t n = 0; n < nodes_.size(); ++n) {
    if (!nodes_[n].batch.empty()) {
      FlushBatch(n);
    }
  }
  // Drop drained queues so churned-away tenants don't grow the map forever.
  for (auto it = tenant_queues_.begin(); it != tenant_queues_.end();) {
    it = it->second.empty() ? tenant_queues_.erase(it) : ++it;
  }
}

void Router::AppendToBatch(uint32_t node, serving::ServingRequest req) {
  NodeView& v = nodes_[node];
  ++v.outstanding;
  inflight_.emplace(req.id, Inflight{node, req});  // payload copy = refcount bump
  v.batch.push_back(std::move(req));
  if (v.batch.size() >= config_.batch_max) {
    counters_.Increment("router.flush.size");
    FlushBatch(node);
  }
}

void Router::FlushBatch(uint32_t node) {
  std::vector<serving::ServingRequest> batch = std::exchange(nodes_[node].batch, {});
  counters_.Increment("router.batches");
  batch_hist_.Add(batch.size());
  if (batch_sink_) {
    batch_sink_(node, std::move(batch));
  }
}

void Router::OnCompletion(const serving::ServingCompletion& c) {
  guard_.Write();
  auto it = inflight_.find(c.id);
  if (it == inflight_.end()) {
    // Raced a death declaration: the request was already evacuated/shed.
    counters_.Increment("router.stale_completion");
    return;
  }
  if (c.status == OpStatus::kOk) {
    // End-to-end integrity witness: the echo response must hash to the
    // payload the load generator synthesized.
    const axi::BufferView& p = it->second.req.payload;
    const bool match = serving::ResponseBytes(it->second.req) == p.size() &&
                       c.response_hash == sim::FnvHash(p.data(), p.size());
    counters_.Increment(match ? "router.integrity.ok" : "router.integrity.mismatch");
  }
  --nodes_[it->second.node].outstanding;
  inflight_.erase(it);
  Complete(c);
  KickDispatch();
}

void Router::SetRegionKernel(uint32_t node, uint32_t region, std::string kernel) {
  guard_.Write();
  nodes_.at(node).region_kernel.at(region) = std::move(kernel);
}

void Router::MarkNodeDead(uint32_t node) {
  NodeView& v = nodes_[node];
  if (!v.alive) {
    return;
  }
  guard_.Write();
  v.alive = false;
  v.outstanding = 0;
  counters_.Increment("router.node_dead");
  // Evacuate everything in flight there, in ascending id order (the map's),
  // so the requeue order does not depend on the shard placement.
  for (auto it = inflight_.begin(); it != inflight_.end();) {
    if (it->second.node != node) {
      ++it;
      continue;
    }
    serving::ServingRequest r = std::move(it->second.req);
    it = inflight_.erase(it);
    if (r.retries >= config_.retry_max) {
      counters_.Increment("router.shed.retries");
      Complete(LocalCompletion(r, OpStatus::kShed));
      continue;
    }
    ++r.retries;
    r.region_hint = -1;
    counters_.Increment("router.evacuated");
    tenant_queues_[r.tenant].push_back(std::move(r));
    ++total_queued_;
  }
  KickDispatch();
}

uint64_t Router::Fingerprint() const {
  uint64_t h = fp_;
  sim::FnvFoldU64(&h, counters_.Fingerprint());
  sim::FnvFoldU64(&h, completions_);
  sim::FnvFoldU64(&h, latency_us_.count());
  sim::FnvFoldU64(&h, depth_hist_.Fingerprint());
  sim::FnvFoldU64(&h, batch_hist_.Fingerprint());
  return h;
}

// ---------------------------------------------------------------------------
// ServingFabric
// ---------------------------------------------------------------------------

ServingFabric::ServingFabric(const Config& config)
    : config_(config), cluster_(config_, config_.router.heartbeat_window) {
  // Node-side state is written by the scheduler dispatch path, the DMA
  // completion path, and generic engine callbacks (frames, storms) — all
  // program-ordered by the single-engine-per-shard contract. Declare the
  // pairs so the ledger hunts genuine reentrancy instead.
  auto& ledger = sim::AccessLedger::Global();
  ledger.DeclareOrdered(sim::kActorHost, sim::kActorEngine);
  ledger.DeclareOrdered(sim::kActorHost, sim::kActorDma);
  ledger.DeclareOrdered(sim::kActorScheduler, sim::kActorEngine);
  ledger.DeclareOrdered(sim::kActorScheduler, sim::kActorDma);

  nodes_.reserve(config_.num_nodes);
  cluster_.AddNodes(
      {.kernel_at = [this](uint32_t node, uint32_t region) { return KernelAt(node, region); },
       .setup = [this](uint32_t node) { SetupNode(node); }});

  const uint32_t control = cluster_.control();
  Router::Config rc = config_.router;
  rc.num_nodes = config_.num_nodes;
  router_ = std::make_unique<Router>(&cluster_.EngineAt(control), rc);
  router_->BindShard(cluster_.shard_of(control));
  for (uint32_t n = 0; n < config_.num_nodes; ++n) {
    std::vector<std::string> kernels;
    for (uint32_t r = 0; r < config_.regions_per_node; ++r) {
      kernels.push_back(KernelAt(n, r));
    }
    router_->SetNodeResident(n, std::move(kernels));
  }
  router_->SetBatchSink([this](uint32_t node, std::vector<serving::ServingRequest> batch) {
    SendBatch(node, std::move(batch));
  });
  cluster_.OnNodeDead([this](uint32_t node) { router_->MarkNodeDead(node); });

  LoadGen::Config lc = config_.loadgen;
  lc.seed = cluster_.NodeSeed(control);
  if (lc.kernels.empty()) {
    lc.kernels = config_.kernel_names;
  }
  loadgen_ = std::make_unique<LoadGen>(
      &cluster_.EngineAt(control), lc,
      [this](serving::ServingRequest req) { router_->Submit(std::move(req)); });
  loadgen_->BindShard(cluster_.shard_of(control));
}

ServingFabric::~ServingFabric() = default;

std::string ServingFabric::KernelAt(uint32_t node, uint32_t region) const {
  const std::vector<std::string>& names = config_.kernel_names;
  return names.empty() ? std::string() : names[(node + region) % names.size()];
}

// Setup hook: the cluster built the node's device and preloaded every
// region's kernel, so the scheduler runs require_resident end to end.
void ServingFabric::SetupNode(uint32_t node) {
  auto n = std::make_unique<NodeRt>();
  SimDevice& dev = cluster_.device(node);
  n->sched = std::make_unique<KernelScheduler>(&dev, kSchedulerPolicy);
  n->sched->BindShard(cluster_.shard_of(node));
  // One executor per region; its completion callback is the shard-safe
  // alternative to Wait().
  n->execs.resize(config_.regions_per_node);
  for (uint32_t r = 0; r < config_.regions_per_node; ++r) {
    n->sched->NoteRegionReset(r, KernelAt(node, r));
    n->execs[r].run = std::make_unique<serving::RegionExec>(
        &dev, r, static_cast<int64_t>(node * 1000 + r), kMaxPayloadBytes,
        [this, node, r](OpStatus status) { OnExecDone(node, r, status); });
  }
  nodes_.push_back(std::move(n));
}

bool ServingFabric::Run(sim::TimePs horizon, sim::TimePs step) {
  if (cluster_.Start()) {
    for (const StormSpec& s : config_.storms) {
      cluster_.ScheduleOn(s.node, s.at, [this, s]() { StormBegin(s); });
    }
    for (const KillSpec& k : config_.kills) {
      cluster_.ScheduleKill(k.at, k.node);
    }
    loadgen_->Start();
  }
  return cluster_.Run(horizon, step, [this]() { return Settled(); });
}

void ServingFabric::SubmitAt(sim::TimePs t, serving::ServingRequest req) {
  cluster_.ScheduleOn(cluster_.control(), t, [this, req = std::move(req)]() mutable {
    router_->Submit(std::move(req));
  });
}

bool ServingFabric::Settled() const {
  if (!loadgen_->done() || !router_->Settled()) {
    return false;
  }
  for (uint32_t n = 0; n < config_.num_nodes; ++n) {
    if (cluster_.alive(n) && !nodes_[n]->sched->Idle()) {
      return false;
    }
  }
  return true;
}

uint64_t ServingFabric::Fingerprint() const {
  uint64_t h = router_->Fingerprint();
  for (const auto& node : nodes_) {
    sim::FnvFoldU64(&h, node->sched->stats().Fingerprint());
    sim::FnvFoldU64(&h, node->sched->completed());
    sim::FnvFoldU64(&h, node->sched->failed_requests());
  }
  sim::FnvFoldU64(&h, frame_errors_);
  return h;
}

// --- Wire: router -> node batches ------------------------------------------

void ServingFabric::SendBatch(uint32_t node, std::vector<serving::ServingRequest> batch) {
  sim::wire::Writer w;
  w.U32(node);
  w.U32(static_cast<uint32_t>(batch.size()));
  uint64_t payload_bytes = 0;
  std::vector<axi::BufferView> payloads;
  payloads.reserve(batch.size());
  for (const serving::ServingRequest& r : batch) {
    w.U64(r.id);
    w.U32(r.tenant);
    w.Str(r.kernel);
    w.U64(r.payload.size());
    w.U64(r.response_bytes);
    w.U64(r.deadline);
    w.U32(r.priority);
    w.I32(r.region_hint);
    w.U64(r.submitted_at);
    w.U32(r.retries);
    payload_bytes += r.payload.size();
    payloads.push_back(r.payload);
  }
  std::vector<uint8_t> frame = net::rpc::Seal(net::rpc::MsgType::kRequestBatch, w);
  // The frame carries the metadata; payloads ride alongside as views (the
  // simulated wire charges for both, the host copies neither).
  const sim::TimePs delay = cluster_.WireDelay(frame.size() + payload_bytes);
  cluster_.Post(cluster_.control(), node, delay,
                [this, node, frame = std::move(frame), payloads = std::move(payloads)]() {
                  OnBatchFrame(node, frame, payloads);
                });
}

void ServingFabric::OnBatchFrame(uint32_t node, const std::vector<uint8_t>& frame,
                                 const std::vector<axi::BufferView>& payloads) {
  if (!cluster_.alive(node)) {
    return;  // the frame reached a dead node; the detector recovers it
  }
  cluster_.guard(node).Write();
  sim::wire::Reader r = net::rpc::Open(frame, net::rpc::MsgType::kRequestBatch);
  if (!r.ok() || r.U32() != node) {
    ++frame_errors_;
    return;
  }
  const uint32_t count = r.U32();
  if (count != payloads.size()) {
    ++frame_errors_;
    return;
  }
  for (uint32_t i = 0; i < count; ++i) {
    serving::ServingRequest req;
    req.id = r.U64();
    req.tenant = r.U32();
    req.kernel = r.Str();
    const uint64_t payload_len = r.U64();
    req.response_bytes = r.U64();
    req.deadline = r.U64();
    req.priority = r.U32();
    req.region_hint = r.I32();
    req.submitted_at = r.U64();
    req.retries = r.U32();
    if (!r.ok() || payload_len != payloads[i].size()) {
      ++frame_errors_;
      return;
    }
    req.payload = payloads[i];
    ExecuteOnNode(node, std::move(req));
  }
}

void ServingFabric::ExecuteOnNode(uint32_t node, serving::ServingRequest req) {
  if (req.deadline > 0 && cluster_.NowAt(node) > req.deadline) {
    CompleteFromNode(node, req, OpStatus::kDeadlineExceeded, -1);
    return;
  }
  KernelScheduler::Request sr;
  sr.bitstream_path = req.kernel;
  sr.tenant = req.tenant;
  sr.region_hint = req.region_hint;
  // The serving contract: never reconfigure on the request path. If the
  // resident region vanished (quarantined mid-batch), fail typed instead.
  sr.require_resident = true;
  sr.failed = [this, node, req](OpStatus status) { CompleteFromNode(node, req, status, -1); };
  sr.run = [this, node, req = std::move(req)](uint32_t vfpga_id,
                                              std::function<void()> done) mutable {
    StartExec(node, vfpga_id, std::move(req), std::move(done));
  };
  nodes_[node]->sched->Submit(std::move(sr));
}

void ServingFabric::StartExec(uint32_t node, uint32_t region,
                              serving::ServingRequest req, std::function<void()> done) {
  cluster_.guard(node).Write();
  Exec& e = nodes_[node]->execs[region];
  if (!e.run->Start(req)) {
    CompleteFromNode(node, req, OpStatus::kError, static_cast<int32_t>(region));
    done();  // oversized payload: the region frees immediately
    return;
  }
  e.req = std::move(req);
  e.done = std::move(done);
}

void ServingFabric::OnExecDone(uint32_t node, uint32_t region, OpStatus status) {
  if (!cluster_.alive(node)) {
    return;
  }
  cluster_.guard(node).Write();
  Exec& e = nodes_[node]->execs[region];
  uint64_t response_hash = 0;
  if (status == OpStatus::kOk) {
    const std::vector<uint8_t> out = e.run->ReadBack(serving::ResponseBytes(e.req));
    response_hash = sim::FnvHash(out.data(), out.size());
  }
  const serving::ServingRequest req = std::exchange(e.req, {});
  const std::function<void()> done = std::exchange(e.done, nullptr);
  CompleteFromNode(node, req, status, static_cast<int32_t>(region), response_hash);
  if (done) {
    done();  // frees the region; a reaped epoch makes this a no-op
  }
}

// --- Wire: node -> router completions ---------------------------------------

void ServingFabric::CompleteFromNode(uint32_t node, const serving::ServingRequest& req,
                                     OpStatus status, int32_t region, uint64_t response_hash) {
  sim::wire::Writer w;
  w.U64(req.id);
  w.U32(req.tenant);
  w.U8(static_cast<uint8_t>(status));
  w.U32(node);
  w.I32(region);
  w.U64(req.submitted_at);
  w.U64(cluster_.NowAt(node));
  w.U64(response_hash);
  std::vector<uint8_t> frame = net::rpc::Seal(net::rpc::MsgType::kCompletion, w);
  cluster_.Post(node, cluster_.control(), cluster_.WireDelay(frame.size()),
                [this, frame = std::move(frame)]() { OnCompletionFrame(frame); });
}

void ServingFabric::OnCompletionFrame(const std::vector<uint8_t>& frame) {
  sim::wire::Reader r = net::rpc::Open(frame, net::rpc::MsgType::kCompletion);
  if (!r.ok()) {
    ++frame_errors_;
    return;
  }
  serving::ServingCompletion c;
  c.id = r.U64();
  c.tenant = r.U32();
  c.status = static_cast<OpStatus>(r.U8());
  c.node = r.U32();
  c.region = r.I32();
  c.submitted_at = r.U64();
  c.completed_at = r.U64();
  c.response_hash = r.U64();
  if (!r.ok() || !r.AtEnd()) {
    ++frame_errors_;
    return;
  }
  router_->OnCompletion(c);
}

// --- Wire: node -> router region state ---------------------------------------

void ServingFabric::SendRegionState(uint32_t node, uint32_t region, const std::string& kernel) {
  sim::wire::Writer w;
  w.U32(node);
  w.U32(region);
  w.Str(kernel);
  std::vector<uint8_t> frame = net::rpc::Seal(net::rpc::MsgType::kRegionState, w);
  cluster_.Post(node, cluster_.control(), cluster_.WireDelay(frame.size()),
                [this, frame = std::move(frame)]() { OnRegionStateFrame(frame); });
}

void ServingFabric::OnRegionStateFrame(const std::vector<uint8_t>& frame) {
  sim::wire::Reader r = net::rpc::Open(frame, net::rpc::MsgType::kRegionState);
  const uint32_t node = r.U32();
  const uint32_t region = r.U32();
  std::string kernel = r.Str();
  if (!r.ok() || !r.AtEnd()) {
    ++frame_errors_;
    return;
  }
  router_->SetRegionKernel(node, region, std::move(kernel));
}

// --- Storms -------------------------------------------------------------------

void ServingFabric::StormBegin(const StormSpec& s) {
  if (!cluster_.alive(s.node) || s.region >= config_.regions_per_node) {
    return;
  }
  cluster_.guard(s.node).Write();
  NodeRt& n = *nodes_[s.node];
  ++storms_begun_;
  // The region goes dark for the reprogram window: quarantine first so the
  // scheduler fails stranded require_resident work fast, then abort whatever
  // was running there (typed kAborted back through the completion path).
  n.sched->SetQuarantined(s.region, true);
  n.execs[s.region].run->Abort(OpStatus::kAborted);
  SendRegionState(s.node, s.region, "");
  cluster_.After(s.node, std::max<sim::TimePs>(1, s.duration), [this, s]() { StormEnd(s); });
}

void ServingFabric::StormEnd(const StormSpec& s) {
  cluster_.guard(s.node).Write();
  NodeRt& n = *nodes_[s.node];
  // Reprogram done: the region comes back with its kernel freshly resident.
  n.sched->NoteRegionReset(s.region, KernelAt(s.node, s.region));
  n.sched->SetQuarantined(s.region, false);
  SendRegionState(s.node, s.region, KernelAt(s.node, s.region));
}

}  // namespace runtime
}  // namespace coyote

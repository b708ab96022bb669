// Cluster-scale admission / batching / routing tier for the serving fabric.
//
// The Router is the single front door for serving traffic (paper §9: one
// shell instance per node, many vFPGA apps behind it — something has to
// decide which node runs which request, and protect the nodes from overload).
// It runs on its own logical node of the sharded PDES fabric and owns the
// request lifecycle end to end: every ServingRequest submitted to it gets
// exactly one typed ServingCompletion, whatever happens in between.
//
// Pipeline, in order:
//   admission  — an integer token bucket over all tenants. Past saturation
//                the bucket empties and requests complete kShed immediately,
//                so offered load beyond capacity costs one completion record,
//                not a queue slot. Per-tenant queue caps bound memory.
//   fair queue — one FIFO per tenant, drained round-robin (quantum 1) by a
//                cursor over the tenant id space. A burst from one tenant
//                cannot starve the others.
//   batching   — per destination node and dispatch pass: the requests one
//                pass routes to a node form one batch (one RPC frame), which
//                ships at batch_max requests or when the pass ends. A batch
//                never outlives the event that filled it, so only a full
//                node_window holds a request at the router.
//   routing    — among alive nodes with the kernel resident and room in
//                their outstanding window: least loaded, then lowest id.
//                The router stamps a region placement hint (lowest matching
//                region) that the node scheduler honors when eligible. A
//                region a node quarantines leaves the table until its reset.
//   shedding   — no alive node has the kernel resident -> kShed (typed, the
//                reconfiguration-free contract); retries after a node death
//                are capped, then kShed.
//
// Failure handling: MarkNodeDead (in a fabric, the cluster's failure
// detector calls it) evacuates the node's in-flight requests back into the
// tenant queues (retries capped) and routes them elsewhere.
// Completions that race the declaration are counted stale and dropped.
//
// Determinism: the router lives on one logical node, so every input —
// submissions, completions, death declarations — arrives in the PDES merge
// order (time, order_key=source node). All policy state (bucket, cursors,
// windows) is integer. Fingerprint() folds every completion in delivery
// order; it is bit-identical across runs and shard placements.

#ifndef SRC_RUNTIME_ROUTER_H_
#define SRC_RUNTIME_ROUTER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/runtime/cluster.h"
#include "src/runtime/cthread.h"
#include "src/runtime/device.h"
#include "src/runtime/loadgen.h"
#include "src/runtime/scheduler.h"
#include "src/runtime/serving.h"
#include "src/sim/access_guard.h"
#include "src/sim/hash.h"
#include "src/sim/sharded_engine.h"
#include "src/sim/stats.h"

namespace coyote {
namespace runtime {

class Router {
 public:
  struct Config {
    uint32_t num_nodes = 1;
    // Admission token bucket: one token per request, one token minted every
    // admit_period picoseconds (integer refill), at most bucket_burst banked.
    // 0 disables admission control (nothing sheds at the front door).
    sim::TimePs admit_period = 0;
    uint64_t bucket_burst = 32;
    // Per-tenant queue cap; an admitted request finding its tenant queue
    // full completes kShed.
    uint64_t tenant_queue_cap = 256;
    // Most requests in one batch; a dispatch pass that routes more to a node
    // ships them as several frames at the same instant.
    uint32_t batch_max = 8;
    // Read by nothing; kept only because perfbench/serving.cc assigns it.
    sim::TimePs batch_timeout = sim::Microseconds(5);
    // Max requests routed to a node whose completions are not yet delivered.
    uint32_t node_window = 16;
    // Re-routes after node deaths before the request sheds.
    uint32_t retry_max = 2;
    // A ServingFabric's cluster declares a node dead after this much
    // heartbeat silence (the Router itself only sees MarkNodeDead).
    sim::TimePs heartbeat_window = sim::Microseconds(400);
  };

  using BatchSink =
      std::function<void(uint32_t node, std::vector<serving::ServingRequest> batch)>;
  using CompletionObserver = std::function<void(const serving::ServingCompletion&)>;

  Router(sim::Engine* engine, const Config& config);

  // --- Host-side setup --------------------------------------------------------
  void BindShard(sim::ShardId shard) { guard_.BindShard(shard); }
  void SetBatchSink(BatchSink sink) { batch_sink_ = std::move(sink); }
  void SetCompletionObserver(CompletionObserver cb) { observer_ = std::move(cb); }
  // Declares which kernel is resident in each region of `node` (the routing
  // table and the source of placement hints).
  void SetNodeResident(uint32_t node, std::vector<std::string> region_kernels);

  // --- Shard-context entry points (router's shard only) -----------------------
  // Takes ownership of the request; stamps id + submitted_at.
  void Submit(serving::ServingRequest req);
  void OnCompletion(const serving::ServingCompletion& c);
  // One region's entry in the routing table: empty while the node has the
  // region quarantined (nothing routes to it), its kernel again once the
  // region is reset.
  void SetRegionKernel(uint32_t node, uint32_t region, std::string kernel);
  // Stops routing to `node` and requeues its in-flight work.
  void MarkNodeDead(uint32_t node);

  // --- Observation ------------------------------------------------------------
  bool node_alive(uint32_t node) const { return nodes_[node].alive; }
  // No queued or in-flight requests anywhere.
  bool Settled() const { return total_queued_ == 0 && inflight_.empty(); }
  uint64_t completions() const { return completions_; }
  const sim::CounterSet& counters() const { return counters_; }
  // End-to-end latency (submit -> completion delivery) of kOk requests, us.
  sim::Samples& latency_us() { return latency_us_; }
  const sim::Histogram& depth_histogram() const { return depth_hist_; }
  const sim::Histogram& batch_histogram() const { return batch_hist_; }
  // Folds every completion in delivery order plus the counter table:
  // bit-identical across same-seed runs and shard placements.
  uint64_t Fingerprint() const;

 private:
  // RouteOf: >= 0 node id, kBackpressure (resident somewhere but all windows
  // full — wait), or kNoResident (shed: nothing alive has the kernel).
  static constexpr int32_t kBackpressure = -1;
  static constexpr int32_t kNoResident = -2;

  struct NodeView {
    bool alive = true;
    uint64_t outstanding = 0;  // routed here, completion not yet delivered
    std::vector<std::string> region_kernel;
    std::vector<serving::ServingRequest> batch;  // empty between dispatch passes
  };
  struct Inflight {
    uint32_t node = 0;
    serving::ServingRequest req;  // kept for evacuation + integrity check
  };

  void RefillBucket();
  void KickDispatch();
  void DispatchLoop();
  int32_t RouteOf(const serving::ServingRequest& req) const;
  int32_t RegionHintOn(uint32_t node, const std::string& kernel) const;
  void AppendToBatch(uint32_t node, serving::ServingRequest req);
  void FlushBatch(uint32_t node);
  serving::ServingCompletion LocalCompletion(const serving::ServingRequest& req,
                                             OpStatus status) const;
  void Complete(const serving::ServingCompletion& c);

  sim::Engine* engine_;
  const Config config_;
  BatchSink batch_sink_;
  CompletionObserver observer_;
  sim::AccessGuard guard_{"runtime.router"};

  std::vector<NodeView> nodes_;
  std::map<uint32_t, std::deque<serving::ServingRequest>> tenant_queues_;
  uint64_t total_queued_ = 0;
  uint32_t rr_cursor_ = 0;  // last tenant served; next pass starts above it
  std::map<uint64_t, Inflight> inflight_;
  bool dispatch_pending_ = false;

  uint64_t last_id_ = 0;
  uint64_t tokens_ = 0;
  sim::TimePs bucket_refill_at_ = 0;

  uint64_t completions_ = 0;
  uint64_t fp_ = sim::kFnvOffset;
  sim::CounterSet counters_;
  sim::Samples latency_us_;
  sim::Histogram depth_hist_;  // total queued, sampled at each admission
  sim::Histogram batch_hist_;  // flushed batch sizes
};

// ---------------------------------------------------------------------------
// ServingFabric: the serving workload on a runtime::Cluster. Each node adds a
// KernelScheduler and one serving::RegionExec per region (the executor the
// fleet's tenants run on too); the Router and an open-loop LoadGen live on
// the cluster's control node. Requests and completions travel as rpc frames
// with modeled wire delays, so the whole fabric is bit-identical across
// 1/2/4/8-shard placements.
//
// Kernels are preloaded host-side (region r of node n holds
// kernel_names[(n + r) % K], KernelAt) and the schedulers run
// require_resident: a reconfiguration — which nests an engine run — can
// never happen inside a shard callback. A payload larger than the
// executor's staging buffers (kMaxPayloadBytes) completes kError. A
// reconfiguration storm quarantines the region, aborts only its op in flight
// and resets the region after the reprogram latency; the node reports both
// edges to the Router in a region-state frame. A node kill stops its
// heartbeats, and the cluster's detector hands the death to the Router.
// ---------------------------------------------------------------------------
class ServingFabric {
 public:
  struct StormSpec {
    sim::TimePs at = 0;
    uint32_t node = 0;
    uint32_t region = 0;
    sim::TimePs duration = sim::Microseconds(50);  // models the reprogram time
  };
  struct KillSpec {
    sim::TimePs at = 0;
    uint32_t node = 0;
  };

  struct Config : ClusterConfig {
    Router::Config router;    // num_nodes is overwritten by the fabric
    LoadGen::Config loadgen;  // seed is derived from the fabric seed
    // Kernel k lives wherever (node + region) % kernel_names.size() == k;
    // kernel_factory builds it under every name.
    std::vector<std::string> kernel_names = {"serve.bin"};
    std::vector<StormSpec> storms;
    std::vector<KillSpec> kills;
  };

  // Executor staging buffer size: the largest request or response payload.
  static constexpr uint64_t kMaxPayloadBytes = 4096;
  static constexpr KernelScheduler::Policy kSchedulerPolicy = KernelScheduler::Policy::kAffinity;

  explicit ServingFabric(const Config& config);
  ~ServingFabric();
  ServingFabric(const ServingFabric&) = delete;
  ServingFabric& operator=(const ServingFabric&) = delete;

  // Steps the fabric in `step` windows until everything settles (loadgen
  // done, router drained, node schedulers idle) or `horizon` passes.
  // Returns whether it settled.
  bool Run(sim::TimePs horizon, sim::TimePs step);

  // Host-side single-request entry (tests): routes through the same
  // admission path as LoadGen traffic. Call before Run or between windows.
  void SubmitAt(sim::TimePs t, serving::ServingRequest req);

  Router& router() { return *router_; }
  LoadGen& loadgen() { return *loadgen_; }
  KernelScheduler& scheduler(uint32_t node) { return *nodes_[node]->sched; }
  sim::ShardedEngine& sharded() { return cluster_.sharded(); }
  uint64_t frame_errors() const { return frame_errors_; }
  uint64_t storms_begun() const { return storms_begun_; }
  // Router fingerprint folded with every node scheduler's counter table.
  uint64_t Fingerprint() const;

 private:
  // A region's executor plus the request it runs.
  struct Exec {
    std::unique_ptr<serving::RegionExec> run;
    serving::ServingRequest req;
    std::function<void()> done;  // scheduler region-free callback
  };
  // A node's serving extras; its device, liveness and guard live in the
  // Cluster.
  struct NodeRt {
    std::unique_ptr<KernelScheduler> sched;
    std::vector<Exec> execs;  // one executor per region
  };

  std::string KernelAt(uint32_t node, uint32_t region) const;
  void SetupNode(uint32_t node);

  void SendBatch(uint32_t node, std::vector<serving::ServingRequest> batch);
  void OnBatchFrame(uint32_t node, const std::vector<uint8_t>& frame,
                    const std::vector<axi::BufferView>& payloads);
  void ExecuteOnNode(uint32_t node, serving::ServingRequest req);
  void StartExec(uint32_t node, uint32_t region, serving::ServingRequest req,
                 std::function<void()> done);
  void OnExecDone(uint32_t node, uint32_t region, OpStatus status);
  // Frames `req`'s completion, stamped with the node's clock, to the router.
  void CompleteFromNode(uint32_t node, const serving::ServingRequest& req, OpStatus status,
                        int32_t region, uint64_t response_hash = 0);
  void OnCompletionFrame(const std::vector<uint8_t>& frame);
  // Frames region `region`'s routable kernel (empty while quarantined) from
  // `node` to the router.
  void SendRegionState(uint32_t node, uint32_t region, const std::string& kernel);
  void OnRegionStateFrame(const std::vector<uint8_t>& frame);
  void StormBegin(const StormSpec& s);
  void StormEnd(const StormSpec& s);
  bool Settled() const;

  Config config_;
  Cluster cluster_;
  // Declared after cluster_ so they go before the devices they point into.
  // Shard-owned: every mutation runs in the node's shard behind
  // cluster_.guard(node).
  std::vector<std::unique_ptr<NodeRt>> nodes_;
  std::unique_ptr<Router> router_;
  std::unique_ptr<LoadGen> loadgen_;
  uint64_t frame_errors_ = 0;
  uint64_t storms_begun_ = 0;
};

}  // namespace runtime
}  // namespace coyote

#endif  // SRC_RUNTIME_ROUTER_H_

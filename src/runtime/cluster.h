// The cluster substrate under every multi-node workload: one simulated rack
// of Coyote v2 nodes plus a control node, on one sharded PDES engine.
//
// In the paper each node runs one shell and a data-center control plane
// watches node health above them. A Cluster is that shape and nothing more:
//
//   nodes       logical nodes 0..N-1, one SimDevice each with every region's
//               kernel preloaded host-side (a shard callback may still
//               reprogram a region: SimDevice::ReconfigureApp is
//               event-driven, and no callback ever runs an engine);
//   control     logical node N, where the workload's control plane lives
//               (the Orchestrator of a Fleet, the Router of a ServingFabric);
//   placement   logical node i runs on shard RoundRobin(N + 1, shards)[i];
//   messaging   Post() runs a callback on another logical node no earlier
//               than the lookahead, merge-keyed by the sending node, so a run
//               is bit-identical across shard counts;
//   membership  every node beats to the control node each kHeartbeatPeriod;
//               each kSweepPeriod the detector declares dead every node whose
//               last beat is more than the dead window old, for good, and
//               hands the death to the OnNodeDead subscribers;
//   kill        ScheduleKill() crashes a node: its heartbeat stops and
//               After() callbacks on it do nothing.
//
// Workload harnesses (Fleet, ServingFabric) keep only their per-node extras
// and plug in through Hooks. Event order is part of the determinism contract:
// see DESIGN.md "Cluster substrate".

#ifndef SRC_RUNTIME_CLUSTER_H_
#define SRC_RUNTIME_CLUSTER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/net/network.h"
#include "src/runtime/device.h"
#include "src/sim/access_guard.h"
#include "src/sim/callback.h"
#include "src/sim/sharded_engine.h"
#include "src/sim/time.h"

namespace coyote {
namespace runtime {

// The fields every cluster workload's Config shares.
struct ClusterConfig {
  uint32_t num_nodes = 2;
  uint32_t regions_per_node = 2;
  uint32_t num_shards = 1;
  bool use_threads = false;
  // Every per-node random stream derives from this (Cluster::NodeSeed).
  uint64_t seed = 1;
  // Link rate and switch latency: the lookahead and every wire delay.
  net::Network::Config net;
  // Builds the kernel preloaded into every region; none when unset.
  SimDevice::KernelFactory kernel_factory;
};

class Cluster {
 public:
  static constexpr sim::TimePs kHeartbeatPeriod = sim::Microseconds(50);
  static constexpr sim::TimePs kSweepPeriod = sim::Microseconds(100);

  using NodeHook = std::function<void(uint32_t node)>;
  struct Hooks {
    // Name the kernel preloaded into (node, region) is registered under.
    std::function<std::string(uint32_t node, uint32_t region)> kernel_at{};
    NodeHook setup{};  // host side, right after the node's device is built
    NodeHook start{};  // first Run, right after the node's heartbeat is armed
    NodeHook kill{};   // node's shard, right after a kill stops its heartbeat
  };

  // `dead_window`: heartbeat silence after which the detector declares a
  // node dead.
  Cluster(const ClusterConfig& config, sim::TimePs dead_window);
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // Host side, once, before Run: builds node devices 0..N-1 in id order,
  // calling hooks.setup(n) right after node n's device is built.
  void AddNodes(Hooks hooks);

  uint32_t control() const { return config_.num_nodes; }
  uint32_t shard_of(uint32_t logical) const { return shard_of_[logical]; }
  // An independent random stream per logical node, stable across placements.
  uint64_t NodeSeed(uint32_t logical) const;
  sim::ShardedEngine& sharded() { return *sharded_; }
  SimDevice& device(uint32_t node) { return *nodes_[node]->dev; }
  // Guards the node's state, the harness's per-node extras included; bound
  // to the node's shard.
  const sim::AccessGuard& guard(uint32_t node) const { return nodes_[node]->guard; }

  // --- Messaging (shard context) ------------------------------------------
  // `logical`'s own engine and clock. Callers pass their own logical id;
  // another node is reached through Post.
  sim::Engine& EngineAt(uint32_t logical);
  sim::TimePs NowAt(uint32_t logical) { return EngineAt(logical).Now(); }
  // Runs `cb` on `dst` no earlier than src-now + max(delay, lookahead),
  // merge-keyed by `src`.
  void Post(uint32_t src, uint32_t dst, sim::TimePs delay, sim::InlineCallback cb);
  // Switch latency plus serialization of `bytes` at link rate.
  sim::TimePs WireDelay(uint64_t bytes) const;
  // Runs `cb` on `node` after `delay` unless the node has been killed by then.
  template <typename F>
  void After(uint32_t node, sim::TimePs delay, F cb) {
    EngineAt(node).ScheduleAfter(delay, [this, node, cb = std::move(cb)]() mutable {
      if (nodes_[node]->alive) {
        cb();
      }
    });
  }

  // --- Host side ----------------------------------------------------------
  // Places `cb` on `logical`'s shard at absolute time `t`.
  void ScheduleOn(uint32_t logical, sim::TimePs t, sim::InlineCallback cb);
  // Crashes `node` at `t`: its heartbeat stops, then hooks.kill runs.
  void ScheduleKill(sim::TimePs t, uint32_t node);
  // Subscribes to the detector's death declarations (control shard).
  void OnNodeDead(NodeHook cb) { on_dead_.push_back(std::move(cb)); }
  // Arms heartbeats (calling hooks.start after each) and then the detector.
  // Only the first call does anything; it returns whether it was that call.
  bool Start();
  // Starts, then runs in `step` windows until settled() or `horizon`.
  bool Run(sim::TimePs horizon, sim::TimePs step, const std::function<bool()>& settled);

  // --- Membership ---------------------------------------------------------
  // Node side: false once killed.
  bool alive(uint32_t node) const { return nodes_[node]->alive; }
  // Control side: true once the detector declared the node dead.
  bool declared_dead(uint32_t node) const;

 private:
  struct Node {
    explicit Node(uint32_t id) : guard("cluster.node" + std::to_string(id)) {}
    std::unique_ptr<SimDevice> dev;
    bool alive = true;
    sim::Engine::EventId next_beat = sim::Engine::kNoEvent;  // Kill cancels it
    sim::AccessGuard guard;
  };

  void Beat(uint32_t node);
  void Sweep();
  void Kill(uint32_t node);

  const ClusterConfig config_;
  const sim::TimePs dead_window_;
  const std::vector<uint32_t> shard_of_;  // logical node -> shard
  std::unique_ptr<sim::ShardedEngine> sharded_;
  std::vector<std::unique_ptr<Node>> nodes_;
  Hooks hooks_;
  bool started_ = false;

  // Membership, owned by the control node's shard.
  std::vector<sim::TimePs> last_beat_;
  std::vector<bool> declared_dead_;
  std::vector<NodeHook> on_dead_;
  sim::AccessGuard membership_guard_{"cluster.membership"};
};

}  // namespace runtime
}  // namespace coyote

#endif  // SRC_RUNTIME_CLUSTER_H_

#include "src/runtime/cluster.h"

#include <algorithm>

#include "src/runtime/placement.h"

namespace coyote {
namespace runtime {

namespace {

sim::ShardedEngine::Config EngineConfig(const ClusterConfig& config) {
  sim::ShardedEngine::Config ec;
  ec.num_shards = config.num_shards;
  ec.lookahead = net::Network::MinCrossNodeLatencyPs(config.net);
  ec.use_threads = config.use_threads;
  return ec;
}

}  // namespace

Cluster::Cluster(const ClusterConfig& config, sim::TimePs dead_window)
    : config_(config),
      dead_window_(dead_window),
      shard_of_(ShardPlacement::RoundRobin(config.num_nodes + 1, config.num_shards)),
      sharded_(std::make_unique<sim::ShardedEngine>(EngineConfig(config))),
      last_beat_(config.num_nodes, 0),
      declared_dead_(config.num_nodes, false) {
  membership_guard_.BindShard(shard_of_[control()]);
}

Cluster::~Cluster() = default;

void Cluster::AddNodes(Hooks hooks) {
  hooks_ = std::move(hooks);
  nodes_.reserve(config_.num_nodes);
  for (uint32_t n = 0; n < config_.num_nodes; ++n) {
    auto node = std::make_unique<Node>(n);
    SimDevice::Config dc;
    dc.shell.name = "cluster-node";
    dc.shell.services = {fabric::Service::kHostStream, fabric::Service::kCardMemory};
    dc.shell.num_vfpgas = config_.regions_per_node;
    dc.ip = 0x0A000001u + n;
    node->dev = std::make_unique<SimDevice>(dc, nullptr, &EngineAt(n));
    if (config_.kernel_factory) {
      for (uint32_t r = 0; r < config_.regions_per_node; ++r) {
        node->dev->RegisterKernelFactory(hooks_.kernel_at(n, r), config_.kernel_factory);
        node->dev->vfpga(r).LoadKernel(config_.kernel_factory());
      }
    }
    node->guard.BindShard(shard_of_[n]);
    nodes_.push_back(std::move(node));
    if (hooks_.setup) {
      hooks_.setup(n);
    }
  }
}

uint64_t Cluster::NodeSeed(uint32_t logical) const {
  return config_.seed ^ (0x9E3779B97F4A7C15ull * (logical + 1));
}

sim::Engine& Cluster::EngineAt(uint32_t logical) {
  return sharded_->shard(shard_of_[logical]);  // lint: cross-shard-ok own-shard accessor, callers pass their own logical node; cross-node traffic goes through Post
}

void Cluster::Post(uint32_t src, uint32_t dst, sim::TimePs delay, sim::InlineCallback cb) {
  const sim::TimePs wire = std::max(delay, sharded_->lookahead());
  sharded_->Post(shard_of_[dst], NowAt(src) + wire, std::move(cb), /*order_key=*/src);
}

sim::TimePs Cluster::WireDelay(uint64_t bytes) const {
  return config_.net.switch_latency + sim::TransferTime(bytes, config_.net.link_bps);
}

void Cluster::ScheduleOn(uint32_t logical, sim::TimePs t, sim::InlineCallback cb) {
  sharded_->ScheduleOn(shard_of_[logical], t, std::move(cb));
}

void Cluster::ScheduleKill(sim::TimePs t, uint32_t node) {
  ScheduleOn(node, t, [this, node]() { Kill(node); });
}

bool Cluster::Start() {
  if (started_) {
    return false;
  }
  started_ = true;
  for (uint32_t n = 0; n < config_.num_nodes; ++n) {
    nodes_[n]->next_beat = EngineAt(n).ScheduleAfter(kHeartbeatPeriod, [this, n]() { Beat(n); });
    if (hooks_.start) {
      hooks_.start(n);
    }
  }
  EngineAt(control()).ScheduleAfter(kSweepPeriod, [this]() { Sweep(); });
  return true;
}

bool Cluster::Run(sim::TimePs horizon, sim::TimePs step, const std::function<bool()>& settled) {
  Start();
  for (sim::TimePs t = step; t <= horizon; t += step) {
    sharded_->RunUntil(t);
    if (settled()) {
      return true;
    }
  }
  return settled();
}

// Node side: an unframed beat, delivered after exactly the lookahead (the
// minimum cross-node latency covers a small control message's wire time).
void Cluster::Beat(uint32_t node) {
  nodes_[node]->next_beat =
      EngineAt(node).ScheduleAfter(kHeartbeatPeriod, [this, node]() { Beat(node); });
  Post(node, control(), 0, [this, node]() {
    membership_guard_.Write();
    last_beat_[node] = NowAt(control());
  });
}

void Cluster::Sweep() {
  EngineAt(control()).ScheduleAfter(kSweepPeriod, [this]() { Sweep(); });
  membership_guard_.Write();
  const sim::TimePs now = NowAt(control());
  for (uint32_t n = 0; n < config_.num_nodes; ++n) {
    if (!declared_dead_[n] && now - last_beat_[n] > dead_window_) {
      declared_dead_[n] = true;
      for (const NodeHook& cb : on_dead_) {
        cb(n);
      }
    }
  }
}

void Cluster::Kill(uint32_t node) {
  Node& n = *nodes_[node];
  if (!n.alive) {
    return;
  }
  n.guard.Write();
  n.alive = false;
  EngineAt(node).Cancel(n.next_beat);
  if (hooks_.kill) {
    hooks_.kill(node);
  }
}

bool Cluster::declared_dead(uint32_t node) const {
  membership_guard_.Read();
  return declared_dead_[node];
}

}  // namespace runtime
}  // namespace coyote

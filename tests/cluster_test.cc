// Cluster substrate tests: the heartbeat-silence detector (declaration time,
// no false positives, permanence), kill semantics, bit-identical death
// times across shard counts and threading modes, and a region reprogrammed
// from inside a shard callback.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/net/network.h"
#include "src/runtime/cluster.h"
#include "src/services/vector_kernels.h"
#include "src/sim/time.h"
#include "src/synth/flow.h"
#include "src/synth/netlist.h"

namespace coyote {
namespace runtime {
namespace {

struct Death {
  uint32_t node = 0;
  sim::TimePs at = 0;
  bool operator==(const Death&) const = default;
};

void PrintTo(const Death& d, std::ostream* os) { *os << "node " << d.node << " at " << d.at; }

// A bare cluster (no kernels, no workload) that records every death the
// detector declares, with the control node's clock at declaration.
class Recorder {
 public:
  Recorder(const ClusterConfig& config, sim::TimePs dead_window) : cluster_(config, dead_window) {
    cluster_.AddNodes({});
    cluster_.OnNodeDead(
        [this](uint32_t node) { deaths_.push_back({node, cluster_.NowAt(cluster_.control())}); });
  }

  void RunTo(sim::TimePs horizon) {
    cluster_.Run(horizon, horizon, [] { return false; });
  }

  Cluster& cluster() { return cluster_; }
  const std::vector<Death>& deaths() const { return deaths_; }

 private:
  Cluster cluster_;
  std::vector<Death> deaths_;
};

ClusterConfig Config(uint32_t num_nodes, uint32_t num_shards = 1, bool use_threads = false) {
  ClusterConfig c;
  c.num_nodes = num_nodes;
  c.num_shards = num_shards;
  c.use_threads = use_threads;
  return c;
}

// First sweep (a multiple of kSweepPeriod) at which a node whose last beat
// landed at `last_beat` is more than `window` silent.
sim::TimePs FirstSweepAfter(sim::TimePs last_beat, sim::TimePs window) {
  sim::TimePs t = Cluster::kSweepPeriod;
  while (t <= last_beat + window) {
    t += Cluster::kSweepPeriod;
  }
  return t;
}

// (a) A node silenced at 120 us last beat at 100 us; its beat landed one
// lookahead later, and the detector declares it at the first sweep more than
// `window` after that. The node that keeps beating is never declared.
TEST(ClusterTest, SilentNodeIsDeclaredAtTheFirstSweepAfterTheWindow) {
  const ClusterConfig c = Config(2);
  const sim::TimePs window = sim::Microseconds(200);
  Recorder r(c, window);
  r.cluster().ScheduleKill(sim::Microseconds(120), 0);
  r.RunTo(sim::Milliseconds(5));

  const sim::TimePs last_beat =
      sim::Microseconds(100) + net::Network::MinCrossNodeLatencyPs(c.net);
  ASSERT_EQ(r.deaths().size(), 1u);
  EXPECT_EQ(r.deaths()[0], (Death{0, FirstSweepAfter(last_beat, window)}));
  EXPECT_EQ(r.deaths()[0].at, sim::Microseconds(400));
  EXPECT_TRUE(r.cluster().declared_dead(0));
  EXPECT_FALSE(r.cluster().declared_dead(1));
  EXPECT_TRUE(r.cluster().alive(1));
}

// (a) A window shorter than the beat interval declares even beating nodes
// dead at the first sweep; their later beats never revive them, and each
// death is handed to the subscribers exactly once.
TEST(ClusterTest, DeclaredDeathIsPermanent) {
  Recorder r(Config(3), sim::Microseconds(40));
  r.RunTo(sim::Milliseconds(2));

  ASSERT_EQ(r.deaths().size(), 3u);
  for (uint32_t n = 0; n < 3; ++n) {
    EXPECT_EQ(r.deaths()[n], (Death{n, Cluster::kSweepPeriod}));
    EXPECT_TRUE(r.cluster().declared_dead(n));
    EXPECT_TRUE(r.cluster().alive(n));  // still beating, still dead
  }
}

// (b) Kill stops the node's heartbeat, so the detector declares it dead,
// runs the kill hook once on the node's shard, and turns the node's queued
// After() callbacks into no-ops; other nodes are untouched.
TEST(ClusterTest, KillStopsHeartbeatsAndQueuedCallbacks) {
  Cluster cluster(Config(2, /*num_shards=*/2), sim::Microseconds(200));
  std::vector<uint32_t> killed;
  Cluster::Hooks hooks;
  hooks.kill = [&killed](uint32_t node) { killed.push_back(node); };
  cluster.AddNodes(std::move(hooks));

  bool ran[2] = {false, false};
  for (uint32_t n = 0; n < 2; ++n) {
    cluster.ScheduleOn(n, sim::Microseconds(100), [&cluster, &ran, n]() {
      cluster.After(n, sim::Microseconds(50), [&ran, n]() { ran[n] = true; });
    });
  }
  cluster.ScheduleKill(sim::Microseconds(120), 0);
  cluster.ScheduleKill(sim::Microseconds(130), 0);  // a second kill is a no-op

  cluster.Run(sim::Milliseconds(1), sim::Milliseconds(1), [] { return false; });

  EXPECT_FALSE(cluster.alive(0));
  EXPECT_TRUE(cluster.alive(1));
  EXPECT_EQ(killed, std::vector<uint32_t>{0});
  EXPECT_FALSE(ran[0]);
  EXPECT_TRUE(ran[1]);
  // A heartbeat that kept firing after the kill would keep node 0 alive in
  // the detector's eyes; node 1 kept beating throughout.
  EXPECT_TRUE(cluster.declared_dead(0));
  EXPECT_FALSE(cluster.declared_dead(1));
}

// (c) Staggered kills on 7 nodes (8 logical nodes with the control node):
// every death is declared at the same simulated time, in the same order, at
// 1, 2, 4 and 8 shards, threaded and not.
std::vector<Death> StaggeredDeaths(uint32_t num_shards, bool use_threads) {
  Recorder r(Config(7, num_shards, use_threads), sim::Microseconds(200));
  for (const uint32_t node : {5u, 1u, 3u, 6u}) {
    r.cluster().ScheduleKill(sim::Microseconds(90 + 47 * node), node);
  }
  r.RunTo(sim::Milliseconds(2));
  return r.deaths();
}

TEST(ClusterTest, DeathTimesAreBitIdenticalAcrossShardCountsAndThreading) {
  const std::vector<Death> golden = StaggeredDeaths(1, false);
  ASSERT_EQ(golden.size(), 4u);
  for (const uint32_t shards : {1u, 2u, 4u, 8u}) {
    for (const bool threads : {false, true}) {
      EXPECT_EQ(StaggeredDeaths(shards, threads), golden)
          << shards << " shards, threads=" << threads;
    }
  }
}

// (d) A shard callback may reprogram a region: the reconfiguration is
// event-driven, so no engine runs inside the callback, the node keeps
// beating meanwhile, and the result (ok, attempts, latency) and completion
// time are the same at 1, 2 and 4 shards.
using Reprogram = std::tuple<bool, uint32_t, sim::TimePs, sim::TimePs>;

Reprogram ReprogramFromShardCallback(uint32_t num_shards) {
  ClusterConfig c = Config(2, num_shards);
  c.kernel_factory = [] { return std::make_unique<services::PassthroughKernel>(); };
  Cluster cluster(c, sim::Microseconds(200));
  Cluster::Hooks hooks;
  hooks.kernel_at = [](uint32_t, uint32_t) { return std::string("passthrough"); };
  hooks.setup = [&cluster](uint32_t node) {
    SimDevice& dev = cluster.device(node);
    synth::Netlist passthrough{"passthrough", {synth::LibraryModule("passthrough")}};
    dev.WriteBitstreamFile("/bit/app.bin", synth::BuildFlow(dev.floorplan())
                                               .RunShellFlow(dev.config().shell, {passthrough})
                                               .app_bitstreams[0]);
  };
  cluster.AddNodes(std::move(hooks));

  std::optional<Reprogram> got;
  cluster.ScheduleOn(1, sim::Microseconds(100), [&cluster, &got]() {
    cluster.device(1).ReconfigureApp(
        "/bit/app.bin", 0, [&cluster, &got](const SimDevice::ReconfigResult& r) {
          got = Reprogram{r.ok, r.attempts, r.total_latency, cluster.NowAt(1)};
        });
  });
  cluster.Run(sim::Seconds(1), sim::Milliseconds(10), [&got] { return got.has_value(); });
  EXPECT_FALSE(cluster.declared_dead(1)) << num_shards << " shards";
  EXPECT_NE(cluster.device(1).vfpga(0).kernel(), nullptr) << num_shards << " shards";
  return got.value_or(Reprogram{});
}

TEST(ClusterTest, ShardCallbackReprogramsARegionIdenticallyAtEveryShardCount) {
  const auto [ok, attempts, latency, done_at] = ReprogramFromShardCallback(1);
  EXPECT_TRUE(ok);
  EXPECT_EQ(attempts, 1u);
  EXPECT_EQ(done_at, sim::Microseconds(100) + latency);
  for (const uint32_t shards : {2u, 4u}) {
    EXPECT_EQ(ReprogramFromShardCallback(shards), Reprogram(ok, attempts, latency, done_at))
        << shards << " shards";
  }
}

}  // namespace
}  // namespace runtime
}  // namespace coyote

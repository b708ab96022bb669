// Sharded-engine conformance suite.
//
// The claim under test: partitioning a simulation across N shards changes
// wall-clock behavior ONLY. Every observable — per-node event logs, event
// counts, payload bytes, stack statistics, fingerprints — must be
// bit-identical for N in {1, 2, 4, 8}, threaded or sequential, and identical
// to the single-shard reference. Two layers of evidence:
//
//   1. Scenario models (ping-pong pairs, seeded gossip, heartbeat monitor
//      with failure detection — the shapes of the chaos soak and supervisor
//      recovery suites) where all cross-node traffic flows through
//      ShardedEngine::Post keyed by sender node id. Per-node logs are
//      compared record-for-record across every (shard count, threading)
//      combination.
//
//   2. Real-stack replicas: full RoCE ping-pong clusters (SVM + network +
//      stacks, the determinism_test topology) pinned one-per-shard and run
//      under worker threads, each compared bit-for-bit against the same
//      cluster on a plain single Engine. This is the proof that the existing
//      stacks are safe to drive from shard workers (and that the shard
//      ownership guards stay silent when the partitioning is legal).

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "src/memsys/card_memory.h"
#include "src/memsys/gpu_memory.h"
#include "src/memsys/host_memory.h"
#include "src/mmu/svm.h"
#include "src/net/network.h"
#include "src/net/roce.h"
#include "src/runtime/placement.h"
#include "src/sim/access_guard.h"
#include "src/sim/engine.h"
#include "src/sim/rng.h"
#include "src/sim/sharded_engine.h"

namespace coyote {
namespace {

using sim::TimePs;

// Modeled inter-node link latency; doubles as the conservative lookahead.
constexpr TimePs kLink = sim::Nanoseconds(1000);

constexpr uint32_t kPing = 1;
constexpr uint32_t kGossip = 2;
constexpr uint32_t kTick = 3;    // a node's own heartbeat timer
constexpr uint32_t kBeat = 4;    // heartbeat arriving at the monitor
constexpr uint32_t kCheck = 5;   // monitor staleness sweep
constexpr uint32_t kDetect = 6;  // monitor declared a node down
constexpr uint32_t kRecover = 7; // monitor saw a down node come back

struct Record {
  TimePs time = 0;
  uint32_t tag = 0;
  uint64_t value = 0;
  bool operator==(const Record&) const = default;
};

uint64_t Fingerprint(const std::vector<std::vector<Record>>& logs) {
  uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a
  auto fold = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  for (const auto& log : logs) {
    fold(log.size());
    for (const Record& r : log) {
      fold(r.time);
      fold(r.tag);
      fold(r.value);
    }
  }
  return h;
}

// Scenario harness: `num_nodes` logical nodes placed round-robin onto
// `num_shards` shards. Cross-node messages ALWAYS go through Post() with the
// sending node id as the merge-order key — the discipline that makes the
// per-node logs placement-invariant. Each node's log is only ever appended
// by that node's own deliveries (= its shard's thread), so the harness is
// race-free without any locking.
class Cluster {
 public:
  using Handler = std::function<void(Cluster&, uint32_t node, uint32_t tag, uint64_t value)>;

  Cluster(uint32_t num_nodes, uint32_t num_shards, bool use_threads, Handler handler)
      : shard_of_(runtime::ShardPlacement::RoundRobin(num_nodes, num_shards)),
        engine_(sim::ShardedEngine::Config{
            .num_shards = num_shards, .lookahead = kLink, .use_threads = use_threads}),
        logs_(num_nodes),
        handler_(std::move(handler)) {}

  sim::ShardedEngine& engine() { return engine_; }
  uint32_t num_nodes() const { return static_cast<uint32_t>(logs_.size()); }
  TimePs NowAt(uint32_t node) { return engine_.shard(shard_of_[node]).Now(); }
  const std::vector<std::vector<Record>>& logs() const { return logs_; }

  // Host-side: seeds the scenario with a first delivery on `node`.
  void Kick(uint32_t node, TimePs t, uint32_t tag, uint64_t value) {
    engine_.ScheduleOn(shard_of_[node], t, [this, node, tag, value] { Deliver(node, tag, value); });
  }

  // Node-side: cross-node message. `delay` must be >= kLink (the model's
  // physical floor), which keeps every post clear of the lookahead clamp.
  void Send(uint32_t src, uint32_t dst, TimePs delay, uint32_t tag, uint64_t value) {
    const TimePs t = NowAt(src) + delay;
    engine_.Post(
        shard_of_[dst], t, [this, dst, tag, value] { Deliver(dst, tag, value); },
        /*order_key=*/src);
  }

  // Node-side: node-local timer (stays on the node's own engine, any delay).
  void Local(uint32_t node, TimePs delay, uint32_t tag, uint64_t value) {
    engine_.shard(shard_of_[node])
        .ScheduleAfter(delay, [this, node, tag, value] { Deliver(node, tag, value); });
  }

 private:
  void Deliver(uint32_t node, uint32_t tag, uint64_t value) {
    logs_[node].push_back(Record{NowAt(node), tag, value});
    handler_(*this, node, tag, value);
  }

  std::vector<uint32_t> shard_of_;
  sim::ShardedEngine engine_;
  std::vector<std::vector<Record>> logs_;
  Handler handler_;
};

struct ScenarioResult {
  std::vector<std::vector<Record>> logs;
  uint64_t fingerprint = 0;
  uint64_t events = 0;
  sim::ShardedEngine::Stats stats;
};

ScenarioResult Finish(Cluster& c, uint64_t events) {
  return ScenarioResult{c.logs(), Fingerprint(c.logs()), events, c.engine().stats()};
}

// --- Scenario 1: ping-pong pairs (the RDMA pingpong topology) ---------------
// Node 2i and 2i+1 bounce a counter kRounds times with a value-dependent
// jitter so different pairs interleave at different phases.

constexpr uint64_t kRounds = 64;

ScenarioResult RunPingpongPairs(uint32_t num_nodes, uint32_t num_shards, bool threads) {
  Cluster c(num_nodes, num_shards, threads,
            [](Cluster& cl, uint32_t node, uint32_t tag, uint64_t value) {
              if (tag != kPing || value >= kRounds) {
                return;
              }
              cl.Send(node, node ^ 1u, kLink + sim::Nanoseconds(static_cast<double>(value % 7)),
                      kPing, value + 1);
            });
  for (uint32_t n = 0; n + 1 < c.num_nodes(); n += 2) {
    c.Kick(n, sim::Nanoseconds(10) + sim::Nanoseconds(n), kPing, 0);
  }
  const uint64_t events = c.engine().RunUntilIdle();
  return Finish(c, events);
}

// --- Scenario 2: seeded gossip (the chaos-soak traffic shape) ---------------
// Every node injects a rumor; each hop re-derives an Rng from (seed, value,
// node) — pure data, no shared generator — and forwards to a pseudo-random
// peer with pseudo-random delay until the hop budget runs out. Heavy
// many-to-many cross-shard traffic with equal-timestamp pileups.

ScenarioResult RunGossip(uint32_t num_nodes, uint32_t num_shards, bool threads, uint64_t seed) {
  Cluster c(num_nodes, num_shards, threads,
            [num_nodes, seed](Cluster& cl, uint32_t node, uint32_t tag, uint64_t value) {
              if (tag != kGossip) {
                return;
              }
              const uint64_t hops = value >> 48;
              if (hops == 0) {
                return;
              }
              sim::Rng rng(seed ^ (value * 0x9E3779B97F4A7C15ull) ^ node);
              const uint32_t peer = static_cast<uint32_t>(
                  (node + 1 + rng.NextBounded(num_nodes - 1)) % num_nodes);
              const TimePs delay =
                  kLink + sim::Nanoseconds(static_cast<double>(rng.NextBounded(400)));
              const uint64_t payload = (value ^ rng.Next()) & 0xffff'ffff'ffffull;
              cl.Send(node, peer, delay, kGossip, ((hops - 1) << 48) | payload);
            });
  for (uint32_t n = 0; n < c.num_nodes(); ++n) {
    c.Kick(n, sim::Nanoseconds(100) + sim::Nanoseconds(13) * n, kGossip,
           (uint64_t{24} << 48) | ((seed ^ n) & 0xffff'ffffull));
  }
  const uint64_t events = c.engine().RunUntilIdle();
  return Finish(c, events);
}

// --- Scenario 3: heartbeat monitor (the supervisor recovery shape) ----------
// Node 0 is the monitor; every other node beats every 2 us. Nodes with
// node % 3 == 1 go silent for beats [12, 24) — the monitor's staleness sweep
// must log their detection and, once beats resume, their recovery, at
// identical timestamps for every shard count.

ScenarioResult RunHeartbeats(uint32_t num_nodes, uint32_t num_shards, bool threads) {
  constexpr uint64_t kBeats = 48;
  constexpr uint64_t kChecks = 64;
  constexpr TimePs kPeriod = sim::Microseconds(2);
  constexpr TimePs kStale = sim::Microseconds(5);

  struct MonitorState {
    std::vector<TimePs> last;
    std::vector<bool> down;
  };
  MonitorState mon{std::vector<TimePs>(num_nodes, sim::Microseconds(1)),
                   std::vector<bool>(num_nodes, false)};

  Cluster c(num_nodes, num_shards, threads,
            [&mon](Cluster& cl, uint32_t node, uint32_t tag, uint64_t value) {
              if (node == 0 && tag == kBeat) {
                const auto src = static_cast<uint32_t>(value);
                mon.last[src] = cl.NowAt(0);
                if (mon.down[src]) {
                  mon.down[src] = false;
                  cl.Local(0, 0, kRecover, src);
                }
                return;
              }
              if (node == 0 && tag == kCheck) {
                const TimePs now = cl.NowAt(0);
                for (uint32_t n = 1; n < cl.num_nodes(); ++n) {
                  if (!mon.down[n] && now > mon.last[n] && now - mon.last[n] > kStale) {
                    mon.down[n] = true;
                    cl.Local(0, 0, kDetect, n);
                  }
                }
                if (value + 1 < kChecks) {
                  cl.Local(0, kPeriod, kCheck, value + 1);
                }
                return;
              }
              if (node != 0 && tag == kTick) {
                const bool silent = (node % 3 == 1) && value >= 12 && value < 24;
                if (!silent) {
                  cl.Send(node, 0, kLink, kBeat, node);
                }
                if (value + 1 < kBeats) {
                  cl.Local(node, kPeriod, kTick, value + 1);
                }
              }
            });
  for (uint32_t n = 1; n < c.num_nodes(); ++n) {
    c.Kick(n, sim::Microseconds(1) + sim::Nanoseconds(10) * n, kTick, 0);
  }
  c.Kick(0, sim::Microseconds(4), kCheck, 0);
  const uint64_t events = c.engine().RunUntilIdle();
  return Finish(c, events);
}

void ExpectConformance(const char* scenario,
                       const std::function<ScenarioResult(uint32_t, bool)>& run) {
  const ScenarioResult ref = run(1, false);
  ASSERT_GT(ref.events, 0u) << scenario;
  ASSERT_EQ(ref.stats.lookahead_violations, 0u) << scenario;
  for (uint32_t shards : {1u, 2u, 4u, 8u}) {
    for (bool threads : {false, true}) {
      const ScenarioResult got = run(shards, threads);
      EXPECT_EQ(got.fingerprint, ref.fingerprint)
          << scenario << " shards=" << shards << " threads=" << threads;
      EXPECT_EQ(got.logs, ref.logs) << scenario << " shards=" << shards
                                    << " threads=" << threads;
      EXPECT_EQ(got.events, ref.events) << scenario << " shards=" << shards;
      EXPECT_EQ(got.stats.lookahead_violations, 0u) << scenario;
      if (shards > 1) {
        // The partitioning must actually exercise the Post path.
        EXPECT_GT(got.stats.cross_shard_messages, 0u) << scenario << " shards=" << shards;
      }
    }
  }
}

TEST(ShardConformanceTest, PingpongPairsBitIdenticalAcrossShardCounts) {
  ExpectConformance("pingpong", [](uint32_t shards, bool threads) {
    return RunPingpongPairs(8, shards, threads);
  });
}

TEST(ShardConformanceTest, GossipBitIdenticalAcrossShardCounts) {
  for (uint64_t seed : {3ull, 17ull}) {
    ExpectConformance("gossip", [seed](uint32_t shards, bool threads) {
      return RunGossip(12, shards, threads, seed);
    });
  }
}

TEST(ShardConformanceTest, HeartbeatRecoveryBitIdenticalAcrossShardCounts) {
  ExpectConformance("heartbeat", [](uint32_t shards, bool threads) {
    return RunHeartbeats(9, shards, threads);
  });
}

TEST(ShardConformanceTest, GossipDifferentSeedsDiverge) {
  // The fingerprint is not vacuous: different seeds must produce different
  // logs (at every shard count, since each equals its own reference).
  const ScenarioResult a = RunGossip(12, 4, true, 3);
  const ScenarioResult b = RunGossip(12, 4, true, 17);
  EXPECT_NE(a.fingerprint, b.fingerprint);
}

// --- Real-stack replicas under worker threads -------------------------------

constexpr uint64_t kPage = 2ull << 20;
constexpr uint64_t kBufBytes = 8ull << 20;
constexpr uint32_t kIpA = 0x0A000001;
constexpr uint32_t kIpB = 0x0A000002;

// One endpoint: host-backed SVM plus a RoCE stack (determinism_test topology).
struct StackNode {
  StackNode(sim::Engine* engine, net::Network* network, uint32_t ip)
      : card(engine, memsys::CardMemory::Config{}),
        svm(engine, &host, &card, &gpu, kPage),
        stack(engine, network, ip, &svm) {
    buf = host.Allocate(kBufBytes, memsys::AllocKind::kHuge2M);
    svm.RegisterHostBuffer(buf, kBufBytes);
  }

  memsys::HostMemory host;
  memsys::CardMemory card;
  memsys::GpuMemory gpu;
  mmu::Svm svm;
  net::RoceStack stack;
  uint64_t buf = 0;
};

struct ReplicaSummary {
  std::vector<uint8_t> payload_at_b;
  std::vector<uint8_t> echo_at_a;
  uint64_t tx_frames_a = 0;
  uint64_t rx_frames_a = 0;
  uint64_t retransmits_a = 0;
  uint64_t frames_delivered = 0;
  bool operator==(const ReplicaSummary&) const = default;
};

// A fully event-driven RDMA ping-pong cluster: construction posts the first
// write; arrival handlers keep the rally going for `iters` rounds, so the
// whole run needs nothing but "run the engine to idle" — which is exactly
// what a shard worker provides.
class Replica {
 public:
  Replica(sim::Engine* engine, uint64_t seed, int iters, uint64_t bytes)
      : network_(engine, {}),
        a_(engine, &network_, kIpA),
        b_(engine, &network_, kIpB),
        bytes_(bytes) {
    qp_a_ = a_.stack.CreateQp();
    qp_b_ = b_.stack.CreateQp();
    a_.stack.Connect(qp_a_, kIpB, qp_b_);
    b_.stack.Connect(qp_b_, kIpA, qp_a_);

    std::vector<uint8_t> payload(bytes);
    sim::Rng rng(seed);
    rng.FillBytes(payload.data(), payload.size());
    a_.svm.WriteVirtual(a_.buf, payload.data(), payload.size());

    b_.stack.SetWriteArrivalHandler(qp_b_, [this](uint64_t, uint64_t got) {
      b_.stack.PostWrite(qp_b_, b_.buf, a_.buf, got, nullptr);
    });
    a_.stack.SetWriteArrivalHandler(qp_a_, [this, iters](uint64_t, uint64_t) {
      if (++pongs_ < iters) {
        a_.stack.PostWrite(qp_a_, a_.buf, b_.buf, bytes_, nullptr);
      }
    });
    a_.stack.PostWrite(qp_a_, a_.buf, b_.buf, bytes_, nullptr);
  }

  void BindShard(sim::ShardId shard) {
    network_.BindShard(shard);
    a_.stack.BindShard(shard);
    b_.stack.BindShard(shard);
  }

  ReplicaSummary Summarize() {
    ReplicaSummary s;
    s.payload_at_b.resize(bytes_);
    b_.svm.ReadVirtual(b_.buf, s.payload_at_b.data(), bytes_);
    s.echo_at_a.resize(bytes_);
    a_.svm.ReadVirtual(a_.buf, s.echo_at_a.data(), bytes_);
    s.tx_frames_a = a_.stack.tx_frames();
    s.rx_frames_a = a_.stack.rx_frames();
    s.retransmits_a = a_.stack.retransmitted_frames();
    s.frames_delivered = network_.frames_delivered();
    return s;
  }

 private:
  net::Network network_;
  StackNode a_;
  StackNode b_;
  uint64_t bytes_;
  uint32_t qp_a_ = 0;
  uint32_t qp_b_ = 0;
  int pongs_ = 0;
};

constexpr int kReplicaIters = 8;
constexpr uint64_t kReplicaBytes = 4096;

ReplicaSummary ReferenceReplica(uint64_t seed) {
  sim::Engine engine;
  Replica replica(&engine, seed, kReplicaIters, kReplicaBytes);
  engine.RunUntilIdle();
  return replica.Summarize();
}

TEST(ShardConformanceTest, RealStackReplicasMatchPlainEngineReference) {
  sim::AccessLedger& ledger = sim::AccessLedger::Global();
  for (uint32_t shards : {2u, 4u}) {
    for (bool threads : {false, true}) {
      ledger.Reset();
      ledger.set_enabled(true);
      sim::ShardedEngine eng(sim::ShardedEngine::Config{
          .num_shards = shards, .lookahead = sim::Nanoseconds(500), .use_threads = threads});
      std::vector<std::unique_ptr<Replica>> replicas;
      for (uint32_t s = 0; s < shards; ++s) {
        replicas.push_back(
            std::make_unique<Replica>(&eng.shard(s), 1000 + s, kReplicaIters, kReplicaBytes));
        replicas.back()->BindShard(s);
      }
      eng.RunUntilIdle();
      for (uint32_t s = 0; s < shards; ++s) {
        const ReplicaSummary got = replicas[s]->Summarize();
        const ReplicaSummary want = ReferenceReplica(1000 + s);
        EXPECT_EQ(got, want) << "shard " << s << " of " << shards << " threads=" << threads;
        EXPECT_GT(got.tx_frames_a, 0u);
        EXPECT_EQ(got.payload_at_b, got.echo_at_a);
      }
      // Legal partitioning: the shard-ownership guards must stay silent.
      EXPECT_TRUE(ledger.shard_violations().empty())
          << ledger.shard_violations().front().ToString();
      EXPECT_GT(eng.stats().windows, 0u);
      ledger.set_enabled(false);
    }
  }
}

}  // namespace
}  // namespace coyote

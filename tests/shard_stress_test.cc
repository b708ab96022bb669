// Sharded-engine stress suite: the edges of the conservative protocol.
//
// Each case drives the coordinator into a corner the conformance suite
// deliberately avoids — lookahead-violating posts, bursts of thousands of
// posts in one callback, idle shards woken across the horizon, shards with no
// work at all — and checks the outcome against an analytic expectation AND
// against the sequential (single-thread, use_threads=false) execution of the
// identical program, which is the reference model: whatever the worker
// threads do, the result must be what the one-thread interleaving produces.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/sim/access_guard.h"
#include "src/sim/engine.h"
#include "src/sim/sharded_engine.h"
#include "src/sim/time.h"

namespace coyote {
namespace sim {
namespace {

struct Delivery {
  TimePs time = 0;
  uint64_t value = 0;
  bool operator==(const Delivery&) const = default;
};

// --- Lookahead clamp ---------------------------------------------------------
// A post for "now" (zero effective lookahead) violates the conservative
// contract; the engine must clamp it to now + lookahead, count it, and stay
// deterministic.

struct ClampResult {
  std::vector<Delivery> at_b;
  ShardedEngine::Stats stats;
};

ClampResult RunClampCase(bool threads) {
  constexpr TimePs kLa = Nanoseconds(100);
  ShardedEngine eng(
      ShardedEngine::Config{.num_shards = 2, .lookahead = kLa, .use_threads = threads});
  auto log = std::make_shared<std::vector<Delivery>>();
  // Three posting events on shard 0; each tries to deliver *at its own
  // timestamp* — impossible under conservative sync.
  for (uint64_t i = 0; i < 3; ++i) {
    eng.ScheduleOn(0, Microseconds(1) * (i + 1), [&eng, log, i] {
      const TimePs now = eng.shard(0).Now();
      eng.Post(1, now, [&eng, log, i] {
        log->push_back(Delivery{eng.shard(1).Now(), i});
      });
    });
  }
  const uint64_t events = eng.RunUntilIdle();
  EXPECT_EQ(events, 6u);
  return ClampResult{*log, eng.stats()};
}

TEST(ShardStressTest, ZeroLookaheadPostsAreClampedAndCounted) {
  const ClampResult seq = RunClampCase(false);
  ASSERT_EQ(seq.at_b.size(), 3u);
  for (uint64_t i = 0; i < 3; ++i) {
    // Clamped to sender-now + lookahead, never earlier.
    EXPECT_EQ(seq.at_b[i], (Delivery{Microseconds(1) * (i + 1) + Nanoseconds(100), i}));
  }
  EXPECT_EQ(seq.stats.lookahead_violations, 3u);
  EXPECT_EQ(seq.stats.cross_shard_messages, 3u);

  const ClampResult thr = RunClampCase(true);
  EXPECT_EQ(thr.at_b, seq.at_b);
  EXPECT_EQ(thr.stats.lookahead_violations, seq.stats.lookahead_violations);
}

// --- One sender's burst and another's post at the same instant ----------------
// Logical nodes 0 (sender A, order key 1), 1 (sender B, order key 0) and 2
// (the receiver) live on shard n % N. At 1 us, A posts 5,000 messages and B
// posts one, all for the same delivery time. The merge order puts B's
// message first, then A's burst in send order, at every shard count: the
// burst's size must not move B's post to a later barrier.

constexpr uint64_t kBurst = 5000;
constexpr uint64_t kFromB = ~uint64_t{0};

std::vector<Delivery> RunBurstCase(uint32_t num_shards, bool threads) {
  constexpr TimePs kDeliverAt = Microseconds(2);
  ShardedEngine eng(ShardedEngine::Config{
      .num_shards = num_shards, .lookahead = Nanoseconds(100), .use_threads = threads});
  auto log = std::make_shared<std::vector<Delivery>>();
  const uint32_t rx = 2 % num_shards;
  auto send = [&eng, log, rx](uint32_t order_key, uint64_t value) {
    eng.Post(
        rx, kDeliverAt,
        [&eng, log, rx, value] { log->push_back(Delivery{eng.shard(rx).Now(), value}); },
        order_key);
  };
  // A is scheduled first, so on a shared shard A's burst runs before B.
  eng.ScheduleOn(0 % num_shards, Microseconds(1), [send] {
    for (uint64_t i = 0; i < kBurst; ++i) {
      send(/*order_key=*/1, i);
    }
  });
  eng.ScheduleOn(1 % num_shards, Microseconds(1), [send] { send(/*order_key=*/0, kFromB); });
  eng.RunUntilIdle();
  return *log;
}

TEST(ShardStressTest, BurstLargerThanTheOldRingKeepsMergeOrderAtEveryShardCount) {
  std::vector<Delivery> want = {Delivery{Microseconds(2), kFromB}};
  for (uint64_t i = 0; i < kBurst; ++i) {
    want.push_back(Delivery{Microseconds(2), i});
  }
  for (uint32_t shards : {1u, 2u, 3u}) {
    for (bool threads : {false, true}) {
      const std::vector<Delivery> got = RunBurstCase(shards, threads);
      ASSERT_EQ(got.size(), want.size()) << "shards=" << shards << " threads=" << threads;
      EXPECT_EQ(got.front(), want.front()) << "shards=" << shards << " threads=" << threads;
      EXPECT_TRUE(got == want) << "shards=" << shards << " threads=" << threads;
    }
  }
}

// Sustained bursts: many windows in a row each carry a burst from two
// competing source shards. Nothing may be lost, and the merge order must stay
// exact — per source FIFO by send sequence, across sources by order key.

struct SustainedResult {
  // (order_key, payload) in delivery order at the destination shard.
  std::vector<std::pair<uint64_t, uint64_t>> deliveries;
  ShardedEngine::Stats stats;
};

SustainedResult RunSustainedBurstCase(bool threads) {
  constexpr TimePs kLa = Nanoseconds(100);
  constexpr uint64_t kRounds = 12;
  constexpr uint64_t kPerRound = 24;
  ShardedEngine eng(
      ShardedEngine::Config{.num_shards = 3, .lookahead = kLa, .use_threads = threads});
  auto seen = std::make_shared<std::vector<std::pair<uint64_t, uint64_t>>>();
  // Shards 0 and 1 each fire a burst at shard 2 every microsecond; both
  // bursts in one round target the SAME delivery timestamp, so ordering
  // must come from (order_key, then send sequence) alone.
  for (uint64_t round = 0; round < kRounds; ++round) {
    const TimePs fire = Microseconds(static_cast<double>(1 + round));
    for (uint32_t src = 0; src < 2; ++src) {
      eng.ScheduleOn(src, fire, [&eng, seen, round, src] {
        const TimePs t = eng.shard(src).Now() + Nanoseconds(100);
        for (uint64_t i = 0; i < kPerRound; ++i) {
          const uint64_t payload = round * kPerRound + i;
          eng.Post(2, t, [seen, src, payload] { seen->push_back({src, payload}); },
                   /*order_key=*/src);
        }
      });
    }
  }
  eng.RunUntilIdle();
  return SustainedResult{*seen, eng.stats()};
}

TEST(ShardStressTest, SustainedCrossShardBurstsArriveInOrderWithoutLoss) {
  const SustainedResult seq = RunSustainedBurstCase(false);
  ASSERT_EQ(seq.deliveries.size(), 12u * 24u * 2u);  // zero event loss

  // Within each round both senders posted for one timestamp: all of source
  // 0's messages (order key 0) drain before any of source 1's, and within a
  // source the payloads are in exact send order.
  size_t at = 0;
  for (uint64_t round = 0; round < 12; ++round) {
    for (uint64_t src = 0; src < 2; ++src) {
      for (uint64_t i = 0; i < 24; ++i, ++at) {
        EXPECT_EQ(seq.deliveries[at].first, src) << "round " << round << " slot " << i;
        EXPECT_EQ(seq.deliveries[at].second, round * 24 + i)
            << "round " << round << " slot " << i;
      }
    }
  }
  EXPECT_EQ(seq.stats.cross_shard_messages, 12u * 24u * 2u);

  const SustainedResult thr = RunSustainedBurstCase(true);
  EXPECT_EQ(thr.deliveries, seq.deliveries);
  EXPECT_EQ(thr.stats.cross_shard_messages, seq.stats.cross_shard_messages);
}

// --- Idle shard woken across the horizon -------------------------------------

TEST(ShardStressTest, IdleShardIsWokenAcrossTheHorizon) {
  for (bool threads : {false, true}) {
    ShardedEngine eng(ShardedEngine::Config{
        .num_shards = 2, .lookahead = Nanoseconds(200), .use_threads = threads});
    auto fired = std::make_shared<std::vector<Delivery>>();
    // Shard 1 has NO events of its own; the only thing that can ever make it
    // run is a cross-shard delivery.
    eng.ScheduleOn(0, Microseconds(3), [&eng, fired] {
      eng.Post(1, Microseconds(50), [&eng, fired] {
        fired->push_back(Delivery{eng.shard(1).Now(), 7});
      });
    });
    eng.RunUntilIdle();
    ASSERT_EQ(fired->size(), 1u) << "threads=" << threads;
    EXPECT_EQ(fired->front(), (Delivery{Microseconds(50), 7}));
    EXPECT_EQ(eng.shard(1).Now(), Microseconds(50));
  }
}

// --- More shards than work ---------------------------------------------------
// A 3-node token ring on an 8-shard engine: five shards never receive a
// single event. The run must match the 1-shard execution of the same ring.

struct RingResult {
  std::vector<Delivery> token_log;  // (arrival time, hop) at every node
  uint64_t events = 0;
};

RingResult RunRing(uint32_t num_shards, bool threads) {
  constexpr uint32_t kNodes = 3;
  constexpr uint64_t kHops = 30;
  constexpr TimePs kHop = Nanoseconds(700);
  ShardedEngine eng(ShardedEngine::Config{
      .num_shards = num_shards, .lookahead = Nanoseconds(700), .use_threads = threads});
  auto log = std::make_shared<std::vector<Delivery>>();

  // The token's journey is a chain of posts; node n lives on shard
  // n % num_shards (round-robin placement over a wider engine).
  struct Hop {
    ShardedEngine* eng;
    std::shared_ptr<std::vector<Delivery>> log;
    uint32_t num_shards;
    void operator()(uint32_t node, uint64_t hop) const {
      log->push_back(Delivery{eng->shard(node % num_shards).Now(), hop});
      if (hop + 1 > kHops) {
        return;
      }
      const uint32_t next = (node + 1) % kNodes;
      auto self = *this;
      eng->Post(
          next % num_shards, eng->shard(node % num_shards).Now() + kHop,
          [self, next, hop] { self(next, hop + 1); }, /*order_key=*/node);
    }
  };
  Hop hop{&eng, log, num_shards};
  eng.ScheduleOn(0, Nanoseconds(50), [hop] { hop(0, 1); });
  const uint64_t events = eng.RunUntilIdle();
  return RingResult{*log, events};
}

TEST(ShardStressTest, MoreShardsThanNodesMatchesSingleShard) {
  const RingResult ref = RunRing(1, false);
  ASSERT_EQ(ref.token_log.size(), 30u);
  for (uint32_t shards : {2u, 8u}) {
    for (bool threads : {false, true}) {
      const RingResult got = RunRing(shards, threads);
      EXPECT_EQ(got.token_log, ref.token_log) << "shards=" << shards << " threads=" << threads;
      EXPECT_EQ(got.events, ref.events);
    }
  }
}

// --- Merge order at equal timestamps -----------------------------------------
// Four shards all target shard 0 with the SAME delivery timestamp. The spec
// says ascending (time, order_key, src shard, seq): order keys dominate, src
// shard breaks key ties, seq breaks same-sender ties — independent of which
// worker finished first.

TEST(ShardStressTest, EqualTimestampMergeFollowsSpecifiedOrder) {
  for (bool threads : {false, true}) {
    ShardedEngine eng(ShardedEngine::Config{
        .num_shards = 4, .lookahead = Nanoseconds(100), .use_threads = threads});
    auto arrivals = std::make_shared<std::vector<uint64_t>>();
    constexpr TimePs kT = Microseconds(2);
    for (uint32_t s = 0; s < 4; ++s) {
      eng.ScheduleOn(s, Microseconds(1), [&eng, arrivals, s] {
        // Reversed order keys: shard 3 sends key 0, shard 0 sends key 3 —
        // so arrival order must be by KEY (3, 2, 1, 0), not by source.
        const uint32_t key = 3 - s;
        eng.Post(
            0, kT, [arrivals, s] { arrivals->push_back(100 + s); }, key);
        // A second message with a SHARED key (9): ties must resolve by src
        // shard id, then the sender's own two posts by sequence number.
        eng.Post(
            0, kT, [arrivals, s] { arrivals->push_back(200 + s); }, 9);
        eng.Post(
            0, kT, [arrivals, s] { arrivals->push_back(300 + s); }, 9);
      });
    }
    eng.RunUntilIdle();
    const std::vector<uint64_t> want = {
        103, 102, 101, 100,                     // keys 0,1,2,3 = senders 3,2,1,0
        200, 300, 201, 301, 202, 302, 203, 303  // key 9: src asc, then seq asc
    };
    EXPECT_EQ(*arrivals, want) << "threads=" << threads;
  }
}

// --- Deadline chunking -------------------------------------------------------
// RunUntil must compose: driving the same program in arbitrary deadline
// chunks has to land on the identical final state as one RunUntilIdle.

TEST(ShardStressTest, DeadlineChunkingMatchesSingleRun) {
  // Observables are per-shard logs: the two bounce chains run symmetric
  // schedules, so equal-timestamp events on DIFFERENT shards execute
  // concurrently and have no defined mutual order (appending them to one
  // shared vector would be both racy and meaningless).
  using ShardLogs = std::array<std::vector<Delivery>, 2>;
  auto build = [](ShardedEngine& eng, std::shared_ptr<ShardLogs> logs) {
    for (uint32_t s = 0; s < 2; ++s) {
      eng.ScheduleOn(s, Nanoseconds(100), [&eng, logs, s] {
        struct Bounce {
          ShardedEngine* eng;
          std::shared_ptr<ShardLogs> logs;
          uint32_t shard;
          void operator()(uint64_t n) const {
            (*logs)[shard].push_back(Delivery{eng->shard(shard).Now(), (shard << 8) | n});
            if (n < 40) {
              auto self = *this;
              eng->Post(
                  1 - shard, eng->shard(shard).Now() + Nanoseconds(300),
                  [self, n] { Bounce{self.eng, self.logs, 1 - self.shard}(n + 1); },
                  /*order_key=*/shard);
            }
          }
        };
        Bounce{&eng, logs, s}(0);
      });
    }
  };

  const ShardedEngine::Config config{
      .num_shards = 2, .lookahead = Nanoseconds(300), .use_threads = true};
  ShardedEngine whole(config);
  auto whole_logs = std::make_shared<ShardLogs>();
  build(whole, whole_logs);
  const uint64_t whole_events = whole.RunUntilIdle();

  ShardedEngine chunked(config);
  auto chunked_logs = std::make_shared<ShardLogs>();
  build(chunked, chunked_logs);
  uint64_t chunked_events = 0;
  for (TimePs deadline = Nanoseconds(777); !chunked.Idle(); deadline += Nanoseconds(777)) {
    chunked_events += chunked.RunUntil(deadline);
  }
  EXPECT_FALSE((*whole_logs)[0].empty());
  EXPECT_EQ(*chunked_logs, *whole_logs);
  EXPECT_EQ(chunked_events, whole_events);
}

// --- Contract violations abort -----------------------------------------------

TEST(ShardStressDeathTest, ZeroLookaheadAbortsAtAnyShardCount) {
  for (uint32_t shards : {1u, 4u}) {
    EXPECT_DEATH(ShardedEngine eng(ShardedEngine::Config{
                     .num_shards = shards, .lookahead = 0, .use_threads = false}),
                 "lookahead")
        << "shards=" << shards;
  }
}

TEST(ShardStressDeathTest, PostOutsideShardContextAborts) {
  EXPECT_DEATH(
      {
        ShardedEngine eng(ShardedEngine::Config{
            .num_shards = 2, .lookahead = Nanoseconds(100), .use_threads = false});
        eng.Post(1, Microseconds(1), [] {});
      },
      "outside a shard");
}

}  // namespace
}  // namespace sim
}  // namespace coyote

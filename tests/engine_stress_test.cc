// Ordering stress tests for the event engine.
//
// The engine contract is exact: events fire in timestamp order, and events
// with equal timestamps fire in insertion order. These tests mix equal
// timestamps, near and far schedule-ahead, events scheduled from inside a
// firing event, RunUntil deadlines and long self-rescheduling runs, and check
// the execution sequence against a stable-sort reference model. Any engine
// change that reorders even two events fails loudly here, long before it
// would show up as a chaos fingerprint mismatch.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/sim/engine.h"
#include "src/sim/rng.h"
#include "src/sim/time.h"

namespace coyote {
namespace sim {
namespace {

// Spacing and span of the adversarial schedules below, in ps. Any values
// work; these keep every schedule the same as it has always been.
constexpr TimePs kStepPs = 1024;
constexpr TimePs kSpanPs = 4096 * kStepPs;

// Schedules every (time, id) pair in order, runs to idle, and checks the
// fired sequence equals the stable sort of the schedule by time.
void CheckAgainstReferenceModel(const std::vector<TimePs>& schedule) {
  Engine engine;
  std::vector<std::pair<TimePs, size_t>> fired;
  fired.reserve(schedule.size());
  for (size_t i = 0; i < schedule.size(); ++i) {
    const TimePs t = schedule[i];
    engine.ScheduleAt(t, [&fired, &engine, i] { fired.emplace_back(engine.Now(), i); });
  }
  engine.RunUntilIdle();

  std::vector<std::pair<TimePs, size_t>> expected;
  expected.reserve(schedule.size());
  for (size_t i = 0; i < schedule.size(); ++i) {
    expected.emplace_back(schedule[i], i);
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });

  ASSERT_EQ(fired.size(), expected.size());
  for (size_t i = 0; i < fired.size(); ++i) {
    EXPECT_EQ(fired[i].second, expected[i].second) << "position " << i;
    EXPECT_EQ(fired[i].first, expected[i].first) << "position " << i;
  }
}

TEST(EngineStressTest, EqualTimestampsFireInInsertionOrderAcrossWaves) {
  // Each of 96 timestamps, three per kStepPs, is scheduled once in each of
  // eight waves, so every timestamp has eight events inserted far apart and
  // interleaved with its neighbours. Each timestamp's events must fire in
  // wave order, and the timestamps in ascending order.
  std::vector<TimePs> schedule;
  for (int wave = 0; wave < 8; ++wave) {
    for (uint32_t b = 0; b < 32; ++b) {
      schedule.push_back(static_cast<TimePs>(b) * kStepPs);
      schedule.push_back(static_cast<TimePs>(b) * kStepPs + 1);
      schedule.push_back(static_cast<TimePs>(b + 1) * kStepPs - 1);
    }
  }
  CheckAgainstReferenceModel(schedule);
}

TEST(EngineStressTest, RandomNearAndFarScheduleFiresInTimestampOrder) {
  // 4000 random timestamps: dense ties within one kStepPs, a spread over
  // kSpanPs, a tight cluster around kSpanPs, and a sparse spread over
  // 8 * kSpanPs, all inserted out of order. They must fire sorted by time,
  // ties in insertion order.
  Rng rng(42);
  std::vector<TimePs> schedule;
  for (int i = 0; i < 4000; ++i) {
    switch (rng.NextBounded(4)) {
      case 0:  // dense ties
        schedule.push_back(rng.NextBounded(kStepPs));
        break;
      case 1:  // spread over the span
        schedule.push_back(rng.NextBounded(kSpanPs));
        break;
      case 2:  // clustered around the span
        schedule.push_back(kSpanPs - 8 + rng.NextBounded(16));
        break;
      default:  // sparse and far out
        schedule.push_back(rng.NextBounded(8 * kSpanPs));
        break;
    }
  }
  CheckAgainstReferenceModel(schedule);
}

TEST(EngineStressTest, PastEventsClampAndKeepInsertionOrder) {
  Engine engine;
  std::vector<int> fired;
  engine.ScheduleAt(Microseconds(10), [&] {
    // Now() == 10us. Everything below is in the past or at now and must fire
    // at exactly 10us, in insertion order, after this callback returns.
    engine.ScheduleAt(0, [&] {
      fired.push_back(1);
      EXPECT_EQ(engine.Now(), Microseconds(10));
    });
    engine.ScheduleAt(Microseconds(5), [&] { fired.push_back(2); });
    engine.ScheduleAt(engine.Now(), [&] { fired.push_back(3); });
    engine.ScheduleAfter(0, [&] { fired.push_back(4); });
  });
  engine.RunUntilIdle();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3, 4}));
}

TEST(EngineStressTest, RunUntilStopsAtTheDeadlineAndResumesInOrder) {
  // Eight events 100 ps apart; the RunUntil deadline lands between the
  // fourth and the fifth. The run must stop after the fourth, move Now() to
  // the deadline, and a later run must fire the other four in order.
  Engine engine;
  const TimePs base = 7 * kStepPs;
  std::vector<int> fired;
  for (int i = 0; i < 8; ++i) {
    engine.ScheduleAt(base + static_cast<TimePs>(i) * 100, [&fired, i] { fired.push_back(i); });
  }
  engine.RunUntil(base + 350);  // events 0..3 are due; 4..7 are not
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(engine.Now(), base + 350);
  EXPECT_EQ(engine.pending_events(), 4u);
  engine.RunUntilIdle();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(EngineStressTest, LateArrivalsIntoTheOpenWindowInterleaveCorrectly) {
  // A firing event schedules two events between events that are already
  // pending, the later one first. They must interleave with the pending ones
  // in timestamp order.
  Engine engine;
  const TimePs base = 3 * kStepPs;
  std::vector<int> fired;
  engine.ScheduleAt(base + 100, [&] {
    fired.push_back(0);
    engine.ScheduleAt(base + 250, [&] { fired.push_back(25); });
    engine.ScheduleAt(base + 150, [&] { fired.push_back(15); });
  });
  engine.ScheduleAt(base + 200, [&] { fired.push_back(20); });
  engine.ScheduleAt(base + 300, [&] { fired.push_back(30); });
  engine.RunUntilIdle();
  EXPECT_EQ(fired, (std::vector<int>{0, 15, 20, 25, 30}));
}

TEST(EngineStressTest, SelfReschedulingActorsKeepExactPeriods) {
  // Four actors with co-prime periods, from 97 ns to just over kSpanPs,
  // reschedule themselves until 40 * kSpanPs. Every fire must land exactly
  // one period after the actor's previous one, and each actor must fire
  // exactly end / period times.
  Engine engine;
  struct ActorState {
    TimePs period;
    uint64_t fires = 0;
    TimePs last = 0;
  };
  std::vector<ActorState> actors;
  actors.push_back({Nanoseconds(97)});
  actors.push_back({Nanoseconds(1009)});
  actors.push_back({Microseconds(3) + 1});
  actors.push_back({kSpanPs + 7});

  const TimePs kEnd = 40 * kSpanPs;
  for (size_t i = 0; i < actors.size(); ++i) {
    struct Tick {
      Engine* engine;
      ActorState* a;
      TimePs end;
      void operator()() {
        if (a->fires > 0) {
          EXPECT_EQ(engine->Now(), a->last + a->period);
        }
        a->last = engine->Now();
        ++a->fires;
        if (engine->Now() + a->period <= end) {
          engine->ScheduleAfter(a->period, *this);
        }
      }
    };
    engine.ScheduleAt(actors[i].period, Tick{&engine, &actors[i], kEnd});
  }
  engine.RunUntilIdle();
  for (const ActorState& a : actors) {
    EXPECT_EQ(a.fires, kEnd / a.period) << "period " << a.period;
  }
  EXPECT_TRUE(engine.Idle());
}

TEST(EngineStressTest, PoolRecyclesSlotsInsteadOfGrowing) {
  // A fixed population of self-rescheduling events must reach a steady pool
  // size: the callback slot freed by the firing event is reused by the next
  // schedule, so the pool stops growing after warmup.
  Engine engine;
  constexpr int kActors = 256;
  uint64_t fires = 0;
  for (int i = 0; i < kActors; ++i) {
    struct Tick {
      Engine* engine;
      uint64_t* fires;
      void operator()() {
        ++*fires;
        if (*fires < 100'000) {
          engine->ScheduleAfter(Nanoseconds(50), *this);
        }
      }
    };
    engine.ScheduleAfter(Nanoseconds(50) + i, Tick{&engine, &fires});
  }
  engine.RunUntilIdle();
  EXPECT_GE(fires, 100'000u);
  // Pool capacity is bounded by the peak pending population, not the number
  // of events executed.
  EXPECT_LE(engine.event_pool_size(), 2 * kActors);
  EXPECT_EQ(engine.event_free_list_size(), engine.event_pool_size());
}

}  // namespace
}  // namespace sim
}  // namespace coyote

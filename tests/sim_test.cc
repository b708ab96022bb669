// Unit tests for the discrete-event engine, clocks, bandwidth-shared links,
// the FNV-1a / CRC-32 hashes and the stats helpers (CounterSet events).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <string_view>
#include <vector>

#include "src/sim/clock.h"
#include "src/sim/engine.h"
#include "src/sim/hash.h"
#include "src/sim/link.h"
#include "src/sim/rng.h"
#include "src/sim/stats.h"
#include "src/sim/time.h"
#include "src/sim/wire.h"

// Counts heap allocations so CounterSet's no-allocation claim is measured.
// Replacing global operator new/delete is the one portable way to observe the
// allocator; the test binary owns the whole process.
namespace {
std::atomic<uint64_t> g_allocs{0};
}  // namespace

__attribute__((noinline)) void* operator new(std::size_t size) {  // lint: raw-alloc-ok
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) {
    std::abort();
  }
  return p;
}
__attribute__((noinline)) void operator delete(void* p) noexcept {  // lint: raw-alloc-ok
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {  // lint: raw-alloc-ok
  std::free(p);
}

namespace coyote {
namespace sim {
namespace {

TEST(TimeTest, UnitConversions) {
  EXPECT_EQ(Nanoseconds(1), 1000u);
  EXPECT_EQ(Microseconds(1), 1'000'000u);
  EXPECT_EQ(Milliseconds(1), 1'000'000'000u);
  EXPECT_EQ(Seconds(1), 1'000'000'000'000u);
  EXPECT_DOUBLE_EQ(ToMilliseconds(Milliseconds(57)), 57.0);
}

TEST(TimeTest, TransferTimeExact) {
  // 12 GB/s moving 12 GB takes exactly one second.
  EXPECT_EQ(TransferTime(12'000'000'000ull, 12'000'000'000ull), kPsPerSec);
  // 4 KB at 800 MB/s = 5.12 us.
  EXPECT_EQ(TransferTime(4096, 800'000'000ull), Microseconds(5.12));
}

TEST(TimeTest, TransferTimeRoundsUpAndHandlesZero) {
  EXPECT_EQ(TransferTime(0, 1000), 0u);
  EXPECT_EQ(TransferTime(1000, 0), 0u);
  // 1 byte at 3 bytes/s: 1/3 s rounds up.
  EXPECT_EQ(TransferTime(1, 3), (kPsPerSec + 2) / 3);
}

TEST(TimeTest, BandwidthHelpers) {
  EXPECT_DOUBLE_EQ(BandwidthGBps(12'000'000'000ull, Seconds(1)), 12.0);
  EXPECT_DOUBLE_EQ(BandwidthMBps(800'000'000ull, Seconds(1)), 800.0);
  EXPECT_DOUBLE_EQ(BandwidthBytesPerSec(100, 0), 0.0);
}

TEST(ClockTest, StandardDomains) {
  EXPECT_EQ(kSystemClock.PeriodPs(), 4000u);
  EXPECT_EQ(kIcapClock.PeriodPs(), 5000u);
  EXPECT_EQ(kSystemClock.CyclesToPs(250'000'000), kPsPerSec);
  EXPECT_EQ(kSystemClock.PsToCycles(Microseconds(1)), 250u);
  // 512-bit bus at 250 MHz = 16 GB/s.
  EXPECT_EQ(kSystemClock.BusBandwidthBps(64), 16'000'000'000ull);
}

TEST(EngineTest, ExecutesInTimestampOrder) {
  Engine e;
  std::vector<int> order;
  e.ScheduleAt(300, [&] { order.push_back(3); });
  e.ScheduleAt(100, [&] { order.push_back(1); });
  e.ScheduleAt(200, [&] { order.push_back(2); });
  EXPECT_EQ(e.RunUntilIdle(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.Now(), 300u);
}

TEST(EngineTest, FifoTieBreakAtEqualTimestamps) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    e.ScheduleAt(42, [&order, i] { order.push_back(i); });
  }
  e.RunUntilIdle();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(EngineTest, EventsCanScheduleEvents) {
  Engine e;
  int fired = 0;
  std::function<void()> chain = [&]() {
    ++fired;
    if (fired < 5) {
      e.ScheduleAfter(10, chain);
    }
  };
  e.ScheduleAfter(10, chain);
  e.RunUntilIdle();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(e.Now(), 50u);
}

TEST(EngineTest, PastEventsClampToNow) {
  Engine e;
  e.ScheduleAt(100, [] {});
  e.RunUntilIdle();
  bool ran = false;
  e.ScheduleAt(50, [&] { ran = true; });  // in the past
  e.RunUntilIdle();
  EXPECT_TRUE(ran);
  EXPECT_EQ(e.Now(), 100u);
}

TEST(EngineTest, RunUntilAdvancesTimeEvenWhenIdle) {
  Engine e;
  EXPECT_EQ(e.RunUntil(5000), 0u);
  EXPECT_EQ(e.Now(), 5000u);
}

TEST(EngineTest, RunUntilStopsAtDeadline) {
  Engine e;
  int fired = 0;
  e.ScheduleAt(10, [&] { ++fired; });
  e.ScheduleAt(20, [&] { ++fired; });
  e.ScheduleAt(30, [&] { ++fired; });
  e.RunUntil(20);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(e.pending_events(), 1u);
}

TEST(EngineTest, RunUntilCondition) {
  Engine e;
  int fired = 0;
  for (int i = 1; i <= 10; ++i) {
    e.ScheduleAt(static_cast<TimePs>(i) * 10, [&] { ++fired; });
  }
  EXPECT_TRUE(e.RunUntilCondition([&] { return fired == 4; }));
  EXPECT_EQ(fired, 4);
  // Condition that never becomes true: drains the queue, returns false.
  EXPECT_FALSE(e.RunUntilCondition([&] { return fired == 100; }));
  EXPECT_EQ(fired, 10);
}

// --- Cancellation ---------------------------------------------------------

TEST(EngineTest, CancelledEventPopsAsANoOpAtItsTime) {
  Engine e;
  int fired = 0;
  const Engine::EventId id = e.ScheduleAt(500, [&] { ++fired; });
  e.ScheduleAt(100, [&] { ++fired; });
  EXPECT_TRUE(e.Cancel(id));
  EXPECT_EQ(e.pending_events(), 2u);  // the cancelled entry stays queued
  // Both entries pop: the clock and the event count read as if the
  // cancelled event had run, but its callback never does.
  EXPECT_EQ(e.RunUntilIdle(), 2u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(e.events_executed(), 2u);
  EXPECT_EQ(e.Now(), 500u);
}

TEST(EngineTest, CancelRefusesNoEventASecondCancelAndAFiredEvent) {
  Engine e;
  EXPECT_FALSE(e.Cancel(Engine::kNoEvent));
  const Engine::EventId cancelled = e.ScheduleAt(10, [] {});
  EXPECT_TRUE(e.Cancel(cancelled));
  EXPECT_FALSE(e.Cancel(cancelled));
  const Engine::EventId fired = e.ScheduleAt(20, [] {});
  e.RunUntilIdle();
  EXPECT_FALSE(e.Cancel(fired));
  EXPECT_FALSE(e.Cancel(cancelled));
}

TEST(EngineTest, StaleIdNeverCancelsTheEventReusingItsSlot) {
  Engine e;
  const Engine::EventId first = e.ScheduleAt(10, [] {});
  e.RunUntilIdle();
  // The free list is LIFO, so the next event takes the slot just vacated.
  bool ran = false;
  const Engine::EventId second = e.ScheduleAt(20, [&] { ran = true; });
  EXPECT_NE(second, first);
  EXPECT_FALSE(e.Cancel(first));
  e.RunUntilIdle();
  EXPECT_TRUE(ran);
  // The same holds for a slot freed by a cancelled event's no-op pop.
  const Engine::EventId third = e.ScheduleAt(30, [] {});
  EXPECT_TRUE(e.Cancel(third));
  e.RunUntilIdle();
  ran = false;
  e.ScheduleAt(40, [&] { ran = true; });
  EXPECT_FALSE(e.Cancel(third));
  e.RunUntilIdle();
  EXPECT_TRUE(ran);
  EXPECT_EQ(e.event_pool_size(), 1u);
}

TEST(EngineTest, CancelOfTheRunningEventFromItsOwnCallbackReturnsFalse) {
  Engine e;
  Engine::EventId self = Engine::kNoEvent;
  bool cancelled = true;
  self = e.ScheduleAt(10, [&] { cancelled = e.Cancel(self); });
  e.RunUntilIdle();
  EXPECT_FALSE(cancelled);
  EXPECT_EQ(e.events_executed(), 1u);
}

// Only host code runs an engine. Guard-armed builds abort a run entered from
// inside one of the engine's own events; a run of another engine is fine.
TEST(EngineDeathTest, RunInsideItsOwnEventAborts) {
#ifdef COYOTE_ACCESS_GUARDS
  Engine other;
  other.ScheduleAt(5, [] {});
  Engine e;
  e.ScheduleAt(10, [&other] { other.RunUntilIdle(); });
  e.RunUntilIdle();
  EXPECT_EQ(other.Now(), 5u);
  e.ScheduleAt(20, [&e] { e.RunUntilIdle(); });
  EXPECT_DEATH(e.RunUntilIdle(), "nested run");
#else
  GTEST_SKIP() << "the nested-run check is armed in COYOTE_ACCESS_GUARDS builds only";
#endif
}

TEST(EngineTest, SelfReschedulingTimerStopsWhenItsNextTickIsCancelled) {
  // A periodic timer re-arms as the first statement of its callback and
  // keeps the id of its next tick; cancelling that id stops the chain.
  Engine e;
  int fired = 0;
  Engine::EventId next = Engine::kNoEvent;
  std::function<void()> tick = [&] {
    next = e.ScheduleAfter(10, tick);
    if (++fired == 3) {
      EXPECT_TRUE(e.Cancel(next));
    }
  };
  next = e.ScheduleAfter(10, tick);
  // Three ticks at 10, 20 and 30; the fourth, armed before the third
  // cancelled it, drains as one no-op at 40.
  EXPECT_EQ(e.RunUntilIdle(), 4u);
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(e.Now(), 40u);
  EXPECT_FALSE(e.Cancel(next));
}

TEST(LinkTest, SinglePacketLatency) {
  Engine e;
  Link link(&e, {.bytes_per_second = 1'000'000'000, .per_packet_overhead = 0});
  TimePs done_at = 0;
  link.Submit(0, 1'000'000, [&] { done_at = e.Now(); });
  e.RunUntilIdle();
  EXPECT_EQ(done_at, Milliseconds(1));
  EXPECT_EQ(link.total_bytes(), 1'000'000u);
}

TEST(LinkTest, PerPacketOverheadCharged) {
  Engine e;
  Link link(&e, {.bytes_per_second = 1'000'000'000, .per_packet_overhead = Nanoseconds(500)});
  TimePs done_at = 0;
  link.Submit(0, 1000, [&] { done_at = e.Now(); });
  e.RunUntilIdle();
  EXPECT_EQ(done_at, Nanoseconds(1000) + Nanoseconds(500));
}

TEST(LinkTest, SerializesPacketsFifoPerSource) {
  Engine e;
  Link link(&e, {.bytes_per_second = 1'000'000, .per_packet_overhead = 0});
  std::vector<TimePs> completions;
  for (int i = 0; i < 3; ++i) {
    link.Submit(7, 1'000, [&] { completions.push_back(e.Now()); });
  }
  e.RunUntilIdle();
  ASSERT_EQ(completions.size(), 3u);
  EXPECT_EQ(completions[0], Milliseconds(1));
  EXPECT_EQ(completions[1], Milliseconds(2));
  EXPECT_EQ(completions[2], Milliseconds(3));
}

TEST(LinkTest, RoundRobinFairSharing) {
  // Two sources each offering unlimited load: bytes served must stay equal.
  Engine e;
  Link link(&e, {.bytes_per_second = 1'000'000'000, .per_packet_overhead = 0});
  constexpr int kPackets = 100;
  for (int i = 0; i < kPackets; ++i) {
    link.Submit(0, 4096, nullptr);
    link.Submit(1, 4096, nullptr);
  }
  e.RunUntilIdle();
  EXPECT_EQ(link.bytes_for_source(0), link.bytes_for_source(1));
  EXPECT_EQ(link.total_packets(), 2u * kPackets);
}

TEST(LinkTest, FairSharingAcrossManySourcesWithinTolerance) {
  Engine e;
  Link link(&e, {.bytes_per_second = 12'000'000'000ull, .per_packet_overhead = 0});
  constexpr int kSources = 8;
  constexpr int kPackets = 64;
  for (int p = 0; p < kPackets; ++p) {
    for (int s = 0; s < kSources; ++s) {
      link.Submit(static_cast<uint32_t>(s), 4096, nullptr);
    }
  }
  e.RunUntilIdle();
  for (int s = 0; s < kSources; ++s) {
    EXPECT_EQ(link.bytes_for_source(static_cast<uint32_t>(s)), 4096u * kPackets);
  }
  // Total service time equals total bytes / bandwidth (work conserving),
  // up to the <=1 ps/packet round-up each packet's duration carries.
  const TimePs ideal = TransferTime(4096ull * kSources * kPackets, 12'000'000'000ull);
  EXPECT_GE(e.Now(), ideal);
  EXPECT_LE(e.Now(), ideal + kSources * kPackets);
}

TEST(LinkTest, LateJoinerGetsFairShareGoingForward) {
  Engine e;
  Link link(&e, {.bytes_per_second = 1'000'000'000, .per_packet_overhead = 0});
  // Source 0 queues a long backlog; source 1 joins with one packet. The
  // round-robin arbiter must serve source 1 after at most one more packet of
  // source 0.
  std::vector<TimePs> s1_done;
  for (int i = 0; i < 10; ++i) {
    link.Submit(0, 1000, nullptr);
  }
  e.RunUntil(500);  // partway through packet 0
  link.Submit(1, 1000, [&] { s1_done.push_back(e.Now()); });
  e.RunUntilIdle();
  ASSERT_EQ(s1_done.size(), 1u);
  // Packet 0 finishes at 1 us; then RR order serves source 1 next.
  EXPECT_LE(s1_done[0], Microseconds(3));
}

TEST(LinkTest, DeliveryLatencyAddsLatencyNotOccupancy) {
  // Pipelined delivery: completions shift by the latency, but back-to-back
  // packets still stream at full bandwidth (the link frees at wire time).
  Engine e;
  Link link(&e, {.bytes_per_second = 1'000'000'000, .per_packet_overhead = 0,
                 .delivery_latency = Microseconds(5)});
  std::vector<TimePs> completions;
  for (int i = 0; i < 3; ++i) {
    link.Submit(0, 1'000'000, [&] { completions.push_back(e.Now()); });  // 1 ms wire time
  }
  e.RunUntilIdle();
  ASSERT_EQ(completions.size(), 3u);
  EXPECT_EQ(completions[0], Milliseconds(1) + Microseconds(5));
  // Next completions 1 ms apart (bandwidth-spaced), not 1 ms + 5 us.
  EXPECT_EQ(completions[1] - completions[0], Milliseconds(1));
  EXPECT_EQ(completions[2] - completions[1], Milliseconds(1));
}

TEST(EngineTest, LargeEventCountStableAndOrdered) {
  Engine e;
  uint64_t last = 0;
  uint64_t fired = 0;
  // 100k events inserted in a scrambled order must fire monotonically.
  Rng rng(42);
  for (int i = 0; i < 100'000; ++i) {
    const TimePs t = rng.NextBounded(1'000'000);
    e.ScheduleAt(t, [&, t] {
      EXPECT_GE(t, last);
      last = t;
      ++fired;
    });
  }
  e.RunUntilIdle();
  EXPECT_EQ(fired, 100'000u);
}

TEST(LinkTest, ObservedBandwidthMatchesConfig) {
  Engine e;
  Link link(&e, {.bytes_per_second = 800'000'000, .per_packet_overhead = 0});
  bool done = false;
  link.Submit(0, 40'000'000, [&] { done = true; });
  e.RunUntilIdle();
  EXPECT_TRUE(done);
  EXPECT_NEAR(link.ObservedBandwidthBps(), 800e6, 1e3);
}

TEST(HashTest, MatchesPublishedVectors) {
  // FNV-1a-64 and CRC-32 (IEEE 802.3) reference values; zlib.crc32 agrees.
  const auto fnv = [](const char* s) { return FnvHash(s, std::strlen(s)); };
  EXPECT_EQ(fnv(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv("foobar"), 0x85944171f73967e8ull);
  const char* check = "123456789";
  EXPECT_EQ(Crc32(reinterpret_cast<const uint8_t*>(check), std::strlen(check)), 0xcbf43926u);
}

// Table-free CRC-32 (reflected, polynomial 0xEDB88320), one bit at a time:
// the oracle for sim::Crc32 however that is computed.
uint32_t BitwiseCrc32(const uint8_t* p, size_t n) {
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    crc ^= p[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
    }
  }
  return ~crc;
}

TEST(HashTest, Crc32MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  std::vector<uint8_t> buf(16 << 10);
  Rng rng(2025);
  rng.FillBytes(buf.data(), buf.size());
  // Every length 0-64 from every start offset 0-7: a word-at-a-time CRC
  // meets each split between its word steps and its byte tail.
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 64; ++len) {
      EXPECT_EQ(Crc32(buf.data() + offset, len), BitwiseCrc32(buf.data() + offset, len))
          << "offset " << offset << " len " << len;
    }
  }
  // One CYK1-checkpoint-sized buffer.
  EXPECT_EQ(Crc32(buf.data(), buf.size()), BitwiseCrc32(buf.data(), buf.size()));
}

TEST(WireTest, ReaderFailureSticksAndAtEndRejectsTrailingBytes) {
  wire::Writer w;
  w.U16(0xBEEF);
  w.Str("ab");
  const std::vector<uint8_t>& bytes = w.bytes();
  wire::Reader r(bytes.data(), bytes.size());
  EXPECT_EQ(r.U16(), 0xBEEFu);
  EXPECT_FALSE(r.AtEnd());  // the string is still unread
  EXPECT_EQ(r.U64(), 0u);   // six bytes left: a short read fails the reader
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_EQ(r.Str(), "");  // and the bytes it left are never handed out
  EXPECT_FALSE(r.AtEnd());

  // A length prefix that runs past the end fails the same way.
  const std::vector<uint8_t> overlong = {0x05, 0x00, 0x00, 0x00, 'a', 'b'};
  wire::Reader s(overlong.data(), overlong.size());
  EXPECT_EQ(s.Bytes(), std::vector<uint8_t>());
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.U8(), 0u);
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, BoundedIsInRange) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(r.NextBounded(17), 17u);
  }
  EXPECT_EQ(r.NextBounded(0), 0u);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng r(9);
  for (int i = 0; i < 10000; ++i) {
    const double d = r.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, FillBytesCoversAllLengths) {
  Rng r(11);
  for (uint64_t len = 0; len <= 33; ++len) {
    std::vector<uint8_t> buf(len + 2, 0xAB);
    r.FillBytes(buf.data(), len);
    // Guard bytes untouched.
    EXPECT_EQ(buf[len], 0xAB);
    EXPECT_EQ(buf[len + 1], 0xAB);
  }
}

TEST(StatsTest, SamplesPercentiles) {
  Samples s;
  for (int i = 1; i <= 100; ++i) {
    s.Add(i);
  }
  EXPECT_DOUBLE_EQ(s.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 100.0);
  EXPECT_NEAR(s.Percentile(50), 50.5, 1e-9);
}

TEST(CounterSetTest, ExistingKeysAreCountedWithoutAllocating) {
  CounterSet c;
  constexpr std::string_view kKey = "sched.submitted.tenant7";  // past any SSO buffer
  c.Increment(kKey);
  const uint64_t before = g_allocs;
  for (int i = 0; i < 100; ++i) {
    c.Increment(kKey);
    c.Increment(kKey, 2);
  }
  const uint64_t seen = c.value(kKey);
  const uint64_t allocs = g_allocs - before;
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(seen, 301u);
}

TEST(CounterSetTest, IncrementOnlyFingerprintIsPinned) {
  // The router, scheduler and tiering sets are only Incremented; their
  // fingerprints (and so every witness folding them) must not move.
  CounterSet c;
  c.Increment("router.done.ok", 3);
  c.Increment("sched.submitted.tenant7");
  c.Increment("sched.submitted.tenant7");
  c.Increment("router.flush.size");
  c.Increment("tier.promotions", 5);
  EXPECT_EQ(c.total(), 11u);
  EXPECT_EQ(c.Fingerprint(), 0x6fa573df8ed20cccull);
}

TEST(CounterSetTest, RecordFoldsOrderFieldsAndTime) {
  EXPECT_EQ(CounterSet().Fingerprint(), 0xcbf29ce484222325ull);
  struct Event {
    std::string_view what;
    uint64_t a;
    uint64_t b;
  };
  auto fp = [](std::initializer_list<Event> events, TimePs t) {
    CounterSet c;
    for (const Event& e : events) {
      c.Record(e.what, {e.a, e.b}, t);
    }
    return c.Fingerprint();
  };
  const uint64_t base = fp({{"suspect", 1, 7}, {"detect", 2, 7}}, 100);
  EXPECT_EQ(base, fp({{"suspect", 1, 7}, {"detect", 2, 7}}, 100));
  EXPECT_NE(base, fp({{"detect", 2, 7}, {"suspect", 1, 7}}, 100));  // swapped events
  EXPECT_NE(base, fp({{"suspect", 1, 7}, {"detect", 3, 7}}, 100));  // first field
  EXPECT_NE(base, fp({{"suspect", 1, 7}, {"detect", 2, 8}}, 100));  // second field
  EXPECT_NE(base, fp({{"suspect", 1, 7}, {"detect", 2, 7}}, 101));  // time

  CounterSet c;
  c.Record("detect", {2, 7}, 100);
  c.Record("detect", {3, 7}, 100);
  EXPECT_EQ(c.value("detect"), 2u);
}

}  // namespace
}  // namespace sim
}  // namespace coyote

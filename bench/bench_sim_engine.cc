// Event-engine fast-path microbenchmark.
//
// Measures the simulator's schedule/fire cycle — the loop every other bench
// sits on top of — and compares sim::Engine (a binary heap of 16-byte keys
// over a pool of inline callbacks) with an embedded copy of the original
// engine (LegacyHeapEngine below: std::priority_queue + std::function
// callbacks, byte-for-byte the old src/sim/engine.{h,cc} hot path). Three
// workloads:
//
//   1. steady-state schedule/fire throughput at several queue depths
//      (self-rescheduling actors, the pattern links and timers produce),
//   2. the same at 4096 pending events with periods from 1 ns to 8 us,
//   3. payload fan-out: one message delivered to N consumers as zero-copy
//      BufferView slices vs. per-consumer std::vector copies.
//
// Heap allocations are counted via a global operator new hook, so the
// "allocation-free steady state" claim is measured, not asserted. Results
// land in BENCH_sim_perf.json. Every value derived from the wall clock is
// written under a key prefixed "wall_"; all other fields are deterministic,
// and CI runs this bench twice and diffs the JSON with wall_ lines stripped.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/axi/buffer.h"
#include "src/runtime/placement.h"
#include "src/sim/engine.h"
#include "src/sim/sharded_engine.h"

// --- Allocation counter ------------------------------------------------------
// Replacing global operator new/delete is the one portable way to observe the
// allocator; the bench binary owns the whole process, so this is safe.
// Atomic because the sharded scaling cases allocate from worker threads.

namespace {
std::atomic<uint64_t> g_allocs{0};
}  // namespace

// noinline keeps the malloc/free pairing opaque to the optimizer: GCC's
// -Wmismatched-new-delete heuristic cannot see that the replacement operator
// new is malloc-backed and would flag the free() at every inlined call site.
__attribute__((noinline)) void* operator new(std::size_t size) {  // lint: raw-alloc-ok
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) {
    std::abort();
  }
  return p;
}
__attribute__((noinline)) void* operator new[](std::size_t size) {  // lint: raw-alloc-ok
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
__attribute__((noinline)) void operator delete[](void* p) noexcept {  // lint: raw-alloc-ok
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {  // lint: raw-alloc-ok
  std::free(p);
}
__attribute__((noinline)) void operator delete[](void* p, std::size_t) noexcept {  // lint: raw-alloc-ok
  std::free(p);
}

namespace coyote {
namespace {

// --- LegacyHeapEngine --------------------------------------------------------
// The pre-optimization engine, kept verbatim so the speedup is measured
// against the real baseline inside one binary (same compiler, same flags).

class LegacyHeapEngine {
 public:
  using Callback = std::function<void()>;

  sim::TimePs Now() const { return now_; }

  void ScheduleAt(sim::TimePs t, Callback cb) {
    if (t < now_) {
      t = now_;
    }
    queue_.push(Event{t, next_seq_++, std::move(cb)});
  }
  void ScheduleAfter(sim::TimePs delay, Callback cb) {
    ScheduleAt(now_ + delay, std::move(cb));
  }

  bool Step() {
    if (queue_.empty()) {
      return false;
    }
    Event ev = std::move(const_cast<Event&>(queue_.top()));
    queue_.pop();
    now_ = ev.time;
    ++events_executed_;
    ev.cb();
    return true;
  }

  uint64_t RunUntilIdle() {
    uint64_t n = 0;
    while (Step()) {
      ++n;
    }
    return n;
  }

  uint64_t events_executed() const { return events_executed_; }

 private:
  struct Event {
    sim::TimePs time;
    uint64_t seq;
    Callback cb;
  };
  struct EventLater {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) {
        return a.time > b.time;
      }
      return a.seq > b.seq;
    }
  };

  sim::TimePs now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t events_executed_ = 0;
  std::priority_queue<Event, std::vector<Event>, EventLater> queue_;
};

// --- Workload 1+2: self-rescheduling actors ----------------------------------
// `depth` concurrent actors each fire and reschedule themselves `period`
// ahead until `budget` total events have run — the steady-state shape the
// link/timer layers generate. The functor is 40 bytes, so it rides inline in
// sim::Engine's callbacks and forces a heap allocation per schedule in the
// legacy engine's std::function — exactly the difference being measured.

template <typename EngineT>
struct Actor {
  EngineT* eng;
  uint64_t* fired;
  uint64_t budget;
  sim::TimePs period;
  uint64_t stagger;

  void operator()() const {
    if (++*fired >= budget) {
      return;
    }
    eng->ScheduleAfter(period + stagger, *this);
  }
};

constexpr sim::TimePs kWarmupPs = 8'388'608;

struct CaseResult {
  const char* name = "";
  const char* engine = "";
  uint64_t events = 0;
  uint64_t allocs = 0;
  uint64_t final_time_ps = 0;
  double wall_seconds = 0.0;
};

template <typename EngineT>
CaseResult RunActors(const char* name, const char* engine_name, uint64_t depth,
                     uint64_t budget, sim::TimePs period) {
  EngineT eng;
  uint64_t fired = 0;
  for (uint64_t i = 0; i < depth; ++i) {
    // Distinct stagger per actor keeps the actors' timestamps apart.
    eng.ScheduleAfter(1 + i, Actor<EngineT>{&eng, &fired, budget, period, i % 7});
  }
  // Warm up outside the timed region: steady state is the claim. The
  // warm-up also runs kWarmupPs of simulated time, so each case measures
  // the same events it always has and its history in bench/expected/ lines
  // up.
  while ((fired < depth * 2 || eng.Now() < kWarmupPs) && fired < budget / 2 && eng.Step()) {
  }
  const uint64_t warmed = fired;
  const uint64_t allocs_before = g_allocs;
  bench::WallTimer timer;
  while (fired < budget && eng.Step()) {
  }
  CaseResult r;
  r.name = name;
  r.engine = engine_name;
  r.events = fired - warmed;
  r.allocs = g_allocs - allocs_before;
  r.final_time_ps = eng.Now();
  r.wall_seconds = timer.Seconds();
  return r;
}

// --- Workload 4: sharded scaling ---------------------------------------------
// The multi-core story: 16384 self-rescheduling nodes placed round-robin
// over N shards, with ~3% of fires posting a cross-shard message timed
// exactly at the lookahead horizon (the worst legal case — zero slack beyond
// the contract). Every field except wall_* is deterministic for a given N;
// CI runs this twice and diffs the JSON modulo wall_ lines. NOTE: the
// speedup-vs-1-shard row only means something on a multi-core runner — this
// bench reports, it does not assert.

struct ShardCaseResult {
  uint32_t shards = 0;
  uint64_t events = 0;
  uint64_t final_time_ps = 0;
  uint64_t cross_shard_messages = 0;
  uint64_t windows = 0;
  double wall_seconds = 0.0;
};

constexpr uint32_t kShardNodes = 16384;
constexpr uint64_t kFiresPerNode = 128;
constexpr sim::TimePs kShardPeriod = sim::Nanoseconds(100);
constexpr sim::TimePs kShardLookahead = sim::Microseconds(1);

// 48 bytes — rides the engine's inline-callback budget exactly.
struct ShardActor {
  sim::ShardedEngine* eng;
  uint32_t shard;
  uint32_t num_shards;
  uint64_t remaining;
  uint64_t fire_index;
  uint64_t stagger;

  void operator()() const {
    if (num_shards > 1 && fire_index % 32 == 0) {
      eng->Post((shard + 1) % num_shards, eng->shard(shard).Now() + kShardLookahead, [] {},
                /*order_key=*/shard);
    }
    if (remaining == 0) {
      return;
    }
    ShardActor next = *this;
    --next.remaining;
    ++next.fire_index;
    eng->shard(shard).ScheduleAfter(kShardPeriod + stagger, next);
  }
};

ShardCaseResult RunShardScaling(uint32_t num_shards) {
  sim::ShardedEngine eng(sim::ShardedEngine::Config{
      .num_shards = num_shards, .lookahead = kShardLookahead, .use_threads = true});
  const std::vector<uint32_t> shard_of =
      runtime::ShardPlacement::RoundRobin(kShardNodes, num_shards);
  for (uint32_t n = 0; n < kShardNodes; ++n) {
    eng.ScheduleOn(shard_of[n], 1 + n % 997,
                   ShardActor{&eng, shard_of[n], num_shards, kFiresPerNode, 1, n % 7});
  }
  bench::WallTimer timer;
  const uint64_t events = eng.RunUntilIdle();
  ShardCaseResult r;
  r.shards = num_shards;
  r.events = events;
  r.wall_seconds = timer.Seconds();
  for (uint32_t s = 0; s < num_shards; ++s) {
    if (eng.shard(s).Now() > r.final_time_ps) {
      r.final_time_ps = eng.shard(s).Now();
    }
  }
  r.cross_shard_messages = eng.stats().cross_shard_messages;
  r.windows = eng.stats().windows;
  return r;
}

// --- Workload 3: payload fan-out ---------------------------------------------
// One 256 KB message delivered to `consumers` destinations in MTU chunks:
// the wire pattern (switch fan-out, go-back-N window, sniffer capture).
// The view path slices; the copy path materializes a vector per delivery.

struct FanoutResult {
  uint64_t deliveries = 0;
  uint64_t bytes_touched = 0;
  uint64_t checksum = 0;
  uint64_t allocs = 0;
  double wall_seconds = 0.0;
};

FanoutResult RunFanoutViews(uint64_t iters, uint64_t consumers, uint64_t mtu) {
  axi::BufferView message;
  message.resize(256 * 1024);
  uint8_t* bytes = message.data();
  for (size_t i = 0; i < message.size(); ++i) {
    bytes[i] = static_cast<uint8_t>(i * 131u);
  }
  FanoutResult r;
  const uint64_t allocs_before = g_allocs;
  bench::WallTimer timer;
  for (uint64_t it = 0; it < iters; ++it) {
    for (uint64_t off = 0; off < message.size(); off += mtu) {
      for (uint64_t c = 0; c < consumers; ++c) {
        const axi::BufferView slice = message.Slice(off, mtu);
        r.checksum += slice[0] + slice[slice.size() - 1];
        r.bytes_touched += slice.size();
        ++r.deliveries;
      }
    }
  }
  r.wall_seconds = timer.Seconds();
  r.allocs = g_allocs - allocs_before;
  return r;
}

FanoutResult RunFanoutCopies(uint64_t iters, uint64_t consumers, uint64_t mtu) {
  std::vector<uint8_t> message(256 * 1024);
  for (size_t i = 0; i < message.size(); ++i) {
    message[i] = static_cast<uint8_t>(i * 131u);
  }
  FanoutResult r;
  const uint64_t allocs_before = g_allocs;
  bench::WallTimer timer;
  for (uint64_t it = 0; it < iters; ++it) {
    for (uint64_t off = 0; off < message.size(); off += mtu) {
      for (uint64_t c = 0; c < consumers; ++c) {
        const std::vector<uint8_t> copy(message.begin() + static_cast<ptrdiff_t>(off),
                                        message.begin() + static_cast<ptrdiff_t>(off + mtu));
        r.checksum += copy[0] + copy[copy.size() - 1];
        r.bytes_touched += copy.size();
        ++r.deliveries;
      }
    }
  }
  r.wall_seconds = timer.Seconds();
  r.allocs = g_allocs - allocs_before;
  return r;
}

}  // namespace
}  // namespace coyote

int main(int argc, char** argv) {
  using namespace coyote;  // NOLINT(build/namespaces)

  // --shards=1,4 runs ONLY the sharded scaling cases (the engine-perf CI job
  // uses this for its run-twice determinism diff); no flag runs everything
  // with the default shard ladder.
  std::vector<uint32_t> shard_counts = {1, 2, 4, 8, 16};
  bool shards_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--shards=", 9) == 0) {
      shards_only = true;
      shard_counts.clear();
      char* p = argv[i] + 9;
      while (*p != '\0') {
        char* end = p;
        const unsigned long v = std::strtoul(p, &end, 10);
        if (end == p) {
          break;
        }
        if (v > 0) {
          shard_counts.push_back(static_cast<uint32_t>(v));
        }
        p = *end == ',' ? end + 1 : end;
      }
    }
  }

  bench::PrintHeader("Event-engine fast path: pooled heap vs. legacy std::function heap",
                     "perf substrate for every bench/ figure (simulator internals)");

  struct CaseSpec {
    const char* name;
    uint64_t depth;
    uint64_t budget;
    sim::TimePs period;
  };
  // The depth is the number of pending events, so each pop sifts through
  // log2(depth) heap levels; the pending-event spread equals the reschedule
  // period. The perfbench workloads hold at most 59 pending events per
  // engine, so the depth-64 case is the one that looks like them; the deeper
  // cases show the cost of a deep queue. The names of the 1 ns and 8 us
  // cases come from an earlier bucketed engine, for which they were the
  // adversarial (every event in one bucket) and the overflow (every event
  // beyond the buckets' span) shapes; they stay so the perf history lines
  // up. To the heap they are two more periods at depth 4096.
  const CaseSpec specs[] = {
      {"depth_64_period_100ns", 64, 2'000'000, sim::Nanoseconds(100)},
      {"depth_1024_period_400ns", 1024, 2'000'000, sim::Nanoseconds(400)},
      {"depth_4096_period_1us", 4096, 2'000'000, sim::Microseconds(1)},
      {"depth_4096_period_4us", 4096, 2'000'000, sim::Microseconds(4)},
      {"depth_65536_period_1us", 65536, 2'000'000, sim::Microseconds(1)},
      {"depth_262144_period_1us", 262144, 4'000'000, sim::Microseconds(1)},
      {"depth_4096_period_1ns_adversarial", 4096, 2'000'000, sim::Nanoseconds(1)},
      {"depth_4096_period_8us_overflow", 4096, 2'000'000, sim::Microseconds(8)},
  };

  std::vector<CaseResult> results;
  FanoutResult views;
  FanoutResult copies;
  if (!shards_only) {
    bench::PrintRule();
    for (const CaseSpec& s : specs) {
      CaseResult pooled =
          RunActors<sim::Engine>(s.name, "pooled_heap", s.depth, s.budget, s.period);
      CaseResult legacy =
          RunActors<LegacyHeapEngine>(s.name, "legacy_heap", s.depth, s.budget, s.period);
      if (pooled.events != legacy.events || pooled.final_time_ps != legacy.final_time_ps) {
        bench::Note("MISMATCH: engines disagree on event count or final time");
        return 1;
      }
      bench::Row("%s:", s.name);
      bench::RowEventsPerSec("pooled heap", pooled.events, pooled.wall_seconds);
      bench::RowEventsPerSec("legacy binary heap", legacy.events, legacy.wall_seconds);
      bench::Row("  %-32s %12llu (pooled)    vs %12llu (legacy)", "steady-state allocs",
                 static_cast<unsigned long long>(pooled.allocs),
                 static_cast<unsigned long long>(legacy.allocs));
      bench::Row("  %-32s %.2fx", "wall speedup",
                 bench::EventsPerSec(pooled.events, pooled.wall_seconds) /
                     bench::EventsPerSec(legacy.events, legacy.wall_seconds));
      results.push_back(pooled);
      results.push_back(legacy);
    }

    bench::PrintRule();
    const uint64_t kFanoutIters = 200;
    const uint64_t kConsumers = 8;
    const uint64_t kMtu = 4096;
    views = RunFanoutViews(kFanoutIters, kConsumers, kMtu);
    copies = RunFanoutCopies(kFanoutIters, kConsumers, kMtu);
    bench::Row("payload fan-out (256 KB message, %llu consumers, %llu B MTU):",
               static_cast<unsigned long long>(kConsumers),
               static_cast<unsigned long long>(kMtu));
    bench::RowEventsPerSec("BufferView slices", views.deliveries, views.wall_seconds);
    bench::RowEventsPerSec("vector copies", copies.deliveries, copies.wall_seconds);
    bench::Row("  %-32s %12llu (views)     vs %12llu (copies)", "allocs",
               static_cast<unsigned long long>(views.allocs),
               static_cast<unsigned long long>(copies.allocs));
    if (views.checksum != copies.checksum || views.deliveries != copies.deliveries) {
      bench::Note("MISMATCH: fan-out paths disagree");
      return 1;
    }
  }

  // Sharded scaling ladder.
  bench::PrintRule();
  bench::Row("sharded PDES scaling (%llu nodes, %llu fires/node, lookahead %llu ns):",
             static_cast<unsigned long long>(kShardNodes),
             static_cast<unsigned long long>(kFiresPerNode),
             static_cast<unsigned long long>(kShardLookahead / sim::kPsPerNs));
  std::vector<ShardCaseResult> shard_results;
  double base_eps = 0.0;
  for (uint32_t n : shard_counts) {
    const ShardCaseResult r = RunShardScaling(n);
    char label[64];
    std::snprintf(label, sizeof(label), "%u shard%s", r.shards, r.shards == 1 ? "" : "s");
    bench::RowEventsPerSec(label, r.events, r.wall_seconds);
    const double eps = bench::EventsPerSec(r.events, r.wall_seconds);
    if (r.shards == 1) {
      base_eps = eps;
    } else if (base_eps > 0.0) {
      bench::Row("  %-32s %.2fx vs 1 shard", "wall speedup", eps / base_eps);
    }
    shard_results.push_back(r);
  }
  // The simulated outcome must not depend on the shard count: every N > 1
  // case runs the identical program (same nodes, same posts), so their
  // deterministic fields have to agree exactly.
  for (size_t i = 1; i < shard_results.size(); ++i) {
    if (shard_results[i].shards == 1 || shard_results[i - 1].shards == 1) {
      continue;
    }
    if (shard_results[i].events != shard_results[i - 1].events ||
        shard_results[i].final_time_ps != shard_results[i - 1].final_time_ps ||
        shard_results[i].cross_shard_messages != shard_results[i - 1].cross_shard_messages) {
      bench::Note("MISMATCH: shard counts disagree on deterministic outcome");
      return 1;
    }
  }

  auto emit_shard_cases = [&shard_results](bench::BenchJsonWriter* json) {
    json->BeginArray("shard_cases");
    for (const ShardCaseResult& r : shard_results) {
      json->BeginObject();
      json->Field("shards", r.shards);
      json->Field("events", r.events);
      json->Field("final_time_ps", r.final_time_ps);
      json->Field("cross_shard_messages", r.cross_shard_messages);
      json->Field("windows", r.windows);
      json->Wall("seconds", r.wall_seconds);
      json->Wall("events_per_sec", bench::EventsPerSec(r.events, r.wall_seconds));
      json->End();
    }
    json->End();
  };

  if (shards_only) {
    bench::BenchJsonWriter json("BENCH_sim_shards.json");
    if (json.ok()) {
      json.Field("bench", "sim_shards");
      emit_shard_cases(&json);
      json.Close();
      bench::Note("wrote BENCH_sim_shards.json");
    }
    return 0;
  }

  bench::BenchJsonWriter json("BENCH_sim_perf.json");
  if (json.ok()) {
    json.Field("bench", "sim_perf");
    json.BeginArray("cases");
    for (const CaseResult& r : results) {
      json.BeginObject();
      json.Field("name", r.name);
      json.Field("engine", r.engine);
      json.Field("events", r.events);
      json.Field("allocs", r.allocs);
      json.Field("final_time_ps", r.final_time_ps);
      json.Wall("seconds", r.wall_seconds);
      json.Wall("events_per_sec", bench::EventsPerSec(r.events, r.wall_seconds));
      json.End();
    }
    json.End();
    json.BeginObject("fanout");
    json.Field("deliveries", views.deliveries);
    json.Field("bytes_touched", views.bytes_touched);
    json.Field("checksum", views.checksum);
    json.Field("view_allocs", views.allocs);
    json.Field("copy_allocs", copies.allocs);
    json.Wall("view_seconds", views.wall_seconds);
    json.Wall("copy_seconds", copies.wall_seconds);
    json.End();
    emit_shard_cases(&json);
    json.Close();
    bench::Note("wrote BENCH_sim_perf.json");
  }
  return 0;
}

#include "src/sim/sharded_engine.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <tuple>

namespace coyote {
namespace sim {

namespace {

TimePs SaturatingAdd(TimePs a, TimePs b) {
  const TimePs sum = a + b;
  return sum < a ? ~TimePs{0} : sum;
}

}  // namespace

ShardedEngine::ShardedEngine(const Config& config) : config_(config) {
  if (config_.num_shards == 0) {
    std::fprintf(stderr, "ShardedEngine: num_shards must be >= 1\n");
    std::abort();
  }
  if (config_.lookahead == 0) {
    // Zero lookahead makes every window degenerate (no event is strictly
    // below its own timestamp) — the conservative protocol cannot make
    // progress. Callers must derive a positive horizon from the model, e.g.
    // net::Network::MinCrossNodeLatencyPs.
    std::fprintf(stderr, "ShardedEngine: lookahead must be > 0\n");
    std::abort();
  }
  AccessLedger::Global().ConfigureShards(config_.num_shards);
  shards_.reserve(config_.num_shards);
  for (uint32_t s = 0; s < config_.num_shards; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->engine = std::make_unique<Engine>();
    shards_.push_back(std::move(shard));
  }
  if (config_.use_threads) {
    workers_.reserve(config_.num_shards);
    for (uint32_t s = 0; s < config_.num_shards; ++s) {
      workers_.emplace_back([this, s] { WorkerMain(s); });
    }
  }
}

ShardedEngine::~ShardedEngine() {
  if (!workers_.empty()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      quit_ = true;
    }
    cv_work_.notify_all();
    for (std::thread& w : workers_) {
      w.join();
    }
  }
}

void ShardedEngine::Post(uint32_t dst_shard, TimePs t, Callback cb) {
  Post(dst_shard, t, std::move(cb), AccessLedger::Global().current_shard());
}

void ShardedEngine::Post(uint32_t dst_shard, TimePs t, Callback cb, uint32_t order_key) {
  const ShardId src = AccessLedger::Global().current_shard();
  if (src == kNoShard || src >= shards_.size()) {
    // Host-side code must use ScheduleOn(): Post's lookahead clamp needs a
    // sending shard clock, and the merge order needs a source lane.
    std::fprintf(stderr, "ShardedEngine::Post called outside a shard execution context\n");  // lint: callback-blocking-ok fatal diagnostic immediately before abort
    std::abort();
  }
  Shard& shard = *shards_[src];
  const TimePs min_t = SaturatingAdd(shard.engine->Now(), config_.lookahead);
  if (t < min_t) {
    t = min_t;
    ++shard.lookahead_clamps;
  }
  CrossShardEvent ev;
  ev.time = t;
  ev.dst = dst_shard;
  ev.order_key = order_key == kNoShard ? src : order_key;
  ev.src = src;
  ev.seq = shard.next_seq++;
  ev.cb = std::move(cb);
  shard.outbox.push_back(std::move(ev));
}

void ShardedEngine::RunShardWindow(uint32_t s, TimePs window_end) {
  Shard& shard = *shards_[s];
  // Workers are permanently bound via RegisterShardThread; re-binding here is
  // a cheap no-op for them and is what attributes the sequential (reference)
  // mode's execution to the right shard.
  ShardScope scope(s);
  Engine& engine = *shard.engine;
  shard.executed_in_window = 0;
  TimePs t = 0;
  while (engine.PeekNextTime(&t) && t < window_end) {
    engine.Step();
    ++shard.executed_in_window;
  }
}

void ShardedEngine::ExecuteWindow(TimePs window_end) {
  if (workers_.empty()) {
    for (uint32_t s = 0; s < num_shards(); ++s) {
      RunShardWindow(s, window_end);
    }
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    window_end_ = window_end;
    remaining_ = num_shards();
    ++generation_;
  }
  cv_work_.notify_all();
  std::unique_lock<std::mutex> lock(mu_);
  cv_done_.wait(lock, [this] { return remaining_ == 0; });
}

void ShardedEngine::WorkerMain(uint32_t s) {
  AccessLedger::Global().RegisterShardThread(s);
  uint64_t seen_generation = 0;
  for (;;) {
    TimePs window_end = 0;
    {
      // Workers sleep between windows, never inside an event callback.
      // lint: callback-blocking-ok window-barrier handshake
      std::unique_lock<std::mutex> lock(mu_);
      cv_work_.wait(lock, [&] {  // lint: callback-blocking-ok window barrier
        return quit_ || generation_ != seen_generation;
      });
      if (quit_) {
        return;
      }
      seen_generation = generation_;
      window_end = window_end_;
    }
    RunShardWindow(s, window_end);
    {
      // lint: callback-blocking-ok window-barrier handshake (between windows)
      std::lock_guard<std::mutex> lock(mu_);
      --remaining_;
    }
    cv_done_.notify_one();
  }
}

void ShardedEngine::DeliverMailboxes() {
  merge_scratch_.clear();
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    for (CrossShardEvent& ev : shard.outbox) {
      merge_scratch_.push_back(std::move(ev));
    }
    shard.outbox.clear();
    stats_.lookahead_violations += shard.lookahead_clamps;
    shard.lookahead_clamps = 0;
  }
  if (merge_scratch_.empty()) {
    return;
  }
  // THE merge order — see the header contract. Total (no two events share
  // (src, seq)), so std::sort suffices.
  std::sort(merge_scratch_.begin(), merge_scratch_.end(),
            [](const CrossShardEvent& a, const CrossShardEvent& b) {
              return std::tie(a.time, a.order_key, a.src, a.seq) <
                     std::tie(b.time, b.order_key, b.src, b.seq);
            });
  for (CrossShardEvent& ev : merge_scratch_) {
    shards_[ev.dst]->engine->ScheduleAt(ev.time, std::move(ev.cb));
  }
  stats_.cross_shard_messages += merge_scratch_.size();
  merge_scratch_.clear();
}

uint64_t ShardedEngine::RunWindows(TimePs deadline) {
  uint64_t executed = 0;
  for (;;) {
    // Global conservative horizon: min pending timestamp across shards.
    // Workers are parked here, so probing their engines is race-free.
    bool any_pending = false;
    TimePs next = ~TimePs{0};
    for (auto& shard : shards_) {
      TimePs t = 0;
      if (shard->engine->PeekNextTime(&t)) {
        any_pending = true;
        next = std::min(next, t);
      }
    }
    if (!any_pending || next > deadline) {
      break;
    }
    TimePs window_end = SaturatingAdd(next, config_.lookahead);
    if (deadline != kNoDeadline) {
      window_end = std::min(window_end, SaturatingAdd(deadline, 1));
    }
    ExecuteWindow(window_end);
    for (auto& shard : shards_) {
      executed += shard->executed_in_window;
    }
    DeliverMailboxes();
    ++stats_.windows;
  }
  if (deadline != kNoDeadline) {
    // Nothing actionable remains at or before the deadline (every shard's
    // next event, if any, lies beyond it) — advance all clocks to it.
    for (auto& shard : shards_) {
      shard->engine->RunUntil(deadline);
    }
  }
  // Sequential (reference) mode drains windows with bare Step() on the
  // calling thread: close the last event's race-detection epoch so host code
  // resuming after this run is not treated as concurrent with it. (Threaded
  // workers close their own epochs via Engine::RunUntil above.)
  AccessLedger& ledger = AccessLedger::Global();
  if (ledger.enabled()) {
    ledger.AdvanceEpoch();
  }
  return executed;
}

uint64_t ShardedEngine::RunUntilIdle() { return RunWindows(kNoDeadline); }

uint64_t ShardedEngine::RunUntil(TimePs deadline) { return RunWindows(deadline); }

bool ShardedEngine::Idle() const {
  for (const auto& shard : shards_) {
    if (!shard->engine->Idle()) {
      return false;
    }
  }
  return true;
}

uint64_t ShardedEngine::events_executed() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->engine->events_executed();
  }
  return total;
}

}  // namespace sim
}  // namespace coyote

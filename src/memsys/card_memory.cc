#include "src/memsys/card_memory.h"

#include <algorithm>
#include <utility>

namespace coyote {
namespace memsys {

CardMemory::CardMemory(sim::Engine* engine, const Config& config)
    : engine_(engine), config_(config) {
  const uint64_t eff_bps =
      static_cast<uint64_t>(static_cast<double>(kChannelRawBps) * kControllerEfficiency);
  channels_.reserve(config_.num_channels);
  for (uint32_t i = 0; i < config_.num_channels; ++i) {
    channels_.push_back(std::make_unique<sim::Link>(engine_, sim::Link::Config{eff_bps, 0, 0}));
  }
  // The crossbar charges only the fixed per-burst translation/arbitration
  // cost (bytes_per_second = 0 disables the byte-proportional part).
  crossbar_ = std::make_unique<sim::Link>(engine_, sim::Link::Config{0, kTranslationOverhead, 0});
}

uint64_t CardMemory::Allocate(uint64_t bytes) {
  // 4 KB alignment: enough for burst addressing; allocations must stay
  // contiguous so that striping (not the allocator) decides channel spread.
  constexpr uint64_t kAlign = 4096;
  const uint64_t aligned = ((bytes + kAlign - 1) / kAlign) * kAlign;
  const uint64_t addr = next_;
  next_ += aligned;
  return addr;
}

void CardMemory::Access(uint64_t addr, uint64_t len, uint32_t source_id,
                        sim::InlineCallback on_done) {
  if (len == 0) {
    engine_->ScheduleAfter(0, std::move(on_done));
    return;
  }

  // Split into stripe-aligned bursts; count completions across all of them.
  struct Tracker {
    uint64_t remaining = 0;
    sim::InlineCallback on_done;
  };
  auto tracker = std::make_shared<Tracker>();
  tracker->on_done = std::move(on_done);

  uint64_t cursor = addr;
  uint64_t left = len;
  while (left > 0) {
    const uint64_t in_stripe = config_.stripe_bytes - (cursor % config_.stripe_bytes);
    const uint64_t n = std::min(left, in_stripe);
    ++tracker->remaining;

    const uint32_t ch = ChannelFor(cursor);
    auto burst_done = [this, tracker]() {
      if (--tracker->remaining == 0 && tracker->on_done) {
        tracker->on_done();
      }
    };
    if (config_.mmu_bypass) {
      channels_[ch]->Submit(source_id, n, burst_done);
    } else {
      // Burst first traverses the shared translation crossbar, then its
      // channel — the serialization that produces the Fig. 7(a) taper.
      crossbar_->Submit(source_id, n,
                        [this, ch, source_id, n, burst_done = std::move(burst_done)]() {
                          channels_[ch]->Submit(source_id, n, burst_done);
                        });
    }
    cursor += n;
    left -= n;
  }
}

}  // namespace memsys
}  // namespace coyote

#include "src/runtime/loadgen.h"

#include <algorithm>
#include <utility>

namespace coyote {
namespace runtime {

LoadGen::LoadGen(sim::Engine* engine, const Config& config, SubmitFn submit)
    : engine_(engine), config_(config), submit_(std::move(submit)), rng_(config.seed) {}

void LoadGen::Start() {
  engine_->ScheduleAt(0, [this]() { ArrivalTick(); });
}

uint32_t LoadGen::PermilleAt(sim::TimePs t) const {
  if (config_.diurnal_permille.empty() || config_.phase_period == 0) {
    return 1000;
  }
  const size_t phase = static_cast<size_t>(t / config_.phase_period) %
                       config_.diurnal_permille.size();
  return std::max<uint32_t>(1, config_.diurnal_permille[phase]);
}

uint32_t LoadGen::PickTenant(sim::TimePs now) {
  const uint32_t universe = std::max<uint32_t>(1, config_.tenant_universe);
  const uint32_t active = std::min(std::max<uint32_t>(1, config_.active_tenants), universe);
  uint32_t base = 0;
  if (config_.churn_period > 0 && universe > active) {
    // Each churn epoch shifts the active window by one tenant, so over time
    // every tenant in the universe cycles through the live set.
    base = static_cast<uint32_t>((now / config_.churn_period) % universe);
  }
  return (base + static_cast<uint32_t>(rng_.NextBounded(active))) % universe;
}

void LoadGen::ArrivalTick() {
  const sim::TimePs now = engine_->Now();
  if (now >= config_.duration) {
    done_ = true;
    return;
  }
  guard_.Write();

  const bool burst =
      config_.burst_permille > 0 && rng_.NextBounded(1000) < config_.burst_permille;
  const uint32_t sessions = burst ? std::max<uint32_t>(1, config_.burst_size) : 1;
  for (uint32_t s = 0; s < sessions; ++s) {
    StartSession(now);
  }

  // Next arrival: the diurnal profile divides the baseline mean gap, jitter
  // is uniform in [mean/2, 3*mean/2). Integer arithmetic throughout.
  const sim::TimePs mean =
      std::max<sim::TimePs>(1, config_.session_gap * 1000 / PermilleAt(now));
  const sim::TimePs gap = mean / 2 + rng_.NextBounded(mean);
  engine_->ScheduleAfter(gap, [this]() { ArrivalTick(); });
}

void LoadGen::StartSession(sim::TimePs now) {
  const uint32_t tenant = PickTenant(now);
  const uint64_t k = 1 + rng_.NextBounded(std::max<uint32_t>(1, config_.requests_per_session_max));
  sim::TimePs at = 0;
  for (uint64_t j = 0; j < k; ++j) {
    EmitRequestAfter(at, tenant);
    // Think time between a session's requests, +-50% jitter.
    const sim::TimePs think = std::max<sim::TimePs>(1, config_.think_gap);
    at += think / 2 + rng_.NextBounded(think);
  }
}

void LoadGen::EmitRequestAfter(sim::TimePs delay, uint32_t tenant) {
  // All randomness is drawn NOW (in the arrival event), not at fire time:
  // the draw order is then a pure function of the arrival chain, independent
  // of how emitted requests interleave with router events.
  serving::ServingRequest req;
  req.tenant = tenant;
  if (!config_.kernels.empty()) {
    req.kernel = config_.kernels[rng_.NextBounded(config_.kernels.size())];
  }
  const uint64_t lo = std::max<uint64_t>(1, config_.payload_bytes_min);
  const uint64_t hi = std::max(lo, config_.payload_bytes_max);
  std::vector<uint8_t> bytes(lo + rng_.NextBounded(hi - lo + 1));
  rng_.FillBytes(bytes.data(), bytes.size());
  req.payload = axi::BufferView(std::move(bytes));
  req.priority = static_cast<uint32_t>(rng_.NextBounded(kPriorities));
  engine_->ScheduleAfter(delay, [this, req = std::move(req)]() mutable {
    guard_.Write();
    submit_(std::move(req));
  });
}

}  // namespace runtime
}  // namespace coyote

#include "src/sim/fault.h"

namespace coyote {
namespace sim {

namespace {

// Domain tags mixed into the master seed so the four streams are independent.
constexpr uint64_t kNetDomain = 0x6E65'74'00ull;
constexpr uint64_t kReconfigDomain = 0x7263'6E'66ull;
constexpr uint64_t kXdmaDomain = 0x7864'6D'61ull;
constexpr uint64_t kMmuDomain = 0x6D6D'75'00ull;
constexpr uint64_t kKernelDomain = 0x6B72'6E'6Cull;
constexpr uint64_t kQpDomain = 0x7170'77'64ull;
constexpr uint64_t kMigrationDomain = 0x6D69'67'72ull;

}  // namespace

FaultInjector::FaultInjector(Engine* engine, const FaultPlan& plan)
    : engine_(engine),
      plan_(plan),
      net_rng_(plan.seed ^ kNetDomain),
      reconfig_rng_(plan.seed ^ kReconfigDomain),
      xdma_rng_(plan.seed ^ kXdmaDomain),
      mmu_rng_(plan.seed ^ kMmuDomain),
      kernel_rng_(plan.seed ^ kKernelDomain),
      qp_rng_(plan.seed ^ kQpDomain),
      migration_rng_(plan.seed ^ kMigrationDomain) {}

FaultInjector::FrameDecision FaultInjector::OnFrame(uint32_t src_ip, uint32_t dst_ip,
                                                    uint64_t frame_bytes) {
  FrameDecision d;
  ++decisions_;
  // One uniform decides the action via cumulative rates, so the draw count
  // per frame is fixed regardless of which rates are non-zero.
  const double u = net_rng_.NextDouble();
  const double p_drop = plan_.frame_drop_rate;
  const double p_corrupt = p_drop + plan_.frame_corrupt_rate;
  const double p_dup = p_corrupt + plan_.frame_duplicate_rate;
  const double p_delay = p_dup + plan_.frame_delay_rate;
  // Second draw supplies fault parameters; always consumed for schedule
  // stability.
  const uint64_t entropy = net_rng_.Next();

  const uint64_t key = (static_cast<uint64_t>(src_ip) << 32) | dst_ip;
  if (u < p_drop) {
    d.action = FrameAction::kDrop;
    counters_.Record("net.frame_drop", {key ^ frame_bytes}, engine_->Now());
  } else if (u < p_corrupt) {
    d.action = FrameAction::kCorrupt;
    d.corrupt_entropy = entropy;
    counters_.Record("net.frame_corrupt", {key ^ entropy}, engine_->Now());
  } else if (u < p_dup) {
    d.action = FrameAction::kDuplicate;
    counters_.Record("net.frame_duplicate", {key ^ frame_bytes}, engine_->Now());
  } else if (u < p_delay) {
    d.action = FrameAction::kDelay;
    const TimePs span = plan_.frame_delay_max > plan_.frame_delay_min
                            ? plan_.frame_delay_max - plan_.frame_delay_min
                            : 0;
    d.delay = plan_.frame_delay_min + (span == 0 ? 0 : entropy % span);
    counters_.Record("net.frame_delay", {d.delay}, engine_->Now());
  }
  return d;
}

bool FaultInjector::NodeDown(uint32_t ip) const {
  const TimePs now = engine_->Now();
  for (const auto& o : plan_.outages) {
    if (o.ip == ip && now >= o.start && now < o.end) {
      return true;
    }
  }
  return false;
}

bool FaultInjector::DropForOutage(uint32_t src_ip, uint32_t dst_ip) {
  if (!NodeDown(src_ip) && !NodeDown(dst_ip)) {
    return false;
  }
  counters_.Record("net.outage_drop", {(static_cast<uint64_t>(src_ip) << 32) | dst_ip},
                   engine_->Now());
  return true;
}

bool FaultInjector::NextReconfigFails() {
  ++decisions_;
  const uint32_t index = reconfig_programs_seen_++;
  const double u = reconfig_rng_.NextDouble();
  if (index < plan_.reconfig_fail_first_n || u < plan_.reconfig_fail_rate) {
    counters_.Record("reconfig.fail", {index}, engine_->Now());
    return true;
  }
  return false;
}

double FaultInjector::NextReconfigSlowdown() {
  ++decisions_;
  if (reconfig_rng_.NextDouble() < plan_.reconfig_slowdown_rate) {
    counters_.Record("reconfig.slowdown", {0}, engine_->Now());
    return plan_.reconfig_slowdown_factor;
  }
  return 1.0;
}

TimePs FaultInjector::NextXdmaStall() {
  ++decisions_;
  if (xdma_rng_.NextDouble() < plan_.xdma_stall_rate) {
    counters_.Record("xdma.stall", {plan_.xdma_stall_ps}, engine_->Now());
    return plan_.xdma_stall_ps;
  }
  return 0;
}

bool FaultInjector::NextForcedTlbMiss() {
  ++decisions_;
  if (mmu_rng_.NextDouble() < plan_.tlb_force_miss_rate) {
    counters_.Record("mmu.forced_tlb_miss", {0}, engine_->Now());
    return true;
  }
  return false;
}

bool FaultInjector::NextKernelHang() {
  ++decisions_;
  const uint32_t index = kernel_invocations_seen_++;
  const double u = kernel_rng_.NextDouble();
  if (index < plan_.kernel_hang_first_n || u < plan_.kernel_hang_rate) {
    counters_.Record("kernel.hang", {index}, engine_->Now());
    return true;
  }
  return false;
}

bool FaultInjector::NextQpWedge() {
  ++decisions_;
  const uint32_t index = qp_posts_seen_++;
  const double u = qp_rng_.NextDouble();
  if (index < plan_.qp_wedge_first_n || u < plan_.qp_wedge_rate) {
    counters_.Record("qp.wedge", {index}, engine_->Now());
    return true;
  }
  return false;
}

bool FaultInjector::NextMigrationChunkDrop() {
  ++decisions_;
  const uint32_t index = migration_chunks_seen_++;
  const double u = migration_rng_.NextDouble();
  if (index < plan_.migration_chunk_drop_first_n || u < plan_.migration_chunk_drop_rate) {
    counters_.Record("migration.chunk_drop", {index}, engine_->Now());
    return true;
  }
  return false;
}

uint64_t FaultInjector::NextCheckpointCorrupt() {
  ++decisions_;
  // Entropy drawn unconditionally so enabling the rate never shifts the
  // chunk-drop/restore schedules sharing this stream.
  const uint64_t entropy = migration_rng_.Next();
  const double u = migration_rng_.NextDouble();
  if (u < plan_.checkpoint_corrupt_rate) {
    counters_.Record("migration.ckpt_corrupt", {entropy}, engine_->Now());
    return entropy | 1ull;  // never 0: 0 means "deliver clean"
  }
  return 0;
}

bool FaultInjector::NextRestoreFail() {
  ++decisions_;
  const uint32_t index = restores_seen_++;
  const double u = migration_rng_.NextDouble();
  if (index < plan_.restore_fail_first_n || u < plan_.restore_fail_rate) {
    counters_.Record("migration.restore_fail", {index}, engine_->Now());
    return true;
  }
  return false;
}

}  // namespace sim
}  // namespace coyote

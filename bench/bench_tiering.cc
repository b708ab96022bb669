// Memory-tiering ablation: hot/cold page placement under HBM oversubscription.
//
// The SVM of paper §6.1 places a page in the tier that first touched it and
// leaves it there ("first EnsureResident wins"). This bench measures what the
// profiling-driven tiering service (src/mmu/tiering.h) buys over that static
// placement when the working set exceeds HBM:
//
//   workloads  — pointer_chase: 64 B dependent reads, 80% of accesses to a
//                20% hot set that is deliberately striped across the whole
//                address range (so half of it starts on the wrong side of
//                PCIe); db_scan: repeated 4 KiB scans of a hot partition that
//                straddles the HBM capacity boundary, interleaved with full
//                table scans (the classic scan-pollution trap for LRU).
//   matrix     — {static, lru-clock, profile-guided} x {1x, 2x, 4x}
//                oversubscription (fast capacity = working set / factor).
//   timing     — closed loop per access: HBM-resident 200 ns; host-resident
//                one 4 KiB fetch over a shared 12 GB/s PCIe link that
//                migration waves also ride (so tiering traffic contends with
//                demand traffic); NVMe-resident one block read (~80 us).
//   cold tier  — a separate 4x arm caps the host tier so the profile-guided
//                policy must demote never-touched pages to NVMe.
//
// The run exits nonzero unless profile-guided beats static by >= 1.5x at 2x
// oversubscription on pointer_chase with lru-clock strictly between, every
// arm's end-of-run data hash matches the pre-run fill (migration moved bytes,
// not meaning), and a same-seed rerun reproduces every metric bit-exactly.
// Simulated-time metrics land in BENCH_tiering.json; wall-clock throughput
// goes under "wall_" keys so determinism diffs can filter it.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/memsys/card_memory.h"
#include "src/memsys/gpu_memory.h"
#include "src/memsys/host_memory.h"
#include "src/memsys/nvme.h"
#include "src/mmu/svm.h"
#include "src/mmu/tiering.h"
#include "src/sim/engine.h"
#include "src/sim/link.h"
#include "src/sim/rng.h"
#include "src/sim/time.h"

namespace coyote {
namespace {

using mmu::MemKind;
using mmu::Svm;
using mmu::Tiering;

constexpr uint64_t kSeed = 17;
constexpr uint64_t kPageBytes = 4096;
constexpr uint64_t kWorkingSetPages = 2048;  // 8 MiB
constexpr uint64_t kHotStride = 5;           // hot set = every 5th page (~20%)
constexpr uint64_t kChaseAccesses = 50'000;
constexpr uint64_t kScanRounds = 10;
constexpr sim::TimePs kFastAccessPs = sim::Nanoseconds(200);
constexpr uint32_t kDemandSource = 0;   // PCIe round-robin: demand fetches
constexpr uint32_t kMigrateSource = 1;  // PCIe round-robin: tiering waves

enum class Workload { kPointerChase, kDbScan };

const char* WorkloadName(Workload w) {
  return w == Workload::kPointerChase ? "pointer_chase" : "db_scan";
}

struct CaseResult {
  sim::TimePs completion = 0;
  uint64_t accesses = 0;
  uint64_t fast_hits = 0;
  uint64_t promotions = 0;
  uint64_t demotions = 0;
  uint64_t cold_demotions = 0;
  uint64_t waves = 0;
  uint64_t migrated_bytes = 0;
  uint64_t occ_fast = 0;
  uint64_t occ_slow = 0;
  uint64_t occ_nvme = 0;
  uint64_t heat_fp = 0;
  uint64_t stats_fp = 0;
  uint64_t data_hash = 0;

  bool operator==(const CaseResult&) const = default;
  double fast_hit_rate() const {
    return accesses ? static_cast<double>(fast_hits) / static_cast<double>(accesses) : 0.0;
  }
};

uint64_t Fnv1a(uint64_t h, const uint8_t* p, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

// One self-contained SVM + tiering stack with a closed-loop access cost
// model. Demand fetches and migration waves share one PCIe link so the
// policies pay for their own traffic.
class TieredStack {
 public:
  TieredStack(Tiering::Policy policy, uint64_t fast_capacity_pages, uint64_t slow_capacity_pages)
      : card_(&engine_, {}),
        nvme_(&engine_),
        svm_(&engine_, &host_, &card_, &gpu_, kPageBytes, &nvme_),
        pcie_(&engine_, PcieConfig()) {
    const uint64_t bytes = kWorkingSetPages * kPageBytes;
    base_ = host_.Allocate(bytes, memsys::AllocKind::kRegular);
    svm_.RegisterHostBuffer(base_, bytes);

    // Deterministic fill; the end-of-run hash proves migrations moved bytes
    // without corrupting them.
    std::vector<uint8_t> page(kPageBytes);
    sim::Rng fill(kSeed);
    uint64_t h = 0xcbf29ce484222325ull;
    for (uint64_t p = 0; p < kWorkingSetPages; ++p) {
      fill.FillBytes(page.data(), page.size());
      svm_.WriteVirtual(base_ + p * kPageBytes, page.data(), page.size());
      h = Fnv1a(h, page.data(), page.size());
    }
    expected_hash_ = h;

    // Static first-EnsureResident-wins baseline: the first `fast_capacity`
    // pages land in HBM, everything else stays host-resident. Placement
    // happens before the timing hooks attach, so setup is free for every arm.
    std::vector<uint64_t> seeded;
    const uint64_t base_vpage = base_ / kPageBytes;
    for (uint64_t p = 0; p < std::min(fast_capacity_pages, kWorkingSetPages); ++p) {
      seeded.push_back(base_vpage + p);
    }
    svm_.MigratePages(seeded, MemKind::kCard, [] {});
    engine_.RunUntilIdle();

    Svm::MigrationHooks hooks;
    hooks.transfer = [this](MemKind from, MemKind to, uint64_t wave_bytes,
                            std::function<void()> done) {
      const auto blocks =
          static_cast<uint32_t>((wave_bytes + memsys::NvmeDrive::kBlockBytes - 1) /
                                memsys::NvmeDrive::kBlockBytes);
      if (to == MemKind::kNvme) {
        nvme_.WriteCommand(0, blocks, kMigrateSource, std::move(done));
      } else if (from == MemKind::kNvme) {
        nvme_.ReadCommand(0, blocks, kMigrateSource, std::move(done));
      } else {
        auto shared = std::make_shared<std::function<void()>>(std::move(done));
        pcie_.Submit(kMigrateSource, wave_bytes, [shared] { (*shared)(); });
      }
    };
    hooks.invalidate = [](uint64_t) {};
    svm_.set_hooks(std::move(hooks));

    Tiering::Config tc;
    tc.policy = policy;
    tc.fast_capacity_pages = fast_capacity_pages;
    tc.slow_capacity_pages = slow_capacity_pages;
    tc.epoch_ps = sim::Milliseconds(1);
    tiering_ = std::make_unique<Tiering>(&engine_, &svm_, tc);
    svm_.set_profiler(tiering_.get());
    tiering_->Manage(base_, bytes);
    tiering_->Start();
  }

  // One demand access: pay the residency-dependent fetch cost in simulated
  // time, then touch the bytes (which feeds the heat profile).
  void Access(uint64_t page, uint64_t bytes) {
    const uint64_t vaddr = base_ + page * kPageBytes;
    const auto entry = svm_.page_table().Find(vaddr);
    switch (entry->kind) {
      case MemKind::kCard:
      case MemKind::kGpu:
        engine_.RunUntil(engine_.Now() + kFastAccessPs);
        ++fast_hits_;
        break;
      case MemKind::kHost: {
        bool done = false;
        pcie_.Submit(kDemandSource, kPageBytes, [&done] { done = true; });
        engine_.RunUntilCondition([&done] { return done; });
        break;
      }
      case MemKind::kNvme: {
        bool done = false;
        const auto blocks = static_cast<uint32_t>(kPageBytes / memsys::NvmeDrive::kBlockBytes);
        nvme_.ReadCommand(0, blocks, kDemandSource, [&done] { done = true; });
        engine_.RunUntilCondition([&done] { return done; });
        break;
      }
    }
    svm_.ReadVirtual(vaddr, scratch_.data(), std::min(bytes, scratch_.size()));
    ++accesses_;
  }

  CaseResult Finish() {
    tiering_->Stop();
    engine_.RunUntilIdle();
    svm_.set_profiler(nullptr);  // the verification sweep is not workload heat

    CaseResult r;
    r.completion = engine_.Now();
    r.accesses = accesses_;
    r.fast_hits = fast_hits_;
    const sim::CounterSet& s = tiering_->stats();
    r.promotions = s.value("tiering.promotions");
    r.demotions = s.value("tiering.demotions");
    r.cold_demotions = s.value("tiering.cold_demotions");
    r.waves = s.value("tiering.waves");
    r.migrated_bytes = s.value("tiering.migrated_bytes");
    r.occ_fast = tiering_->occupancy(MemKind::kCard);
    r.occ_slow = tiering_->occupancy(MemKind::kHost);
    r.occ_nvme = tiering_->occupancy(MemKind::kNvme);
    r.heat_fp = tiering_->HeatHistogram().Fingerprint();
    r.stats_fp = s.Fingerprint();

    std::vector<uint8_t> page(kPageBytes);
    uint64_t h = 0xcbf29ce484222325ull;
    for (uint64_t p = 0; p < kWorkingSetPages; ++p) {
      svm_.ReadVirtual(base_ + p * kPageBytes, page.data(), page.size());
      h = Fnv1a(h, page.data(), page.size());
    }
    r.data_hash = h;
    return r;
  }

  uint64_t expected_hash() const { return expected_hash_; }

 private:
  static sim::Link::Config PcieConfig() {
    sim::Link::Config c;
    c.bytes_per_second = 12'000'000'000ull;  // one PCIe gen4 direction, derated
    c.delivery_latency = sim::Nanoseconds(1500);
    return c;
  }

  sim::Engine engine_;
  memsys::HostMemory host_;
  memsys::CardMemory card_;
  memsys::GpuMemory gpu_;
  memsys::NvmeDrive nvme_;
  Svm svm_;
  sim::Link pcie_;
  std::unique_ptr<Tiering> tiering_;
  uint64_t base_ = 0;
  uint64_t expected_hash_ = 0;
  uint64_t accesses_ = 0;
  uint64_t fast_hits_ = 0;
  std::vector<uint8_t> scratch_ = std::vector<uint8_t>(kPageBytes);
};

// 80/20 skew with the hot set striped across the whole range: page p is hot
// iff p % kHotStride == 0, so at 2x oversubscription half the hot set starts
// host-resident and static placement never fixes it.
void DrivePointerChase(TieredStack* stack, uint64_t accesses) {
  sim::Rng rng(kSeed);
  const uint64_t hot_count = kWorkingSetPages / kHotStride;
  for (uint64_t i = 0; i < accesses; ++i) {
    uint64_t page;
    if (rng.NextBounded(10) < 8) {
      page = kHotStride * rng.NextBounded(hot_count);
    } else {
      page = rng.NextBounded(kWorkingSetPages);
    }
    stack->Access(page, 64);
  }
}

// Hot partition straddling the HBM capacity boundary gets scanned 4x per
// round; a full table scan per round tempts demand-driven policies into
// promoting pages that will not be touched again this epoch.
void DriveDbScan(TieredStack* stack, uint64_t fast_capacity_pages, uint64_t rounds) {
  const uint64_t half_window = kWorkingSetPages / 16;
  const uint64_t hot_lo = fast_capacity_pages > half_window ? fast_capacity_pages - half_window : 0;
  const uint64_t hot_hi = std::min(hot_lo + kWorkingSetPages / 8, kWorkingSetPages);
  for (uint64_t r = 0; r < rounds; ++r) {
    for (int s = 0; s < 4; ++s) {
      for (uint64_t p = hot_lo; p < hot_hi; ++p) {
        stack->Access(p, kPageBytes);
      }
    }
    for (uint64_t p = 0; p < kWorkingSetPages; ++p) {
      stack->Access(p, kPageBytes);
    }
  }
}

CaseResult RunCase(Workload w, Tiering::Policy policy, uint64_t oversub,
                   uint64_t slow_capacity_pages, uint64_t* expected_hash) {
  const uint64_t fast_capacity = kWorkingSetPages / oversub;
  TieredStack stack(policy, fast_capacity, slow_capacity_pages);
  if (w == Workload::kPointerChase) {
    DrivePointerChase(&stack, kChaseAccesses);
  } else {
    DriveDbScan(&stack, fast_capacity, kScanRounds);
  }
  if (expected_hash != nullptr) {
    *expected_hash = stack.expected_hash();
  }
  return stack.Finish();
}

double ToMs(sim::TimePs ps) { return static_cast<double>(ps) / 1e9; }

void EmitCase(bench::BenchJsonWriter* json, const char* key, Workload w, Tiering::Policy p,
              uint64_t oversub, const CaseResult& r) {
  json->BeginObject(key);
  json->Field("workload", WorkloadName(w));
  json->Field("policy", Tiering::PolicyName(p));
  json->Field("oversubscription", oversub);
  json->Field("completion_ps", r.completion);
  json->Field("accesses", r.accesses);
  json->Field("fast_hits", r.fast_hits);
  json->Field("fast_hit_rate", r.fast_hit_rate());
  json->Field("promotions", r.promotions);
  json->Field("demotions", r.demotions);
  json->Field("cold_demotions", r.cold_demotions);
  json->Field("waves", r.waves);
  json->Field("migrated_bytes", r.migrated_bytes);
  json->Field("occupancy_hbm", r.occ_fast);
  json->Field("occupancy_host", r.occ_slow);
  json->Field("occupancy_nvme", r.occ_nvme);
  json->Hex("heat_fingerprint", r.heat_fp);
  json->Hex("stats_fingerprint", r.stats_fp);
  json->Hex("data_hash", r.data_hash);
  json->End();
}

int Run() {
  bench::PrintHeader("Memory tiering: policy ablation under HBM oversubscription",
                     "profiling-driven placement over the paper's §6.1 unified memory");

  constexpr Workload kWorkloads[] = {Workload::kPointerChase, Workload::kDbScan};
  constexpr Tiering::Policy kPolicies[] = {Tiering::Policy::kStatic, Tiering::Policy::kLruClock,
                                           Tiering::Policy::kProfileGuided};
  constexpr uint64_t kOversubs[] = {1, 2, 4};

  bench::WallTimer wall;
  uint64_t expected_hash = 0;
  // results[workload][oversub_index][policy_index]
  CaseResult results[2][3][3];
  for (size_t wi = 0; wi < 2; ++wi) {
    for (size_t oi = 0; oi < 3; ++oi) {
      for (size_t pi = 0; pi < 3; ++pi) {
        results[wi][oi][pi] =
            RunCase(kWorkloads[wi], kPolicies[pi], kOversubs[oi], 0, &expected_hash);
      }
    }
  }

  // Same-seed determinism witness: the acceptance cell, run again from
  // scratch, must reproduce every metric bit-exactly.
  const CaseResult rerun =
      RunCase(Workload::kPointerChase, Tiering::Policy::kProfileGuided, 2, 0, nullptr);
  const bool rerun_identical = rerun == results[0][1][2];

  // Cold-tier arm: 4x oversubscribed with the host tier capped, forcing the
  // profile-guided policy to demote never-touched pages to NVMe.
  const CaseResult nvme_case = RunCase(Workload::kPointerChase, Tiering::Policy::kProfileGuided, 4,
                                       /*slow_capacity_pages=*/768, nullptr);
  const double wall_s = wall.Seconds();

  bench::Row("%-14s %4s %-15s %14s %10s %10s %10s %8s", "workload", "over", "policy",
             "completion(ms)", "hit-rate", "promote", "demote", "waves");
  bench::PrintRule();
  for (size_t wi = 0; wi < 2; ++wi) {
    for (size_t oi = 0; oi < 3; ++oi) {
      for (size_t pi = 0; pi < 3; ++pi) {
        const CaseResult& r = results[wi][oi][pi];
        bench::Row("%-14s %3llux %-15s %14.2f %9.1f%% %10llu %10llu %8llu",
                   WorkloadName(kWorkloads[wi]), static_cast<unsigned long long>(kOversubs[oi]),
                   Tiering::PolicyName(kPolicies[pi]), ToMs(r.completion),
                   100.0 * r.fast_hit_rate(), static_cast<unsigned long long>(r.promotions),
                   static_cast<unsigned long long>(r.demotions),
                   static_cast<unsigned long long>(r.waves));
      }
    }
  }
  bench::PrintRule();
  bench::Row("%-14s %3s %-15s %14.2f %9.1f%% %10llu %10llu %8llu  (nvme cold tier: %llu pages)",
             "pointer_chase", "4x", "pg+nvme", ToMs(nvme_case.completion),
             100.0 * nvme_case.fast_hit_rate(),
             static_cast<unsigned long long>(nvme_case.promotions),
             static_cast<unsigned long long>(nvme_case.demotions),
             static_cast<unsigned long long>(nvme_case.waves),
             static_cast<unsigned long long>(nvme_case.occ_nvme));

  // --- Acceptance -----------------------------------------------------------
  const CaseResult& pc2_static = results[0][1][0];
  const CaseResult& pc2_lru = results[0][1][1];
  const CaseResult& pc2_pg = results[0][1][2];
  const double speedup_pg =
      static_cast<double>(pc2_static.completion) / static_cast<double>(pc2_pg.completion);
  const double speedup_lru =
      static_cast<double>(pc2_static.completion) / static_cast<double>(pc2_lru.completion);

  bool data_intact = nvme_case.data_hash == expected_hash;
  bool no_migration_at_1x = true;
  for (size_t wi = 0; wi < 2; ++wi) {
    for (size_t pi = 0; pi < 3; ++pi) {
      const CaseResult& r = results[wi][0][pi];
      no_migration_at_1x = no_migration_at_1x && r.promotions == 0 && r.demotions == 0;
    }
    for (size_t oi = 0; oi < 3; ++oi) {
      for (size_t pi = 0; pi < 3; ++pi) {
        data_intact = data_intact && results[wi][oi][pi].data_hash == expected_hash;
      }
    }
  }
  const bool ordering_ok =
      pc2_pg.completion < pc2_lru.completion && pc2_lru.completion < pc2_static.completion;
  const bool speedup_ok = speedup_pg >= 1.5;
  const bool static_never_moves =
      results[0][1][0].promotions == 0 && results[1][1][0].promotions == 0;
  const bool nvme_ok = nvme_case.cold_demotions > 0 && nvme_case.occ_nvme > 0;
  const bool db2_ok = results[1][1][2].completion < results[1][1][0].completion;

  bench::Note("pointer_chase @2x: profile-guided " + std::to_string(speedup_pg) +
              "x over static, lru-clock " + std::to_string(speedup_lru) + "x.");
  bench::Note(ordering_ok && speedup_ok
                  ? "acceptance: pg >= 1.5x static with lru-clock strictly between."
                  : "ACCEPTANCE FAILURE: policy ordering or speedup floor not met.");
  bench::Note(no_migration_at_1x ? "1x arms planned zero moves (no oversubscription, no churn)."
                                 : "UNEXPECTED MIGRATIONS AT 1x.");
  bench::Note(data_intact ? "every arm's end-of-run data hash matches the pre-run fill."
                          : "DATA CORRUPTION ACROSS MIGRATIONS.");
  bench::Note(nvme_ok ? "capped host tier demoted cold pages to NVMe (" +
                            std::to_string(nvme_case.cold_demotions) + " demotions)."
                      : "NVME COLD TIER NEVER ENGAGED.");
  bench::Note(rerun_identical ? "same-seed rerun reproduced every metric bit-exactly."
                              : "SAME-SEED DETERMINISM VIOLATION.");

  bench::BenchJsonWriter json("BENCH_tiering.json");
  if (json.ok()) {
    json.Field("bench", "tiering");
    json.Field("seed", kSeed);
    json.Field("page_bytes", kPageBytes);
    json.Field("working_set_pages", kWorkingSetPages);
    json.Field("chase_accesses", kChaseAccesses);
    json.Field("scan_rounds", kScanRounds);
    json.Field("speedup_pg_vs_static_2x", speedup_pg);
    json.Field("speedup_lru_vs_static_2x", speedup_lru);
    json.Field("deterministic_same_seed", rerun_identical);
    json.Field("data_intact", data_intact);
    json.BeginArray("cases");
    for (size_t wi = 0; wi < 2; ++wi) {
      for (size_t oi = 0; oi < 3; ++oi) {
        for (size_t pi = 0; pi < 3; ++pi) {
          EmitCase(&json, nullptr, kWorkloads[wi], kPolicies[pi], kOversubs[oi],
                   results[wi][oi][pi]);
        }
      }
    }
    json.End();
    json.Field("nvme_slow_capacity_pages", 768);
    EmitCase(&json, "nvme_cold_tier", Workload::kPointerChase, Tiering::Policy::kProfileGuided, 4,
             nvme_case);
    json.Wall("runtime_s", wall_s);
    json.Close();
    bench::Note("wrote BENCH_tiering.json");
  }

  return (ordering_ok && speedup_ok && static_never_moves && no_migration_at_1x && data_intact &&
          nvme_ok && db2_ok && rerun_identical)
             ? 0
             : 1;
}

}  // namespace
}  // namespace coyote

int main() { return coyote::Run(); }

#include "src/mmu/tiering.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace coyote {
namespace mmu {
namespace {

// ClockVictim sentinel: no fast-resident page is evictable right now.
constexpr uint64_t kNoVictim = ~0ull;

}  // namespace

void Tiering::Start() {
  if (started()) {
    return;
  }
  next_tick_ = engine_->ScheduleAfter(config_.epoch_ps, [this]() { EpochTick(); });
}

void Tiering::Manage(uint64_t vaddr, uint64_t bytes) {
  if (bytes == 0) {
    return;
  }
  guard_.Write();
  const uint64_t first = svm_->page_table().VPage(vaddr);
  const uint64_t last = svm_->page_table().VPage(vaddr + bytes - 1);
  for (uint64_t vp = first; vp <= last; ++vp) {
    Track(vp);
  }
}

Tiering::PageState* Tiering::Track(uint64_t vpage) {
  auto it = pages_.find(vpage);
  if (it != pages_.end()) {
    return &it->second;
  }
  auto entry = svm_->page_table().Find(vpage * svm_->page_table().page_bytes());
  if (!entry.has_value()) {
    return nullptr;
  }
  PageState st;
  st.tier = entry->kind;
  st.resident_since = epoch_;
  st.last_touch = epoch_;
  ++occupancy_[static_cast<size_t>(entry->kind)];
  return &pages_.emplace(vpage, st).first->second;
}

void Tiering::Touch(uint64_t vpage, uint64_t weight) {
  PageState* st = Track(vpage);
  if (st == nullptr) {
    return;
  }
  st->heat += weight;
  st->last_touch = epoch_;
  st->referenced = true;
  if (config_.policy == Policy::kLruClock && st->tier != kFastTier && !st->queued) {
    st->queued = true;
    demand_fifo_.push_back(vpage);
  }
}

void Tiering::OnAccess(uint64_t vaddr, uint64_t len, bool write) {
  (void)write;
  if (len == 0) {
    return;
  }
  guard_.Write();
  stats_.Increment("tiering.accesses");
  const uint64_t first = svm_->page_table().VPage(vaddr);
  const uint64_t last = svm_->page_table().VPage(vaddr + len - 1);
  for (uint64_t vp = first; vp <= last; ++vp) {
    Touch(vp, kAccessWeight);
  }
}

void Tiering::OnTlbMiss(uint64_t vaddr) {
  guard_.Write();
  stats_.Increment("tiering.tlb_misses");
  Touch(svm_->page_table().VPage(vaddr), kTlbMissWeight);
}

void Tiering::OnMigrate(uint64_t vpage, MemKind from, MemKind to) {
  guard_.Write();
  auto it = pages_.find(vpage);
  if (it == pages_.end()) {
    // First sighting: begin tracking at the page's new tier.
    PageState st;
    st.tier = to;
    st.resident_since = epoch_;
    st.last_touch = epoch_;
    ++occupancy_[static_cast<size_t>(to)];
    pages_.emplace(vpage, st);
    return;
  }
  assert(it->second.tier == from && "tier mirror out of sync with page table");
  --occupancy_[static_cast<size_t>(from)];
  ++occupancy_[static_cast<size_t>(to)];
  it->second.tier = to;
  it->second.resident_since = epoch_;
  it->second.referenced = false;
}

sim::Histogram Tiering::HeatHistogram() const {
  guard_.Read();
  sim::Histogram h;
  for (const auto& [vp, st] : pages_) {
    h.Add(st.heat);
  }
  return h;
}

uint64_t Tiering::FreeFastSlots() const {
  if (config_.fast_capacity_pages == 0) {
    return ~0ull;
  }
  const uint64_t used = occupancy_[static_cast<size_t>(kFastTier)];
  return used >= config_.fast_capacity_pages ? 0 : config_.fast_capacity_pages - used;
}

void Tiering::EpochTick() {
  guard_.Write();
  ++epoch_;
  stats_.Increment("tiering.epochs");
  if (config_.decay_shift > 0) {
    for (auto& [vp, st] : pages_) {
      st.heat >>= config_.decay_shift;
    }
  }
  if (!wave_in_flight_) {
    RunPolicy();
  }
  next_tick_ = engine_->ScheduleAfter(config_.epoch_ps, [this]() { EpochTick(); });
}

void Tiering::RunPolicy() {
  std::vector<uint64_t> promote;
  std::vector<uint64_t> demote;
  std::vector<uint64_t> cold;
  switch (config_.policy) {
    case Policy::kStatic:
      return;
    case Policy::kLruClock:
      PlanLruClock(&promote, &demote);
      break;
    case Policy::kProfileGuided:
      PlanProfileGuided(&promote, &demote);
      PlanColdDemotion(&cold);
      break;
  }
  if (promote.empty() && demote.empty() && cold.empty()) {
    return;
  }
  ExecuteWaves(std::move(cold), std::move(demote), std::move(promote));
}

void Tiering::PlanProfileGuided(std::vector<uint64_t>* promote, std::vector<uint64_t>* demote) {
  // Candidates: pages outside the fast tier whose decayed heat clears the
  // promotion threshold, hottest first. Victims: fast-resident pages past
  // their minimum residency, coldest first. Ties break on vpage so the plan
  // is a pure function of (heat table, epoch).
  std::vector<std::pair<uint64_t, uint64_t>> cands;   // (heat, vpage)
  std::vector<std::pair<uint64_t, uint64_t>> victims; // (heat, vpage)
  for (const auto& [vp, st] : pages_) {
    if (st.tier == kFastTier) {
      if (epoch_ - st.resident_since >= config_.min_residency_epochs) {
        victims.emplace_back(st.heat, vp);
      }
    } else if (st.heat >= config_.promote_threshold) {
      cands.emplace_back(st.heat, vp);
    }
  }
  std::sort(cands.begin(), cands.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  std::sort(victims.begin(), victims.end());

  uint64_t budget = config_.max_moves_per_epoch;
  uint64_t free_slots = FreeFastSlots();
  size_t vi = 0;
  for (const auto& [heat, vp] : cands) {
    if (budget == 0) {
      break;
    }
    if (free_slots > 0) {
      promote->push_back(vp);
      --free_slots;
      --budget;
      continue;
    }
    if (vi >= victims.size() || budget < 2) {
      break;
    }
    // Hysteresis: displacing a resident page costs two migrations, so the
    // newcomer must be strictly hotter than the coldest victim by more than
    // the margin. Candidates are sorted hottest-first: once one fails, the
    // rest fail too.
    if (heat <= victims[vi].first + config_.hysteresis_margin) {
      break;
    }
    demote->push_back(victims[vi].second);
    promote->push_back(vp);
    ++vi;
    budget -= 2;
  }
}

uint64_t Tiering::ClockVictim() {
  const uint64_t fast_count = occupancy_[static_cast<size_t>(kFastTier)];
  if (fast_count == 0) {
    return kNoVictim;
  }
  // Two sweeps bound the scan: the first clears second-chance bits, the
  // second must find a victim unless every page was already chosen this epoch.
  const uint64_t limit = 2 * fast_count + 2;
  uint64_t scanned = 0;
  auto it = pages_.upper_bound(clock_hand_);
  while (scanned < limit) {
    if (it == pages_.end()) {
      it = pages_.begin();
      if (it == pages_.end()) {
        return kNoVictim;
      }
    }
    PageState& st = it->second;
    const uint64_t vp = it->first;
    ++it;
    if (st.tier != kFastTier || st.victim_epoch == epoch_) {
      continue;
    }
    ++scanned;
    if (st.referenced) {
      st.referenced = false;  // second chance
      continue;
    }
    st.victim_epoch = epoch_;
    clock_hand_ = vp;
    return vp;
  }
  return kNoVictim;
}

void Tiering::PlanLruClock(std::vector<uint64_t>* promote, std::vector<uint64_t>* demote) {
  // Demand-driven: pages touched while not fast-resident queued in FIFO
  // order. Unserved demand is dropped, not carried over — a still-hot page
  // re-queues itself on its next access.
  std::vector<uint64_t> drained = std::move(demand_fifo_);
  demand_fifo_.clear();
  uint64_t budget = config_.max_moves_per_epoch;
  uint64_t free_slots = FreeFastSlots();
  bool eviction_exhausted = false;
  for (uint64_t vp : drained) {
    auto it = pages_.find(vp);
    if (it == pages_.end()) {
      continue;
    }
    it->second.queued = false;
    if (it->second.tier == kFastTier || budget == 0 || eviction_exhausted) {
      continue;
    }
    if (free_slots > 0) {
      promote->push_back(vp);
      --free_slots;
      --budget;
      continue;
    }
    if (budget < 2) {
      continue;
    }
    const uint64_t victim = ClockVictim();
    if (victim == kNoVictim) {
      eviction_exhausted = true;
      continue;
    }
    demote->push_back(victim);
    promote->push_back(vp);
    budget -= 2;
  }
}

void Tiering::PlanColdDemotion(std::vector<uint64_t>* cold) {
  if (config_.slow_capacity_pages == 0 || !svm_->has_nvme()) {
    return;
  }
  const uint64_t used = occupancy_[static_cast<size_t>(kSlowTier)];
  if (used <= config_.slow_capacity_pages) {
    return;
  }
  uint64_t over = used - config_.slow_capacity_pages;
  uint64_t budget = config_.max_moves_per_epoch;
  for (const auto& [vp, st] : pages_) {
    if (over == 0 || budget == 0) {
      break;
    }
    if (st.tier != kSlowTier || st.heat != 0) {
      continue;
    }
    if (epoch_ - st.last_touch < config_.cold_after_epochs) {
      continue;
    }
    cold->push_back(vp);
    --over;
    --budget;
  }
}

void Tiering::ExecuteWaves(std::vector<uint64_t> cold, std::vector<uint64_t> demote,
                           std::vector<uint64_t> promote) {
  const uint64_t page = svm_->page_table().page_bytes();
  stats_.Increment("tiering.waves");
  stats_.Increment("tiering.promotions", promote.size());
  stats_.Increment("tiering.demotions", demote.size());
  stats_.Increment("tiering.cold_demotions", cold.size());
  stats_.Increment("tiering.migrated_bytes",
                   (cold.size() + demote.size() + promote.size()) * page);
  wave_in_flight_ = true;

  // Waves run in dependency order — demotions free fast capacity, cold
  // demotions relieve the slow tier, promotions fill the vacated slots — and
  // each wave is ONE bandwidth-charged transfer per source tier
  // (Svm::MigratePages), so eviction churn shows up in the timing model as
  // bulk transfers, not per-page chatter.
  auto finish = [this]() { wave_in_flight_ = false; };
  auto do_promote = [this, promote = std::move(promote), finish]() {
    if (promote.empty()) {
      finish();
      return;
    }
    svm_->MigratePages(promote, kFastTier, finish);
  };
  auto do_cold = [this, cold = std::move(cold), do_promote]() {
    if (cold.empty()) {
      do_promote();
      return;
    }
    svm_->MigratePages(cold, kColdTier, do_promote);
  };
  if (demote.empty()) {
    do_cold();
    return;
  }
  svm_->MigratePages(demote, kSlowTier, do_cold);
}

}  // namespace mmu
}  // namespace coyote

#include "src/sim/access_guard.h"

#include <cstdio>
#include <cstdlib>

namespace coyote {
namespace sim {

constinit thread_local AccessLedger::Tls AccessLedger::tls_;

std::string AccessConflict::ToString() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%s conflict on '%s' at epoch %llu: actor %u vs actor %u",
                write_write ? "write/write" : "read/write", resource.c_str(),
                static_cast<unsigned long long>(epoch), first_actor, second_actor);
  return std::string(buf);
}

std::string ShardViolation::ToString() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "cross-shard %s on '%s' at epoch %llu: shard %u touched shard %u-owned state "
                "(actor %u)",
                write ? "write" : "read", resource.c_str(),
                static_cast<unsigned long long>(epoch), touching_shard, owner_shard, actor);
  return std::string(buf);
}

AccessLedger& AccessLedger::Global() {
  static AccessLedger ledger;
  return ledger;
}

void AccessLedger::Reset() {
  tls_ = Tls{};
  ordered_.clear();
  conflicts_.clear();
  for (auto& slot : shard_conflicts_) {
    slot.clear();
  }
  for (auto& slot : shard_violations_) {
    slot.clear();
  }
}

void AccessLedger::ConfigureShards(uint32_t num_shards) {
  const size_t slots = static_cast<size_t>(num_shards) + 1;
  if (shard_conflicts_.size() < slots) {
    shard_conflicts_.resize(slots);
  }
  if (shard_violations_.size() < slots) {
    shard_violations_.resize(slots);
  }
}

void AccessLedger::BindThread(ShardId shard) {
  tls_.shard = shard;
  const size_t slot = shard == kNoShard ? 0 : static_cast<size_t>(shard) + 1;
  tls_.slot = slot < shard_violations_.size() ? static_cast<uint32_t>(slot) : 0;
}

void AccessLedger::RegisterShardThread(ShardId shard) {
  BindThread(shard);
  // Band the epoch counter per shard so a guard's cached epoch from one
  // shard's event can never equal another shard's epoch by coincidence.
  tls_.epoch = static_cast<uint64_t>(shard + 1) << 48;
}

void AccessLedger::DeclareOrdered(ActorId a, ActorId b) {
  if (!Ordered(a, b)) {
    ordered_.emplace_back(a, b);
  }
}

bool AccessLedger::Ordered(ActorId a, ActorId b) const {
  for (const auto& [x, y] : ordered_) {
    if ((x == a && y == b) || (x == b && y == a)) {
      return true;
    }
  }
  return false;
}

void AccessLedger::Report(AccessConflict conflict) {
  if (abort_on_conflict_) {
    // lint: callback-blocking-ok fatal diagnostic immediately before abort()
    std::fprintf(stderr, "AccessGuard: %s\n", conflict.ToString().c_str());
    std::abort();
  }
  if (tls_.slot != 0 && tls_.slot < shard_conflicts_.size()) {
    shard_conflicts_[tls_.slot].push_back(std::move(conflict));
  } else {
    conflicts_.push_back(std::move(conflict));
  }
}

void AccessLedger::ReportShardViolation(ShardViolation violation) {
  if (abort_on_conflict_) {
    // lint: callback-blocking-ok fatal diagnostic immediately before abort()
    std::fprintf(stderr, "AccessGuard: %s\n", violation.ToString().c_str());
    std::abort();
  }
  if (tls_.slot < shard_violations_.size()) {
    shard_violations_[tls_.slot].push_back(std::move(violation));
  } else {
    // No slots configured (violation minted via ShardScope without a
    // ShardedEngine): fall back to the host slot, creating it on demand.
    if (shard_violations_.empty()) {
      shard_violations_.resize(1);
    }
    shard_violations_[0].push_back(std::move(violation));
  }
}

std::vector<AccessConflict> AccessLedger::AllConflicts() const {
  std::vector<AccessConflict> all = conflicts_;
  for (const auto& slot : shard_conflicts_) {
    all.insert(all.end(), slot.begin(), slot.end());
  }
  return all;
}

std::vector<ShardViolation> AccessLedger::shard_violations() const {
  std::vector<ShardViolation> all;
  for (const auto& slot : shard_violations_) {
    all.insert(all.end(), slot.begin(), slot.end());
  }
  return all;
}

bool AccessGuard::ShardCheck(AccessLedger& ledger, bool is_write) const {
  const ShardId shard = ledger.current_shard();
  if (owner_shard_ == kNoShard || shard == kNoShard || shard == owner_shard_) {
    return false;
  }
  ledger.ReportShardViolation(
      ShardViolation{name_, ledger.epoch(), owner_shard_, shard, ledger.current_actor(), is_write});
  return true;
}

void AccessGuard::CheckShardOnly(bool is_write) const {
  AccessLedger& ledger = AccessLedger::Global();
  if (ledger.enabled()) {
    ShardCheck(ledger, is_write);
  }
}

void AccessGuard::Record(AccessLedger& ledger, bool is_write) const {
  if (ShardCheck(ledger, is_write)) {
    // Foreign-shard touch: reported above. Leave the touch history alone —
    // it belongs to the owning shard's thread, and mutating it from here
    // would be the very data race the check exists to catch.
    return;
  }
  const uint64_t epoch = ledger.epoch();
  if (epoch != epoch_) {
    epoch_ = epoch;
    touches_.clear();
  }
  const ActorId actor = ledger.current_actor();
  for (const Touch& t : touches_) {
    if (t.actor == actor && t.write == is_write) {
      return;  // repeat of an already-recorded touch; conflicts were reported
    }
  }
  for (const Touch& t : touches_) {
    if (t.actor == actor) {
      continue;  // same actor never conflicts with itself
    }
    if ((t.write || is_write) && !ledger.Ordered(t.actor, actor)) {
      ledger.Report(AccessConflict{name_, epoch, t.actor, actor, t.write && is_write});
    }
  }
  touches_.push_back(Touch{actor, is_write});
}

}  // namespace sim
}  // namespace coyote

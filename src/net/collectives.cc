#include "src/net/collectives.h"

#include <cstring>
#include <memory>

namespace coyote {
namespace net {
namespace {

// Chunk [begin, end) in elements for rank `c` of `n` ranks over `count`.
struct ChunkRange {
  uint64_t begin_elems = 0;
  uint64_t end_elems = 0;
  uint64_t bytes() const { return (end_elems - begin_elems) * 4; }
  uint64_t offset_bytes() const { return begin_elems * 4; }
};

ChunkRange ChunkFor(uint64_t c, uint64_t n, uint64_t count) {
  const uint64_t per = (count + n - 1) / n;
  ChunkRange r;
  r.begin_elems = std::min(c * per, count);
  r.end_elems = std::min((c + 1) * per, count);
  return r;
}

}  // namespace

CollectiveGroup::CollectiveGroup(sim::Engine* engine, std::vector<Member> members)
    : engine_(engine), members_(std::move(members)) {
  const size_t n = members_.size();
  qp_.assign(n, std::vector<uint32_t>(n, 0));
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      const uint32_t qi = members_[i].stack->CreateQp();
      const uint32_t qj = members_[j].stack->CreateQp();
      members_[i].stack->Connect(qi, members_[j].stack->ip(), qj);
      members_[j].stack->Connect(qj, members_[i].stack->ip(), qi);
      qp_[i][j] = qi;
      qp_[j][i] = qj;
    }
  }
}

void CollectiveGroup::Broadcast(uint32_t root, uint64_t vaddr, uint64_t bytes,
                                Completion done) {
  const uint32_t n = static_cast<uint32_t>(members_.size());
  if (n <= 1 || bytes == 0) {
    engine_->ScheduleAfter(0, [done = std::move(done)]() {
      if (done) {
        done(true);
      }
    });
    return;
  }
  // Binomial tree over ranks relative to the root. The stored function
  // captures itself weakly — in-flight completion callbacks hold the strong
  // refs — so finishing the collective releases the whole chain. Any failed
  // per-peer WR poisons `failed`; the next round boundary turns that into
  // one error completion instead of forwarding stale data further.
  auto shared_done = std::make_shared<Completion>(std::move(done));
  auto failed = std::make_shared<bool>(false);
  auto round = std::make_shared<std::function<void(uint32_t)>>();
  std::weak_ptr<std::function<void(uint32_t)>> weak_round = round;
  *round = [this, root, vaddr, bytes, n, shared_done, failed, weak_round](uint32_t k) {
    auto self = weak_round.lock();
    if (!self) {
      return;
    }
    if (*failed) {
      if (*shared_done) {
        (*shared_done)(false);
      }
      return;
    }
    // Senders this round: relative ranks v < 2^k sending to v + 2^k.
    std::vector<std::pair<uint32_t, uint32_t>> transfers;  // (from, to) absolute
    for (uint32_t v = 0; v < (1u << k); ++v) {
      const uint32_t dst_rel = v + (1u << k);
      if (dst_rel >= n) {
        continue;
      }
      transfers.emplace_back((root + v) % n, (root + dst_rel) % n);
    }
    if (transfers.empty()) {
      if (*shared_done) {
        (*shared_done)(true);
      }
      return;
    }
    auto remaining = std::make_shared<size_t>(transfers.size());
    for (auto [from, to] : transfers) {
      members_[from].stack->PostWrite(QpFor(from, to), vaddr, vaddr, bytes,
                                      [remaining, self, failed, k](bool ok) {
                                        if (!ok) {
                                          *failed = true;
                                        }
                                        if (--*remaining == 0) {
                                          (*self)(k + 1);
                                        }
                                      });
    }
  };
  (*round)(0);
}

void CollectiveGroup::AllGather(uint64_t vaddr, uint64_t chunk_bytes, Completion done) {
  const uint32_t n = static_cast<uint32_t>(members_.size());
  if (n <= 1 || chunk_bytes == 0) {
    engine_->ScheduleAfter(0, [done = std::move(done)]() {
      if (done) {
        done(true);
      }
    });
    return;
  }
  // Ring: in step s, member i forwards chunk (i - s + n) % n to (i + 1) % n.
  // Weak self-capture, as in Broadcast, to avoid a shared_ptr cycle.
  auto shared_done = std::make_shared<Completion>(std::move(done));
  auto failed = std::make_shared<bool>(false);
  auto step = std::make_shared<std::function<void(uint32_t)>>();
  std::weak_ptr<std::function<void(uint32_t)>> weak_step = step;
  *step = [this, vaddr, chunk_bytes, n, shared_done, failed, weak_step](uint32_t s) {
    auto self = weak_step.lock();
    if (!self) {
      return;
    }
    if (*failed) {
      if (*shared_done) {
        (*shared_done)(false);
      }
      return;
    }
    if (s == n - 1) {
      if (*shared_done) {
        (*shared_done)(true);
      }
      return;
    }
    auto remaining = std::make_shared<size_t>(n);
    for (uint32_t i = 0; i < n; ++i) {
      const uint32_t chunk = (i + n - s) % n;
      const uint32_t to = (i + 1) % n;
      const uint64_t addr = vaddr + static_cast<uint64_t>(chunk) * chunk_bytes;
      members_[i].stack->PostWrite(QpFor(i, to), addr, addr, chunk_bytes,
                                   [remaining, self, failed, s](bool ok) {
                                     if (!ok) {
                                       *failed = true;
                                     }
                                     if (--*remaining == 0) {
                                       (*self)(s + 1);
                                     }
                                   });
    }
  };
  (*step)(0);
}

void CollectiveGroup::AllReduceInt32(uint64_t vaddr, uint64_t count, Completion done) {
  const uint32_t n = static_cast<uint32_t>(members_.size());
  if (n <= 1 || count == 0) {
    engine_->ScheduleAfter(0, [done = std::move(done)]() {
      if (done) {
        done(true);
      }
    });
    return;
  }

  // Phase 1 — ring reduce-scatter: after step s, member (c + s + 1) % n holds
  // the partial sum of chunk c over s + 2 contributors. Incoming fragments
  // land in the member's scratch buffer, then fold into the local chunk.
  // One `failed` flag spans both phases: a lost fragment anywhere makes the
  // whole reduction unusable, so the collective errors out at the next
  // barrier instead of folding garbage or stranding the caller.
  auto shared_done = std::make_shared<Completion>(std::move(done));
  auto failed = std::make_shared<bool>(false);
  auto reduce_step = std::make_shared<std::function<void(uint32_t)>>();
  auto gather = [this, vaddr, count, n, shared_done, failed]() {
    // Phase 2 — ring all-gather of the reduced chunks. Member i now owns the
    // fully reduced chunk (i + 1) % n; rotate N-1 times.
    auto step = std::make_shared<std::function<void(uint32_t)>>();
    std::weak_ptr<std::function<void(uint32_t)>> weak_step = step;
    *step = [this, vaddr, count, n, shared_done, failed, weak_step](uint32_t s) {
      auto self = weak_step.lock();
      if (!self) {
        return;
      }
      if (*failed) {
        if (*shared_done) {
          (*shared_done)(false);
        }
        return;
      }
      if (s == n - 1) {
        if (*shared_done) {
          (*shared_done)(true);
        }
        return;
      }
      auto remaining = std::make_shared<size_t>(n);
      for (uint32_t i = 0; i < n; ++i) {
        const uint32_t chunk = (i + 1 + n - s) % n;
        const ChunkRange r = ChunkFor(chunk, n, count);
        const uint32_t to = (i + 1) % n;
        if (r.bytes() == 0) {
          if (--*remaining == 0) {
            (*self)(s + 1);
          }
          continue;
        }
        const uint64_t addr = vaddr + r.offset_bytes();
        members_[i].stack->PostWrite(QpFor(i, to), addr, addr, r.bytes(),
                                     [remaining, self, failed, s](bool ok) {
                                       if (!ok) {
                                         *failed = true;
                                       }
                                       if (--*remaining == 0) {
                                         (*self)(s + 1);
                                       }
                                     });
      }
    };
    (*step)(0);
  };

  std::weak_ptr<std::function<void(uint32_t)>> weak_reduce = reduce_step;
  *reduce_step = [this, vaddr, count, n, shared_done, failed, weak_reduce,
                  gather](uint32_t s) {
    auto self = weak_reduce.lock();
    if (!self) {
      return;
    }
    if (*failed) {
      // Reduce-phase loss: skip the gather phase entirely.
      if (*shared_done) {
        (*shared_done)(false);
      }
      return;
    }
    if (s == n - 1) {
      gather();
      return;
    }
    auto remaining = std::make_shared<size_t>(n);
    auto after_transfers = [this, vaddr, count, n, failed, remaining, self, s]() {
      if (*failed) {
        // Don't fold a fragment that never arrived; the next step entry
        // converts the poisoned flag into the error completion.
        (*self)(s + 1);
        return;
      }
      // Fold each member's scratch fragment into its local chunk.
      for (uint32_t i = 0; i < n; ++i) {
        const uint32_t chunk = (i + n - s - 1) % n;  // chunk received this step
        const ChunkRange r = ChunkFor(chunk, n, count);
        if (r.bytes() == 0) {
          continue;
        }
        Member& m = members_[i];
        std::vector<int32_t> local(r.end_elems - r.begin_elems);
        std::vector<int32_t> incoming(local.size());
        m.svm->ReadVirtual(vaddr + r.offset_bytes(), local.data(), r.bytes());
        m.svm->ReadVirtual(m.scratch_vaddr + r.offset_bytes(), incoming.data(), r.bytes());
        for (size_t e = 0; e < local.size(); ++e) {
          local[e] += incoming[e];
        }
        m.svm->WriteVirtual(vaddr + r.offset_bytes(), local.data(), r.bytes());
      }
      (*self)(s + 1);
    };
    auto barrier = std::make_shared<std::function<void()>>(std::move(after_transfers));
    for (uint32_t i = 0; i < n; ++i) {
      // Member i sends its current partial of chunk (i - s) % n to i+1's
      // scratch.
      const uint32_t chunk = (i + n - s) % n;
      const ChunkRange r = ChunkFor(chunk, n, count);
      const uint32_t to = (i + 1) % n;
      if (r.bytes() == 0) {
        if (--*remaining == 0) {
          (*barrier)();
        }
        continue;
      }
      members_[i].stack->PostWrite(QpFor(i, to), vaddr + r.offset_bytes(),
                                   members_[to].scratch_vaddr + r.offset_bytes(), r.bytes(),
                                   [remaining, barrier, failed](bool ok) {
                                     if (!ok) {
                                       *failed = true;
                                     }
                                     if (--*remaining == 0) {
                                       (*barrier)();
                                     }
                                   });
    }
  };
  (*reduce_step)(0);
}

}  // namespace net
}  // namespace coyote

#include "src/net/collectives.h"

#include <algorithm>
#include <utility>

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
  // Binomial tree over ranks relative to the root: in round k, relative
  // ranks v < 2^k send to v + 2^k.
  const uint32_t n = static_cast<uint32_t>(members_.size());
  std::vector<Step> steps;
  for (uint32_t span = 1; bytes > 0 && span < n; span *= 2) {
    Step& step = steps.emplace_back();
    for (uint32_t v = 0; v < span && v + span < n; ++v) {
      step.writes.push_back({(root + v) % n, (root + v + span) % n, vaddr, vaddr, bytes});
    }
  }
  RunSteps(std::move(steps), std::move(done));
}

void CollectiveGroup::AllGather(uint64_t vaddr, uint64_t chunk_bytes, Completion done) {
  // Ring: in step s, member i forwards chunk (i - s) mod n to member i + 1.
  const uint32_t n = static_cast<uint32_t>(members_.size());
  std::vector<Step> steps(n > 1 && chunk_bytes > 0 ? n - 1 : 0);
  for (uint32_t s = 0; s < steps.size(); ++s) {
    for (uint32_t i = 0; i < n; ++i) {
      const uint64_t addr = vaddr + static_cast<uint64_t>((i + n - s) % n) * chunk_bytes;
      steps[s].writes.push_back({i, (i + 1) % n, addr, addr, chunk_bytes});
    }
  }
  RunSteps(std::move(steps), std::move(done));
}

void CollectiveGroup::AllReduceInt32(uint64_t vaddr, uint64_t count, Completion done) {
  const uint32_t n = static_cast<uint32_t>(members_.size());
  std::vector<Step> steps;
  // Ring reduce-scatter: in step s, member i sends its partial sum of chunk
  // (i - s) mod n into member i + 1's scratch, and the fold adds each
  // received fragment into the receiver's copy. After n - 1 steps member i
  // holds the full sum of chunk (i + 1) mod n.
  for (uint32_t s = 0; count > 0 && s + 1 < n; ++s) {
    Step& step = steps.emplace_back();
    for (uint32_t i = 0; i < n; ++i) {
      const ChunkRange r = ChunkFor((i + n - s) % n, n, count);
      const uint32_t to = (i + 1) % n;
      step.writes.push_back({i, to, vaddr + r.offset_bytes(),
                             members_[to].scratch_vaddr + r.offset_bytes(), r.bytes()});
    }
    step.fold = [this, vaddr, count, n, s]() {
      for (uint32_t i = 0; i < n; ++i) {
        const ChunkRange r = ChunkFor((i + n - s - 1) % n, n, count);  // received this step
        if (r.bytes() == 0) {
          continue;
        }
        Member& m = members_[i];
        // Unsigned words: the int32 sum wraps, as the FPGA adder does,
        // instead of overflowing.
        std::vector<uint32_t> local(r.end_elems - r.begin_elems);
        std::vector<uint32_t> incoming(local.size());
        m.svm->ReadVirtual(vaddr + r.offset_bytes(), local.data(), r.bytes());
        m.svm->ReadVirtual(m.scratch_vaddr + r.offset_bytes(), incoming.data(), r.bytes());
        for (size_t e = 0; e < local.size(); ++e) {
          local[e] += incoming[e];
        }
        m.svm->WriteVirtual(vaddr + r.offset_bytes(), local.data(), r.bytes());
      }
    };
  }
  // Ring all-gather of the reduced chunks: in step s, member i forwards
  // chunk (i + 1 - s) mod n to member i + 1.
  for (uint32_t s = 0; count > 0 && s + 1 < n; ++s) {
    Step& step = steps.emplace_back();
    for (uint32_t i = 0; i < n; ++i) {
      const ChunkRange r = ChunkFor((i + 1 + n - s) % n, n, count);
      const uint64_t addr = vaddr + r.offset_bytes();
      step.writes.push_back({i, (i + 1) % n, addr, addr, r.bytes()});
    }
  }
  RunSteps(std::move(steps), std::move(done));
}

void CollectiveGroup::RunSteps(std::vector<Step> steps, Completion done) {
  if (steps.empty()) {
    engine_->ScheduleAfter(0, [done = std::move(done)]() {
      if (done) {
        done(true);
      }
    });
    return;
  }
  auto run = std::make_shared<Run>();
  run->steps = std::move(steps);
  run->done = std::move(done);
  StartStep(run);
}

void CollectiveGroup::StartStep(const std::shared_ptr<Run>& run) {
  if (run->failed || run->step == run->steps.size()) {
    if (run->done) {
      run->done(!run->failed);
    }
    return;
  }
  // The extra count holds the step open until every WRITE is posted. Each
  // posted WRITE's completion holds the run, so the last one releases it.
  run->outstanding = 1;
  for (const Write& w : run->steps[run->step].writes) {
    if (w.bytes == 0) {
      continue;
    }
    ++run->outstanding;
    members_[w.from].stack->PostWrite(qp_[w.from][w.to], w.local_vaddr, w.remote_vaddr, w.bytes,
                                      [this, run](bool ok) {
                                        if (!ok) {
                                          run->failed = true;
                                        }
                                        EndWrite(run);
                                      });
  }
  EndWrite(run);
}

void CollectiveGroup::EndWrite(const std::shared_ptr<Run>& run) {
  if (--run->outstanding > 0) {
    return;
  }
  const Step& step = run->steps[run->step++];
  if (!run->failed && step.fold) {
    step.fold();
  }
  StartStep(run);
}

}  // namespace net
}  // namespace coyote

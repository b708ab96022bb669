#include "src/dyn/data_mover.h"

#include <cassert>
#include <utility>

#include "src/sim/access_guard.h"

namespace coyote {
namespace dyn {

namespace {
// Arbitration source id for page migrations on the shared links.
constexpr uint32_t kMigrationSource = 0xFFFF'FFFD;
}  // namespace

struct DataMover::ReadOp {
  TransferRequest req;
  axi::Stream* dst = nullptr;
  Completion done;
  uint64_t next_issue = 0;        // byte offset of the next packet to issue
  uint64_t next_seq_issue = 0;    // sequence number of the next packet
  uint64_t next_seq_deliver = 0;  // in-order delivery cursor
  std::map<uint64_t, axi::StreamPacket> reorder;
  uint64_t packets_delivered = 0;
  uint64_t packets_total = 0;
  bool failed = false;
  bool completed = false;
};

struct DataMover::WriteOp {
  TransferRequest req;
  axi::Stream* src = nullptr;
  Completion done;
  uint64_t consumed = 0;  // bytes popped from the source stream
  uint64_t written = 0;   // bytes committed to memory
  bool failed = false;
  bool completed = false;
};

DataMover::DataMover(sim::Engine* engine, mmu::Svm* svm, memsys::CardMemory* card,
                     memsys::GpuMemory* gpu, XdmaCore* xdma, const Config& config)
    : engine_(engine),
      svm_(svm),
      card_(card),
      gpu_(gpu),
      xdma_(xdma),
      config_(config),
      gpu_link_(engine, {kGpuP2pBps, 0, XdmaCore::kPcieLatency}) {}

void DataMover::RegisterVfpga(uint32_t vfpga_id, mmu::Mmu* mmu) { mmus_[vfpga_id] = mmu; }

axi::CreditCounter& DataMover::CreditsFor(
    std::map<std::pair<uint64_t, uint32_t>, std::unique_ptr<axi::CreditCounter>>& table,
    uint32_t vfpga_id, uint32_t stream) {
  const auto key = std::make_pair(static_cast<uint64_t>(vfpga_id), stream);
  auto it = table.find(key);
  if (it == table.end()) {
    it = table.emplace(key, std::make_unique<axi::CreditCounter>(config_.credits_per_stream))
             .first;
  }
  return *it->second;
}

axi::CreditCounter& DataMover::ReadCredits(uint32_t vfpga_id, uint32_t stream) {
  return CreditsFor(read_credits_, vfpga_id, stream);
}
axi::CreditCounter& DataMover::WriteCredits(uint32_t vfpga_id, uint32_t stream) {
  return CreditsFor(write_credits_, vfpga_id, stream);
}

void DataMover::SubmitPhysical(uint32_t vfpga_id, mmu::MemKind kind, uint64_t phys_addr,
                               uint64_t bytes, bool to_memory, sim::InlineCallback on_done) {
  switch (kind) {
    case mmu::MemKind::kHost:
      // Reads from host memory cross H2C, writes to it cross C2H.
      (to_memory ? xdma_->c2h() : xdma_->h2c()).Submit(vfpga_id, bytes, std::move(on_done));
      break;
    case mmu::MemKind::kCard:
      card_->Access(phys_addr, bytes, vfpga_id, std::move(on_done));
      break;
    case mmu::MemKind::kGpu:
      gpu_link_.Submit(vfpga_id, bytes, std::move(on_done));
      break;
    case mmu::MemKind::kNvme: {
      // A cold page served in place: the NVMe command latency dominates.
      // The tiering service exists to make this path rare.
      assert(nvme_ != nullptr && "kNvme residency without an attached drive");
      constexpr uint64_t kBlock = memsys::NvmeDrive::kBlockBytes;
      const uint64_t lba = phys_addr / kBlock;
      const auto blocks = static_cast<uint32_t>((bytes + kBlock - 1) / kBlock);
      if (to_memory) {
        nvme_->WriteCommand(lba, blocks, vfpga_id, std::move(on_done));
      } else {
        nvme_->ReadCommand(lba, blocks, vfpga_id, std::move(on_done));
      }
      break;
    }
  }
}

template <typename Op, typename OnPage, typename OnFault>
void DataMover::Resolve(const std::shared_ptr<Op>& op, mmu::Mmu* mmu, uint64_t vaddr,
                        OnPage on_page, OnFault on_fault) {
  mmu->Translate(vaddr, [this, op, mmu, vaddr, on_page = std::move(on_page),
                         on_fault = std::move(on_fault)](std::optional<mmu::PhysPage> e) {
    if (op->completed) {
      // Aborted while the translation was in flight; the result is stale
      // (and an aborted write's credit counter was already reset).
      return;
    }
    if (!e) {
      on_fault();
      return;
    }
    const uint64_t page_bytes = svm_->page_table().page_bytes();
    if (e->kind == op->req.target) {
      on_page(e->kind, e->addr + (vaddr % page_bytes));
      return;
    }
    // Page fault: data not in the memory this transfer addresses. Migrate
    // the page, then re-translate (untimed: the driver already has the new
    // entry in hand when it resumes the transfer).
    const uint64_t page_base = (vaddr / page_bytes) * page_bytes;
    svm_->EnsureResident(page_base, page_bytes, op->req.target,
                         [mmu, vaddr, page_bytes, on_page, on_fault]() {
                           auto e2 = mmu->TranslateUntimed(vaddr);
                           if (!e2) {
                             on_fault();
                             return;
                           }
                           on_page(e2->kind, e2->addr + (vaddr % page_bytes));
                         });
  });
}

void DataMover::Read(const TransferRequest& req, axi::Stream* dst, Completion done) {
  auto op = std::make_shared<ReadOp>();
  op->req = req;
  op->dst = dst;
  op->done = std::move(done);

  // Count packets (page-boundary-aware) so delivery knows when it is done.
  const uint64_t page = svm_->page_table().page_bytes();
  uint64_t off = 0;
  while (off < req.bytes) {
    const uint64_t to_page_end = page - ((req.vaddr + off) % page);
    const uint64_t n = std::min({config_.packet_bytes, req.bytes - off, to_page_end});
    off += n;
    ++op->packets_total;
  }
  if (op->packets_total == 0) {
    engine_->ScheduleAfter(0, [op]() {
      if (op->done) {
        op->done(true);
      }
    });
    return;
  }

  // Wire credit replenishment: every packet the kernel pops from this stream
  // frees one destination-queue slot.
  axi::CreditCounter& credits = ReadCredits(req.vfpga_id, req.stream);
  dst->set_on_space([&credits]() { credits.Release(1); });

  // Serialize transfers per (vfpga, stream): only the queue head issues.
  auto& queue = read_queues_[{req.vfpga_id, req.stream}];
  queue.push_back(op);
  if (queue.size() == 1) {
    IssueReadPackets(op);
  }
}

void DataMover::IssueReadPackets(const std::shared_ptr<ReadOp>& op) {
  mmu::Mmu* mmu = mmus_.at(op->req.vfpga_id);
  axi::CreditCounter& credits = ReadCredits(op->req.vfpga_id, op->req.stream);
  const uint64_t page = svm_->page_table().page_bytes();

  while (op->next_issue < op->req.bytes && !op->failed) {
    if (!credits.TryAcquire()) {
      credits.WaitForCredit([this, op]() { IssueReadPackets(op); });
      return;
    }
    const uint64_t off = op->next_issue;
    const uint64_t vaddr = op->req.vaddr + off;
    const uint64_t to_page_end = page - (vaddr % page);
    const uint64_t n = std::min({config_.packet_bytes, op->req.bytes - off, to_page_end});
    const uint64_t seq = op->next_seq_issue++;
    op->next_issue += n;

    auto deliver = [this, op, off, n, seq](mmu::MemKind kind, uint64_t phys) {
      SubmitPhysical(op->req.vfpga_id, kind, phys, n, /*to_memory=*/false,
                     [this, op, off, n, seq]() {
                       if (op->completed) {
                         // Aborted while the physical read was in flight: the
                         // op's buffers may already be unmapped (shed and
                         // evacuation free them right after AbortVfpga), so
                         // drop the packet without touching the SVM.
                         return;
                       }
                       axi::StreamPacket pkt;
                       pkt.data.resize(n);
                       svm_->ReadVirtual(op->req.vaddr + off, pkt.data.data(), n);
                       pkt.tid = op->req.tid;
                       pkt.tdest = op->req.stream;
                       pkt.last = (off + n == op->req.bytes);
                       DeliverInOrder(op, seq, std::move(pkt));
                     });
    };
    // A read fault always raises the page-fault MSI-X; the first one also
    // fails the op and retires the stream's queue head.
    auto fail = [this, op]() {
      xdma_->RaiseMsix(kMsixPageFault, op->req.vaddr);
      ++page_fault_irqs_;
      if (!op->failed) {
        op->failed = true;
        if (op->done && !op->completed) {
          op->completed = true;
          op->done(false);
        }
        // A faulted transfer must not wedge the stream's descriptor queue.
        RetireReadOp(op);
      }
    };
    Resolve(op, mmu, vaddr, std::move(deliver), std::move(fail));
  }
}

void DataMover::DeliverInOrder(const std::shared_ptr<ReadOp>& op, uint64_t seq,
                               axi::StreamPacket pkt) {  // lint: hot-copy-ok (sink owns)
  if (op->completed || op->failed) {
    // Aborted or faulted op: in-flight packets drain to the floor rather
    // than leaking a dead kernel's data into the destination stream.
    return;
  }
  op->reorder.emplace(seq, std::move(pkt));
  while (!op->reorder.empty() && op->reorder.begin()->first == op->next_seq_deliver) {
    op->dst->Push(std::move(op->reorder.begin()->second));
    op->reorder.erase(op->reorder.begin());
    ++op->next_seq_deliver;
    ++op->packets_delivered;
    ++packets_moved_;
    ++packets_moved_by_vfpga_[op->req.vfpga_id];
  }
  if (op->packets_delivered == op->packets_total && !op->completed) {
    op->completed = true;
    if (op->done) {
      op->done(true);
    }
    RetireReadOp(op);
  }
}

void DataMover::RetireReadOp(const std::shared_ptr<ReadOp>& op) {
  auto it = read_queues_.find({op->req.vfpga_id, op->req.stream});
  if (it != read_queues_.end() && !it->second.empty() && it->second.front() == op) {
    it->second.pop_front();
    if (!it->second.empty()) {
      IssueReadPackets(it->second.front());
    }
  }
}

void DataMover::Write(const TransferRequest& req, axi::Stream* src, Completion done) {
  auto op = std::make_shared<WriteOp>();
  op->req = req;
  op->src = src;
  op->done = std::move(done);
  if (req.bytes == 0) {
    engine_->ScheduleAfter(0, [op]() {
      if (op->done) {
        op->done(true);
      }
    });
    return;
  }
  // Keep the per-region abort index tight: completed ops expire their weak
  // pointers, which we prune before appending.
  auto& index = write_ops_by_vfpga_[req.vfpga_id];
  std::erase_if(index, [](const std::weak_ptr<WriteOp>& w) { return w.expired(); });
  index.push_back(op);
  auto& queue = write_queues_[src];
  queue.push_back(op);
  src->set_on_data([this, src]() { PumpWrites(src); });
  PumpWrites(src);
}

void DataMover::PumpWrites(axi::Stream* src) {
  auto& queue = write_queues_[src];
  while (!queue.empty()) {
    std::shared_ptr<WriteOp> op = queue.front();
    if (op->consumed == op->req.bytes) {
      // Fully consumed; completion fires when writes land. Next op owns the
      // stream from here.
      queue.pop_front();
      continue;
    }
    if (src->Empty()) {
      return;
    }
    axi::CreditCounter& credits = WriteCredits(op->req.vfpga_id, op->req.stream);
    if (!credits.TryAcquire()) {
      credits.WaitForCredit([this, src]() { PumpWrites(src); });
      return;
    }
    auto pkt = src->Pop();
    assert(pkt.has_value());
    const uint64_t n = pkt->data.size();
    assert(op->consumed + n <= op->req.bytes &&
           "kernel produced more bytes than the write request covers");
    const uint64_t off = op->consumed;
    op->consumed += n;

    mmu::Mmu* mmu = mmus_.at(op->req.vfpga_id);
    const uint64_t vaddr = op->req.vaddr + off;
    // Take over the packet's payload view: the capture chain below shares the
    // ref-counted buffer instead of copying the bytes per hop.
    const axi::BufferView data = std::move(pkt->data);

    auto commit = [this, op, vaddr, data, &credits](mmu::MemKind kind, uint64_t phys) {
      SubmitPhysical(op->req.vfpga_id, kind, phys, data.size(), /*to_memory=*/true,
                     [this, op, vaddr, data, &credits]() {
                       if (op->completed) {
                         // Aborted mid-flight: drop the data, and leave the
                         // credit counter alone — the abort reset it to full.
                         return;
                       }
                       svm_->WriteVirtual(vaddr, data.data(), data.size());
                       op->written += data.size();
                       ++packets_moved_;
                       ++packets_moved_by_vfpga_[op->req.vfpga_id];
                       credits.Release(1);
                       if (op->written == op->req.bytes && !op->completed) {
                         op->completed = true;
                         if (op->done) {
                           op->done(true);
                         }
                       }
                     });
    };
    // A write fault releases its credit and fails the op, unless the op has
    // already completed.
    auto fail = [this, op, &credits]() {
      if (op->completed) {
        return;
      }
      xdma_->RaiseMsix(kMsixPageFault, op->req.vaddr);
      ++page_fault_irqs_;
      credits.Release(1);
      op->failed = true;
      op->completed = true;
      if (op->done) {
        op->done(false);
      }
    };
    Resolve(op, mmu, vaddr, std::move(commit), std::move(fail));
  }
}

void DataMover::Migrate(uint64_t vaddr, uint64_t bytes, mmu::MemKind to, Completion done) {
  svm_->EnsureResident(vaddr, bytes, to, [done = std::move(done)]() {
    if (done) {
      done(true);
    }
  });
}

size_t DataMover::OutstandingOps(uint32_t vfpga_id) const {
  size_t live = 0;
  const auto lo = read_queues_.lower_bound({vfpga_id, 0});
  const auto hi = read_queues_.lower_bound({static_cast<uint64_t>(vfpga_id) + 1, 0});
  for (auto it = lo; it != hi; ++it) {
    for (const auto& op : it->second) {
      if (!op->completed) {
        ++live;
      }
    }
  }
  auto wit = write_ops_by_vfpga_.find(vfpga_id);
  if (wit != write_ops_by_vfpga_.end()) {
    for (const auto& weak : wit->second) {
      if (auto op = weak.lock(); op && !op->completed) {
        ++live;
      }
    }
  }
  return live;
}

uint64_t DataMover::AbortVfpga(uint32_t vfpga_id) {
  uint64_t aborted = 0;

  // Error-complete the op if it is still live. Ordering is deterministic:
  // read queues in (vfpga, stream) key order, then writes in issue order.
  auto kill_read = [&aborted](const std::shared_ptr<ReadOp>& op) {
    if (op->completed) {
      return;
    }
    op->failed = true;
    op->completed = true;
    ++aborted;
    if (op->done) {
      op->done(false);
    }
  };
  const auto lo = read_queues_.lower_bound({vfpga_id, 0});
  const auto hi = read_queues_.lower_bound({static_cast<uint64_t>(vfpga_id) + 1, 0});
  for (auto it = lo; it != hi; ++it) {
    for (auto& op : it->second) {
      kill_read(op);
    }
    it->second.clear();
  }

  auto wit = write_ops_by_vfpga_.find(vfpga_id);
  if (wit != write_ops_by_vfpga_.end()) {
    for (auto& weak : wit->second) {
      auto op = weak.lock();
      if (!op || op->completed) {
        continue;
      }
      op->failed = true;
      op->completed = true;
      ++aborted;
      if (op->done) {
        op->done(false);
      }
      // Unlink from the source stream's descriptor queue so PumpWrites never
      // waits on bytes the dead kernel will not produce.
      auto qit = write_queues_.find(op->src);
      if (qit != write_queues_.end()) {
        std::erase(qit->second, op);
      }
    }
    write_ops_by_vfpga_.erase(wit);
  }

  // Fresh credit state for the reprogrammed region; stale waiters belong to
  // the aborted ops and are dropped.
  const auto clo = std::make_pair(static_cast<uint64_t>(vfpga_id), 0u);
  const auto chi = std::make_pair(static_cast<uint64_t>(vfpga_id) + 1, 0u);
  for (auto it = read_credits_.lower_bound(clo); it != read_credits_.lower_bound(chi); ++it) {
    it->second->Reset(config_.credits_per_stream);
  }
  for (auto it = write_credits_.lower_bound(clo); it != write_credits_.lower_bound(chi); ++it) {
    it->second->Reset(config_.credits_per_stream);
  }

  // TLB shootdown: the recovered region must re-fault its translations, like
  // the invalidation hook this runs as the DMA actor.
  auto mit = mmus_.find(vfpga_id);
  if (mit != mmus_.end()) {
    sim::ActorScope actor(sim::kActorDma);
    mit->second->InvalidateTlbAll();
  }

  aborted_ops_ += aborted;
  return aborted;
}

mmu::Svm::MigrationHooks DataMover::MakeMigrationHooks() {
  mmu::Svm::MigrationHooks hooks;
  hooks.transfer = [this](mmu::MemKind from, mmu::MemKind to, uint64_t bytes,
                          std::function<void()> cb) {
    if (from == mmu::MemKind::kGpu || to == mmu::MemKind::kGpu) {
      gpu_link_.Submit(kMigrationSource, bytes, std::move(cb));
    } else if (to == mmu::MemKind::kNvme) {
      // Cold demotion wave: one bulk write command to the drive (the
      // write-back cache acks quickly; sustained bandwidth still gates).
      assert(nvme_ != nullptr && "demoting to kNvme without an attached drive");
      constexpr uint64_t kBlock = memsys::NvmeDrive::kBlockBytes;
      nvme_->WriteCommand(0, static_cast<uint32_t>((bytes + kBlock - 1) / kBlock),
                          kMigrationSource, std::move(cb));
    } else if (from == mmu::MemKind::kNvme) {
      // Promotion out of the cold tier: the drive read dominates; a card
      // destination additionally crosses H2C and occupies the HBM crossbar.
      assert(nvme_ != nullptr && "promoting from kNvme without an attached drive");
      constexpr uint64_t kBlock = memsys::NvmeDrive::kBlockBytes;
      const auto blocks = static_cast<uint32_t>((bytes + kBlock - 1) / kBlock);
      if (to == mmu::MemKind::kCard) {
        nvme_->ReadCommand(0, blocks, kMigrationSource,
                           [this, bytes, cb = std::move(cb)]() mutable {
                             xdma_->h2c().Submit(kMigrationSource, bytes,
                                                 [this, bytes, cb = std::move(cb)]() mutable {
                                                   card_->Access(0, bytes, kMigrationSource,
                                                                 std::move(cb));
                                                 });
                           });
      } else {
        nvme_->ReadCommand(0, blocks, kMigrationSource, std::move(cb));
      }
    } else if (to == mmu::MemKind::kCard) {
      // host -> card: data crosses the H2C direction, then lands in HBM; the
      // HBM side is faster, so PCIe dominates; we additionally charge the
      // card-side write to model crossbar occupancy.
      xdma_->h2c().Submit(kMigrationSource, bytes, [this, bytes, cb = std::move(cb)]() mutable {
        card_->Access(0, bytes, kMigrationSource, std::move(cb));
      });
    } else {
      xdma_->c2h().Submit(kMigrationSource, bytes, std::move(cb));
    }
  };
  hooks.invalidate = [this](uint64_t vaddr) {
    // TLB shootdown runs as the DMA actor: it touches every vFPGA's TLB, and
    // a same-epoch translation by another actor is a modeled race.
    sim::ActorScope actor(sim::kActorDma);
    for (auto& [id, mmu] : mmus_) {
      mmu->InvalidateTlb(vaddr);
    }
  };
  return hooks;
}

}  // namespace dyn
}  // namespace coyote

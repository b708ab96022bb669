#include "src/runtime/cthread.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "src/runtime/serving.h"

namespace coyote {
namespace runtime {
namespace {

memsys::AllocKind ToAllocKind(Alloc a) {
  switch (a) {
    case Alloc::kReg:
      return memsys::AllocKind::kRegular;
    case Alloc::kHpf:
      return memsys::AllocKind::kHuge2M;
    case Alloc::kHuge1G:
      return memsys::AllocKind::kHuge1G;
  }
  return memsys::AllocKind::kRegular;
}

}  // namespace

CThread::CThread(SimDevice* dev, uint32_t vfpga_id, int64_t ctid)
    : dev_(dev), vfpga_id_(vfpga_id) {
  ctid_ = ctid < 0 ? dev_->AllocateCtid(vfpga_id)
                   : static_cast<uint32_t>(ctid) % 4096;

  // Writeback slots: the shell updates these host-memory counters when
  // transfers complete, so completion checks never cross PCIe (§5.1).
  const uint64_t rd_writeback = dev_->host_memory().Allocate(64, memsys::AllocKind::kRegular);
  const uint64_t wr_writeback = dev_->host_memory().Allocate(64, memsys::AllocKind::kRegular);
  dev_->writeback().RegisterSlot({vfpga_id_, ctid_, false}, rd_writeback);
  dev_->writeback().RegisterSlot({vfpga_id_, ctid_, true}, wr_writeback);
}

uint64_t CThread::GetMem(const AllocSpec& spec) {
  const uint64_t vaddr = dev_->host_memory().Allocate(spec.bytes, ToAllocKind(spec.kind));
  auto alloc = dev_->host_memory().FindAllocation(vaddr);
  dev_->svm().RegisterHostBuffer(vaddr, alloc->bytes);
  // Pre-warm this vFPGA's TLB for the buffer's pages.
  mmu::Mmu& mmu = dev_->vfpga_mmu(vfpga_id_);
  const uint64_t page = dev_->svm().page_table().page_bytes();
  for (uint64_t a = vaddr; a < vaddr + alloc->bytes; a += page) {
    if (auto entry = dev_->svm().page_table().Find(a)) {
      mmu.tlb().Insert(a, *entry);
    }
  }
  return vaddr;
}

bool CThread::FreeMem(uint64_t vaddr) {
  auto alloc = dev_->host_memory().FindAllocation(vaddr);
  if (!alloc) {
    return false;
  }
  const uint64_t page = dev_->svm().page_table().page_bytes();
  for (uint64_t a = vaddr; a < vaddr + alloc->bytes; a += page) {
    dev_->svm().page_table().Unmap(a);
    dev_->vfpga_mmu(vfpga_id_).InvalidateTlb(a);
  }
  return dev_->host_memory().Free(vaddr);
}

void CThread::WriteBuffer(uint64_t vaddr, const void* src, uint64_t len) {
  dev_->svm().WriteVirtual(vaddr, src, len);
}

void CThread::ReadBuffer(uint64_t vaddr, void* dst, uint64_t len) {
  dev_->svm().ReadVirtual(vaddr, dst, len);
}

void CThread::SetCsr(uint64_t value, uint32_t index) {
  // Posted BAR write: charge the PCIe latency, then the register updates.
  auto& region = dev_->vfpga(vfpga_id_);
  dev_->engine().ScheduleAfter(dyn::XdmaCore::kBarWriteLatency,
                               [&region, value, index]() { region.csr().Write(index, value); });
  // The host program "blocks" for the posted write to drain so that
  // subsequent invokes observe the register (simplest coherent model).
  dev_->engine().RunUntil(dev_->engine().Now() + dyn::XdmaCore::kBarWriteLatency);
}

uint64_t CThread::GetCsr(uint32_t index) {
  // Non-posted read: full round trip before the value is available.
  dev_->engine().RunUntil(dev_->engine().Now() + dyn::XdmaCore::kBarReadLatency);
  return dev_->vfpga(vfpga_id_).csr().Read(index);
}

uint32_t CThread::StreamFor(uint32_t requested) const {
  if (requested != SgEntry::kAutoStream) {
    return requested;
  }
  return ctid_ % dev_->vfpga(vfpga_id_).config().num_host_streams;
}

void CThread::FinishTask(uint64_t task_id, bool ok, bool write_direction) {
  auto it = live_.find(task_id);
  if (it == live_.end()) {
    return;  // already forced terminal (deadline/abort); late completion
  }
  Live& state = it->second;
  state.ok = state.ok && ok;
  if (--state.remaining == 0) {
    Retire(it, state.ok ? OpStatus::kOk : OpStatus::kError, write_direction);
  }
}

void CThread::ForceTerminal(uint64_t task_id, OpStatus status) {
  auto it = live_.find(task_id);
  if (it != live_.end()) {
    // Complete the writeback slot so a host spinning on the counter unblocks
    // with the error status instead of hanging with the stuck hardware.
    Retire(it, status, /*write_direction=*/true);
  }
}

void CThread::Retire(std::map<uint64_t, Live>::iterator it, OpStatus status,
                     bool write_direction) {
  tasks_guard_.Write();
  const uint64_t task_id = it->first;
  if (it->second.deadline_timer != sim::TimerWheel::kInvalidTimer) {
    dev_->timers().Cancel(it->second.deadline_timer);
  }
  live_.erase(it);
  status_[task_id] = status;
  dev_->writeback().Complete({vfpga_id_, ctid_, write_direction});
  if (completion_cb_) {
    // After the writeback so host pollers and the callback agree. The
    // callback may Invoke, so nothing here refers into live_ or status_.
    completion_cb_(Task{task_id}, status);
  }
}

CThread::Task CThread::Invoke(Oper oper, const SgEntry& sg) {
  tasks_guard_.Write();
  const uint64_t task_id = status_.size();
  status_.push_back(OpStatus::kPending);
  Live& state = live_[task_id];

  auto& region = dev_->vfpga(vfpga_id_);
  auto& mover = dev_->data_mover();
  const sim::TimePs start = dev_->engine().Now() + SimDevice::kInvokeLatency;

  const uint32_t src_stream = StreamFor(sg.local.src_stream);
  const uint32_t dst_stream = StreamFor(sg.local.dst_stream);

  switch (oper) {
    case Oper::kNoop:
      break;
    case Oper::kLocalTransfer:
    case Oper::kLocalRead:
    case Oper::kLocalWrite: {
      if (oper != Oper::kLocalWrite && sg.local.src_len > 0) {
        ++state.remaining;
        dyn::TransferRequest req{vfpga_id_, ctid_, src_stream, sg.local.src_addr,
                                 sg.local.src_len, sg.local.src_target};
        axi::Stream* dst = sg.local.src_target == mmu::MemKind::kCard
                               ? &region.card_in(src_stream)
                               : &region.host_in(src_stream);
        dev_->engine().ScheduleAt(start, [this, task_id, req, dst, &mover]() {
          mover.Read(req, dst, [this, task_id](bool ok) { FinishTask(task_id, ok, false); });
        });
      }
      if (oper != Oper::kLocalRead && sg.local.dst_len > 0) {
        ++state.remaining;
        dyn::TransferRequest req{vfpga_id_, ctid_, dst_stream, sg.local.dst_addr,
                                 sg.local.dst_len, sg.local.dst_target};
        axi::Stream* src = sg.local.dst_target == mmu::MemKind::kCard
                               ? &region.card_out(dst_stream)
                               : &region.host_out(dst_stream);
        dev_->engine().ScheduleAt(start, [this, task_id, req, src, &mover]() {
          mover.Write(req, src, [this, task_id](bool ok) { FinishTask(task_id, ok, true); });
        });
      }
      break;
    }
    case Oper::kMigrateToCard:
    case Oper::kMigrateToHost: {
      ++state.remaining;
      const mmu::MemKind target =
          oper == Oper::kMigrateToCard ? mmu::MemKind::kCard : mmu::MemKind::kHost;
      dev_->engine().ScheduleAt(start, [this, task_id, sg, target, &mover]() {
        mover.Migrate(sg.local.src_addr, sg.local.src_len, target,
                      [this, task_id](bool ok) { FinishTask(task_id, ok, true); });
      });
      break;
    }
    case Oper::kStorageRead:
    case Oper::kStorageWrite: {
      memsys::NvmeDrive* drive = dev_->nvme();
      ++state.remaining;
      if (drive == nullptr) {
        // Shell built without the storage service: the request faults.
        dev_->engine().ScheduleAt(start, [this, task_id]() {
          FinishTask(task_id, false, true);
        });
        break;
      }
      constexpr uint32_t kBlock = memsys::NvmeDrive::kBlockBytes;
      const auto blocks = static_cast<uint32_t>((sg.storage.len + kBlock - 1) / kBlock);
      const bool is_read = oper == Oper::kStorageRead;
      dev_->engine().ScheduleAt(start, [this, task_id, sg, drive, blocks, is_read]() {
        const uint64_t byte_addr = sg.storage.lba * kBlock;
        if (is_read) {
          drive->ReadCommand(sg.storage.lba, blocks, vfpga_id_,
                             [this, task_id, sg, drive, byte_addr]() {
                               std::vector<uint8_t> buf(sg.storage.len);
                               drive->store().Read(byte_addr, buf.data(), buf.size());
                               dev_->svm().WriteVirtual(sg.storage.vaddr, buf.data(),
                                                        buf.size());
                               FinishTask(task_id, true, false);
                             });
        } else {
          std::vector<uint8_t> buf(sg.storage.len);
          dev_->svm().ReadVirtual(sg.storage.vaddr, buf.data(), buf.size());
          drive->store().Write(byte_addr, buf.data(), buf.size());
          drive->WriteCommand(sg.storage.lba, blocks, vfpga_id_,
                              [this, task_id]() { FinishTask(task_id, true, true); });
        }
      });
      break;
    }
    case Oper::kRemoteWrite:
    case Oper::kRemoteRead: {
      net::RoceStack* roce = dev_->roce();
      ++state.remaining;
      if (roce == nullptr) {
        // Shell built without the RDMA service: typed error completion
        // instead of a crash or a silent stall.
        dev_->engine().ScheduleAt(start, [this, task_id]() {
          FinishTask(task_id, false, true);
        });
        break;
      }
      const bool is_write = oper == Oper::kRemoteWrite;
      dev_->engine().ScheduleAt(start, [this, task_id, sg, roce, is_write]() {
        auto done = [this, task_id](bool ok) { FinishTask(task_id, ok, true); };
        if (is_write) {
          roce->PostWrite(sg.rdma.qpn, sg.rdma.local_addr, sg.rdma.remote_addr, sg.rdma.len,
                          done);
        } else {
          roce->PostRead(sg.rdma.qpn, sg.rdma.local_addr, sg.rdma.remote_addr, sg.rdma.len,
                         done);
        }
      });
      break;
    }
  }

  if (state.remaining == 0) {
    state.remaining = 1;
    dev_->engine().ScheduleAt(start, [this, task_id]() { FinishTask(task_id, true, false); });
  }

  // Arm the per-op deadline; 0 means the op may wait forever.
  if (op_deadline_ != 0) {
    state.deadline_timer = dev_->timers().ScheduleAfter(op_deadline_, [this, task_id]() {
      if (!live_.contains(task_id)) {
        return;
      }
      ++deadline_misses_;
      ForceTerminal(task_id, OpStatus::kDeadlineExceeded);
      dev_->NotifyOpDeadline(vfpga_id_);
    });
  }
  return Task{task_id};
}

bool CThread::CheckCompleted(Task task) const {
  return Status(task) != OpStatus::kPending;
}

bool CThread::Wait(Task task) {
  dev_->WaitFor([this, task]() { return CheckCompleted(task); });
  return Status(task) == OpStatus::kOk;
}

OpStatus CThread::Status(Task task) const {
  return task.id < status_.size() ? status_[task.id] : OpStatus::kPending;
}

size_t CThread::AbortPending(OpStatus status) {
  // Collect first: ForceTerminal fires the completion callback, which may
  // Invoke new work and mutate live_ under a live iterator.
  std::vector<uint64_t> pending;
  for (const auto& [id, state] : live_) {
    pending.push_back(id);
  }
  for (uint64_t id : pending) {
    ForceTerminal(id, status);
  }
  return pending.size();
}

void CThread::SetInterruptCallback(std::function<void(uint64_t value)> cb) {
  // eventfd-style: the driver routes this vFPGA's user vector to the
  // callback. One callback per vFPGA in this model; last writer wins, as
  // with re-registering an eventfd.
  const uint32_t id = vfpga_id_;
  dev_->SetUserInterruptCallback(
      [id, cb = std::move(cb)](uint32_t vfpga_id, uint64_t value) {
        if (vfpga_id == id && cb) {
          cb(value);
        }
      });
}

uint32_t CThread::CreateQp() {
  assert(dev_->roce() != nullptr);
  return dev_->roce()->CreateQp();
}

void CThread::ConnectQp(uint32_t local_qpn, uint32_t remote_ip, uint32_t remote_qpn) {
  assert(dev_->roce() != nullptr);
  dev_->roce()->Connect(local_qpn, remote_ip, remote_qpn);
}

namespace serving {

RegionExec::RegionExec(SimDevice* dev, uint32_t region, int64_t ctid, uint64_t buffer_bytes,
                       OnDone on_done)
    : thread_(dev, region, ctid),
      bytes_(buffer_bytes),
      src_(thread_.GetMem({Alloc::kHpf, buffer_bytes})),
      dst_(thread_.GetMem({Alloc::kHpf, buffer_bytes})),
      on_done_(std::move(on_done)) {
  thread_.SetCompletionCallback(
      [this](CThread::Task task, OpStatus status) { OnComplete(task, status); });
}

void RegionExec::OnComplete(CThread::Task task, OpStatus status) {
  if (!busy_ || task.id != task_) {
    return;
  }
  busy_ = false;
  on_done_(status);
}

void RegionExec::Issue(const Op& op) {
  task_ = thread_.Invoke(op.oper, op.sg).id;
  op_ = op;
  busy_ = true;
}

bool RegionExec::Start(const ServingRequest& req) {
  if (req.payload.size() > bytes_ || ResponseBytes(req) > bytes_) {
    return false;
  }
  Issue({Oper::kLocalTransfer, Stage(&thread_, src_, dst_, req)});
  return true;
}

std::vector<uint8_t> RegionExec::ReadBack(uint64_t len) {
  std::vector<uint8_t> out(len);
  thread_.ReadBuffer(dst_, out.data(), len);
  return out;
}

void RegionExec::Abort(OpStatus status) {
  if (busy_) {
    thread_.AbortPending(status);
  }
}

void RegionExec::Quiesce(OpStatus status) {
  if (busy_) {
    held_ = op_;
  }
  Abort(status);
  thread_.device().data_mover().AbortVfpga(region());
  thread_.device().vfpga(region()).FlushStreams();
}

bool RegionExec::Reissue() {
  if (!held_) {
    return false;
  }
  Issue(*held_);
  held_.reset();
  return true;
}

void RegionExec::Release() {
  if (src_ != 0) {
    thread_.FreeMem(src_);
    thread_.FreeMem(dst_);
    src_ = dst_ = 0;
  }
}

uint64_t RegionExec::WriteSection(sim::wire::Writer* w) {
  // Buffer-relative: virtual addresses differ across nodes.
  const Op* op = held_ ? &*held_ : busy_ ? &op_ : nullptr;
  w->U32(op != nullptr ? 1 : 0);
  if (op != nullptr) {
    w->U8(static_cast<uint8_t>(op->oper));
    w->U64(op->sg.local.src_addr - src_);
    w->U64(op->sg.local.src_len);
    w->U64(op->sg.local.dst_addr - dst_);
    w->U64(op->sg.local.dst_len);
  }
  // Dirty-page manifest from the SVM layer: only pages ever written ship;
  // the restore target reproduces untouched (zero) pages for free. Segments
  // are clipped to the buffer, so a small buffer inside a hugepage does not
  // drag the whole 2 MB across the wire.
  uint64_t pages = 0;
  const mmu::Svm& svm = thread_.device().svm();
  const uint64_t page_bytes = svm.page_table().page_bytes();
  for (const uint64_t vaddr : {src_, dst_}) {
    const std::vector<uint64_t> dirty = svm.DirtyPagesIn(vaddr, bytes_, 0);
    pages += dirty.size();
    w->U32(static_cast<uint32_t>(dirty.size()));
    for (const uint64_t vpage : dirty) {
      const uint64_t page_start = vpage * page_bytes;
      const uint64_t seg_start = std::max(page_start, vaddr);
      const uint64_t seg_end = std::min(page_start + page_bytes, vaddr + bytes_);
      std::vector<uint8_t> content(seg_end - seg_start);
      svm.ReadVirtual(seg_start, content.data(), content.size());
      w->U64(seg_start - vaddr);
      w->Bytes(content);
    }
  }
  return pages;
}

bool RegionExec::ReadSection(sim::wire::Reader* r) {
  const uint32_t count = r->U32();
  if (count > 1) {
    r->Fail();  // the executor never holds more than one op
    return false;
  }
  std::optional<Op> op;
  if (count == 1) {
    op.emplace();
    op->oper = static_cast<Oper>(r->U8());
    op->sg.local.src_addr = src_ + r->U64();
    op->sg.local.src_len = r->U64();
    op->sg.local.dst_addr = dst_ + r->U64();
    op->sg.local.dst_len = r->U64();
  }
  for (const uint64_t vaddr : {src_, dst_}) {
    const uint32_t segments = r->U32();
    for (uint32_t i = 0; i < segments && r->ok(); ++i) {
      const uint64_t off = r->U64();
      const std::vector<uint8_t> bytes = r->Bytes();
      thread_.WriteBuffer(vaddr + off, bytes.data(), bytes.size());
    }
  }
  held_ = op;
  return r->ok();
}

}  // namespace serving

}  // namespace runtime
}  // namespace coyote

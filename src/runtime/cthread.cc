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
  dev_->engine().Cancel(it->second.deadline_timer);
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
  // One doorbell per op: the shell starts every sub-op from it.
  dev_->engine().ScheduleAfter(SimDevice::kInvokeLatency,
                               [this, task_id, oper, sg]() { Start(task_id, oper, sg); });

  // Arm the per-op deadline; 0 means the op may wait forever.
  if (op_deadline_ != 0) {
    // Retire cancels it, so it fires only for a task that is still live.
    state.deadline_timer = dev_->engine().ScheduleAfter(op_deadline_, [this, task_id]() {
      ++deadline_misses_;
      ForceTerminal(task_id, OpStatus::kDeadlineExceeded);
      dev_->NotifyOpDeadline(vfpga_id_);
    });
  }
  return Task{task_id};
}

void CThread::Start(uint64_t task_id, Oper oper, const SgEntry& sg) {
  tasks_guard_.Write();
  auto it = live_.find(task_id);
  if (it == live_.end()) {
    return;  // retired before its doorbell (abort, deadline): start nothing
  }
  // Set before issuing: a sub-op may complete synchronously, and once the
  // last one is issued the task may already be retired.
  int& remaining = it->second.remaining;
  remaining = 1;  // two for a local transfer with both a read and a write
  auto& mover = dev_->data_mover();
  switch (oper) {
    case Oper::kNoop:
      break;
    case Oper::kLocalTransfer:
    case Oper::kLocalRead:
    case Oper::kLocalWrite: {
      const bool read = oper != Oper::kLocalWrite && sg.local.src_len > 0;
      const bool write = oper != Oper::kLocalRead && sg.local.dst_len > 0;
      if (!read && !write) {
        break;
      }
      remaining = int{read} + int{write};
      auto& region = dev_->vfpga(vfpga_id_);
      if (read) {
        const uint32_t stream = StreamFor(sg.local.src_stream);
        mover.Read({vfpga_id_, ctid_, stream, sg.local.src_addr, sg.local.src_len,
                    sg.local.src_target},
                   sg.local.src_target == mmu::MemKind::kCard ? &region.card_in(stream)
                                                              : &region.host_in(stream),
                   [this, task_id](bool ok) { FinishTask(task_id, ok, false); });
      }
      if (write) {
        const uint32_t stream = StreamFor(sg.local.dst_stream);
        mover.Write({vfpga_id_, ctid_, stream, sg.local.dst_addr, sg.local.dst_len,
                     sg.local.dst_target},
                    sg.local.dst_target == mmu::MemKind::kCard ? &region.card_out(stream)
                                                               : &region.host_out(stream),
                    [this, task_id](bool ok) { FinishTask(task_id, ok, true); });
      }
      return;
    }
    case Oper::kMigrateToCard:
    case Oper::kMigrateToHost:
      mover.Migrate(sg.local.src_addr, sg.local.src_len,
                    oper == Oper::kMigrateToCard ? mmu::MemKind::kCard : mmu::MemKind::kHost,
                    [this, task_id](bool ok) { FinishTask(task_id, ok, true); });
      return;
    case Oper::kStorageRead:
    case Oper::kStorageWrite: {
      memsys::NvmeDrive* drive = dev_->nvme();
      if (drive == nullptr) {
        // Shell built without the storage service: the request faults.
        Retire(it, OpStatus::kError, /*write_direction=*/true);
        return;
      }
      constexpr uint32_t kBlock = memsys::NvmeDrive::kBlockBytes;
      const auto blocks = static_cast<uint32_t>((sg.storage.len + kBlock - 1) / kBlock);
      const uint64_t byte_addr = sg.storage.lba * kBlock;
      if (oper == Oper::kStorageRead) {
        drive->ReadCommand(sg.storage.lba, blocks, vfpga_id_,
                           [this, task_id, sg, drive, byte_addr]() {
                             std::vector<uint8_t> buf(sg.storage.len);
                             drive->store().Read(byte_addr, buf.data(), buf.size());
                             dev_->svm().WriteVirtual(sg.storage.vaddr, buf.data(), buf.size());
                             FinishTask(task_id, true, false);
                           });
      } else {
        std::vector<uint8_t> buf(sg.storage.len);
        dev_->svm().ReadVirtual(sg.storage.vaddr, buf.data(), buf.size());
        drive->store().Write(byte_addr, buf.data(), buf.size());
        drive->WriteCommand(sg.storage.lba, blocks, vfpga_id_,
                            [this, task_id]() { FinishTask(task_id, true, true); });
      }
      return;
    }
    case Oper::kRemoteWrite:
    case Oper::kRemoteRead: {
      net::RoceStack* roce = dev_->roce();
      if (roce == nullptr) {
        // Shell built without the RDMA service: typed error completion
        // instead of a crash or a silent stall.
        Retire(it, OpStatus::kError, /*write_direction=*/true);
        return;
      }
      auto done = [this, task_id](bool ok) { FinishTask(task_id, ok, true); };
      if (oper == Oper::kRemoteWrite) {
        roce->PostWrite(sg.rdma.qpn, sg.rdma.local_addr, sg.rdma.remote_addr, sg.rdma.len, done);
      } else {
        roce->PostRead(sg.rdma.qpn, sg.rdma.local_addr, sg.rdma.remote_addr, sg.rdma.len, done);
      }
      return;
    }
  }
  Retire(it, OpStatus::kOk, /*write_direction=*/false);  // nothing to issue
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
  // Whether [off, off + len) lies inside a staging buffer.
  auto fits = [this](uint64_t off, uint64_t len) { return off <= bytes_ && len <= bytes_ - off; };
  const uint32_t count = r->U32();
  if (count > 1) {
    r->Fail();  // the executor never holds more than one op
    return false;
  }
  std::optional<Op> op;
  if (count == 1) {
    op.emplace();
    op->oper = static_cast<Oper>(r->U8());
    SgEntry::Local& l = op->sg.local;
    l.src_addr = src_ + r->U64();
    l.src_len = r->U64();
    l.dst_addr = dst_ + r->U64();
    l.dst_len = r->U64();
    if (op->oper != Oper::kLocalTransfer || !fits(l.src_addr - src_, l.src_len) ||
        !fits(l.dst_addr - dst_, l.dst_len)) {
      r->Fail();  // the executor only issues local transfers within its buffers
      return false;
    }
  }
  for (const uint64_t vaddr : {src_, dst_}) {
    const uint32_t segments = r->U32();
    for (uint32_t i = 0; i < segments && r->ok(); ++i) {
      const uint64_t off = r->U64();
      const std::vector<uint8_t> bytes = r->Bytes();
      if (!fits(off, bytes.size())) {
        r->Fail();
        return false;
      }
      thread_.WriteBuffer(vaddr + off, bytes.data(), bytes.size());
    }
  }
  held_ = op;
  return r->ok();
}

}  // namespace serving

}  // namespace runtime
}  // namespace coyote

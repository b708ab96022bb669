// cThread: the Coyote v2 user-facing execution abstraction (paper §7.3).
//
// A cThread is a software thread bound to one vFPGA pipeline. Multiple
// cThreads share the same vFPGA (hardware multi-threading): each carries a
// distinct thread id that rides the AXI TID field and, by default, a
// distinct subset of the parallel data streams, giving data isolation
// without software interleaving (§9.5).
//
// API surface follows the paper's Code 1: GetMem/SetCsr/Invoke plus
// completion checking and user-interrupt callbacks (eventfd-style).
//
// A cThread keeps a record only for each task still in flight, plus one
// status byte per task id, so a retired id keeps its answer for the
// thread's lifetime.
//
// Naming note: the class is CThread per style; `cThread` is provided as an
// alias so examples read like the paper.

#ifndef SRC_RUNTIME_CTHREAD_H_
#define SRC_RUNTIME_CTHREAD_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/mmu/types.h"
#include "src/runtime/device.h"
#include "src/sim/access_guard.h"

namespace coyote {
namespace runtime {

// Allocation kinds, after the paper's Alloc::{REG, THP, HPF} spellings.
enum class Alloc : uint8_t {
  kReg,     // regular 4 KB pages
  kHpf,     // 2 MB hugepages
  kHuge1G,  // 1 GB hugepages
};

struct AllocSpec {
  Alloc kind = Alloc::kHpf;
  uint64_t bytes = 0;
};

// Scatter-gather entry (the paper's sgEntry). `local` drives LOCAL_*
// operations, `rdma` the REMOTE_* ones.
struct SgEntry {
  struct Local {
    uint64_t src_addr = 0;
    uint64_t src_len = 0;
    uint64_t dst_addr = 0;
    uint64_t dst_len = 0;
    // Stream selection; kAutoStream picks the cThread's default lane.
    uint32_t src_stream = kAutoStream;
    uint32_t dst_stream = kAutoStream;
    mmu::MemKind src_target = mmu::MemKind::kHost;
    mmu::MemKind dst_target = mmu::MemKind::kHost;
  } local;

  struct Rdma {
    uint32_t qpn = 0;
    uint64_t local_addr = 0;
    uint64_t remote_addr = 0;
    uint64_t len = 0;
  } rdma;

  struct Storage {
    uint64_t lba = 0;    // logical block address on the NVMe drive
    uint64_t vaddr = 0;  // memory side (shared virtual address)
    uint64_t len = 0;    // bytes; rounded up to whole blocks on the drive
  } storage;

  static constexpr uint32_t kAutoStream = 0xFFFF'FFFF;
};

// Typed completion status of a cThread task. Anything other than kOk is an
// error completion; the distinction tells the caller (and the supervisor)
// *why* the op did not succeed.
enum class OpStatus : uint8_t {
  kPending,           // sub-operations still in flight
  kOk,                // all sub-operations retired successfully
  kError,             // a sub-operation reported failure (DMA abort, QP error)
  kDeadlineExceeded,  // the per-op deadline fired before the op retired
  kAborted,           // host-side cancel (AbortPending after region recovery)
  kShed,              // tenant shed by the orchestrator (fleet capacity drop)
};

enum class Oper : uint8_t {
  kNoop,
  kLocalTransfer,  // src -> kernel -> dst (the paper's LOCAL_TRANSFER)
  kLocalRead,      // src -> kernel only
  kLocalWrite,     // kernel -> dst only
  kMigrateToCard,  // move buffer pages to HBM/DDR (migration channel)
  kMigrateToHost,
  kRemoteWrite,    // RDMA write through the network service
  kRemoteRead,
  kStorageRead,    // NVMe -> memory through the storage service (§10)
  kStorageWrite,   // memory -> NVMe
};

class CThread {
 public:
  // `ctid` < 0 allocates the next id for this vFPGA (the paper passes
  // getpid(); any stable integer works).
  CThread(SimDevice* dev, uint32_t vfpga_id, int64_t ctid = -1);

  uint32_t vfpga_id() const { return vfpga_id_; }
  uint32_t ctid() const { return ctid_; }
  SimDevice& device() { return *dev_; }

  // --- Memory ------------------------------------------------------------------
  // Allocates host memory, maps it into the shared virtual address space and
  // pre-warms this vFPGA's TLB (paper: "getMem adds src and dst to the TLB").
  uint64_t GetMem(const AllocSpec& spec);
  bool FreeMem(uint64_t vaddr);

  // Host-side access to allocated buffers (the simulated equivalent of
  // dereferencing the returned pointer).
  void WriteBuffer(uint64_t vaddr, const void* src, uint64_t len);
  void ReadBuffer(uint64_t vaddr, void* dst, uint64_t len);

  // --- Control registers (BAR-mapped AXI4-Lite, §7.1) ----------------------------
  void SetCsr(uint64_t value, uint32_t index);
  uint64_t GetCsr(uint32_t index);

  // --- Kernel invocation -----------------------------------------------------------
  struct Task {
    uint64_t id = 0;
  };
  Task Invoke(Oper oper, const SgEntry& sg);
  bool CheckCompleted(Task task) const;
  // Blocks (advances simulated time) until the task completes or the engine
  // runs out of events. Returns whether the task completed with kOk, so a
  // task that never completes returns false.
  bool Wait(Task task);
  bool InvokeSync(Oper oper, const SgEntry& sg) { return Wait(Invoke(oper, sg)); }
  // Typed completion status (kPending while sub-operations are in flight).
  OpStatus Status(Task task) const;

  // --- Deadlines -------------------------------------------------------------------
  // Per-op deadline for this cThread's later invokes; 0 (the default) means
  // no deadline. When a deadline fires before the op retires, the task
  // force-completes with kDeadlineExceeded — Wait() unblocks with ok=false
  // instead of spinning on a completion that will never arrive — and the
  // supervisor is notified.
  void SetOpDeadline(sim::TimePs deadline) { op_deadline_ = deadline; }
  sim::TimePs op_deadline() const { return op_deadline_; }

  // Host-side cancel: force-completes every in-flight task with the given
  // typed status (kAborted after region recovery, kShed when the
  // orchestrator drops the tenant). Returns the number of tasks terminated.
  size_t AbortPending(OpStatus status = OpStatus::kAborted);

  // Event-driven completion: fires exactly once per task when it reaches a
  // terminal status (kOk or a typed error), after the writeback slot has been
  // completed. The callback may Invoke new work. This is the shard-safe
  // alternative to Wait(): Wait nests an engine run and must never be called
  // from inside a ShardedEngine callback.
  void SetCompletionCallback(std::function<void(Task, OpStatus)> cb) {
    completion_cb_ = std::move(cb);
  }

  uint64_t deadline_misses() const { return deadline_misses_; }

  // --- Interrupts -----------------------------------------------------------------
  // Registers the eventfd-style callback for user interrupts raised by this
  // vFPGA's kernel.
  void SetInterruptCallback(std::function<void(uint64_t value)> cb);

  // --- RDMA ------------------------------------------------------------------------
  // Creates and connects a QP through the shell's network service.
  uint32_t CreateQp();
  void ConnectQp(uint32_t local_qpn, uint32_t remote_ip, uint32_t remote_qpn);

  uint64_t tasks_issued() const { return status_.size(); }

 private:
  // A task whose sub-operations are still in flight.
  struct Live {
    int remaining = 0;
    bool ok = true;
    sim::TimerWheel::TimerId deadline_timer = sim::TimerWheel::kInvalidTimer;
  };

  uint32_t StreamFor(uint32_t requested) const;
  void FinishTask(uint64_t task_id, bool ok, bool write_direction);
  // Forces a pending task terminal with the given status (deadline expiry or
  // host-side abort); late FinishTask calls for it become no-ops.
  void ForceTerminal(uint64_t task_id, OpStatus status);
  // Ends a live task; the completion callback runs last and may Invoke.
  void Retire(std::map<uint64_t, Live>::iterator it, OpStatus status, bool write_direction);

  SimDevice* dev_;
  uint32_t vfpga_id_;
  uint32_t ctid_;

  std::map<uint64_t, Live> live_;
  // Every task's status, indexed by task id; ids are dense from 0.
  std::vector<OpStatus> status_;
  // Invoke and Retire run from host code and from completion callbacks.
  sim::AccessGuard tasks_guard_{"cthread.tasks"};
  std::function<void(Task, OpStatus)> completion_cb_;

  sim::TimePs op_deadline_ = 0;  // 0 = no deadline
  uint64_t deadline_misses_ = 0;
};

// Paper-style spelling.
using cThread = CThread;

}  // namespace runtime
}  // namespace coyote

#endif  // SRC_RUNTIME_CTHREAD_H_

// Serving envelope: the one typed request shape that crosses every layer of
// the serving fabric (LoadGen -> Router -> node scheduler -> vFPGA) and the
// matching typed completion travelling back.
//
// Before this existed every test and harness hand-rolled the same sequence —
// GetMem, WriteBuffer, SgEntry, Invoke, ReadBuffer — with slightly different
// conventions for sizes and error handling. The envelope names the contract
// once: a request is (tenant, kernel, payload view, deadline, priority), an
// execution is "stage the payload, run the kernel, read the response", and a
// completion carries the typed OpStatus plus its submit and completion
// times. The payload rides as an axi::BufferView so a
// request forwarded router -> node is a refcount bump, not a copy.

#ifndef SRC_RUNTIME_SERVING_H_
#define SRC_RUNTIME_SERVING_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/axi/buffer.h"
#include "src/runtime/cthread.h"
#include "src/sim/hash.h"
#include "src/sim/time.h"
#include "src/sim/wire.h"

namespace coyote {
namespace runtime {
namespace serving {

// The request envelope. `id` is stamped by whoever owns the request's
// lifecycle (the Router in a fabric run, the test in a direct call);
// `submitted_at` is stamped at admission so every later hop can account
// latency against one origin.
struct ServingRequest {
  uint64_t id = 0;
  uint32_t tenant = 0;
  std::string kernel;         // kernel the request must run on
  axi::BufferView payload;    // zero-copy input view
  uint64_t response_bytes = 0;  // bytes read back; 0 = payload size
  sim::TimePs deadline = 0;     // absolute simulated deadline; 0 = none
  uint32_t priority = 0;        // larger = more urgent
  // Placement hint stamped by the routing tier (the region on the chosen
  // node whose resident kernel matches); -1 leaves placement to the node.
  int32_t region_hint = -1;
  sim::TimePs submitted_at = 0;
  uint32_t retries = 0;  // bumped when the router re-routes after a node death
};

// The typed completion. Exactly one per request, whatever happened to it —
// admission shed, routing failure, quarantine abort, deadline, or success.
struct ServingCompletion {
  uint64_t id = 0;
  uint32_t tenant = 0;
  OpStatus status = OpStatus::kPending;
  uint32_t node = 0;
  int32_t region = -1;
  sim::TimePs submitted_at = 0;
  sim::TimePs completed_at = 0;
  // FNV-1a over the response bytes; zero for requests that never executed.
  // With an echo-style kernel this equals the payload hash, making every
  // completion an end-to-end data-integrity witness.
  uint64_t response_hash = 0;
};

inline uint64_t ResponseBytes(const ServingRequest& req) {
  return req.response_bytes != 0 ? req.response_bytes : req.payload.size();
}

// Stages the payload into `src_vaddr` and returns the kernel op's
// scatter-gather entry: the payload from src, the response into dst.
inline SgEntry Stage(CThread* t, uint64_t src_vaddr, uint64_t dst_vaddr,
                     const ServingRequest& req) {
  t->WriteBuffer(src_vaddr, req.payload.data(), req.payload.size());
  SgEntry sg;
  sg.local = {.src_addr = src_vaddr,
              .src_len = req.payload.size(),
              .dst_addr = dst_vaddr,
              .dst_len = ResponseBytes(req)};
  return sg;
}

// One region's executor, the cThread host abstraction (paper §7.3) as the
// fleet and the serving fabric both run it: a cThread bound to the region,
// src and dst staging buffers of `buffer_bytes` each, and at most one op in
// flight. `on_done` fires once per terminal completion of that op;
// completions of any other task are dropped. The executor, not the cThread,
// keeps the descriptor of the op it invoked: that one op is all a quiesce or
// a checkpoint captures. Runs in its node's shard, behind the owning
// harness's AccessGuard.
class RegionExec {
 public:
  using OnDone = std::function<void(OpStatus)>;

  // Builds the cThread, then the src buffer, then the dst buffer.
  RegionExec(SimDevice* dev, uint32_t region, int64_t ctid, uint64_t buffer_bytes,
             OnDone on_done);
  RegionExec(const RegionExec&) = delete;
  RegionExec& operator=(const RegionExec&) = delete;

  uint32_t region() const { return thread_.vfpga_id(); }
  bool busy() const { return busy_; }
  bool released() const { return src_ == 0; }

  // Stages the payload and invokes the op; false, with nothing issued, when
  // the payload or the response does not fit the staging buffers.
  bool Start(const ServingRequest& req);
  // The first `len` bytes of the dst buffer.
  std::vector<uint8_t> ReadBack(uint64_t len);
  // The op in flight completes with `status`.
  void Abort(OpStatus status);
  // Holds the op in flight for Reissue and the checkpoint, aborts it, then
  // aborts the region's DMA (error completions, credit restore, TLB
  // shootdown) and flushes its streams.
  void Quiesce(OpStatus status);
  // Re-issues the op Quiesce held or ReadSection restored; false if none.
  bool Reissue();
  // Frees the staging buffers (unmap + TLB shootdown).
  void Release();

  // The executor's section of a CYK1 tenant checkpoint: an op count of 0 or
  // 1, the held (else the in-flight) op relative to the buffers, then each
  // buffer's dirty-page segments. WriteSection returns the pages shipped;
  // ReadSection rejects a count above 1, writes the segments into this
  // executor's buffers and holds the op for Reissue.
  uint64_t WriteSection(sim::wire::Writer* w);
  bool ReadSection(sim::wire::Reader* r);

 private:
  struct Op {
    Oper oper = Oper::kNoop;
    SgEntry sg;
  };

  void Issue(const Op& op);
  void OnComplete(CThread::Task task, OpStatus status);

  CThread thread_;
  const uint64_t bytes_;
  uint64_t src_;
  uint64_t dst_;
  OnDone on_done_;
  bool busy_ = false;
  uint64_t task_ = 0;  // the op in flight while busy_
  Op op_;              // and its descriptor
  // The op Quiesce held or ReadSection restored, until Reissue.
  std::optional<Op> held_;
};

// Synchronous one-shot execution on an existing cThread: allocates transfer
// buffers, stages, waits (nests an engine run, like InvokeSync — host-side
// only, never inside a shard callback) and reads the response back. This is
// the single invocation path the tests use in place of the former ad-hoc
// GetMem/WriteBuffer/SgEntry/InvokeSync/ReadBuffer blocks.
inline ServingCompletion ExecuteSync(CThread* t, const ServingRequest& req,
                                     std::vector<uint8_t>* response = nullptr) {
  ServingCompletion done;
  done.id = req.id;
  done.tenant = req.tenant;
  done.submitted_at = req.submitted_at;
  done.node = 0;
  done.region = static_cast<int32_t>(t->vfpga_id());

  const uint64_t resp_len = ResponseBytes(req);
  const uint64_t src = t->GetMem({Alloc::kHpf, req.payload.size()});
  const uint64_t dst = t->GetMem({Alloc::kHpf, resp_len});
  const CThread::Task task = t->Invoke(Oper::kLocalTransfer, Stage(t, src, dst, req));
  t->Wait(task);
  done.status = t->Status(task);
  done.completed_at = t->device().engine().Now();
  if (done.status == OpStatus::kOk) {
    std::vector<uint8_t> out(resp_len);
    t->ReadBuffer(dst, out.data(), out.size());
    done.response_hash = sim::FnvHash(out.data(), out.size());
    if (response != nullptr) {
      *response = std::move(out);
    }
  }
  t->FreeMem(src);
  t->FreeMem(dst);
  return done;
}

}  // namespace serving
}  // namespace runtime
}  // namespace coyote

#endif  // SRC_RUNTIME_SERVING_H_

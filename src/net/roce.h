// BALBOA: RoCE v2 RDMA stack (paper §6.2).
//
// Reliable-connection RDMA over the switched network: WRITE / READ / SEND
// verbs, MTU segmentation, PSN sequencing, cumulative ACKs and go-back-N
// retransmission. The data plane is integrated with Coyote v2's shared
// virtual memory: payloads are read from and written to Svm virtual
// addresses, translated by the same machinery the vFPGAs use, so RDMA
// operates on virtual addresses end to end — exactly the property the paper
// highlights.

#ifndef SRC_NET_ROCE_H_
#define SRC_NET_ROCE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "src/axi/stream.h"
#include "src/sim/access_guard.h"
#include "src/mmu/svm.h"
#include "src/net/network.h"
#include "src/net/packets.h"
#include "src/sim/engine.h"

namespace coyote {
namespace sim {
class FaultInjector;
}  // namespace sim
namespace net {

class RoceStack {
 public:
  // QP lifecycle, modeled on the IB verbs state machine (collapsed to the
  // states this stack distinguishes): a QP is created in kInit, Connect()
  // moves it to kReadyToSend, and retry-budget exhaustion moves it to
  // kError. In kError every posted WR completes immediately with ok=false
  // (no silent drops); ResetQp() returns the QP to kInit, after which both
  // endpoints re-Connect() — the driver-mediated re-init handshake.
  enum class QpState : uint8_t { kInit, kReadyToSend, kError };

  static constexpr uint32_t kMtu = 4096;
  static constexpr sim::TimePs kStackLatency = sim::Nanoseconds(350);  // per-frame processing
  static constexpr sim::TimePs kAckTimeout = sim::Microseconds(100);
  static constexpr uint32_t kAckInterval = 16;  // receiver acks at least every N data frames
  // Retry budget: after this many consecutive unanswered timeouts on a QP,
  // outstanding work completes with ok=false instead of retrying forever.
  static constexpr uint32_t kMaxRetries = 8;
  // The retransmit timeout doubles on every consecutive timeout (exponential
  // backoff) up to this cap; any ACK or read-response progress resets it.
  static constexpr sim::TimePs kMaxAckTimeout = sim::Milliseconds(3);

  using Completion = std::function<void(bool ok)>;
  // Called when an inbound SEND message completes, with its payload. The
  // stack moves the assembled message into the handler (ownership transfer,
  // not a copy).
  using RecvHandler = std::function<void(std::vector<uint8_t> data)>;  // lint: hot-copy-ok
  // Called when an inbound RDMA WRITE message completes (vaddr, bytes).
  using WriteArrivalHandler = std::function<void(uint64_t vaddr, uint64_t bytes)>;
  // Sniffer tap: every frame entering (is_tx=false) or leaving (true) the
  // stack at the CMAC boundary. The view shares the wire frame's storage;
  // a tap that retains it (the sniffer does) retains it without copying.
  using Tap = std::function<void(const axi::BufferView& frame, bool is_tx)>;

  RoceStack(sim::Engine* engine, Network* network, uint32_t ip, mmu::Svm* svm);

  uint32_t ip() const { return ip_; }

  // --- Queue pair management -------------------------------------------------
  uint32_t CreateQp();
  void Connect(uint32_t local_qpn, uint32_t remote_ip, uint32_t remote_qpn);

  // Error recovery: clears all requester and responder state (SQ, reorder
  // cursors, PSNs restart at 0) and returns the QP to kInit. Application
  // handlers (recv / write-arrival) survive the reset. Both endpoints must
  // ResetQp + Connect for the pair to be usable again. Returns false for an
  // unknown QPN.
  bool ResetQp(uint32_t qpn);
  QpState qp_state(uint32_t qpn) const;

  // Chaos hookup: when set, every posted WR draws a wedge decision; a wedged
  // QP's transmit path silently eats frames until the retry budget trips it
  // into kError. Null disables injection.
  void SetFaultInjector(sim::FaultInjector* injector) { injector_ = injector; }

  // Declares which shard's engine owns this stack's QP state in a sharded
  // run. All verbs and rx processing must then run on that shard; a posting
  // from another shard's callback is a reported ShardViolation (route it
  // through ShardedEngine::Post onto the owning shard instead).
  void BindShard(sim::ShardId shard) { qp_guard_.BindShard(shard); }

  // --- Verbs -------------------------------------------------------------------
  void PostWrite(uint32_t qpn, uint64_t local_vaddr, uint64_t remote_vaddr, uint64_t bytes,
                 Completion done) {
    PostMessage(qpn, local_vaddr, remote_vaddr, bytes, Opcode::kWriteFirst, Opcode::kWriteOnly,
                std::move(done));
  }
  void PostRead(uint32_t qpn, uint64_t local_vaddr, uint64_t remote_vaddr, uint64_t bytes,
                Completion done);
  void PostSend(uint32_t qpn, uint64_t local_vaddr, uint64_t bytes, Completion done) {
    PostMessage(qpn, local_vaddr, 0, bytes, Opcode::kSendFirst, Opcode::kSendOnly,
                std::move(done));
  }

  void SetRecvHandler(uint32_t qpn, RecvHandler handler);
  void SetWriteArrivalHandler(uint32_t qpn, WriteArrivalHandler handler);
  void SetTap(Tap tap) { tap_ = std::move(tap); }

  // On-path offload (paper §6.2): the network data flow is routed through
  // the vFPGAs, enabling custom processing like a SmartNIC/DPU. When set,
  // inbound RDMA WRITE payloads are pushed into `to_kernel` (a vFPGA net_in
  // stream) and the transformed packets popped from `from_kernel` (net_out)
  // are what actually commits to memory. The transform must preserve packet
  // count and order (sizes may match 1:1, as with decryption).
  void SetInboundOffload(axi::Stream* to_kernel, axi::Stream* from_kernel);

  // --- Statistics ---------------------------------------------------------------
  uint64_t tx_frames() const { return tx_frames_; }
  uint64_t rx_frames() const { return rx_frames_; }
  uint64_t rx_malformed() const { return rx_malformed_; }
  uint64_t retransmitted_frames() const { return retransmitted_frames_; }
  uint64_t timeouts() const { return timeouts_; }
  uint64_t backoff_events() const { return backoff_events_; }
  uint64_t retries_exhausted() const { return retries_exhausted_; }
  uint64_t error_completions() const { return error_completions_; }

 private:
  struct ReadCtx {
    uint64_t local_vaddr = 0;
    uint64_t bytes = 0;
    uint32_t first_psn = 0;
    uint32_t last_psn = 0;
    uint64_t received = 0;
    std::vector<bool> got;  // per-response dedup (duplicates after timeout)
    Completion done;
  };

  // Go-back-N window entry. The payload is a slice of the posted message's
  // buffer, so tracking a frame for retransmit shares bytes instead of
  // duplicating every in-flight payload.
  struct PendingFrame {
    FrameMeta meta;
    axi::BufferView payload;
  };

  struct Qp {
    uint32_t local_qpn = 0;
    uint32_t remote_qpn = 0;
    uint32_t remote_ip = 0;
    QpState state = QpState::kInit;
    bool wedged = false;  // injected tx black hole (chaos)

    // Requester state.
    uint32_t send_psn = 0;
    std::map<uint32_t, PendingFrame> unacked;        // psn -> frame (go-back-N)
    std::map<uint32_t, Completion> completions;      // last psn of msg -> cb
    std::vector<ReadCtx> reads;                      // outstanding reads
    sim::Engine::EventId retransmit_timer = sim::Engine::kNoEvent;
    sim::TimePs cur_timeout = kAckTimeout;
    uint32_t consecutive_timeouts = 0;    // resets on any forward progress

    // Responder state.
    uint32_t expected_psn = 0;
    uint64_t write_cursor_vaddr = 0;   // in-progress inbound WRITE
    uint64_t write_msg_start = 0;
    uint64_t write_msg_bytes = 0;
    std::vector<uint8_t> recv_accum;   // in-progress inbound SEND
    uint32_t frames_since_ack = 0;

    RecvHandler recv_handler;
    WriteArrivalHandler write_arrival_handler;
  };

  // Segments a WRITE or SEND into MTU frames (`only` when it fits in one).
  void PostMessage(uint32_t qpn, uint64_t local_vaddr, uint64_t remote_vaddr, uint64_t bytes,
                   Opcode first, Opcode only, Completion done);
  // The whole message read out of virtual memory once; every MTU frame (and
  // its go-back-N window entry) is a zero-copy slice of it.
  axi::BufferView ReadMessage(uint64_t vaddr, uint64_t bytes) const;
  void TransmitFrame(Qp& qp, const FrameMeta& meta, const axi::BufferView& payload,
                     bool track_for_retransmit);
  void OnRxFrame(axi::BufferView frame);
  void HandleDataFrame(Qp& qp, const ParsedFrame& f);
  void HandleAck(Qp& qp, const ParsedFrame& f);
  void HandleReadResponse(Qp& qp, const ParsedFrame& f);
  void HandleReadRequest(Qp& qp, const ParsedFrame& f);
  void SendAck(Qp& qp, uint32_t psn);
  void ArmRetransmitTimer(Qp& qp);
  void OnRetransmitTimeout(uint32_t qpn);
  void RetransmitUnacked(Qp& qp);
  void FailQp(Qp& qp);
  void NoteProgress(Qp& qp);
  void MaybeWedge(Qp& qp);
  // True if the WR may proceed; otherwise schedules an error completion.
  bool AdmitPost(Qp& qp, Completion& done);
  FrameMeta BaseMeta(const Qp& qp) const;
  void PumpOffloadCommits();

  sim::Engine* engine_;
  Network* network_;
  uint32_t ip_;
  uint32_t port_id_;
  mmu::Svm* svm_;

  std::map<uint32_t, Qp> qps_;
  // One guard covers all QP state: requester/responder cursors, unacked
  // windows, completion maps. Fine-grained-per-QP adds nothing — the race we
  // care about is "two actors inside this stack in one epoch".
  sim::AccessGuard qp_guard_{"roce.qpstate"};
  uint32_t next_qpn_ = 0x11;
  Tap tap_;
  sim::FaultInjector* injector_ = nullptr;

  // On-path offload state: FIFO of pending commits matching the packets fed
  // into the offload kernel.
  struct OffloadCommit {
    uint32_t qpn = 0;
    uint64_t vaddr = 0;
    bool msg_last = false;
    uint64_t msg_start = 0;
    uint64_t msg_bytes = 0;
  };
  axi::Stream* offload_to_kernel_ = nullptr;
  axi::Stream* offload_from_kernel_ = nullptr;
  std::deque<OffloadCommit> offload_commits_;

  uint64_t tx_frames_ = 0;
  uint64_t rx_frames_ = 0;
  uint64_t rx_malformed_ = 0;
  uint64_t retransmitted_frames_ = 0;
  uint64_t timeouts_ = 0;
  uint64_t backoff_events_ = 0;
  uint64_t retries_exhausted_ = 0;
  uint64_t error_completions_ = 0;
};

}  // namespace net
}  // namespace coyote

#endif  // SRC_NET_ROCE_H_

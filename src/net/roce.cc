#include "src/net/roce.h"

#include <algorithm>
#include <iterator>

#include "src/sim/fault.h"

namespace coyote {
namespace net {
namespace {

uint64_t FrameCount(uint64_t bytes) {
  return std::max<uint64_t>(1, (bytes + RoceStack::kMtu - 1) / RoceStack::kMtu);
}

// Opcode of frame i of an n-frame message. Within one verb the IB opcodes
// run first, middle, last; a one-frame message uses `only`.
Opcode FrameOpcode(Opcode first, Opcode only, uint64_t i, uint64_t n) {
  if (n == 1) {
    return only;
  }
  const uint8_t step = i == 0 ? 0 : (i + 1 == n ? 2 : 1);
  return static_cast<Opcode>(static_cast<uint8_t>(first) + step);
}

axi::BufferView FrameSlice(const axi::BufferView& message, uint64_t i) {
  const uint64_t off = i * RoceStack::kMtu;
  return message.Slice(off, std::min<uint64_t>(RoceStack::kMtu, message.size() - off));
}

}  // namespace

RoceStack::RoceStack(sim::Engine* engine, Network* network, uint32_t ip, mmu::Svm* svm)
    : engine_(engine), network_(network), ip_(ip), svm_(svm) {
  port_id_ = network_->AttachPort(ip, [this](axi::BufferView frame) {
    OnRxFrame(std::move(frame));
  });
}

uint32_t RoceStack::CreateQp() {
  const uint32_t qpn = next_qpn_++;
  Qp qp;
  qp.local_qpn = qpn;
  qps_[qpn] = std::move(qp);
  return qpn;
}

void RoceStack::Connect(uint32_t local_qpn, uint32_t remote_ip, uint32_t remote_qpn) {
  Qp& qp = qps_.at(local_qpn);
  qp.remote_ip = remote_ip;
  qp.remote_qpn = remote_qpn;
  qp.state = QpState::kReadyToSend;
}

bool RoceStack::ResetQp(uint32_t qpn) {
  qp_guard_.Write();
  auto it = qps_.find(qpn);
  if (it == qps_.end()) {
    return false;
  }
  Qp& qp = it->second;
  // Requester state: drain the SQ and restart the PSN space.
  qp.send_psn = 0;
  qp.unacked.clear();
  qp.completions.clear();
  qp.reads.clear();
  engine_->Cancel(qp.retransmit_timer);
  NoteProgress(qp);  // the retransmit timeout restarts at kAckTimeout
  // Responder state: expect a fresh message stream from the re-inited peer.
  qp.expected_psn = 0;
  qp.write_cursor_vaddr = 0;
  qp.write_msg_start = 0;
  qp.write_msg_bytes = 0;
  qp.recv_accum.clear();
  qp.frames_since_ack = 0;
  qp.wedged = false;
  qp.state = QpState::kInit;
  return true;
}

RoceStack::QpState RoceStack::qp_state(uint32_t qpn) const {
  auto it = qps_.find(qpn);
  return it == qps_.end() ? QpState::kInit : it->second.state;
}

void RoceStack::MaybeWedge(Qp& qp) {
  if (injector_ != nullptr && !qp.wedged && injector_->NextQpWedge()) {
    qp.wedged = true;
  }
}

bool RoceStack::AdmitPost(Qp& qp, Completion& done) {
  if (qp.state == QpState::kReadyToSend) {
    MaybeWedge(qp);
    return true;
  }
  // Posting to an un-inited or errored QP is an immediate error CQE — the
  // caller always hears back, never silently loses the WR.
  ++error_completions_;
  if (done) {
    engine_->ScheduleAfter(0, [cb = std::move(done)]() { cb(false); });
    done = nullptr;
  }
  return false;
}

FrameMeta RoceStack::BaseMeta(const Qp& qp) const {
  FrameMeta m;
  m.src_mac = MacForIp(ip_);
  m.dst_mac = MacForIp(qp.remote_ip);
  m.src_ip = ip_;
  m.dst_ip = qp.remote_ip;
  m.dest_qpn = qp.remote_qpn;
  return m;
}

void RoceStack::TransmitFrame(Qp& qp, const FrameMeta& meta,
                              const axi::BufferView& payload, bool track_for_retransmit) {
  if (track_for_retransmit) {
    // Shares the posted message's buffer — no per-frame payload copy.
    qp.unacked[meta.psn] = PendingFrame{meta, payload};
    ArmRetransmitTimer(qp);
  }
  if (qp.wedged) {
    // Injected tx black hole: the frame is tracked (so timeouts fire and the
    // retry budget eventually trips the QP into kError) but never reaches
    // the wire.
    return;
  }
  // Serialization is the single copy a transmitted payload pays; the frame
  // then rides as a shared view through the tap, the switch and the receiver.
  const axi::BufferView frame = BuildFrame(meta, payload);
  if (tap_) {
    tap_(frame, /*is_tx=*/true);
  }
  ++tx_frames_;
  // Per-frame stack processing latency before the frame hits the CMAC.
  const uint32_t dst_ip = meta.dst_ip;
  engine_->ScheduleAfter(kStackLatency, [this, dst_ip, frame]() {
    network_->Transmit(port_id_, dst_ip, frame);
  });
}

axi::BufferView RoceStack::ReadMessage(uint64_t vaddr, uint64_t bytes) const {
  axi::BufferView message;
  message.resize(bytes);
  if (bytes > 0) {
    svm_->ReadVirtual(vaddr, message.data(), bytes);
  }
  return message;
}

void RoceStack::PostMessage(uint32_t qpn, uint64_t local_vaddr, uint64_t remote_vaddr,
                            uint64_t bytes, Opcode first, Opcode only, Completion done) {
  qp_guard_.Write();
  Qp& qp = qps_.at(qpn);
  if (!AdmitPost(qp, done)) {
    return;
  }
  const uint64_t n_frames = FrameCount(bytes);
  const axi::BufferView message = ReadMessage(local_vaddr, bytes);
  for (uint64_t i = 0; i < n_frames; ++i) {
    FrameMeta m = BaseMeta(qp);
    m.psn = qp.send_psn++;
    m.opcode = FrameOpcode(first, only, i, n_frames);
    if (OpcodeHasReth(m.opcode)) {
      m.reth_vaddr = remote_vaddr;
      m.reth_len = static_cast<uint32_t>(bytes);
    }
    m.ack_req = OpcodeIsLastOrOnly(m.opcode);
    if (m.ack_req && done) {
      qp.completions[m.psn] = std::move(done);
    }
    TransmitFrame(qp, m, FrameSlice(message, i), /*track_for_retransmit=*/true);
  }
}

void RoceStack::PostRead(uint32_t qpn, uint64_t local_vaddr, uint64_t remote_vaddr,
                         uint64_t bytes, Completion done) {
  qp_guard_.Write();
  Qp& qp = qps_.at(qpn);
  if (!AdmitPost(qp, done)) {
    return;
  }
  const uint32_t n_resp = static_cast<uint32_t>(FrameCount(bytes));

  ReadCtx ctx;
  ctx.local_vaddr = local_vaddr;
  ctx.bytes = bytes;
  ctx.first_psn = qp.send_psn;
  ctx.last_psn = qp.send_psn + n_resp - 1;
  ctx.got.assign(n_resp, false);
  ctx.done = std::move(done);
  qp.reads.push_back(std::move(ctx));

  FrameMeta m = BaseMeta(qp);
  m.opcode = Opcode::kReadRequest;
  m.psn = qp.send_psn;
  m.reth_vaddr = remote_vaddr;
  m.reth_len = static_cast<uint32_t>(bytes);
  qp.send_psn += n_resp;  // responses consume PSN space (IB RC semantics)
  TransmitFrame(qp, m, {}, /*track_for_retransmit=*/true);
}

void RoceStack::OnRxFrame(axi::BufferView frame) {
  // Inbound frame processing mutates responder-side QP state as the network
  // actor; a same-epoch touch from another actor is a modeled race.
  sim::ActorScope actor(sim::kActorNet);
  qp_guard_.Write();
  if (tap_) {
    tap_(frame, /*is_tx=*/false);
  }
  ++rx_frames_;
  auto parsed = ParseFrame(frame);
  if (!parsed) {
    // Bad ICRC or truncated header — the frame was corrupted in flight.
    ++rx_malformed_;
    return;
  }
  const uint32_t qpn = parsed->meta.dest_qpn;
  if (qps_.find(qpn) == qps_.end()) {
    return;
  }
  // Per-frame RX processing latency. Re-resolve the QP at fire time: it may
  // have been destroyed (e.g., the shell reconfigured) while the frame was
  // in the pipeline.
  auto shared = std::make_shared<ParsedFrame>(std::move(*parsed));
  engine_->ScheduleAfter(kStackLatency, [this, qpn, shared]() {
    auto it = qps_.find(qpn);
    if (it == qps_.end()) {
      return;
    }
    Qp& qp = it->second;
    const Opcode op = shared->meta.opcode;
    if (op == Opcode::kAck) {
      HandleAck(qp, *shared);
    } else if (op == Opcode::kReadRequest) {
      HandleReadRequest(qp, *shared);
    } else if (OpcodeIsReadResponse(op)) {
      // Middle responses carry no AETH, so route by opcode, not by header.
      HandleReadResponse(qp, *shared);
    } else {
      HandleDataFrame(qp, *shared);
    }
  });
}

void RoceStack::HandleDataFrame(Qp& qp, const ParsedFrame& f) {
  if (f.meta.psn != qp.expected_psn) {
    // Out-of-order or duplicate under go-back-N: discard, re-ack last good.
    if (f.meta.psn < qp.expected_psn) {
      SendAck(qp, qp.expected_psn - 1);
    }
    return;
  }
  qp.expected_psn = f.meta.psn + 1;
  ++qp.frames_since_ack;

  const Opcode op = f.meta.opcode;
  const bool is_write = op == Opcode::kWriteFirst || op == Opcode::kWriteMiddle ||
                        op == Opcode::kWriteLast || op == Opcode::kWriteOnly;
  if (is_write) {
    if (OpcodeHasReth(op)) {
      qp.write_cursor_vaddr = f.meta.reth_vaddr;
      qp.write_msg_start = f.meta.reth_vaddr;
      qp.write_msg_bytes = 0;
    }
    const uint64_t commit_vaddr = qp.write_cursor_vaddr;
    qp.write_cursor_vaddr += f.payload.size();
    qp.write_msg_bytes += f.payload.size();
    if (offload_to_kernel_ != nullptr) {
      // On-path processing: the payload detours through the vFPGA; the
      // transformed packet commits when it emerges (PumpOffloadCommits).
      offload_commits_.push_back(OffloadCommit{qp.local_qpn, commit_vaddr,
                                               OpcodeIsLastOrOnly(op), qp.write_msg_start,
                                               qp.write_msg_bytes});
      axi::StreamPacket pkt;
      pkt.data = f.payload;
      pkt.last = OpcodeIsLastOrOnly(op);
      offload_to_kernel_->Push(std::move(pkt));
    } else {
      if (!f.payload.empty()) {
        svm_->WriteVirtual(commit_vaddr, f.payload.data(), f.payload.size());
      }
      if (OpcodeIsLastOrOnly(op)) {
        if (qp.write_arrival_handler) {
          qp.write_arrival_handler(qp.write_msg_start, qp.write_msg_bytes);
        }
      }
    }
  } else {
    // SEND path.
    qp.recv_accum.insert(qp.recv_accum.end(), f.payload.begin(), f.payload.end());
    if (OpcodeIsLastOrOnly(op)) {
      if (qp.recv_handler) {
        qp.recv_handler(std::move(qp.recv_accum));
      }
      qp.recv_accum.clear();
    }
  }

  if (OpcodeIsLastOrOnly(op) || f.meta.ack_req ||
      qp.frames_since_ack >= kAckInterval) {
    SendAck(qp, f.meta.psn);
  }
}

void RoceStack::SendAck(Qp& qp, uint32_t psn) {
  qp.frames_since_ack = 0;
  FrameMeta m = BaseMeta(qp);
  m.opcode = Opcode::kAck;
  m.psn = psn;
  m.aeth_syndrome = 0;  // ACK
  m.aeth_msn = psn & 0x00FFFFFF;
  TransmitFrame(qp, m, {}, /*track_for_retransmit=*/false);
}

void RoceStack::NoteProgress(Qp& qp) {
  qp.consecutive_timeouts = 0;
  qp.cur_timeout = kAckTimeout;
}

void RoceStack::HandleAck(Qp& qp, const ParsedFrame& f) {
  NoteProgress(qp);
  const uint32_t acked = f.meta.psn;
  // Cumulative: drop every tracked frame with psn <= acked, except a read
  // request: only its last response retires it, so a lost response is
  // fetched again by the go-back-N resend.
  for (auto it = qp.unacked.begin(); it != qp.unacked.end() && it->first <= acked;) {
    it = it->second.meta.opcode == Opcode::kReadRequest ? std::next(it) : qp.unacked.erase(it);
  }
  // Fire message completions.
  auto end = qp.completions.upper_bound(acked);
  for (auto it = qp.completions.begin(); it != end; ++it) {
    if (it->second) {
      it->second(true);
    }
  }
  qp.completions.erase(qp.completions.begin(), end);
  engine_->Cancel(qp.retransmit_timer);
  if (!qp.unacked.empty()) {
    ArmRetransmitTimer(qp);
  }
}

void RoceStack::HandleReadRequest(Qp& qp, const ParsedFrame& f) {
  // Sequenced like a data frame: a read ahead of a lost frame is discarded
  // and comes back with the go-back-N resend; a read in order moves the
  // expected PSN past its responses, where the requester numbers its next
  // message; a duplicate re-serves the same data at the same PSNs.
  if (f.meta.psn > qp.expected_psn) {
    return;
  }
  const uint64_t bytes = f.meta.reth_len;
  const uint64_t n_frames = FrameCount(bytes);
  if (f.meta.psn == qp.expected_psn) {
    qp.expected_psn += static_cast<uint32_t>(n_frames);
  }
  const axi::BufferView message = ReadMessage(f.meta.reth_vaddr, bytes);
  for (uint64_t i = 0; i < n_frames; ++i) {
    FrameMeta m = BaseMeta(qp);
    m.psn = f.meta.psn + static_cast<uint32_t>(i);
    m.opcode = FrameOpcode(Opcode::kReadResponseFirst, Opcode::kReadResponseOnly, i, n_frames);
    m.aeth_msn = m.psn & 0x00FFFFFF;
    TransmitFrame(qp, m, FrameSlice(message, i), /*track_for_retransmit=*/false);
  }
}

void RoceStack::HandleReadResponse(Qp& qp, const ParsedFrame& f) {
  NoteProgress(qp);
  for (auto it = qp.reads.begin(); it != qp.reads.end(); ++it) {
    ReadCtx& ctx = *it;
    if (f.meta.psn < ctx.first_psn || f.meta.psn > ctx.last_psn) {
      continue;
    }
    const uint64_t index = f.meta.psn - ctx.first_psn;
    const uint64_t off = index * kMtu;
    if (!f.payload.empty() && !ctx.got[index]) {
      ctx.got[index] = true;
      svm_->WriteVirtual(ctx.local_vaddr + off, f.payload.data(), f.payload.size());
      ctx.received += f.payload.size();
    }
    if (ctx.received >= ctx.bytes) {
      // Read satisfied: retire the request frame and complete.
      qp.unacked.erase(ctx.first_psn);
      Completion done = std::move(ctx.done);
      qp.reads.erase(it);
      engine_->Cancel(qp.retransmit_timer);
      if (!qp.unacked.empty()) {
        ArmRetransmitTimer(qp);
      }
      if (done) {
        done(true);
      }
    }
    return;
  }
}

void RoceStack::ArmRetransmitTimer(Qp& qp) {
  engine_->Cancel(qp.retransmit_timer);
  const uint32_t qpn = qp.local_qpn;
  qp.retransmit_timer =
      engine_->ScheduleAfter(qp.cur_timeout, [this, qpn]() { OnRetransmitTimeout(qpn); });
}

void RoceStack::OnRetransmitTimeout(uint32_t qpn) {
  Qp& qp = qps_.at(qpn);
  qp_guard_.Write();
  ++timeouts_;
  if (++qp.consecutive_timeouts > kMaxRetries) {
    // Retry budget exhausted: the peer is unreachable (dead node, storm of
    // losses). Error out instead of retrying forever.
    FailQp(qp);
    return;
  }
  // Exponential backoff, capped.
  const sim::TimePs next = std::min<sim::TimePs>(qp.cur_timeout * 2, kMaxAckTimeout);
  if (next > qp.cur_timeout) {
    qp.cur_timeout = next;
    ++backoff_events_;
  }
  RetransmitUnacked(qp);
  ArmRetransmitTimer(qp);
}

void RoceStack::FailQp(Qp& qp) {
  ++retries_exhausted_;
  // SQ drain + transition to the error state: all in-flight WRs complete
  // with ok=false, and subsequent posts bounce until ResetQp + Connect.
  qp.state = QpState::kError;
  qp.unacked.clear();
  NoteProgress(qp);
  engine_->Cancel(qp.retransmit_timer);
  auto completions = std::move(qp.completions);
  qp.completions.clear();
  auto reads = std::move(qp.reads);
  qp.reads.clear();
  for (auto& [psn, cb] : completions) {
    if (cb) {
      ++error_completions_;
      cb(false);
    }
  }
  for (auto& r : reads) {
    if (r.done) {
      ++error_completions_;
      r.done(false);
    }
  }
}

void RoceStack::RetransmitUnacked(Qp& qp) {
  // Go-back-N: resend every unacked frame in PSN order.
  std::vector<PendingFrame> frames;
  frames.reserve(qp.unacked.size());
  for (auto& [psn, f] : qp.unacked) {
    frames.push_back(f);
  }
  for (auto& f : frames) {
    ++retransmitted_frames_;
    TransmitFrame(qp, f.meta, f.payload, /*track_for_retransmit=*/false);
  }
}

void RoceStack::SetInboundOffload(axi::Stream* to_kernel, axi::Stream* from_kernel) {
  offload_to_kernel_ = to_kernel;
  offload_from_kernel_ = from_kernel;
  if (from_kernel != nullptr) {
    from_kernel->set_on_data([this]() { PumpOffloadCommits(); });
  }
}

void RoceStack::PumpOffloadCommits() {
  while (offload_from_kernel_ != nullptr && !offload_from_kernel_->Empty() &&
         !offload_commits_.empty()) {
    auto pkt = offload_from_kernel_->Pop();
    OffloadCommit commit = offload_commits_.front();
    offload_commits_.pop_front();
    if (!pkt->data.empty()) {
      svm_->WriteVirtual(commit.vaddr, pkt->data.data(), pkt->data.size());
    }
    if (commit.msg_last) {
      auto it = qps_.find(commit.qpn);
      if (it != qps_.end() && it->second.write_arrival_handler) {
        it->second.write_arrival_handler(commit.msg_start, commit.msg_bytes);
      }
    }
  }
}

void RoceStack::SetRecvHandler(uint32_t qpn, RecvHandler handler) {
  qps_.at(qpn).recv_handler = std::move(handler);
}

void RoceStack::SetWriteArrivalHandler(uint32_t qpn, WriteArrivalHandler handler) {
  qps_.at(qpn).write_arrival_handler = std::move(handler);
}

}  // namespace net
}  // namespace coyote

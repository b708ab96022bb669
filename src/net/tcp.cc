#include "src/net/tcp.h"

#include <algorithm>
#include <cstring>

#include "src/net/packets.h"
#include "src/sim/wire.h"

namespace coyote {
namespace net {
namespace {

constexpr size_t kEth = 14;
constexpr size_t kIp = 20;
constexpr size_t kTcp = 20;

}  // namespace

std::vector<uint8_t> BuildTcpSegment(const TcpSegmentMeta& meta,
                                     const axi::BufferView& payload) {
  std::vector<uint8_t> f;
  f.reserve(kEth + kIp + kTcp + payload.size());
  // Ethernet: derived MACs, ethertype IPv4.
  for (uint32_t ip : {meta.dst_ip, meta.src_ip}) {
    const MacAddr mac = MacForIp(ip);
    f.insert(f.end(), mac.bytes.begin(), mac.bytes.end());
  }
  sim::wire::PutBe16(f, 0x0800);
  // IPv4, protocol 6 (TCP).
  const uint16_t total = static_cast<uint16_t>(kIp + kTcp + payload.size());
  f.push_back(0x45);
  f.push_back(0x00);
  sim::wire::PutBe16(f, total);
  sim::wire::PutBe16(f, 0);
  sim::wire::PutBe16(f, 0x4000);
  f.push_back(64);
  f.push_back(6);
  sim::wire::PutBe16(f, 0);  // checksum elided (link is reliable in the model)
  sim::wire::PutBe32(f, meta.src_ip);
  sim::wire::PutBe32(f, meta.dst_ip);
  // TCP header.
  sim::wire::PutBe16(f, meta.src_port);
  sim::wire::PutBe16(f, meta.dst_port);
  sim::wire::PutBe32(f, meta.seq);
  sim::wire::PutBe32(f, meta.ack);
  f.push_back(0x50);  // data offset 5 words
  f.push_back(meta.flags);
  sim::wire::PutBe16(f, meta.window);
  sim::wire::PutBe16(f, 0);  // checksum
  sim::wire::PutBe16(f, 0);  // urgent
  f.insert(f.end(), payload.begin(), payload.end());
  return f;
}

std::optional<ParsedTcpSegment> ParseTcpSegment(const axi::BufferView& frame) {
  if (frame.size() < kEth + kIp + kTcp) {
    return std::nullopt;
  }
  const uint8_t* p = frame.data();
  if (sim::wire::GetBe16(p + 12) != 0x0800) {
    return std::nullopt;
  }
  const uint8_t* ip = p + kEth;
  if ((ip[0] >> 4) != 4 || ip[9] != 6) {
    return std::nullopt;  // not IPv4/TCP
  }
  ParsedTcpSegment out;
  out.meta.src_ip = sim::wire::GetBe32(ip + 12);
  out.meta.dst_ip = sim::wire::GetBe32(ip + 16);
  const uint8_t* tcp = ip + kIp;
  out.meta.src_port = sim::wire::GetBe16(tcp);
  out.meta.dst_port = sim::wire::GetBe16(tcp + 2);
  out.meta.seq = sim::wire::GetBe32(tcp + 4);
  out.meta.ack = sim::wire::GetBe32(tcp + 8);
  out.meta.flags = tcp[13];
  out.meta.window = sim::wire::GetBe16(tcp + 14);
  // Zero-copy: the payload view shares the frame's storage.
  out.payload = frame.Slice(kEth + kIp + kTcp, frame.size() - (kEth + kIp + kTcp));
  return out;
}

TcpStack::TcpStack(sim::Engine* engine, Network* network, uint32_t ip, mmu::Svm* svm)
    : engine_(engine), network_(network), ip_(ip), svm_(svm) {
  port_id_ = network_->AttachPort(ip, [this](axi::BufferView frame) {
    OnRxFrame(std::move(frame));
  });
}

void TcpStack::Listen(uint16_t port, AcceptHandler on_accept) {
  listeners_[port] = std::move(on_accept);
}

void TcpStack::Connect(uint32_t remote_ip, uint16_t remote_port,
                       ConnectHandler on_connected) {
  const ConnId id = next_conn_++;
  Connection& conn = connections_[id];
  conn.state = State::kSynSent;
  conn.remote_ip = remote_ip;
  conn.remote_port = remote_port;
  conn.local_port = next_port_++;
  conn.snd_nxt = id * 100'000;  // distinct ISN per connection
  conn.snd_una = conn.snd_nxt;
  conn.on_connected = std::move(on_connected);
  TransmitSegment(conn, kTcpSyn, conn.snd_nxt, {});
  conn.snd_nxt += 1;  // SYN consumes a sequence number
  ArmTimer(id);
}

void TcpStack::TransmitSegment(Connection& conn, uint8_t flags, uint32_t seq,
                               const axi::BufferView& payload) {
  TcpSegmentMeta meta;
  meta.src_ip = ip_;
  meta.dst_ip = conn.remote_ip;
  meta.src_port = conn.local_port;
  meta.dst_port = conn.remote_port;
  meta.seq = seq;
  meta.ack = conn.rcv_nxt;
  meta.flags = flags;
  meta.window = static_cast<uint16_t>(std::min<uint32_t>(kWindowBytes / 1024, 0xFFFF));
  ++segments_sent_;
  const axi::BufferView frame = BuildTcpSegment(meta, payload);
  const uint32_t dst_ip = conn.remote_ip;
  engine_->ScheduleAfter(kStackLatency, [this, dst_ip, frame]() {
    network_->Transmit(port_id_, dst_ip, frame);
  });
}

void TcpStack::Send(ConnId id, uint64_t vaddr, uint64_t bytes, Completion done) {
  auto cit = connections_.find(id);
  if (cit == connections_.end() || cit->second.state != State::kEstablished) {
    // Dead or half-open connection: error completion, never a silent drop.
    ++error_completions_;
    if (done) {
      engine_->ScheduleAfter(0, [cb = std::move(done)]() { cb(false); });
    }
    return;
  }
  if (bytes == 0) {
    // Nothing to acknowledge. Keyed by its end sequence, the completion would
    // replace the one of the send that ended there before it.
    if (done) {
      engine_->ScheduleAfter(0, [cb = std::move(done)]() { cb(true); });
    }
    return;
  }
  Connection& conn = cit->second;
  // Sequence of the first new byte: snd_nxt already covers transmitted data,
  // the backlog extends beyond it.
  uint64_t backlog_bytes = 0;
  for (const auto& c : conn.backlog) {
    backlog_bytes += c.payload.size();
  }
  // Read the whole send once; each MSS chunk is a zero-copy slice of it
  // (held across backlog, in-flight tracking and retransmission).
  axi::BufferView message;
  message.resize(bytes);
  svm_->ReadVirtual(vaddr, message.data(), bytes);
  uint64_t off = 0;
  uint32_t seq = conn.snd_nxt + static_cast<uint32_t>(backlog_bytes);
  while (off < bytes) {
    const uint64_t n = std::min<uint64_t>(kMss, bytes - off);
    SendChunk chunk;
    chunk.seq = seq;
    chunk.payload = message.Slice(off, n);
    conn.backlog.push_back(std::move(chunk));
    off += n;
    seq += static_cast<uint32_t>(n);
  }
  if (done) {
    conn.completions[seq] = std::move(done);
  }
  PumpSendWindow(id);
}

void TcpStack::PumpSendWindow(ConnId id) {
  Connection& conn = connections_.at(id);
  const uint32_t window = std::max<uint32_t>(conn.peer_window, kMss);
  while (!conn.backlog.empty()) {
    const uint32_t inflight_bytes = conn.snd_nxt - conn.snd_una;
    const uint64_t next_len = conn.backlog.front().payload.size();
    if (inflight_bytes + next_len > window) {
      break;  // window full; ACKs will reopen it
    }
    SendChunk chunk = std::move(conn.backlog.front());
    conn.backlog.pop_front();
    TransmitSegment(conn, kTcpAck, chunk.seq, chunk.payload);
    conn.snd_nxt = chunk.seq + static_cast<uint32_t>(chunk.payload.size());
    conn.inflight.push_back(std::move(chunk));
  }
  if (!conn.inflight.empty()) {
    ArmTimer(id);
  }
}

void TcpStack::OnRxFrame(axi::BufferView frame) {
  auto parsed = ParseTcpSegment(frame);
  if (!parsed) {
    return;  // not TCP (e.g., RoCE sharing the wire)
  }
  auto shared = std::make_shared<ParsedTcpSegment>(std::move(*parsed));
  engine_->ScheduleAfter(kStackLatency, [this, shared]() {
    const ConnId id = FindConnection(shared->meta);
    if (id != 0) {
      HandleSegment(id, *shared);
      return;
    }
    // New connection? SYN to a listening port.
    if ((shared->meta.flags & kTcpSyn) && !(shared->meta.flags & kTcpAck)) {
      auto listener = listeners_.find(shared->meta.dst_port);
      if (listener == listeners_.end()) {
        return;
      }
      const ConnId conn_id = next_conn_++;
      Connection& conn = connections_[conn_id];
      conn.state = State::kSynReceived;
      conn.remote_ip = shared->meta.src_ip;
      conn.remote_port = shared->meta.src_port;
      conn.local_port = shared->meta.dst_port;
      conn.rcv_nxt = shared->meta.seq + 1;
      conn.snd_nxt = conn_id * 100'000 + 7;
      conn.snd_una = conn.snd_nxt;
      conn.peer_window = static_cast<uint32_t>(shared->meta.window) * 1024;
      TransmitSegment(conn, kTcpSyn | kTcpAck, conn.snd_nxt, {});
      conn.snd_nxt += 1;
      ArmTimer(conn_id);
    }
  });
}

TcpStack::ConnId TcpStack::FindConnection(const TcpSegmentMeta& meta) const {
  for (const auto& [id, conn] : connections_) {
    if (conn.local_port == meta.dst_port && conn.remote_port == meta.src_port &&
        conn.remote_ip == meta.src_ip) {
      return id;
    }
  }
  return 0;
}

void TcpStack::HandleSegment(ConnId id, const ParsedTcpSegment& seg) {
  Connection& conn = connections_.at(id);
  conn.peer_window = std::max<uint32_t>(static_cast<uint32_t>(seg.meta.window) * 1024, kMss);

  // Handshake transitions.
  if (conn.state == State::kSynSent && (seg.meta.flags & kTcpSyn) &&
      (seg.meta.flags & kTcpAck)) {
    conn.rcv_nxt = seg.meta.seq + 1;
    conn.snd_una = seg.meta.ack;
    conn.state = State::kEstablished;
    NoteProgress(conn);
    TransmitSegment(conn, kTcpAck, conn.snd_nxt, {});
    engine_->Cancel(conn.timer);  // SYN acknowledged
    if (conn.on_connected) {
      conn.on_connected(id, true);
    }
    return;
  }
  if (conn.state == State::kSynReceived && (seg.meta.flags & kTcpAck)) {
    conn.state = State::kEstablished;
    conn.snd_una = seg.meta.ack;
    NoteProgress(conn);
    engine_->Cancel(conn.timer);
    auto listener = listeners_.find(conn.local_port);
    if (listener != listeners_.end() && listener->second) {
      listener->second(id);
    }
    // Fall through: the ACK may carry data.
  }

  // ACK processing (cumulative).
  if (seg.meta.flags & kTcpAck) {
    const uint32_t acked = seg.meta.ack;
    if (acked > conn.snd_una) {
      bytes_acked_ += acked - conn.snd_una;
      conn.snd_una = acked;
      NoteProgress(conn);
      while (!conn.inflight.empty()) {
        const SendChunk& front = conn.inflight.front();
        if (front.seq + front.payload.size() <= acked) {
          conn.inflight.pop_front();
        } else {
          break;
        }
      }
      auto end = conn.completions.upper_bound(acked);
      for (auto it = conn.completions.begin(); it != end; ++it) {
        if (it->second) {
          it->second(true);
        }
      }
      conn.completions.erase(conn.completions.begin(), end);
      engine_->Cancel(conn.timer);
      if (!conn.inflight.empty()) {
        ArmTimer(id);
      }
      if (conn.state == State::kFinSent && conn.inflight.empty() &&
          conn.backlog.empty()) {
        // FIN acknowledged: connection gone.
        Completion close_cb = std::move(conn.close_done);
        guard_.Write();
        connections_.erase(id);
        if (close_cb) {
          close_cb(true);
        }
        return;
      }
      if (conn.close_pending && conn.inflight.empty() && conn.backlog.empty()) {
        conn.close_pending = false;
        Close(id);  // all data acknowledged; send the deferred FIN
        return;
      }
      PumpSendWindow(id);
    }
  }

  // Data receive path (go-back-N: only in-order segments accepted).
  if (!seg.payload.empty()) {
    if (seg.meta.seq == conn.rcv_nxt) {
      conn.rcv_nxt += static_cast<uint32_t>(seg.payload.size());
      if (conn.on_recv) {
        // Application boundary: the handler owns its bytes (one copy, same as
        // the old by-value vector delivery).
        conn.on_recv(seg.payload.ToVector());
      }
    }
    // ACK whatever is in order so far (duplicate ACK on reorder/loss).
    TransmitSegment(conn, kTcpAck, conn.snd_nxt, {});
  }

  // FIN from the peer: ack it and drop the connection.
  if (seg.meta.flags & kTcpFin) {
    conn.rcv_nxt = seg.meta.seq + 1;
    TransmitSegment(conn, kTcpAck, conn.snd_nxt, {});
    guard_.Write();
    connections_.erase(id);
  }
}

void TcpStack::NoteProgress(Connection& conn) {
  conn.consecutive_timeouts = 0;
  conn.cur_rto = kRto;
}

void TcpStack::FailConnection(ConnId id) {
  auto it = connections_.find(id);
  if (it == connections_.end()) {
    return;
  }
  ++retries_exhausted_;
  Connection conn = std::move(it->second);
  guard_.Write();
  connections_.erase(it);
  // Error-complete everything the application is waiting on. The connection
  // entry is gone first so reentrant calls observe a closed connection.
  if (conn.state == State::kSynSent && conn.on_connected) {
    ++error_completions_;
    conn.on_connected(id, false);
  }
  for (auto& [seq, cb] : conn.completions) {
    if (cb) {
      ++error_completions_;
      cb(false);
    }
  }
  if (conn.close_done) {
    ++error_completions_;
    conn.close_done(false);
  }
}

void TcpStack::ArmTimer(ConnId id) {
  Connection& conn = connections_.at(id);
  engine_->Cancel(conn.timer);
  conn.timer = engine_->ScheduleAfter(conn.cur_rto, [this, id]() { OnTimeout(id); });
}

void TcpStack::OnTimeout(ConnId id) {
  auto it = connections_.find(id);
  if (it == connections_.end()) {
    return;  // closed or failed with the timer still armed
  }
  Connection& conn = it->second;
  ++timeouts_;
  if (++conn.consecutive_timeouts > kMaxRetries) {
    // Parity with RoCE retry-budget exhaustion: the peer is unreachable;
    // abort instead of retrying forever.
    FailConnection(id);
    return;
  }
  // Exponential backoff, capped.
  const sim::TimePs next = std::min<sim::TimePs>(conn.cur_rto * 2, kMaxRto);
  if (next > conn.cur_rto) {
    conn.cur_rto = next;
    ++backoff_events_;
  }
  if (conn.state == State::kSynSent) {
    TransmitSegment(conn, kTcpSyn, conn.snd_una, {});
    ++retransmitted_segments_;
  } else if (conn.state == State::kFinSent && conn.inflight.empty()) {
    TransmitSegment(conn, kTcpFin | kTcpAck, conn.snd_nxt - 1, {});
    ++retransmitted_segments_;
  } else {
    // Go-back-N: resend every in-flight segment.
    for (const SendChunk& chunk : conn.inflight) {
      TransmitSegment(conn, kTcpAck, chunk.seq, chunk.payload);
      ++retransmitted_segments_;
    }
  }
  ArmTimer(id);
}

void TcpStack::SetRecvHandler(ConnId id, RecvHandler handler) {
  connections_.at(id).on_recv = std::move(handler);
}

void TcpStack::Close(ConnId id) {
  auto it = connections_.find(id);
  if (it == connections_.end()) {
    return;
  }
  Connection& conn = it->second;
  if (!conn.backlog.empty() || !conn.inflight.empty()) {
    // Graceful close: the FIN follows the last queued byte (sent from the
    // ACK path once everything is acknowledged).
    conn.close_pending = true;
    return;
  }
  conn.state = State::kFinSent;
  TransmitSegment(conn, kTcpFin | kTcpAck, conn.snd_nxt, {});
  conn.snd_nxt += 1;  // FIN consumes a sequence number
  ArmTimer(id);
}

bool TcpStack::IsOpen(ConnId id) const {
  auto it = connections_.find(id);
  return it != connections_.end() && it->second.state == State::kEstablished;
}

}  // namespace net
}  // namespace coyote

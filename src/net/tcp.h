// TCP/IP offload stack.
//
// The second networking service Coyote v2 shells can instantiate (paper §2.2
// Requirement 1 names "switching from TCP/IP to RDMA" as the canonical
// service reconfiguration; the fpga-network-stack [53] provides both). This
// is a functional TCP over the simulated switched network: three-way
// handshake, MSS segmentation, cumulative ACKs, a fixed receive window,
// RTO-based go-back-N retransmission and FIN teardown. Payloads are real
// bytes read from / delivered out of the shared virtual memory, like the
// RDMA stack.

#ifndef SRC_NET_TCP_H_
#define SRC_NET_TCP_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <vector>

#include "src/axi/buffer.h"
#include "src/mmu/svm.h"
#include "src/net/network.h"
#include "src/sim/access_guard.h"
#include "src/sim/engine.h"

namespace coyote {
namespace net {

// TCP header flags.
inline constexpr uint8_t kTcpFin = 0x01;
inline constexpr uint8_t kTcpSyn = 0x02;
inline constexpr uint8_t kTcpAck = 0x10;

struct TcpSegmentMeta {
  uint32_t src_ip = 0;
  uint32_t dst_ip = 0;
  uint16_t src_port = 0;
  uint16_t dst_port = 0;
  uint32_t seq = 0;
  uint32_t ack = 0;
  uint8_t flags = 0;
  uint16_t window = 0;
};

// Ethernet/IPv4/TCP serialization (coexists with the RoCE frames on the same
// wire; classified by IP protocol number). Serialization copies the payload
// into the frame once; parsing slices the payload out zero-copy.
std::vector<uint8_t> BuildTcpSegment(const TcpSegmentMeta& meta,
                                     const axi::BufferView& payload);
struct ParsedTcpSegment {
  TcpSegmentMeta meta;
  axi::BufferView payload;  // shares the frame's storage
};
std::optional<ParsedTcpSegment> ParseTcpSegment(const axi::BufferView& frame);

class TcpStack {
 public:
  static constexpr uint32_t kMss = 4096;
  static constexpr uint32_t kWindowBytes = 256 * 1024;  // receive window advertised
  static constexpr sim::TimePs kStackLatency = sim::Nanoseconds(500);
  static constexpr sim::TimePs kRto = sim::Microseconds(200);
  // Parity with the RoCE stack's loss hardening: after this many consecutive
  // unanswered RTOs the connection aborts and every pending operation
  // completes with ok=false instead of retrying forever.
  static constexpr uint32_t kMaxRetries = 8;
  // The RTO doubles on every consecutive timeout up to this cap; any ACK
  // progress resets it.
  static constexpr sim::TimePs kMaxRto = sim::Milliseconds(3);

  using ConnId = uint32_t;
  using Completion = std::function<void(bool ok)>;
  using AcceptHandler = std::function<void(ConnId conn)>;
  using ConnectHandler = std::function<void(ConnId conn, bool ok)>;
  // The stack moves received bytes into the handler (ownership transfer).
  using RecvHandler = std::function<void(std::vector<uint8_t> data)>;  // lint: hot-copy-ok

  TcpStack(sim::Engine* engine, Network* network, uint32_t ip, mmu::Svm* svm);

  uint32_t ip() const { return ip_; }

  // Passive open: accepted connections are announced through the handler.
  void Listen(uint16_t port, AcceptHandler on_accept);

  // Active open: performs the three-way handshake.
  void Connect(uint32_t remote_ip, uint16_t remote_port, ConnectHandler on_connected);

  // Stream send of `bytes` at virtual address `vaddr`. Completion fires when
  // every byte has been acknowledged by the peer; a zero-byte send completes
  // one event later.
  void Send(ConnId conn, uint64_t vaddr, uint64_t bytes, Completion done);

  // In-order received bytes are delivered through the handler (chunked at
  // segment granularity).
  void SetRecvHandler(ConnId conn, RecvHandler handler);

  // Graceful close (FIN). The connection is gone once the peer acks.
  void Close(ConnId conn);
  bool IsOpen(ConnId conn) const;

  uint64_t segments_sent() const { return segments_sent_; }
  uint64_t retransmitted_segments() const { return retransmitted_segments_; }
  uint64_t bytes_acked() const { return bytes_acked_; }
  uint64_t timeouts() const { return timeouts_; }
  uint64_t backoff_events() const { return backoff_events_; }
  uint64_t retries_exhausted() const { return retries_exhausted_; }
  uint64_t error_completions() const { return error_completions_; }

 private:
  enum class State : uint8_t {
    kClosed,
    kSynSent,
    kSynReceived,
    kEstablished,
    kFinSent,
  };

  // Backlog / in-flight entry. The payload is a slice of the Send() call's
  // bulk read, so windowed and retransmit-held data shares one buffer.
  struct SendChunk {
    uint32_t seq = 0;
    axi::BufferView payload;
  };

  struct Connection {
    State state = State::kClosed;
    uint32_t remote_ip = 0;
    uint16_t remote_port = 0;
    uint16_t local_port = 0;

    uint32_t snd_nxt = 0;  // next sequence to send
    uint32_t snd_una = 0;  // oldest unacknowledged
    uint32_t rcv_nxt = 0;  // next expected from peer
    uint32_t peer_window = 0;

    std::deque<SendChunk> inflight;        // sent, unacked
    std::deque<SendChunk> backlog;         // queued beyond the window
    std::map<uint32_t, Completion> completions;  // end-seq -> cb
    sim::Engine::EventId timer = sim::Engine::kNoEvent;
    sim::TimePs cur_rto = kRto;
    uint32_t consecutive_timeouts = 0;  // resets on any ACK progress

    ConnectHandler on_connected;
    RecvHandler on_recv;
    Completion close_done;
    bool close_pending = false;  // Close() called with data still queued
  };

  void TransmitSegment(Connection& conn, uint8_t flags, uint32_t seq,
                       const axi::BufferView& payload);
  void PumpSendWindow(ConnId id);
  void OnRxFrame(axi::BufferView frame);
  void HandleSegment(ConnId id, const ParsedTcpSegment& seg);
  void ArmTimer(ConnId id);
  void OnTimeout(ConnId id);
  void NoteProgress(Connection& conn);
  // Retry budget exhausted: abort the connection, error-complete everything
  // pending (sends, deferred close, an unfinished handshake).
  void FailConnection(ConnId id);
  ConnId FindConnection(const TcpSegmentMeta& meta) const;

  sim::Engine* engine_;
  Network* network_;
  uint32_t ip_;
  uint32_t port_id_;
  mmu::Svm* svm_;

  sim::AccessGuard guard_{"net.tcp"};
  std::map<ConnId, Connection> connections_;
  std::map<uint16_t, AcceptHandler> listeners_;
  ConnId next_conn_ = 1;
  uint16_t next_port_ = 0xC000;

  uint64_t segments_sent_ = 0;
  uint64_t retransmitted_segments_ = 0;
  uint64_t bytes_acked_ = 0;
  uint64_t timeouts_ = 0;
  uint64_t backoff_events_ = 0;
  uint64_t retries_exhausted_ = 0;
  uint64_t error_completions_ = 0;
};

}  // namespace net
}  // namespace coyote

#endif  // SRC_NET_TCP_H_

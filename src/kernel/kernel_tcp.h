// TCP-lite: a kernel-resident, windowed, acknowledged, checksummed byte
// stream over the KernelIpStack — the paper's kernel TCP baseline
// (tables 6-3, 6-6, 6-7).
//
// Implemented: connection establishment (SYN/SYN-ACK/ACK), cumulative acks,
// a fixed in-flight window, timeout retransmission, in-order reassembly with
// out-of-order buffering, full-data checksumming (§6.3: "TCP checksums all
// data"), FIN-signalled EOF, and a configurable MSS (the paper's 1078-byte
// packets are MSS 1024; table 6-6's "smaller packet" variant is MSS 514).
// Omitted (not exercised by any experiment): urgent data, RST teardown
// diagnostics, adaptive RTO, congestion control (a 1987 kernel had none).
//
// All protocol processing happens in interrupt context; user processes pay
// only syscall + copy at the Send/Recv boundary — this asymmetry versus the
// packet-filter path is exactly what §6 measures.
#ifndef SRC_KERNEL_KERNEL_TCP_H_
#define SRC_KERNEL_KERNEL_TCP_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "src/kernel/kernel_ip.h"
#include "src/kernel/machine.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"
#include "src/sim/value_task.h"

namespace pfkern {

class KernelTcp;

struct TcpStats {
  uint64_t segments_sent = 0;
  uint64_t segments_received = 0;
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;
  uint64_t acks_sent = 0;
  uint64_t retransmits = 0;
  uint64_t out_of_order = 0;
};

class TcpConnection {
 public:
  // Blocks while the socket buffer is full; returns once all of `data` is
  // accepted by the kernel (the BSD write() contract).
  pfsim::ValueTask<bool> Send(int pid, std::vector<uint8_t> data);

  // Returns up to `max_bytes`; empty vector on timeout or EOF (check eof()).
  pfsim::ValueTask<std::vector<uint8_t>> Recv(int pid, size_t max_bytes,
                                              pfsim::Duration timeout);

  // Sends FIN once the send buffer drains; does not linger.
  pfsim::ValueTask<void> Close(int pid);

  bool established() const { return state_ == State::kEstablished; }
  bool eof() const { return peer_closed_ && recv_buf_.empty(); }
  const TcpStats& stats() const { return stats_; }
  uint16_t local_port() const { return local_port_; }
  uint16_t remote_port() const { return remote_port_; }

 private:
  friend class KernelTcp;
  enum class State { kSynSent, kSynReceived, kEstablished, kClosed };

  TcpConnection(KernelTcp* tcp, uint32_t remote_ip, uint16_t local_port, uint16_t remote_port);

  struct Inflight {
    uint32_t seq = 0;
    std::vector<uint8_t> data;
    pfsim::TimePoint sent_at{};
  };

  pfsim::ValueTask<void> Input(const pfproto::TcpView& view);
  // Pushes new segments while window space and buffered bytes allow.
  pfsim::ValueTask<void> TrySendMore(int ctx);
  pfsim::ValueTask<void> SendSegment(int ctx, uint32_t seq, std::vector<uint8_t> data,
                                     uint8_t flags);
  pfsim::ValueTask<void> SendAck(int ctx);
  pfsim::Task RetransmitLoop();

  KernelTcp* tcp_;
  Machine* machine_;
  uint32_t remote_ip_;
  uint16_t local_port_;
  uint16_t remote_port_;
  State state_ = State::kClosed;
  bool fin_sent_ = false;
  bool peer_closed_ = false;
  bool closing_requested_ = false;

  // Send side. Sequence 0 is the SYN; data starts at 1.
  uint32_t snd_una_ = 1;
  uint32_t snd_nxt_ = 1;
  std::deque<uint8_t> send_buf_;
  std::deque<Inflight> inflight_;
  pfsim::WaitQueue send_space_;
  pfsim::MsgQueue<char> established_signal_;

  // Receive side.
  uint32_t rcv_nxt_ = 1;
  std::deque<uint8_t> recv_buf_;
  pfsim::MsgQueue<char> recv_signal_;
  std::map<uint32_t, std::vector<uint8_t>> out_of_order_;

  TcpStats stats_;
};

class KernelTcp {
 public:
  explicit KernelTcp(KernelIpStack* stack);
  KernelTcp(const KernelTcp&) = delete;
  KernelTcp& operator=(const KernelTcp&) = delete;
  ~KernelTcp();

  void Listen(uint16_t port);
  pfsim::ValueTask<TcpConnection*> Accept(int pid, uint16_t port, pfsim::Duration timeout);
  pfsim::ValueTask<TcpConnection*> Connect(int pid, uint32_t dst_ip, uint16_t dst_port,
                                           uint16_t src_port, pfsim::Duration timeout);

  // Maximum data bytes per segment. 1024 -> the paper's 1078-byte packets
  // (20 IP + 20 TCP + 1024 data + 14 link = 1078 + link header).
  void set_mss(size_t mss) { mss_ = mss; }
  size_t mss() const { return mss_; }

  static constexpr size_t kWindowSegments = 4;
  static constexpr size_t kSendBufBytes = 8192;
  static constexpr pfsim::Duration kRto = pfsim::Milliseconds(300);

 private:
  friend class TcpConnection;
  pfsim::ValueTask<void> Input(const pfproto::IpView& ip);
  TcpConnection* FindConnection(uint32_t remote_ip, uint16_t local_port, uint16_t remote_port);

  KernelIpStack* stack_;
  Machine* machine_;
  size_t mss_ = 1024;
  std::vector<std::unique_ptr<TcpConnection>> connections_;
  std::map<uint16_t, std::unique_ptr<pfsim::MsgQueue<TcpConnection*>>> listeners_;
  uint64_t segments_in_ = 0;  // "tcp.segments_in": checksum-valid segments
};

}  // namespace pfkern

#endif  // SRC_KERNEL_KERNEL_TCP_H_

#include "src/kernel/kernel_tcp.h"

#include <algorithm>

namespace pfkern {

// ---------------------------------------------------------------- KernelTcp

KernelTcp::KernelTcp(KernelIpStack* stack) : stack_(stack), machine_(stack->machine()) {
  machine_->metrics().Expose("tcp.segments_in", &segments_in_);
  stack_->SetTcpInput([this](const pfproto::IpView& ip) { return Input(ip); });
}

KernelTcp::~KernelTcp() { machine_->metrics().Retire(segments_in_); }

void KernelTcp::Listen(uint16_t port) {
  listeners_.emplace(port,
                     std::make_unique<pfsim::MsgQueue<TcpConnection*>>(machine_->sim()));
}

TcpConnection* KernelTcp::FindConnection(uint32_t remote_ip, uint16_t local_port,
                                         uint16_t remote_port) {
  for (auto& conn : connections_) {
    if (conn->remote_ip_ == remote_ip && conn->local_port_ == local_port &&
        conn->remote_port_ == remote_port) {
      return conn.get();
    }
  }
  return nullptr;
}

pfsim::ValueTask<TcpConnection*> KernelTcp::Connect(int pid, uint32_t dst_ip, uint16_t dst_port,
                                                    uint16_t src_port, pfsim::Duration timeout) {
  co_await machine_->Run(pid, Cost::kSyscall, machine_->costs().syscall);
  auto conn = std::unique_ptr<TcpConnection>(
      new TcpConnection(this, dst_ip, src_port, dst_port));
  TcpConnection* raw = conn.get();
  connections_.push_back(std::move(conn));
  raw->state_ = TcpConnection::State::kSynSent;
  co_await raw->SendSegment(pid, 0, {}, pfproto::kTcpSyn);
  raw->send_space_.NotifyAll();  // arm the retransmit loop for the SYN
  machine_->MarkBlocked(pid);
  const std::optional<char> ok = co_await raw->established_signal_.PopWithTimeout(timeout);
  co_return ok.has_value() ? raw : nullptr;
}

pfsim::ValueTask<TcpConnection*> KernelTcp::Accept(int pid, uint16_t port,
                                                   pfsim::Duration timeout) {
  co_await machine_->Run(pid, Cost::kSyscall, machine_->costs().syscall);
  const auto it = listeners_.find(port);
  if (it == listeners_.end()) {
    co_return nullptr;
  }
  machine_->MarkBlocked(pid);
  const std::optional<TcpConnection*> conn = co_await it->second->PopWithTimeout(timeout);
  co_return conn.value_or(nullptr);
}

pfsim::ValueTask<void> KernelTcp::Input(const pfproto::IpView& ip) {
  const auto view = pfproto::ParseTcp(ip.payload, ip.header.src, ip.header.dst);
  pfobs::TraceSession* trace = machine_->trace();
  const int64_t start_ns = trace != nullptr ? machine_->sim()->NowNanos() : 0;
  const Machine::Charge charges[] = {
      {Cost::kTransportInput, machine_->costs().transport_input},
      {Cost::kChecksum, view.has_value() ? machine_->costs().ChecksumCost(view->payload.size())
                                         : pfsim::Duration{}}};
  co_await machine_->RunMulti(Machine::kInterruptContext, charges);
  if (trace != nullptr) {
    trace->Complete(machine_->trace_track(), "kernel", "tcp.input", start_ns,
                    machine_->sim()->NowNanos(),
                    {{"bytes", view.has_value() ? static_cast<int64_t>(view->payload.size()) : 0}});
  }
  if (!view.has_value() || !view->checksum_ok) {
    co_return;
  }
  ++segments_in_;

  TcpConnection* conn = FindConnection(ip.header.src, view->header.dst_port,
                                       view->header.src_port);
  if (conn == nullptr) {
    // A SYN to a listening port creates the passive-side connection.
    if ((view->header.flags & pfproto::kTcpSyn) != 0 &&
        (view->header.flags & pfproto::kTcpAck) == 0 &&
        listeners_.count(view->header.dst_port) > 0) {
      auto fresh = std::unique_ptr<TcpConnection>(
          new TcpConnection(this, ip.header.src, view->header.dst_port, view->header.src_port));
      conn = fresh.get();
      connections_.push_back(std::move(fresh));
      conn->state_ = TcpConnection::State::kSynReceived;
      co_await conn->SendSegment(Machine::kInterruptContext, 0, {},
                                 pfproto::kTcpSyn | pfproto::kTcpAck);
    }
    co_return;
  }
  co_await conn->Input(*view);
}

// ------------------------------------------------------------ TcpConnection

TcpConnection::TcpConnection(KernelTcp* tcp, uint32_t remote_ip, uint16_t local_port,
                             uint16_t remote_port)
    : tcp_(tcp),
      machine_(tcp->machine_),
      remote_ip_(remote_ip),
      local_port_(local_port),
      remote_port_(remote_port),
      send_space_(machine_->sim()),
      established_signal_(machine_->sim()),
      recv_signal_(machine_->sim()) {
  machine_->sim()->Spawn(RetransmitLoop());
}

pfsim::ValueTask<void> TcpConnection::SendSegment(int ctx, uint32_t seq,
                                                  std::vector<uint8_t> data, uint8_t flags) {
  pfproto::TcpHeader header;
  header.src_port = local_port_;
  header.dst_port = remote_port_;
  header.seq = seq;
  header.ack = rcv_nxt_;
  header.flags = flags;
  header.window = static_cast<uint16_t>(KernelTcp::kWindowSegments * tcp_->mss());
  const Machine::Charge charges[] = {
      {Cost::kTransportOutput, machine_->costs().transport_output},
      {Cost::kChecksum,
       data.empty() ? pfsim::Duration{} : machine_->costs().ChecksumCost(data.size())}};
  co_await machine_->RunMulti(ctx, charges);
  ++stats_.segments_sent;
  stats_.bytes_sent += data.size();
  std::vector<uint8_t> segment =
      pfproto::BuildTcp(header, tcp_->stack_->ip(), remote_ip_, data);
  co_await tcp_->stack_->OutputIp(ctx, remote_ip_, pfproto::kIpProtoTcp, std::move(segment));
}

pfsim::ValueTask<void> TcpConnection::SendAck(int ctx) {
  ++stats_.acks_sent;
  co_await SendSegment(ctx, snd_nxt_, {}, pfproto::kTcpAck);
}

pfsim::ValueTask<void> TcpConnection::TrySendMore(int ctx) {
  while (inflight_.size() < KernelTcp::kWindowSegments && !send_buf_.empty()) {
    const size_t n = std::min(tcp_->mss(), send_buf_.size());
    std::vector<uint8_t> data(send_buf_.begin(), send_buf_.begin() + static_cast<long>(n));
    send_buf_.erase(send_buf_.begin(), send_buf_.begin() + static_cast<long>(n));
    const uint32_t seq = snd_nxt_;
    snd_nxt_ += static_cast<uint32_t>(n);
    inflight_.push_back(Inflight{seq, data, machine_->sim()->Now()});
    co_await SendSegment(ctx, seq, std::move(data), pfproto::kTcpAck);
  }
  if (closing_requested_ && !fin_sent_ && send_buf_.empty() && inflight_.empty()) {
    fin_sent_ = true;
    co_await SendSegment(ctx, snd_nxt_, {}, pfproto::kTcpFin | pfproto::kTcpAck);
  }
  send_space_.NotifyAll();
}

pfsim::ValueTask<void> TcpConnection::Input(const pfproto::TcpView& view) {
  const uint8_t flags = view.header.flags;

  // Handshake transitions.
  if ((flags & pfproto::kTcpSyn) != 0 && (flags & pfproto::kTcpAck) != 0 &&
      state_ == State::kSynSent) {
    state_ = State::kEstablished;
    established_signal_.ForcePush('\0');
    co_await SendAck(Machine::kInterruptContext);
    co_return;
  }
  if (state_ == State::kSynReceived && (flags & pfproto::kTcpAck) != 0 &&
      (flags & pfproto::kTcpSyn) == 0) {
    state_ = State::kEstablished;
    const auto it = tcp_->listeners_.find(local_port_);
    if (it != tcp_->listeners_.end()) {
      it->second->TryPush(this);
    }
    // Fall through: the handshake ACK may carry data in theory; ours do not.
  }

  // ACK processing: cumulative, frees in-flight segments and opens window.
  if ((flags & pfproto::kTcpAck) != 0) {
    const uint32_t ack = view.header.ack;
    if (ack > snd_una_) {
      snd_una_ = ack;
      while (!inflight_.empty() &&
             inflight_.front().seq + inflight_.front().data.size() <= ack) {
        inflight_.pop_front();
      }
      co_await TrySendMore(Machine::kInterruptContext);
    }
  }

  // Data processing: in-order append, out-of-order buffering, dup-ack.
  if (!view.payload.empty()) {
    ++stats_.segments_received;
    const uint32_t seq = view.header.seq;
    if (seq == rcv_nxt_) {
      recv_buf_.insert(recv_buf_.end(), view.payload.begin(), view.payload.end());
      rcv_nxt_ += static_cast<uint32_t>(view.payload.size());
      stats_.bytes_received += view.payload.size();
      // Drain any directly-following out-of-order segments.
      auto it = out_of_order_.find(rcv_nxt_);
      while (it != out_of_order_.end()) {
        recv_buf_.insert(recv_buf_.end(), it->second.begin(), it->second.end());
        rcv_nxt_ += static_cast<uint32_t>(it->second.size());
        stats_.bytes_received += it->second.size();
        out_of_order_.erase(it);
        it = out_of_order_.find(rcv_nxt_);
      }
      recv_signal_.ForcePush('\0');
    } else if (seq > rcv_nxt_) {
      ++stats_.out_of_order;
      out_of_order_.emplace(seq, std::vector<uint8_t>(view.payload.begin(), view.payload.end()));
    }  // else: duplicate of already-delivered data; just re-ack.
    co_await SendAck(Machine::kInterruptContext);
  }

  if ((flags & pfproto::kTcpFin) != 0) {
    peer_closed_ = true;
    recv_signal_.ForcePush('\0');
    co_await SendAck(Machine::kInterruptContext);
  }
}

pfsim::ValueTask<bool> TcpConnection::Send(int pid, std::vector<uint8_t> data) {
  if (state_ != State::kEstablished) {
    co_return false;
  }
  const Machine::Charge charges[] = {{Cost::kSyscall, machine_->costs().syscall},
                                     machine_->CopyCharge(data.size())};
  co_await machine_->RunMulti(pid, charges);
  send_buf_.insert(send_buf_.end(), data.begin(), data.end());
  co_await TrySendMore(pid);
  while (send_buf_.size() > KernelTcp::kSendBufBytes && state_ == State::kEstablished) {
    machine_->MarkBlocked(pid);
    co_await send_space_.Wait();
  }
  co_return true;
}

pfsim::ValueTask<std::vector<uint8_t>> TcpConnection::Recv(int pid, size_t max_bytes,
                                                           pfsim::Duration timeout) {
  co_await machine_->Run(pid, Cost::kSyscall, machine_->costs().syscall);
  const bool forever = timeout == pfsim::kForever;
  const pfsim::TimePoint deadline =
      forever ? pfsim::TimePoint::max() : machine_->sim()->Now() + timeout;
  while (recv_buf_.empty() && !peer_closed_) {
    while (recv_signal_.TryPop().has_value()) {
    }
    const pfsim::Duration remaining =
        forever ? pfsim::kForever : deadline - machine_->sim()->Now();
    if (!forever && remaining.count() <= 0) {
      co_return {};
    }
    machine_->MarkBlocked(pid);
    const std::optional<char> token = co_await recv_signal_.PopWithTimeout(remaining);
    if (!token.has_value()) {
      co_return {};
    }
  }
  const size_t n = std::min(max_bytes, recv_buf_.size());
  std::vector<uint8_t> out(recv_buf_.begin(), recv_buf_.begin() + static_cast<long>(n));
  recv_buf_.erase(recv_buf_.begin(), recv_buf_.begin() + static_cast<long>(n));
  if (n > 0) {
    const Machine::Charge copy = machine_->CopyCharge(n);
    co_await machine_->Run(pid, copy.first, copy.second);
  }
  co_return out;
}

pfsim::ValueTask<void> TcpConnection::Close(int pid) {
  co_await machine_->Run(pid, Cost::kSyscall, machine_->costs().syscall);
  closing_requested_ = true;
  co_await TrySendMore(pid);
}

pfsim::Task TcpConnection::RetransmitLoop() {
  for (;;) {
    const bool outstanding = !inflight_.empty() || state_ == State::kSynSent;
    if (!outstanding) {
      // Park without holding an event so an idle connection lets the
      // simulation drain; TrySendMore's NotifyAll() re-arms us.
      co_await send_space_.Wait();
      continue;
    }
    co_await machine_->sim()->Delay(KernelTcp::kRto);
    if (state_ == State::kSynSent) {
      ++stats_.retransmits;
      co_await SendSegment(Machine::kInterruptContext, 0, {}, pfproto::kTcpSyn);
      continue;
    }
    if (!inflight_.empty() &&
        machine_->sim()->Now() - inflight_.front().sent_at >= KernelTcp::kRto) {
      ++stats_.retransmits;
      Inflight& oldest = inflight_.front();
      oldest.sent_at = machine_->sim()->Now();
      co_await SendSegment(Machine::kInterruptContext, oldest.seq, oldest.data,
                           pfproto::kTcpAck);
    }
  }
}

}  // namespace pfkern

#include "src/kernel/kernel_ip.h"

#include "src/proto/ethertypes.h"

namespace pfkern {

KernelIpStack::KernelIpStack(Machine* machine, uint32_t ip) : machine_(machine), ip_(ip) {
  pfobs::MetricsRegistry& registry = machine_->metrics();
  registry.Expose("ip.packets_in", &stats_.ip_in);
  registry.Expose("ip.packets_out", &stats_.ip_out);
  registry.Expose("ip.bad", &stats_.ip_bad);
  registry.Expose("udp.datagrams_in", &stats_.udp_in);
  registry.Expose("udp.no_port", &stats_.udp_no_port);
  registry.Expose("udp.datagrams_out", &stats_.udp_out);
  machine_->RegisterKernelProtocol(
      pfproto::kEtherTypeIp,
      [this](const pflink::Frame& frame, const pflink::LinkHeader& header) {
        return Input(frame, header);
      });
}

KernelIpStack::~KernelIpStack() { machine_->metrics().Retire(stats_); }

void KernelIpStack::BindUdp(uint16_t port) {
  udp_ports_.emplace(port, std::make_unique<pfsim::MsgQueue<UdpDatagram>>(machine_->sim()));
}

pfsim::ValueTask<void> KernelIpStack::Input(const pflink::Frame& frame,
                                            const pflink::LinkHeader& header) {
  (void)header;
  const auto payload = pflink::FramePayload(machine_->link_properties().type, frame.AsSpan());
  const auto ip = pfproto::ParseIp(payload);

  pfobs::TraceSession* trace = machine_->trace();
  const int64_t start_ns = trace != nullptr ? machine_->sim()->NowNanos() : 0;
  // IP-layer processing cost is paid for every IP packet, good or bad.
  co_await machine_->Run(Machine::kInterruptContext, Cost::kIpInput,
                         machine_->costs().ip_input);
  if (trace != nullptr) {
    trace->Complete(machine_->trace_track(), "kernel", "ip.input", start_ns,
                    machine_->sim()->NowNanos(),
                    {{"flow", static_cast<int64_t>(frame.flow_id)}});
  }
  if (!ip.has_value() || !ip->checksum_ok) {
    ++stats_.ip_bad;
    co_return;
  }
  ++stats_.ip_in;

  if (ip->header.protocol == pfproto::kIpProtoUdp) {
    const auto udp = pfproto::ParseUdp(ip->payload);
    const int64_t udp_start_ns = trace != nullptr ? machine_->sim()->NowNanos() : 0;
    co_await machine_->Run(Machine::kInterruptContext, Cost::kTransportInput,
                           machine_->costs().transport_input);
    if (trace != nullptr) {
      trace->Complete(machine_->trace_track(), "kernel", "udp.input", udp_start_ns,
                      machine_->sim()->NowNanos(),
                      {{"flow", static_cast<int64_t>(frame.flow_id)}});
    }
    if (!udp.has_value()) {
      co_return;
    }
    ++stats_.udp_in;
    const auto it = udp_ports_.find(udp->header.dst_port);
    if (it == udp_ports_.end()) {
      ++stats_.udp_no_port;
      co_return;
    }
    UdpDatagram datagram;
    datagram.src_ip = ip->header.src;
    datagram.src_port = udp->header.src_port;
    datagram.dst_port = udp->header.dst_port;
    datagram.data.assign(udp->payload.begin(), udp->payload.end());
    it->second->TryPush(std::move(datagram));
    co_return;
  }

  if (ip->header.protocol == pfproto::kIpProtoTcp && tcp_input_) {
    co_await tcp_input_(*ip);
    co_return;
  }
}

pfsim::ValueTask<bool> KernelIpStack::OutputIp(int ctx, uint32_t dst_ip, uint8_t protocol,
                                               std::vector<uint8_t> segment) {
  // Routing decision + IP header construction (§6.1 / table 6-1: the
  // kernel datagram path "needs to choose a route ... and compute a
  // [header] checksum"; the packet filter does not).
  pfobs::TraceSession* trace = machine_->trace();
  const int64_t start_ns = trace != nullptr ? machine_->sim()->NowNanos() : 0;
  co_await machine_->Run(ctx, Cost::kIpOutput, machine_->costs().ip_output);
  if (trace != nullptr) {
    trace->Complete(machine_->trace_track(), "kernel", "ip.output", start_ns,
                    machine_->sim()->NowNanos(),
                    {{"bytes", static_cast<int64_t>(segment.size())}});
  }
  const auto mac = machine_->Resolve(dst_ip);
  if (!mac.has_value()) {
    co_return false;
  }
  pfproto::IpHeader header;
  header.protocol = protocol;
  header.src = ip_;
  header.dst = dst_ip;
  header.identification = next_ip_id_++;
  ++stats_.ip_out;
  co_return co_await machine_->TransmitFrame(ctx, *mac, pfproto::kEtherTypeIp,
                                             pfproto::BuildIp(header, segment));
}

pfsim::ValueTask<bool> KernelIpStack::SendUdp(int pid, uint32_t dst_ip, uint16_t src_port,
                                              uint16_t dst_port, std::vector<uint8_t> data,
                                              bool checksummed) {
  // write(): crossing + copy of the user buffer into kernel mbufs.
  const Machine::Charge charges[] = {
      {Cost::kSyscall, machine_->costs().syscall},
      machine_->CopyCharge(data.size()),
      {Cost::kTransportOutput, machine_->costs().transport_output},
      {Cost::kChecksum,
       checksummed ? machine_->costs().ChecksumCost(data.size()) : pfsim::Duration{}}};
  co_await machine_->RunMulti(pid, charges);
  ++stats_.udp_out;
  std::vector<uint8_t> segment = pfproto::BuildUdp(
      pfproto::UdpHeader{src_port, dst_port}, ip_, dst_ip, data, checksummed);
  co_return co_await OutputIp(pid, dst_ip, pfproto::kIpProtoUdp, std::move(segment));
}

pfsim::ValueTask<std::optional<UdpDatagram>> KernelIpStack::RecvUdp(int pid, uint16_t port,
                                                                    pfsim::Duration timeout) {
  co_await machine_->Run(pid, Cost::kSyscall, machine_->costs().syscall);
  const auto it = udp_ports_.find(port);
  if (it == udp_ports_.end()) {
    co_return std::nullopt;
  }
  if (it->second->empty()) {
    machine_->MarkBlocked(pid);
  }
  std::optional<UdpDatagram> datagram = co_await it->second->PopWithTimeout(timeout);
  if (datagram.has_value()) {
    const Machine::Charge copy = machine_->CopyCharge(datagram->data.size());
    co_await machine_->Run(pid, copy.first, copy.second);
  }
  co_return datagram;
}

}  // namespace pfkern

#include "src/net/monitor.h"

#include <cstdio>

#include "src/pf/program.h"
#include "src/proto/arp_rarp.h"
#include "src/proto/ethertypes.h"
#include "src/proto/ip.h"
#include "src/proto/pup.h"
#include "src/proto/vmtp.h"

namespace pfnet {

NetworkMonitor::NetworkMonitor(pfkern::Machine* machine) : machine_(machine) {
  pfobs::MetricsRegistry& registry = machine_->metrics();
  registry.Expose("monitor.frames", &counters_.frames);
  registry.Expose("monitor.bytes", &counters_.bytes);
  registry.Expose("monitor.ip", &counters_.ip);
  registry.Expose("monitor.udp", &counters_.udp);
  registry.Expose("monitor.tcp", &counters_.tcp);
  registry.Expose("monitor.arp", &counters_.arp);
  registry.Expose("monitor.rarp", &counters_.rarp);
  registry.Expose("monitor.pup", &counters_.pup);
  registry.Expose("monitor.vmtp", &counters_.vmtp);
  registry.Expose("monitor.other", &counters_.other);
  registry.Expose("monitor.dropped", &counters_.dropped);
}

NetworkMonitor::~NetworkMonitor() { machine_->metrics().Retire(counters_); }

pfsim::ValueTask<std::unique_ptr<NetworkMonitor>> NetworkMonitor::Create(
    pfkern::Machine* machine, int pid) {
  auto monitor = std::unique_ptr<NetworkMonitor>(new NetworkMonitor(machine));
  machine->SetPromiscuous(true);
  machine->SetTapAllToPf(true);
  monitor->port_ = co_await machine->pf().Open(pid);
  // An empty program accepts every packet; priority 255 sees them first,
  // deliver-to-lower leaves them available to everyone else.
  co_await machine->pf().SetFilter(pid, monitor->port_, pf::Program{255, pf::LangVersion::kV1, {}});
  pfkern::PacketFilterDevice::PortOptions options;
  options.deliver_to_lower = true;
  options.timestamps = true;
  options.batching = true;
  options.queue_limit = 256;
  co_await machine->pf().Configure(pid, monitor->port_, options);
  // The capture rides the shared tap plane: an accept-all tap scoped to
  // this port's deliveries records exactly the frames the monitor queue
  // accepted (what Poll() will count) into the machine's pcapng stream.
  pf::TapConfig tap;
  tap.stage = pf::TapStage::kDeliver;
  tap.name = "monitor";
  tap.port = monitor->port_;
  tap.max_packets = SIZE_MAX;  // the monitor's capture is unbudgeted
  monitor->tap_id_ = machine->taps().Attach(std::move(tap));
  co_return monitor;
}

pfsim::ValueTask<size_t> NetworkMonitor::Poll(int pid, pfsim::Duration timeout,
                                              std::vector<std::string>* decoded) {
  std::vector<pf::ReceivedPacket> packets = co_await machine_->pf().Read(pid, port_, timeout);
  for (const pf::ReceivedPacket& packet : packets) {
    if (decoded != nullptr) {
      char line[300];
      std::snprintf(line, sizeof(line), "%10.3f ms  %s",
                    static_cast<double>(packet.timestamp_ns) / 1e6,
                    DescribeFrame(machine_->link_properties().type, packet.bytes).c_str());
      decoded->push_back(line);
    }
    ++counters_.frames;
    counters_.bytes += packet.bytes.size();
    counters_.dropped += packet.dropped_before;

    const auto header = pflink::ParseHeader(machine_->link_properties().type, packet.bytes);
    if (!header.has_value()) {
      ++counters_.other;
      continue;
    }
    switch (header->ether_type) {
      case pfproto::kEtherTypeIp: {
        ++counters_.ip;
        const auto ip = pfproto::ParseIp(
            pflink::FramePayload(machine_->link_properties().type, packet.bytes));
        if (ip.has_value() && ip->header.protocol == pfproto::kIpProtoUdp) {
          ++counters_.udp;
        } else if (ip.has_value() && ip->header.protocol == pfproto::kIpProtoTcp) {
          ++counters_.tcp;
        }
        break;
      }
      case pfproto::kEtherTypeArp:
        ++counters_.arp;
        break;
      case pfproto::kEtherTypeRarp:
        ++counters_.rarp;
        break;
      case pfproto::kEtherTypePup:
        ++counters_.pup;
        break;
      case pfproto::kEtherTypeVmtp:
        ++counters_.vmtp;
        break;
      default:
        ++counters_.other;
        break;
    }
  }
  co_return packets.size();
}

std::string NetworkMonitor::Summary() const {
  const Counters& counters = counters_;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "captured %llu frames (%llu bytes, %llu lost): "
                "ip=%llu (udp=%llu tcp=%llu) arp=%llu rarp=%llu pup=%llu vmtp=%llu other=%llu",
                (unsigned long long)counters.frames, (unsigned long long)counters.bytes,
                (unsigned long long)counters.dropped, (unsigned long long)counters.ip,
                (unsigned long long)counters.udp, (unsigned long long)counters.tcp,
                (unsigned long long)counters.arp, (unsigned long long)counters.rarp,
                (unsigned long long)counters.pup, (unsigned long long)counters.vmtp,
                (unsigned long long)counters.other);
  std::string out = buf;
  // The monitor sees accepted traffic; the demux core knows why the rest
  // was lost. Fold its drop taxonomy into the summary when anything dropped.
  const pf::DropCounts& reasons =
      machine_->pf().core().global_stats().drops_by_reason;
  if (pf::TotalDrops(reasons) > 0) {
    out += "; pf drops:";
    for (size_t i = 0; i < pf::kDropReasonCount; ++i) {
      if (reasons[i] == 0) {
        continue;
      }
      std::snprintf(buf, sizeof(buf), " %s=%llu",
                    pf::ToString(static_cast<pf::DropReason>(i)).c_str(),
                    (unsigned long long)reasons[i]);
      out += buf;
    }
  }
  // Losses below the filter: what the wire itself ate (impairments) and
  // what this NIC rejected (FCS/ring) never reach the monitor's port, so
  // report them from the segment and driver counters.
  const pflink::EthernetSegment::Stats& link = machine_->segment()->stats();
  if (link.frames_lost > 0 || link.frames_duplicated > 0) {
    std::snprintf(buf, sizeof(buf), "; link: carried=%llu lost=%llu duplicated=%llu",
                  (unsigned long long)link.frames_carried,
                  (unsigned long long)link.frames_lost,
                  (unsigned long long)link.frames_duplicated);
    out += buf;
    const pflink::ImpairmentStats& impair = machine_->segment()->impairment_stats();
    if (impair.corrupted > 0 || impair.truncated > 0 || impair.reordered > 0) {
      std::snprintf(buf, sizeof(buf), " (corrupted=%llu truncated=%llu reordered=%llu)",
                    (unsigned long long)impair.corrupted,
                    (unsigned long long)impair.truncated,
                    (unsigned long long)impair.reordered);
      out += buf;
    }
  }
  const pfkern::Machine::NicStats& nic = machine_->nic_stats();
  if (nic.crc_errors > 0 || nic.truncated > 0 || nic.ring_overflow > 0) {
    std::snprintf(buf, sizeof(buf), "; nic drops: bad-crc=%llu truncated=%llu ring-overflow=%llu",
                  (unsigned long long)nic.crc_errors, (unsigned long long)nic.truncated,
                  (unsigned long long)nic.ring_overflow);
    out += buf;
  }
  // What crossing the kernel/user boundary cost this machine: every charged
  // copy (pf.copy.*, DESIGN.md §13). Ring delivery shows up here as a copy
  // count that stops tracking the frame count.
  std::snprintf(buf, sizeof(buf), "; copies: n=%llu bytes=%llu",
                (unsigned long long)machine_->copies(),
                (unsigned long long)machine_->copy_bytes());
  out += buf;
  return out;
}

std::string NetworkMonitor::DescribeFrame(pflink::LinkType link_type,
                                          std::span<const uint8_t> frame) {
  const auto header = pflink::ParseHeader(link_type, frame);
  if (!header.has_value()) {
    return "<truncated frame>";
  }
  char buf[256];
  const auto payload = pflink::FramePayload(link_type, frame);
  switch (header->ether_type) {
    case pfproto::kEtherTypeIp: {
      const auto ip = pfproto::ParseIp(payload);
      if (ip.has_value()) {
        const char* proto = ip->header.protocol == pfproto::kIpProtoTcp   ? "tcp"
                            : ip->header.protocol == pfproto::kIpProtoUdp ? "udp"
                                                                          : "ip";
        std::snprintf(buf, sizeof(buf), "%s %s > %s len %zu", proto,
                      pfproto::Ipv4ToString(ip->header.src).c_str(),
                      pfproto::Ipv4ToString(ip->header.dst).c_str(), ip->payload.size());
        return buf;
      }
      return "ip <malformed>";
    }
    case pfproto::kEtherTypeArp:
    case pfproto::kEtherTypeRarp: {
      const auto arp = pfproto::ParseArp(payload);
      if (arp.has_value()) {
        static const char* kOps[] = {"?", "arp-request", "arp-reply", "rarp-request",
                                     "rarp-reply"};
        std::snprintf(buf, sizeof(buf), "%s target_ip=%s",
                      kOps[static_cast<uint16_t>(arp->op)],
                      pfproto::Ipv4ToString(arp->target_ip).c_str());
        return buf;
      }
      return "arp <malformed>";
    }
    case pfproto::kEtherTypePup: {
      const auto pup = pfproto::ParsePup(payload);
      if (pup.has_value()) {
        std::snprintf(buf, sizeof(buf), "pup type=%u %u.%u:%u > %u.%u:%u id=%u len %zu",
                      pup->header.type, pup->header.src.net, pup->header.src.host,
                      pup->header.src.socket, pup->header.dst.net, pup->header.dst.host,
                      pup->header.dst.socket, pup->header.identifier, pup->data.size());
        return buf;
      }
      return "pup <malformed>";
    }
    case pfproto::kEtherTypeVmtp: {
      const auto vmtp = pfproto::ParseVmtp(payload);
      if (vmtp.has_value()) {
        static const char* kFuncs[] = {"?", "request", "response", "ack"};
        std::snprintf(buf, sizeof(buf), "vmtp %s client=%u server=%u txn=%u pkt %u/%u",
                      kFuncs[static_cast<uint8_t>(vmtp->header.func)], vmtp->header.client,
                      vmtp->header.server, vmtp->header.transaction,
                      vmtp->header.packet_index + 1, vmtp->header.packet_count);
        return buf;
      }
      return "vmtp <malformed>";
    }
    default:
      std::snprintf(buf, sizeof(buf), "ethertype 0x%04x len %zu", header->ether_type,
                    frame.size());
      return buf;
  }
}

}  // namespace pfnet

#include "src/net/vmtp.h"

#include <algorithm>

#include "src/pf/builder.h"
#include "src/proto/ethertypes.h"

namespace pfnet {

pf::Program MakeVmtpClientFilter(uint32_t client_id, uint8_t priority) {
  pf::FilterBuilder b;
  b.WordEqualsShortCircuit(pfproto::kVmtpWordClientLow,
                           static_cast<uint16_t>(client_id & 0xffff))
      .WordEqualsShortCircuit(pfproto::kVmtpWordClientHigh,
                              static_cast<uint16_t>(client_id >> 16))
      .WordEquals(pfproto::kVmtpWordEtherType, pfproto::kEtherTypeVmtp);
  return b.Build(priority);
}

pf::Program MakeVmtpServerFilter(uint32_t server_id, uint8_t priority) {
  pf::FilterBuilder b;
  b.WordEqualsShortCircuit(pfproto::kVmtpWordServerLow,
                           static_cast<uint16_t>(server_id & 0xffff))
      .WordEqualsShortCircuit(pfproto::kVmtpWordServerHigh,
                              static_cast<uint16_t>(server_id >> 16))
      .WordEquals(pfproto::kVmtpWordEtherType, pfproto::kEtherTypeVmtp);
  return b.Build(priority);
}

namespace {

// Builds + writes one packet of a group; returns packets written.
// `skip_mask` bit i suppresses packet i (selective retransmission).
pfsim::ValueTask<void> WriteGroupPackets(pfkern::Machine* machine, int pid, pf::PortId /*port*/,
                                         pflink::MacAddr dst, pfproto::VmtpHeader base,
                                         const std::vector<uint8_t>& data,
                                         UserVmtpStats* stats, uint32_t skip_mask = 0) {
  const size_t per_packet = pfproto::kVmtpMaxPacketData;
  const uint16_t count = data.empty()
                             ? 1
                             : static_cast<uint16_t>((data.size() + per_packet - 1) / per_packet);
  base.packet_count = count;
  if ((base.flags & pfproto::kVmtpFlagHaveMask) == 0) {
    base.segment_bytes = static_cast<uint32_t>(data.size());
  }
  for (uint16_t i = 0; i < count; ++i) {
    if (i < 32 && (skip_mask & (1u << i)) != 0) {
      continue;  // receiver already has this packet
    }
    const size_t offset = static_cast<size_t>(i) * per_packet;
    const size_t n = std::min(per_packet, data.size() - offset);
    base.packet_index = i;
    // User-space protocol processing for this packet...
    pfobs::TraceSession* trace = machine->trace();
    const int64_t proc_start_ns = trace != nullptr ? machine->sim()->NowNanos() : 0;
    co_await machine->Run(pid, pfkern::Cost::kProtocolUser,
                      machine->costs().vmtp_user_send_proc);
    if (trace != nullptr) {
      trace->Complete(machine->trace_track(), "user", "vmtp.user.send_proc", proc_start_ns,
                      machine->sim()->NowNanos(),
                      {{"pkt", static_cast<int64_t>(i)},
                       {"of", static_cast<int64_t>(count)}});
    }
    // ...then a write() through the packet filter.
    pflink::LinkHeader link;
    link.dst = dst;
    link.src = machine->link_addr();
    link.ether_type = pfproto::kEtherTypeVmtp;
    std::span<const uint8_t> chunk(data.data() + offset, n);
    const auto frame = pflink::BuildFrame(machine->link_properties().type, link,
                                          pfproto::BuildVmtp(base, chunk));
    if (frame.has_value()) {
      co_await machine->pf().Write(pid, frame->bytes);
      ++stats->packets_sent;
    }
  }
}

std::vector<uint8_t> JoinParts(const std::map<uint16_t, std::vector<uint8_t>>& parts) {
  size_t total = 0;
  for (const auto& [index, part] : parts) {
    total += part.size();
  }
  std::vector<uint8_t> out;
  out.reserve(total);
  for (const auto& [index, part] : parts) {
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

}  // namespace

// ----------------------------------------------------------- PacketSources

pfsim::ValueTask<std::vector<pf::ReceivedPacket>> PortPacketSource::ReadPackets(
    int pid, pfsim::Duration timeout) {
  co_return co_await machine_->pf().Read(pid, port_, timeout);
}

pfsim::ValueTask<std::vector<pf::ReceivedPacket>> PipePacketSource::ReadPackets(
    int pid, pfsim::Duration timeout) {
  std::vector<pf::ReceivedPacket> out;
  std::optional<pf::PacketBuf> message = co_await pipe_->Read(pid, timeout);
  if (message.has_value()) {
    pf::ReceivedPacket packet;
    packet.bytes = std::move(*message);
    out.push_back(std::move(packet));
  }
  co_return out;
}

// ------------------------------------------------------------------ Client

pfsim::ValueTask<std::unique_ptr<UserVmtpClient>> UserVmtpClient::Create(
    pfkern::Machine* machine, int pid, uint32_t client_id, bool batching) {
  auto client = std::unique_ptr<UserVmtpClient>(new UserVmtpClient(machine, client_id));
  client->port_ = co_await machine->pf().Open(pid);
  co_await machine->pf().SetFilter(pid, client->port_, MakeVmtpClientFilter(client_id, 12));
  pfkern::PacketFilterDevice::PortOptions options;
  options.batching = batching;
  // A small, era-realistic input queue. Response-group blasts can overflow
  // it; end-of-group detection plus selective retransmission then recover
  // the missing packets (see EXPERIMENTS.md on table 6-4).
  options.queue_limit = 5;
  co_await machine->pf().Configure(pid, client->port_, options);
  client->owned_source_ = std::make_unique<PortPacketSource>(machine, client->port_);
  client->source_ = client->owned_source_.get();
  co_return client;
}

std::unique_ptr<UserVmtpClient> UserVmtpClient::CreateWithSource(pfkern::Machine* machine,
                                                                 uint32_t client_id,
                                                                 PacketSource* source) {
  auto client = std::unique_ptr<UserVmtpClient>(new UserVmtpClient(machine, client_id));
  client->source_ = source;
  return client;
}

pfsim::ValueTask<void> UserVmtpClient::SendGroup(int pid, pflink::MacAddr dst,
                                                 pfproto::VmtpHeader base,
                                                 const std::vector<uint8_t>& data) {
  co_await WriteGroupPackets(machine_, pid, port_, dst, base, data, &stats_);
}

pfsim::ValueTask<std::optional<std::vector<uint8_t>>> UserVmtpClient::Transact(
    int pid, pflink::MacAddr server_mac, uint32_t server_id, std::vector<uint8_t> request,
    pfsim::Duration timeout, int max_attempts) {
  const uint32_t transaction = next_transaction_++;
  pfproto::VmtpHeader base;
  base.client = client_id_;
  base.server = server_id;
  base.transaction = transaction;
  base.func = pfproto::VmtpFunc::kRequest;

  // Partial response groups persist across retransmissions: a lost or
  // dropped packet only costs re-receiving, not restarting the group.
  std::map<uint16_t, std::vector<uint8_t>> parts;
  uint16_t expected = 0;
  // If packets of this group have arrived but nothing new shows up for a
  // gap timeout, re-request rather than idling out the full deadline. The
  // gap timer handles queue-overflow holes on a healthy network and stays
  // fixed; the wait for the *first* packet of each attempt is the adaptive
  // response timer below, which backs off under loss.
  constexpr pfsim::Duration kGapTimeout = pfsim::Milliseconds(60);

  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    if (attempt > 0) {
      ++stats_.retransmits;
      // Selective retransmission: tell the server which response packets we
      // already hold (bitmask in segment_bytes, flagged).
      uint32_t have_mask = 0;
      for (const auto& [index, part] : parts) {
        if (index < 32) {
          have_mask |= 1u << index;
        }
      }
      pfproto::VmtpHeader retry = base;
      retry.flags |= pfproto::kVmtpFlagHaveMask;
      retry.segment_bytes = have_mask;
      co_await WriteGroupPackets(machine_, pid, port_, server_mac, retry, request, &stats_);
    } else {
      co_await SendGroup(pid, server_mac, base, request);
    }

    const pfsim::TimePoint sent_at = machine_->sim()->Now();
    const pfsim::TimePoint deadline = pfsim::DeadlineAfter(sent_at, timeout);
    // Whether any packet of *this* transaction arrived during this attempt:
    // distinguishes a lost exchange (back off the response timer) from a
    // partially-received group (fixed gap timer, no backoff — the network
    // proved it is delivering).
    bool got_response = false;
    for (;;) {
      const pfsim::Duration remaining = deadline - machine_->sim()->Now();
      if (remaining.count() <= 0) {
        break;  // retransmit the request
      }
      const pfsim::Duration timer = got_response ? kGapTimeout : rto_.NextTimeout();
      const pfsim::Duration slice = remaining < timer ? remaining : timer;
      std::vector<pf::ReceivedPacket> packets = co_await source_->ReadPackets(pid, slice);
      ++stats_.reads;
      if (packets.empty()) {
        if (!got_response) {
          rto_.OnTimeout();  // nothing came back: exponential backoff
        }
        break;  // gap or timeout: retransmit the request
      }
      bool complete = false;
      bool saw_group_end = false;
      for (const pf::ReceivedPacket& packet : packets) {
        pfobs::TraceSession* trace = machine_->trace();
        const int64_t proc_start_ns = trace != nullptr ? machine_->sim()->NowNanos() : 0;
        co_await machine_->Run(pid, pfkern::Cost::kProtocolUser,
                               machine_->costs().vmtp_user_recv_proc);
        if (trace != nullptr) {
          trace->Complete(machine_->trace_track(), "user", "vmtp.user.recv_proc",
                          proc_start_ns, machine_->sim()->NowNanos(),
                          {{"flow", static_cast<int64_t>(packet.flow_id)}});
        }
        ++stats_.packets_received;
        const auto view = pfproto::ParseVmtp(
            pflink::FramePayload(machine_->link_properties().type, packet.bytes));
        if (!view.has_value() || view->header.func != pfproto::VmtpFunc::kResponse ||
            view->header.transaction != transaction) {
          continue;  // stale packet from an earlier transaction
        }
        if (!got_response) {
          got_response = true;
          // Karn's rule: only the un-retransmitted exchange yields an
          // unambiguous RTT sample.
          rto_.OnSample(machine_->sim()->Now() - sent_at, attempt > 0);
        }
        expected = view->header.packet_count;
        if (view->header.packet_index + 1 == expected) {
          saw_group_end = true;
        }
        parts.emplace(view->header.packet_index,
                      std::vector<uint8_t>(view->data.begin(), view->data.end()));
        complete = expected != 0 && parts.size() == expected;
      }
      if (complete) {
        // Ack multi-packet response groups; single-packet responses are
        // acked implicitly by the next transaction (matches the kernel
        // implementation).
        if (expected > 1) {
          pfproto::VmtpHeader ack = base;
          ack.func = pfproto::VmtpFunc::kAck;
          co_await SendGroup(pid, server_mac, ack, {});
        }
        co_return JoinParts(parts);
      }
      if (saw_group_end) {
        // The group's last packet arrived but earlier members are missing
        // (queue-overflow drops): request the missing ones immediately
        // instead of idling out the gap timeout.
        break;
      }
    }
  }
  co_return std::nullopt;
}

// ------------------------------------------------------------------ Server

pfsim::ValueTask<std::unique_ptr<UserVmtpServer>> UserVmtpServer::Create(
    pfkern::Machine* machine, int pid, uint32_t server_id, bool batching) {
  auto server = std::unique_ptr<UserVmtpServer>(new UserVmtpServer(machine, server_id));
  server->port_ = co_await machine->pf().Open(pid);
  co_await machine->pf().SetFilter(pid, server->port_, MakeVmtpServerFilter(server_id, 12));
  pfkern::PacketFilterDevice::PortOptions options;
  options.batching = batching;
  options.queue_limit = 64;
  co_await machine->pf().Configure(pid, server->port_, options);
  co_return server;
}

pfsim::ValueTask<void> UserVmtpServer::SendGroup(int pid, pflink::MacAddr dst,
                                                 pfproto::VmtpHeader base,
                                                 const std::vector<uint8_t>& data) {
  co_await WriteGroupPackets(machine_, pid, port_, dst, base, data, &stats_);
}

pfsim::ValueTask<std::optional<pfkern::VmtpRequest>> UserVmtpServer::ReceiveRequest(
    int pid, pfsim::Duration timeout) {
  const bool forever = timeout == pfsim::kForever;
  const pfsim::TimePoint deadline = pfsim::DeadlineAfter(machine_->sim(), timeout);
  for (;;) {
    const pfsim::Duration remaining =
        forever ? pfsim::kForever : deadline - machine_->sim()->Now();
    if (!forever && remaining.count() <= 0) {
      co_return std::nullopt;
    }
    std::vector<pf::ReceivedPacket> packets =
        co_await machine_->pf().Read(pid, port_, remaining);
    ++stats_.reads;
    if (packets.empty()) {
      co_return std::nullopt;
    }
    for (const pf::ReceivedPacket& packet : packets) {
      pfobs::TraceSession* trace = machine_->trace();
      const int64_t proc_start_ns = trace != nullptr ? machine_->sim()->NowNanos() : 0;
      co_await machine_->Run(pid, pfkern::Cost::kProtocolUser,
                             machine_->costs().vmtp_user_recv_proc);
      if (trace != nullptr) {
        trace->Complete(machine_->trace_track(), "user", "vmtp.user.recv_proc",
                        proc_start_ns, machine_->sim()->NowNanos(),
                        {{"flow", static_cast<int64_t>(packet.flow_id)}});
      }
      ++stats_.packets_received;
      const auto link = pflink::ParseHeader(machine_->link_properties().type, packet.bytes);
      const auto view = pfproto::ParseVmtp(
          pflink::FramePayload(machine_->link_properties().type, packet.bytes));
      if (!view.has_value() || !link.has_value()) {
        continue;
      }
      const pfproto::VmtpHeader& h = view->header;
      ClientRecord& record = clients_.try_emplace(h.client).first->second;
      record.client_mac = link->src;

      if (h.func == pfproto::VmtpFunc::kAck) {
        if (record.last_transaction == h.transaction) {
          record.cached_response.clear();
        }
        continue;
      }
      if (h.func != pfproto::VmtpFunc::kRequest) {
        continue;
      }
      if (h.transaction == record.last_transaction && record.responded) {
        // Duplicate of an answered transaction: resend the cached response,
        // selectively if the client reported what it already has.
        ++stats_.duplicate_requests;
        const uint32_t skip_mask =
            (h.flags & pfproto::kVmtpFlagHaveMask) != 0 ? h.segment_bytes : 0;
        pfproto::VmtpHeader response;
        response.client = h.client;
        response.server = h.server;
        response.transaction = h.transaction;
        response.func = pfproto::VmtpFunc::kResponse;
        co_await WriteGroupPackets(machine_, pid, port_, record.client_mac, response,
                                   record.cached_response, &stats_, skip_mask);
        continue;
      }
      if (h.transaction != record.assembling_transaction) {
        record.assembling_transaction = h.transaction;
        record.parts.clear();
      }
      record.expected = h.packet_count;
      record.parts.emplace(h.packet_index,
                           std::vector<uint8_t>(view->data.begin(), view->data.end()));
      if (record.expected != 0 && record.parts.size() == record.expected) {
        record.last_transaction = h.transaction;
        record.responded = false;
        pfkern::VmtpRequest request;
        request.client = h.client;
        request.server = h.server;
        request.transaction = h.transaction;
        request.client_mac = record.client_mac;
        request.data = JoinParts(record.parts);
        record.parts.clear();
        co_return request;
      }
    }
  }
}

pfsim::ValueTask<bool> UserVmtpServer::SendResponse(int pid, const pfkern::VmtpRequest& request,
                                                    std::vector<uint8_t> data) {
  ClientRecord& record = clients_.try_emplace(request.client).first->second;
  record.responded = true;
  record.cached_response = data;
  pfproto::VmtpHeader base;
  base.client = request.client;
  base.server = request.server;
  base.transaction = request.transaction;
  base.func = pfproto::VmtpFunc::kResponse;
  co_await SendGroup(pid, request.client_mac, base, data);
  co_return true;
}

}  // namespace pfnet

#include "src/kernel/kernel_vmtp.h"

#include <algorithm>

#include "src/proto/ethertypes.h"

namespace pfkern {

std::vector<uint8_t> KernelVmtp::Assembly::Join() const {
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

KernelVmtp::KernelVmtp(Machine* machine) : machine_(machine) {
  machine_->metrics().Expose("vmtp.kernel.packets_in", &stats_.packets_in);
  machine_->metrics().Expose("vmtp.kernel.packets_out", &stats_.packets_out);
  machine_->RegisterKernelProtocol(
      pfproto::kEtherTypeVmtp,
      [this](const pflink::Frame& frame, const pflink::LinkHeader& header) {
        return Input(frame, header);
      });
}

KernelVmtp::~KernelVmtp() { machine_->metrics().Retire(stats_); }

void KernelVmtp::RegisterServer(uint32_t server_id) {
  servers_.emplace(server_id, std::make_unique<ServerState>(machine_->sim()));
}

pfsim::ValueTask<void> KernelVmtp::SendGroup(int ctx, pflink::MacAddr dst,
                                             pfproto::VmtpHeader base,
                                             const std::vector<uint8_t>& data) {
  const size_t per_packet = pfproto::kVmtpMaxPacketData;
  const uint16_t count = data.empty()
                             ? 1
                             : static_cast<uint16_t>((data.size() + per_packet - 1) / per_packet);
  base.packet_count = count;
  base.segment_bytes = static_cast<uint32_t>(data.size());
  for (uint16_t i = 0; i < count; ++i) {
    const size_t offset = static_cast<size_t>(i) * per_packet;
    const size_t n = std::min(per_packet, data.size() - offset);
    base.packet_index = i;
    std::span<const uint8_t> chunk(data.data() + offset, n);
    // Kernel protocol processing per packet, in kernel context.
    co_await machine_->Run(ctx, Cost::kProtocolKernel, machine_->costs().vmtp_kernel_proc);
    ++stats_.packets_out;
    co_await machine_->TransmitFrame(ctx, dst, pfproto::kEtherTypeVmtp,
                                     pfproto::BuildVmtp(base, chunk));
  }
}

pfsim::ValueTask<void> KernelVmtp::Input(const pflink::Frame& frame,
                                         const pflink::LinkHeader& link_header) {
  const auto payload = pflink::FramePayload(machine_->link_properties().type, frame.AsSpan());
  const auto view = pfproto::ParseVmtp(payload);
  pfobs::TraceSession* trace = machine_->trace();
  const int64_t start_ns = trace != nullptr ? machine_->sim()->NowNanos() : 0;
  co_await machine_->Run(Machine::kInterruptContext, Cost::kProtocolKernel,
                         machine_->costs().vmtp_kernel_proc);
  if (trace != nullptr) {
    trace->Complete(machine_->trace_track(), "kernel", "vmtp.input", start_ns,
                    machine_->sim()->NowNanos(),
                    {{"flow", static_cast<int64_t>(frame.flow_id)}});
  }
  if (!view.has_value()) {
    co_return;
  }
  ++stats_.packets_in;
  const pfproto::VmtpHeader& h = view->header;

  switch (h.func) {
    case pfproto::VmtpFunc::kRequest: {
      const auto it = servers_.find(h.server);
      if (it == servers_.end()) {
        co_return;
      }
      ServerState& server = *it->second;
      auto& record = server.clients.try_emplace(h.client).first->second;
      record.client_mac = link_header.src;
      if (h.transaction == record.last_transaction && record.responded) {
        // Duplicate of an answered transaction: re-send the cached response.
        ++stats_.duplicate_requests;
        pfproto::VmtpHeader base;
        base.client = h.client;
        base.server = h.server;
        base.transaction = h.transaction;
        base.func = pfproto::VmtpFunc::kResponse;
        co_await SendGroup(Machine::kInterruptContext, record.client_mac, base,
                           record.cached_response);
        co_return;
      }
      if (h.transaction == record.last_transaction && !record.responded &&
          record.assembly.Complete()) {
        ++stats_.duplicate_requests;  // still being processed; drop
        co_return;
      }
      if (h.transaction != record.assembly.transaction) {
        record.assembly = Assembly{};
        record.assembly.transaction = h.transaction;
      }
      record.assembly.expected = h.packet_count;
      record.assembly.parts.emplace(h.packet_index,
                                    std::vector<uint8_t>(view->data.begin(), view->data.end()));
      if (record.assembly.Complete()) {
        ++stats_.groups_in;
        record.last_transaction = h.transaction;
        record.responded = false;
        VmtpRequest request;
        request.client = h.client;
        request.server = h.server;
        request.transaction = h.transaction;
        request.client_mac = link_header.src;
        request.data = record.assembly.Join();
        ++stats_.requests_delivered;
        server.requests.TryPush(std::move(request));
      }
      co_return;
    }

    case pfproto::VmtpFunc::kResponse: {
      const auto it = clients_.find(h.client);
      if (it == clients_.end()) {
        co_return;
      }
      ClientState& client = *it->second;
      if (h.transaction != client.transaction) {
        co_return;  // stale response
      }
      if (h.transaction != client.assembly.transaction) {
        client.assembly = Assembly{};
        client.assembly.transaction = h.transaction;
      }
      client.assembly.expected = h.packet_count;
      client.assembly.parts.emplace(h.packet_index,
                                    std::vector<uint8_t>(view->data.begin(), view->data.end()));
      if (client.assembly.Complete()) {
        ++stats_.groups_in;
        // Ack multi-packet groups so the server can release the cached
        // response promptly; a single-packet response is acked implicitly
        // by the client's next transaction (VMTP's streamlined behaviour —
        // §2's point that acknowledgement traffic stays in the kernel).
        if (h.packet_count > 1) {
          pfproto::VmtpHeader ack;
          ack.client = h.client;
          ack.server = h.server;
          ack.transaction = h.transaction;
          ack.func = pfproto::VmtpFunc::kAck;
          co_await SendGroup(Machine::kInterruptContext, link_header.src, ack, {});
        }
        ++stats_.responses_delivered;
        client.responses.TryPush(client.assembly.Join());
        client.assembly = Assembly{};
      }
      co_return;
    }

    case pfproto::VmtpFunc::kAck: {
      const auto it = servers_.find(h.server);
      if (it != servers_.end()) {
        auto record = it->second->clients.find(h.client);
        if (record != it->second->clients.end() &&
            record->second.last_transaction == h.transaction) {
          record->second.cached_response.clear();
        }
      }
      co_return;
    }
  }
}

pfsim::ValueTask<std::optional<VmtpRequest>> KernelVmtp::ReceiveRequest(
    int pid, uint32_t server_id, pfsim::Duration timeout) {
  co_await machine_->Run(pid, Cost::kSyscall, machine_->costs().syscall);
  const auto it = servers_.find(server_id);
  if (it == servers_.end()) {
    co_return std::nullopt;
  }
  if (it->second->requests.empty()) {
    machine_->MarkBlocked(pid);
  }
  std::optional<VmtpRequest> request = co_await it->second->requests.PopWithTimeout(timeout);
  if (request.has_value()) {
    // One copy for the whole message, however many packets carried it.
    const Machine::Charge copy = machine_->CopyCharge(request->data.size());
    co_await machine_->Run(pid, copy.first, copy.second);
  }
  co_return request;
}

pfsim::ValueTask<bool> KernelVmtp::SendResponse(int pid, const VmtpRequest& request,
                                                std::vector<uint8_t> data) {
  const auto it = servers_.find(request.server);
  if (it == servers_.end()) {
    co_return false;
  }
  const Machine::Charge charges[] = {{Cost::kSyscall, machine_->costs().syscall},
                                     machine_->CopyCharge(data.size())};
  co_await machine_->RunMulti(pid, charges);
  auto& record = it->second->clients.try_emplace(request.client).first->second;
  record.responded = true;
  record.cached_response = data;
  record.client_mac = request.client_mac;
  pfproto::VmtpHeader base;
  base.client = request.client;
  base.server = request.server;
  base.transaction = request.transaction;
  base.func = pfproto::VmtpFunc::kResponse;
  co_await SendGroup(pid, request.client_mac, base, data);
  co_return true;
}

pfsim::ValueTask<std::optional<std::vector<uint8_t>>> KernelVmtp::Transact(
    int pid, uint32_t client_id, pflink::MacAddr server_mac, uint32_t server_id,
    std::vector<uint8_t> request, pfsim::Duration timeout, int max_attempts) {
  auto [it, inserted] = clients_.try_emplace(client_id, nullptr);
  if (inserted) {
    it->second = std::make_unique<ClientState>(machine_->sim());
  }
  ClientState& client = *it->second;
  client.transaction = next_transaction_++;
  client.assembly = Assembly{};

  const Machine::Charge charges[] = {{Cost::kSyscall, machine_->costs().syscall},
                                     machine_->CopyCharge(request.size())};
  co_await machine_->RunMulti(pid, charges);

  pfproto::VmtpHeader base;
  base.client = client_id;
  base.server = server_id;
  base.transaction = client.transaction;
  base.func = pfproto::VmtpFunc::kRequest;

  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    if (attempt > 0) {
      ++stats_.client_retransmits;
    }
    co_await SendGroup(pid, server_mac, base, request);
    machine_->MarkBlocked(pid);
    std::optional<std::vector<uint8_t>> response =
        co_await client.responses.PopWithTimeout(timeout);
    if (response.has_value()) {
      const Machine::Charge copy = machine_->CopyCharge(response->size());
      co_await machine_->Run(pid, copy.first, copy.second);
      co_return response;
    }
  }
  co_return std::nullopt;
}

}  // namespace pfkern

// Shared VMTP measurement flows for tables 6-2 .. 6-5.
//
// The workload matches §6.3: "a minimal round-trip operation (reading zero
// bytes from a file)" for latency, and "repeatedly reading the same segment
// of a file, which therefore stayed in the file system buffer cache" (16 KB
// segments, ~1 MB total) for bulk throughput.
#ifndef BENCH_VMTP_COMMON_H_
#define BENCH_VMTP_COMMON_H_

#include <algorithm>
#include <memory>

#include "bench/harness.h"
#include "src/net/demux_process.h"
#include "src/net/vmtp.h"

namespace pfbench {

inline constexpr uint32_t kFileServerId = 0x5eef;
inline constexpr uint32_t kClientId = 0xc11e;
inline constexpr size_t kSegmentBytes = 16384;

struct VmtpConfig {
  bool kernel = false;            // kernel-resident vs packet-filter implementation
  bool batching = true;           // read batching (user-level only)
  bool demux_process = false;     // client receives via demux process + pipe (§6.5)
  pfkern::CostModel costs = pfkern::MicroVaxUltrixCosts();
  // Zero-copy delivery knobs (DESIGN.md §13), applied to both machines:
  // ring_slots > 0 maps every pf port onto a shared-memory descriptor ring;
  // poll trades per-frame NIC interrupts for budgeted poll rounds.
  size_t ring_slots = 0;
  bool poll = false;
  // Called after the run with both machines still alive — snapshot ledgers
  // and metrics here (micro_zerocopy's reconciliation gate).
  std::function<void(Duo&)> inspect;
  // Called before bulk segment read i (0-based) and once more, with i ==
  // bulk_segments, after the last: a window over the bulk loop's steady
  // state (micro_zerocopy's allocation gate). It schedules nothing.
  std::function<void(Duo&, int)> on_bulk_segment;
};

struct VmtpResult {
  double rtt_ms = 0;     // minimal transaction
  double bulk_kbps = 0;  // 16 KB reads, ~1 MB total
  // The event queue's depth (pending_events()), sampled after each 1 ms of
  // simulated time until it drains: dead timers left in the queue raise it.
  double mean_pending_events = 0;
};

// The user-level file server: answers "read" requests with a cached
// segment; zero-length requests get zero-length responses. Both variants
// share FileServerLoop (bench/harness.h); only the transport differs.
inline pfsim::Task UserFileServer(pfkern::Machine* machine, pfnet::UserVmtpServer* server) {
  const int pid = machine->NewPid();
  return FileServerLoop(
      kSegmentBytes,
      [server, pid]() { return server->ReceiveRequest(pid, pfsim::Seconds(10)); },
      [server, pid](auto& request, std::vector<uint8_t> response) {
        return server->SendResponse(pid, request, std::move(response));
      });
}

inline pfsim::Task KernelFileServer(pfkern::Machine* machine, pfkern::KernelVmtp* vmtp) {
  const int pid = machine->NewPid();
  return FileServerLoop(
      kSegmentBytes,
      [vmtp, pid]() { return vmtp->ReceiveRequest(pid, kFileServerId, pfsim::Seconds(10)); },
      [vmtp, pid](auto& request, std::vector<uint8_t> response) {
        return vmtp->SendResponse(pid, request, std::move(response));
      });
}

inline VmtpResult MeasureVmtp(const VmtpConfig& config, int rtt_transactions = 20,
                              int bulk_segments = 64) {
  Duo duo(pflink::LinkType::kEthernet10Mb, config.costs);
  if (config.ring_slots > 0) {
    duo.client().pf().SetRingDelivery(config.ring_slots);
    duo.server().pf().SetRingDelivery(config.ring_slots);
  }
  if (config.poll) {
    duo.client().SetPollMode(true);
    duo.server().SetPollMode(true);
  }
  VmtpResult result;

  std::unique_ptr<pfkern::KernelVmtp> kernel_client;
  std::unique_ptr<pfkern::KernelVmtp> kernel_server;
  if (config.kernel) {
    kernel_client = std::make_unique<pfkern::KernelVmtp>(&duo.client());
    kernel_server = std::make_unique<pfkern::KernelVmtp>(&duo.server());
    kernel_server->RegisterServer(kFileServerId);
    duo.sim().Spawn(KernelFileServer(&duo.server(), kernel_server.get()));
  }

  // Owned at function scope: protocol objects must outlive every spawned
  // task, and MeasureVmtp only returns once the simulation has drained.
  std::unique_ptr<pfnet::UserVmtpServer> user_server;
  std::unique_ptr<pfnet::UserVmtpClient> user_client;
  std::unique_ptr<pfkern::MessagePipe> pipe;
  std::unique_ptr<pfnet::UserDemuxProcess> demux;
  std::unique_ptr<pfnet::PipePacketSource> pipe_source;

  auto client_task = [&]() -> pfsim::Task {
    const int pid = duo.client().NewPid();
    if (!config.kernel) {
      user_server = co_await pfnet::UserVmtpServer::Create(&duo.server(),
                                                           duo.server().NewPid(),
                                                           kFileServerId, config.batching);
      duo.sim().Spawn(UserFileServer(&duo.server(), user_server.get()));
      if (config.demux_process) {
        pipe = std::make_unique<pfkern::MessagePipe>(&duo.client(), 256);
        demux = co_await pfnet::UserDemuxProcess::Create(
            &duo.client(), pfnet::MakeVmtpClientFilter(kClientId, 12), config.batching,
            pipe.get());
        demux->Start();
        pipe_source = std::make_unique<pfnet::PipePacketSource>(pipe.get());
        user_client = pfnet::UserVmtpClient::CreateWithSource(&duo.client(), kClientId,
                                                              pipe_source.get());
      } else {
        user_client = co_await pfnet::UserVmtpClient::Create(&duo.client(), pid, kClientId,
                                                             config.batching);
      }
    }

    auto transact = [&](char op) -> pfsim::ValueTask<bool> {
      std::vector<uint8_t> request = {static_cast<uint8_t>(op)};
      if (config.kernel) {
        auto response = co_await kernel_client->Transact(pid, kClientId,
                                                         duo.server().link_addr(),
                                                         kFileServerId, std::move(request),
                                                         pfsim::Seconds(5));
        co_return response.has_value();
      }
      auto response = co_await user_client->Transact(pid, duo.server().link_addr(),
                                                     kFileServerId, std::move(request),
                                                     pfsim::Seconds(5));
      co_return response.has_value();
    };

    // Warm-up.
    co_await transact('0');

    // Minimal round-trip operation.
    pfsim::TimePoint start = duo.sim().Now();
    for (int i = 0; i < rtt_transactions; ++i) {
      co_await transact('0');
    }
    result.rtt_ms = ElapsedMs(start, duo.sim().Now()) / rtt_transactions;

    // Bulk: repeated 16 KB reads.
    start = duo.sim().Now();
    for (int i = 0; i < bulk_segments; ++i) {
      if (config.on_bulk_segment) {
        config.on_bulk_segment(duo, i);
      }
      co_await transact('R');
    }
    if (config.on_bulk_segment) {
      config.on_bulk_segment(duo, bulk_segments);
    }
    result.bulk_kbps =
        RateKBps(static_cast<size_t>(bulk_segments) * kSegmentBytes, start, duo.sim().Now());
  };

  duo.sim().Spawn(client_task());
  // Run in 1 ms slices (the same events in the same order as one RunUntil)
  // to sample the queue depth between them.
  const pfsim::TimePoint deadline = pfsim::TimePoint{} + pfsim::Seconds(3600);
  double depth_sum = 0;
  uint64_t samples = 0;
  while (duo.sim().pending_events() > 0 && duo.sim().Now() < deadline) {
    duo.sim().RunUntil(std::min(deadline, duo.sim().Now() + pfsim::Milliseconds(1)));
    depth_sum += static_cast<double>(duo.sim().pending_events());
    ++samples;
  }
  result.mean_pending_events = samples > 0 ? depth_sum / static_cast<double>(samples) : 0;
  duo.sim().RunUntil(deadline);
  if (config.inspect) {
    config.inspect(duo);
  }
  return result;
}

}  // namespace pfbench

#endif  // BENCH_VMTP_COMMON_H_

// Chaos soak: drives the user-level protocol suite (VMTP bulk transfer,
// BSP byte streams, RARP resolution) across the full impairment grid —
// independent loss up to 30%, Gilbert-Elliott burst loss, bit corruption,
// duplication, reorder, truncation, and NIC RX-ring overflow — and holds
// every cell to the same bar:
//
//   * payload integrity: every transfer byte-exact against the generator;
//   * bounded completion: the scenario finishes inside a simulated-time
//     watchdog (a stuck retransmitter fails loudly, not silently);
//   * conservation: frames_offered + duplicated == carried + lost on the
//     wire, frames_in == ring_overflow + crc_errors + truncated +
//     frames_to_pf at each NIC, both cross-checked against the metrics
//     registry;
//   * adaptation: cells that destroy frames must show retransmissions, and
//     heavy loss must drive the RTO estimator into exponential backoff.
//
// Every cell derives its impairment seed from a base seed, printed on any
// failure; `--seed 0x...` (optionally with `--cell NAME`) replays exactly
// that state. `--check` runs the grid at reduced iterations and exits
// non-zero on any violation — the CI gate (ctest label: chaos). The soak
// has its own flags and no baseline entry, so it is its own executable
// rather than a pfbench bench.
//
// `--delivery=ring` (optionally with `--poll`) reruns the whole grid with
// shared-memory ring delivery / poll-mode receive on every machine
// (DESIGN.md §13). Under impairments this is the copy-on-write stress: the
// wire duplicates a frame sharing one PacketBuf block, corruption then
// mutates one instance via MutableSpan(), and the byte-exactness bar proves
// the COW clone isolated the pristine copy. Wired into ctest as
// soak_chaos_ring_check / soak_chaos_ring_poll_check (label: chaos).
#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/link/impair.h"
#include "src/pf/packet_buf.h"
#include "src/net/bsp.h"
#include "src/net/rarp.h"
#include "src/net/vmtp.h"
#include "src/obs/metrics.h"
#include "src/proto/ip.h"

namespace {

using pfkern::Machine;
using pflink::EthernetSegment;
using pflink::ImpairmentConfig;
using pfsim::Milliseconds;
using pfsim::Seconds;
using pfsim::Task;

constexpr uint64_t kDefaultBaseSeed = 0xc4a05;

// How packets cross the kernel/user boundary for the whole grid run
// (DESIGN.md §13). Legacy = per-packet read() copies; ring maps every pf
// port onto a shared-memory descriptor ring; poll swaps per-frame NIC
// interrupts for budgeted poll rounds.
struct Delivery {
  size_t ring_slots = 0;
  bool poll = false;
  const char* label() const {
    if (ring_slots == 0) {
      return "legacy read()";
    }
    return poll ? "ring + poll" : "ring";
  }
};

struct Cell {
  std::string name;
  ImpairmentConfig config;
  size_t rx_ring = 0;  // 0 = unbounded
  // Cells that destroy frames force retransmission; duplication/reorder
  // alone must be absorbed without any.
  bool destroys_frames() const {
    return config.loss > 0 || config.burst_enter > 0 || config.corrupt > 0 ||
           config.truncate > 0 || rx_ring > 0;
  }
};

std::vector<Cell> Grid(uint64_t base_seed) {
  std::vector<Cell> cells;
  cells.push_back({"baseline", {}, 0});
  {
    Cell c{"loss10", {}, 0};
    c.config.loss = 0.10;
    cells.push_back(c);
  }
  {
    Cell c{"loss30", {}, 0};
    c.config.loss = 0.30;
    cells.push_back(c);
  }
  {
    Cell c{"burst", {}, 0};
    c.config.burst_enter = 0.04;
    c.config.burst_exit = 0.5;
    cells.push_back(c);
  }
  {
    Cell c{"corrupt10", {}, 0};
    c.config.corrupt = 0.10;
    cells.push_back(c);
  }
  {
    Cell c{"duplicate10", {}, 0};
    c.config.duplicate = 0.10;
    cells.push_back(c);
  }
  {
    Cell c{"reorder20", {}, 0};
    c.config.reorder = 0.20;
    c.config.reorder_jitter = Milliseconds(3);
    cells.push_back(c);
  }
  {
    Cell c{"truncate10", {}, 0};
    c.config.truncate = 0.10;
    cells.push_back(c);
  }
  {
    Cell c{"everything", {}, 0};
    c.config.loss = 0.05;
    c.config.burst_enter = 0.02;
    c.config.corrupt = 0.05;
    c.config.duplicate = 0.05;
    c.config.truncate = 0.03;
    c.config.reorder = 0.10;
    cells.push_back(c);
  }
  {
    Cell c{"ring1", {}, 1};
    cells.push_back(c);
  }
  // Decorrelate the cells: each gets its own stream derived from the base.
  uint64_t index = 0;
  for (Cell& cell : cells) {
    cell.config.seed = base_seed + 0x9e3779b97f4a7c15ull * index++;
  }
  return cells;
}

std::vector<uint8_t> Pattern(size_t n) {
  std::vector<uint8_t> data(n);
  for (size_t i = 0; i < n; ++i) {
    data[i] = static_cast<uint8_t>(i * 13 + 5);
  }
  return data;
}

struct Outcome {
  bool done = false;       // scenario finished before the watchdog
  bool intact = false;     // every payload byte-exact
  double sim_ms = 0;       // simulated completion time
  uint64_t retransmits = 0;
  uint64_t backoffs = 0;
  std::string error;       // first violated invariant, empty if none
  std::string stats_line;  // wire/NIC accounting for failure reports
};

void Fail(Outcome* out, const std::string& what) {
  if (out->error.empty()) {
    out->error = what;
  }
}

// One simulated network per (cell, protocol) run.
struct Net {
  Net(const Cell& cell, const Delivery& delivery)
      : duo(pflink::LinkType::kEthernet10Mb) {
    duo.segment().AttachMetrics(&wire_metrics);
    if (cell.config.Any()) {
      duo.segment().SetImpairments(cell.config);
    }
    if (cell.rx_ring > 0) {
      duo.client().SetRxRing(cell.rx_ring);
    }
    if (delivery.ring_slots > 0) {
      duo.client().pf().SetRingDelivery(delivery.ring_slots);
      duo.server().pf().SetRingDelivery(delivery.ring_slots);
    }
    if (delivery.poll) {
      duo.client().SetPollMode(true);
      duo.server().SetPollMode(true);
    }
  }

  bool Run(Task task, pfsim::Duration watchdog, const bool* done) {
    duo.sim().Spawn(std::move(task));
    duo.sim().RunUntil(pfsim::TimePoint{} + watchdog);
    return *done;
  }

  // One-line wire/NIC accounting dump, printed for failed cells so a replay
  // starts with the loss picture in hand.
  std::string DescribeStats() {
    const EthernetSegment::Stats& link = duo.segment().stats();
    const pflink::ImpairmentStats& impair = duo.segment().impairment_stats();
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "wire: offered=%llu carried=%llu lost=%llu (ind=%llu burst=%llu) "
                  "corrupt=%llu dup=%llu trunc=%llu reorder=%llu; "
                  "client nic in=%llu ring=%llu crc=%llu trunc=%llu; "
                  "server nic in=%llu ring=%llu crc=%llu trunc=%llu",
                  (unsigned long long)link.frames_offered,
                  (unsigned long long)link.frames_carried,
                  (unsigned long long)link.frames_lost,
                  (unsigned long long)impair.dropped_independent,
                  (unsigned long long)impair.dropped_burst,
                  (unsigned long long)impair.corrupted,
                  (unsigned long long)impair.duplicated,
                  (unsigned long long)impair.truncated,
                  (unsigned long long)impair.reordered,
                  (unsigned long long)duo.client().nic_stats().frames_in,
                  (unsigned long long)duo.client().nic_stats().ring_overflow,
                  (unsigned long long)duo.client().nic_stats().crc_errors,
                  (unsigned long long)duo.client().nic_stats().truncated,
                  (unsigned long long)duo.server().nic_stats().frames_in,
                  (unsigned long long)duo.server().nic_stats().ring_overflow,
                  (unsigned long long)duo.server().nic_stats().crc_errors,
                  (unsigned long long)duo.server().nic_stats().truncated);
    return buf;
  }

  void CheckConservation(Outcome* out) {
    const EthernetSegment::Stats& link = duo.segment().stats();
    if (link.frames_offered + link.frames_duplicated !=
        link.frames_carried + link.frames_lost) {
      Fail(out, "segment conservation violated");
    }
    if (link.frames_carried !=
            static_cast<uint64_t>(wire_metrics.FindCounter("link.frames_carried")->value()) ||
        link.frames_lost !=
            static_cast<uint64_t>(wire_metrics.FindCounter("link.frames_lost")->value())) {
      Fail(out, "segment stats disagree with metrics registry");
    }
    if (duo.segment().impairment_stats().dropped() != link.frames_lost) {
      Fail(out, "impairment drop count disagrees with segment losses");
    }
    uint64_t heard = 0;
    for (Machine* machine : {&duo.client(), &duo.server()}) {
      const Machine::NicStats& nic = machine->nic_stats();
      heard += nic.frames_in;
      if (nic.frames_in !=
          nic.ring_overflow + nic.crc_errors + nic.truncated + nic.frames_to_pf) {
        Fail(out, "NIC conservation violated on " + machine->name());
      }
      if (nic.ring_overflow !=
          static_cast<uint64_t>(
              machine->metrics().FindCounter("nic.rx.ring_overflow")->value())) {
        Fail(out, "NIC ring_overflow disagrees with metrics on " + machine->name());
      }
    }
    // Unicast frames are heard once, link-broadcast (Pup, RARP request)
    // twice on this two-station wire.
    if (heard < link.frames_carried || heard > 2 * link.frames_carried) {
      Fail(out, "carried frames not accounted for by NIC arrivals");
    }
  }

  pfobs::MetricsRegistry wire_metrics;  // outlives the segment attached to it
  pfbench::Duo duo;
};

Outcome RunVmtp(const Cell& cell, const Delivery& delivery, int transactions,
                size_t bulk_bytes) {
  Net net(cell, delivery);
  Outcome out;
  int intact = 0;
  bool done = false;
  pfsim::TimePoint finished{};
  std::unique_ptr<pfnet::UserVmtpServer> server;
  std::unique_ptr<pfnet::UserVmtpClient> client;
  auto scenario = [&]() -> Task {
    server = co_await pfnet::UserVmtpServer::Create(&net.duo.server(),
                                                    net.duo.server().NewPid(), 0xab01,
                                                    /*batching=*/true);
    client = co_await pfnet::UserVmtpClient::Create(&net.duo.client(),
                                                    net.duo.client().NewPid(), 0xab02,
                                                    /*batching=*/true);
    auto serve = [](Machine* machine, pfnet::UserVmtpServer* srv, size_t bytes) -> Task {
      const int pid = machine->NewPid();
      for (;;) {
        auto request = co_await srv->ReceiveRequest(pid, Seconds(120));
        if (!request.has_value()) {
          co_return;
        }
        co_await srv->SendResponse(pid, *request, Pattern(bytes));
      }
    };
    net.duo.sim().Spawn(serve(&net.duo.server(), server.get(), bulk_bytes));
    const int pid = net.duo.client().NewPid();
    for (int i = 0; i < transactions; ++i) {
      std::vector<uint8_t> request = {'R'};
      auto response = co_await client->Transact(pid, net.duo.server().link_addr(), 0xab01,
                                                std::move(request), Seconds(5));
      if (response.has_value() && *response == Pattern(bulk_bytes)) {
        ++intact;
      }
    }
    finished = net.duo.sim().Now();
    done = true;
  };
  out.done = net.Run(scenario(), Seconds(3600), &done);
  out.sim_ms = pfbench::ElapsedMs(pfsim::TimePoint{}, finished);
  out.intact = intact == transactions;
  if (!out.done) {
    Fail(&out, "watchdog expired (completion time unbounded)");
  }
  if (!out.intact) {
    Fail(&out, "payload integrity violated (" + std::to_string(intact) + "/" +
                   std::to_string(transactions) + " transactions byte-exact)");
  }
  out.retransmits = client != nullptr ? client->stats().retransmits : 0;
  net.CheckConservation(&out);
  out.stats_line = net.DescribeStats();
  if (cell.destroys_frames() && out.retransmits == 0) {
    Fail(&out, "lossy cell recovered without retransmission (impossible)");
  }
  if (cell.rx_ring > 0 && net.duo.client().nic_stats().ring_overflow == 0) {
    Fail(&out, "RX ring never overflowed in the ring cell");
  }
  return out;
}

Outcome RunBsp(const Cell& cell, const Delivery& delivery, size_t payload_bytes) {
  Net net(cell, delivery);
  Outcome out;
  std::vector<uint8_t> received;
  bool sent_ok = false;
  bool done = false;
  pfsim::TimePoint finished{};
  pfnet::RtoStats rto_stats;
  auto scenario = [&]() -> Task {
    auto server = [](Net* n, std::vector<uint8_t>* sink) -> Task {
      const int pid = n->duo.server().NewPid();
      auto listener = co_await pfnet::BspListener::Create(&n->duo.server(), pid,
                                                          pfproto::PupPort{0, 2, 0x100});
      auto stream = co_await listener->Accept(pid, Seconds(300));
      if (stream == nullptr) {
        co_return;
      }
      while (!stream->eof()) {
        const auto chunk = co_await stream->Recv(pid, 4096, Seconds(60));
        if (chunk.empty() && !stream->eof()) {
          co_return;
        }
        sink->insert(sink->end(), chunk.begin(), chunk.end());
      }
    };
    net.duo.sim().Spawn(server(&net, &received));
    const int pid = net.duo.client().NewPid();
    auto stream = co_await pfnet::BspStream::Connect(&net.duo.client(), pid,
                                                     pfproto::PupPort{0, 1, 0x777},
                                                     pfproto::PupPort{0, 2, 0x100},
                                                     Seconds(120));
    if (stream != nullptr) {
      sent_ok = co_await stream->Send(pid, Pattern(payload_bytes));
      co_await stream->Close(pid);
      out.retransmits = stream->stats().retransmits;
      rto_stats = stream->rto().stats();
    }
    finished = net.duo.sim().Now();
    done = true;
  };
  out.done = net.Run(scenario(), Seconds(3600), &done);
  out.sim_ms = pfbench::ElapsedMs(pfsim::TimePoint{}, finished);
  out.intact = sent_ok && received == Pattern(payload_bytes);
  out.backoffs = rto_stats.backoffs;
  if (!out.done) {
    Fail(&out, "watchdog expired (completion time unbounded)");
  }
  if (!out.intact) {
    Fail(&out, "payload integrity violated (sent_ok=" + std::to_string(sent_ok) +
                   " received " + std::to_string(received.size()) + "/" +
                   std::to_string(payload_bytes) + " bytes)");
  }
  net.CheckConservation(&out);
  out.stats_line = net.DescribeStats();
  if (cell.config.loss >= 0.2 && rto_stats.backoffs == 0) {
    Fail(&out, "heavy loss produced no exponential backoff");
  }
  if (!cell.config.Any() && cell.rx_ring == 0 &&
      (rto_stats.backoffs != 0 || rto_stats.karn_discards != 0)) {
    Fail(&out, "clean path armed a retransmission timer");
  }
  return out;
}

Outcome RunRarp(const Cell& cell, const Delivery& delivery, int resolves) {
  Net net(cell, delivery);
  Outcome out;
  const uint32_t assigned = pfproto::MakeIpv4(10, 9, 8, 7);
  int good = 0;
  bool done = false;
  pfsim::TimePoint finished{};
  auto scenario = [&]() -> Task {
    pfnet::RarpServer::AddressTable table;
    table[net.duo.client().link_addr().bytes] = assigned;
    auto server = co_await pfnet::RarpServer::Create(&net.duo.server(),
                                                     net.duo.server().NewPid(),
                                                     std::move(table));
    server->Start();
    for (int i = 0; i < resolves; ++i) {
      auto resolved = co_await pfnet::RarpClient::Resolve(
          &net.duo.client(), net.duo.client().NewPid(), Milliseconds(200), /*attempts=*/8);
      if (resolved.has_value() && *resolved == assigned) {
        ++good;
      }
    }
    finished = net.duo.sim().Now();
    done = true;
    co_await net.duo.sim().Delay(Seconds(1));
    (void)server;
  };
  out.done = net.Run(scenario(), Seconds(600), &done);
  out.sim_ms = pfbench::ElapsedMs(pfsim::TimePoint{}, finished);
  out.intact = good == resolves;
  if (!out.done) {
    Fail(&out, "watchdog expired (completion time unbounded)");
  }
  if (!out.intact) {
    Fail(&out, "resolution failed despite backed-off retries");
  }
  net.CheckConservation(&out);
  out.stats_line = net.DescribeStats();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool check = false;
  uint64_t base_seed = kDefaultBaseSeed;
  std::string only_cell;
  Delivery delivery;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      base_seed = std::strtoull(argv[++i], nullptr, 0);
    } else if (std::strcmp(argv[i], "--cell") == 0 && i + 1 < argc) {
      only_cell = argv[++i];
    } else if (std::strcmp(argv[i], "--delivery=ring") == 0) {
      delivery.ring_slots = 128;
    } else if (std::strcmp(argv[i], "--poll") == 0) {
      delivery.poll = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--check] [--seed N] [--cell NAME] [--delivery=ring] [--poll]\n"
                   "  --check  reduced iterations, exit non-zero on any violation\n"
                   "  --seed   base seed for the impairment grid (replay a failure)\n"
                   "  --cell   run a single grid cell by name\n"
                   "  --delivery=ring  shared-memory ring delivery on every pf port\n"
                   "  --poll   poll-mode NIC receive instead of per-frame interrupts\n",
                   argv[0]);
      return 2;
    }
  }
  pf::PacketBuf::ResetStats();

  // Soak scale vs CI gate scale.
  const int vmtp_transactions = check ? 4 : 40;
  const size_t vmtp_bulk = 16000;  // 12-packet response groups
  const size_t bsp_bytes = check ? 8192 : 65536;
  const int rarp_resolves = check ? 2 : 8;

  std::vector<pfbench::Row> rows;
  int failures = 0;
  for (const Cell& cell : Grid(base_seed)) {
    if (!only_cell.empty() && cell.name != only_cell) {
      continue;
    }
    struct Proto {
      const char* name;
      Outcome outcome;
    } protos[] = {
        {"vmtp", RunVmtp(cell, delivery, vmtp_transactions, vmtp_bulk)},
        {"bsp", RunBsp(cell, delivery, bsp_bytes)},
        {"rarp", RunRarp(cell, delivery, rarp_resolves)},
    };
    for (const Proto& proto : protos) {
      rows.push_back({cell.name + "/" + proto.name, NAN, proto.outcome.sim_ms});
      if (!proto.outcome.error.empty()) {
        ++failures;
        std::fprintf(stderr,
                     "FAILED cell=%s proto=%s delivery=\"%s\" seed=0x%llx: %s\n"
                     "  (retransmits=%llu backoffs=%llu)\n"
                     "  %s\n"
                     "  replay: soak_chaos --cell %s --seed 0x%llx%s%s\n",
                     cell.name.c_str(), proto.name, delivery.label(),
                     (unsigned long long)base_seed, proto.outcome.error.c_str(),
                     (unsigned long long)proto.outcome.retransmits,
                     (unsigned long long)proto.outcome.backoffs,
                     proto.outcome.stats_line.c_str(),
                     cell.name.c_str(), (unsigned long long)base_seed,
                     delivery.ring_slots > 0 ? " --delivery=ring" : "",
                     delivery.poll ? " --poll" : "");
      }
    }
  }

  std::string title = "Chaos soak: impairment grid x {VMTP bulk, BSP stream, RARP}";
  if (delivery.ring_slots > 0 || delivery.poll) {
    title += std::string(" [") + delivery.label() + "]";
  }
  pfbench::PrintTable(
      title,
      "fault-injection subsystem (src/link/impair.h); no paper counterpart",
      "ms simulated to byte-exact completion", rows);
  pfbench::PrintNote(
      "Every cell asserts payload integrity, bounded completion, wire/NIC "
      "conservation identities, and adaptive-retransmission behaviour.");
  const pf::PacketBufStats& buf_stats = pf::PacketBuf::stats();
  if (delivery.ring_slots > 0 || delivery.poll) {
    // The COW evidence: corruption of a duplicated (block-sharing) frame
    // cloned before mutating, and every cell above still came out
    // byte-exact. A zero here on the full default-seed grid would mean the
    // duplicate+corrupt overlap never happened and the grid stopped
    // stressing copy-on-write — fail loudly rather than let coverage rot.
    std::printf("    packet-buf: %llu COW clone(s) (%llu bytes) isolated impairment "
                "mutations from shared blocks\n",
                (unsigned long long)buf_stats.cow_copies,
                (unsigned long long)buf_stats.cow_bytes);
    if (check && only_cell.empty() && base_seed == kDefaultBaseSeed &&
        buf_stats.cow_copies == 0) {
      std::fprintf(stderr,
                   "FAILED: default-seed grid exercised no copy-on-write clones\n");
      ++failures;
    }
  }
  if (check) {
    pfbench::ReportCheck("soak_chaos.grid", failures == 0);
  }
  if (failures > 0) {
    std::fprintf(stderr, "%d chaos cell(s) failed\n", failures);
    return 1;
  }
  return 0;
}

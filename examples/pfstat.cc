// pfstat: live introspection of a packet-filter machine (PR 4 tentpole).
//
// Runs a small simulated scenario — three bound Pup sockets (one with a
// tiny queue and no reader, to force queue overflows), plus traffic to an
// unbound socket and truncated frames — and renders the machine's demux
// state as a table on a simulated-clock period: per-port bindings,
// accept/drop rates, hot filter pc, p99 demux latency, the drop-reason
// taxonomy, and the flight-recorder tail. A MetricsSampler snapshots the
// "pf.*" registry metrics each period; --csv/--json export the time series
// and --flight-json exports the flight recorder (consumed by the CI smoke
// test, cmake/check_pfstat.cmake).
//
// Flags:
//   --once             snapshot mode: no live loop — run the scenario, take a
//                      single sample at the end, print one final table
//                      (with --json - the table is suppressed and the
//                      one-sample series goes to stdout, machine-readable)
//   --interval-ms N    sampling/render period in simulated ms (default 10)
//   --duration-ms N    traffic duration in simulated ms (default 100)
//   --strategy S       checked|fast|tree|predecoded|indexed (default indexed)
//   --loss P           drop each frame with probability P at the medium
//   --ring N           shared-memory ring delivery, N slots (DESIGN.md §13)
//   --csv PATH         write the sampled time series as CSV
//   --json PATH        write the sampled time series as JSON ("-" = stdout)
//   --flight-json PATH write the flight recorder as JSON
//   --trend FILE       no scenario at all: summarize a pfbench run document
//                      (BENCH_<sha>.json, bench/report.h) — per-bench wall
//                      clock, gate outcomes, host rusage — and exit non-zero
//                      if the run recorded failures
//   --top              pftop mode: enable per-flow accounting (src/obs/
//                      flow_stats.h) and render the top flows by rate each
//                      period instead of the port table, with a per-flow
//                      drop-reason drill-down for flows still resident in
//                      the exact table
//   --top-k N          how many flows the pftop table shows (default 8)
//   --conn             enable stateful connection tracking (pf::ConnDB,
//                      DESIGN.md §17) with a deliberately small table plus
//                      a token-bucket rate limit on socket 44 and a seeded
//                      random-block on socket 77, and render the conndb
//                      panel — live connections, transition counters, the
//                      created == live+expired+evicted+refused identity,
//                      watermark state, and verdict-cache residency —
//                      under the port table each period
//   --pcapng PATH      attach a sampled, filter-scoped capture tap (src/pf/
//                      tap.h) at the demux-in stage — predicate: the Pup
//                      socket-35 filter, 1-in-2 sampling, snaplen 96 — and
//                      write the machine's pcapng stream (all taps, the
//                      monitor's included if one exists) to PATH
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/report.h"
#include "src/kernel/machine.h"
#include "src/kernel/pf_device.h"
#include "src/net/pup_endpoint.h"
#include "src/obs/flow_stats.h"
#include "src/obs/sampler.h"
#include "src/pf/disasm.h"
#include "src/pf/tap.h"
#include "tests/test_packets.h"

namespace {

struct Options {
  bool once = false;
  int interval_ms = 10;
  int duration_ms = 100;
  pf::Strategy strategy = pf::Strategy::kIndexed;
  double loss = 0.0;
  int ring_slots = 0;
  const char* csv_path = nullptr;
  const char* json_path = nullptr;
  const char* flight_json_path = nullptr;
  const char* trend_path = nullptr;
  bool top = false;
  int top_k = 8;
  bool conn = false;
  const char* pcapng_path = nullptr;
};

bool ParseStrategy(const char* name, pf::Strategy* out) {
  for (const pf::Strategy strategy : pf::kAllStrategies) {
    if (pf::ToString(strategy) == name) {
      *out = strategy;
      return true;
    }
  }
  return false;
}

bool ParseOptions(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (std::strcmp(argv[i], "--once") == 0) {
      options->once = true;
    } else if (std::strcmp(argv[i], "--interval-ms") == 0) {
      const char* v = value();
      if (v == nullptr || std::atoi(v) <= 0) return false;
      options->interval_ms = std::atoi(v);
    } else if (std::strcmp(argv[i], "--duration-ms") == 0) {
      const char* v = value();
      if (v == nullptr || std::atoi(v) <= 0) return false;
      options->duration_ms = std::atoi(v);
    } else if (std::strcmp(argv[i], "--strategy") == 0) {
      const char* v = value();
      if (v == nullptr || !ParseStrategy(v, &options->strategy)) return false;
    } else if (std::strcmp(argv[i], "--loss") == 0) {
      const char* v = value();
      if (v == nullptr) return false;
      options->loss = std::atof(v);
      if (options->loss < 0.0 || options->loss > 1.0) return false;
    } else if (std::strcmp(argv[i], "--ring") == 0) {
      const char* v = value();
      if (v == nullptr || std::atoi(v) <= 0) return false;
      options->ring_slots = std::atoi(v);
    } else if (std::strcmp(argv[i], "--csv") == 0) {
      if ((options->csv_path = value()) == nullptr) return false;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      if ((options->json_path = value()) == nullptr) return false;
    } else if (std::strcmp(argv[i], "--flight-json") == 0) {
      if ((options->flight_json_path = value()) == nullptr) return false;
    } else if (std::strcmp(argv[i], "--trend") == 0) {
      if ((options->trend_path = value()) == nullptr) return false;
    } else if (std::strcmp(argv[i], "--top") == 0) {
      options->top = true;
    } else if (std::strcmp(argv[i], "--top-k") == 0) {
      const char* v = value();
      if (v == nullptr || std::atoi(v) <= 0) return false;
      options->top_k = std::atoi(v);
      options->top = true;
    } else if (std::strcmp(argv[i], "--conn") == 0) {
      options->conn = true;
    } else if (std::strcmp(argv[i], "--pcapng") == 0) {
      if ((options->pcapng_path = value()) == nullptr) return false;
    } else {
      return false;
    }
  }
  return true;
}

bool WriteFile(const char* path, const std::string& content) {
  if (std::strcmp(path, "-") == 0) {
    std::fwrite(content.data(), 1, content.size(), stdout);
    return true;
  }
  FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "pfstat: cannot write %s\n", path);
    return false;
  }
  std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
  return true;
}

// --trend: summarize a pfbench run document — the same artifact the CI
// perf-gate uploads — without running any scenario.
int TrendMode(const char* path) {
  std::string text;
  {
    FILE* f = std::fopen(path, "rb");
    if (f == nullptr) {
      std::fprintf(stderr, "pfstat: cannot read %s\n", path);
      return 2;
    }
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      text.append(buf, n);
    }
    std::fclose(f);
  }
  pfbench::RunDoc doc;
  std::string error;
  if (!pfbench::RunDocFromString(text, &doc, &error)) {
    std::fprintf(stderr, "pfstat: %s: %s\n", path, error.c_str());
    return 2;
  }
  std::printf("pfbench run %s (%s%s%s, %d reps, schema %s)\n", doc.git_sha.c_str(),
              doc.build_type.c_str(), doc.sanitizers.empty() ? "" : " ",
              doc.sanitizers.c_str(), doc.reps, doc.schema.c_str());
  std::printf(" %-32s %10s %6s %7s %7s %9s  %s\n", "bench", "wall ms", "tables", "checks",
              "cpu ms", "rss KB", "status");
  int failures = 0;
  for (const pfbench::RunBench& bench : doc.benches) {
    int passed = 0;
    for (const pfbench::CheckOutcome& check : bench.checks) {
      passed += check.passed ? 1 : 0;
    }
    const bool ok = bench.exit_code == 0 &&
                    passed == static_cast<int>(bench.checks.size());
    failures += ok ? 0 : 1;
    std::printf(" %-32s %10.2f %6zu %4d/%-2zu %7.1f %9lld  %s\n", bench.id.c_str(),
                bench.wall_ns / 1e6, bench.tables.size(), passed, bench.checks.size(),
                (bench.host.user_us + bench.host.sys_us) / 1e3,
                (long long)bench.host.max_rss_kb, ok ? "ok" : "FAIL");
    for (const pfbench::CheckOutcome& check : bench.checks) {
      if (!check.passed) {
        std::printf("   failed check: %s\n", check.name.c_str());
      }
    }
  }
  std::printf("%zu benches, %d with failures\n", doc.benches.size(), failures);
  return failures == 0 ? 0 : 1;
}

// The live table: one row per bound port, then the machine-wide demux
// counters, the drop-reason taxonomy, the demux-latency histogram, and the
// newest flight-recorder entries.
void RenderTable(pfkern::Machine& machine, double now_ms) {
  pf::PacketFilter& core = machine.pf().core();
  std::printf("=== pfstat %-8s t=%.3f ms strategy=%s ===\n", machine.name().c_str(), now_ms,
              pf::ToString(core.strategy()).c_str());
  std::printf(" port pri  accepts enqueued  dropped  errors  queue  hot-pc\n");
  for (const pf::PortId id : core.Ports()) {
    const pf::PortStats* stats = core.Stats(id);
    if (stats == nullptr) {
      continue;
    }
    const pf::ProgramProfile* profile = core.Profile(id);
    char hot[16] = "-";
    if (profile != nullptr && profile->HottestPc() >= 0) {
      std::snprintf(hot, sizeof(hot), "%d", profile->HottestPc());
    }
    std::printf(" %4u %3u %8llu %8llu %8llu %7llu %6zu  %s\n", id, core.PortPriority(id),
                (unsigned long long)stats->accepts, (unsigned long long)stats->enqueued,
                (unsigned long long)stats->dropped, (unsigned long long)stats->filter_errors,
                core.QueueLength(id), hot);
  }
  const pf::FilterGlobalStats& global = core.global_stats();
  std::printf(" demux: in=%llu accepted=%llu unclaimed=%llu\n",
              (unsigned long long)global.packets_in,
              (unsigned long long)global.packets_accepted,
              (unsigned long long)global.packets_unclaimed);
  std::printf(" drops:");
  for (size_t i = 0; i < pf::kDropReasonCount; ++i) {
    std::printf(" %s=%llu", pf::ToString(static_cast<pf::DropReason>(i)).c_str(),
                (unsigned long long)global.drops_by_reason[i]);
  }
  std::printf("\n");
  // Losses underneath the filter: the wire's own accounting and the NIC's
  // pre-demux rejects (FCS, truncation, receive-ring overflow).
  const pflink::EthernetSegment::Stats& link = machine.segment()->stats();
  const pfkern::Machine::NicStats& nic = machine.nic_stats();
  std::printf(" link: carried=%llu lost=%llu dup=%llu | nic: in=%llu bad-crc=%llu"
              " truncated=%llu ring-overflow=%llu\n",
              (unsigned long long)link.frames_carried, (unsigned long long)link.frames_lost,
              (unsigned long long)link.frames_duplicated, (unsigned long long)nic.frames_in,
              (unsigned long long)nic.crc_errors, (unsigned long long)nic.truncated,
              (unsigned long long)nic.ring_overflow);
  // Boundary-crossing copies (pf.copy.*, DESIGN.md §13) and, when ring
  // delivery is on, the descriptor traffic that replaced them.
  std::printf(" copies: n=%llu bytes=%llu", (unsigned long long)machine.copies(),
              (unsigned long long)machine.copy_bytes());
  const pfobs::Counter* rx_posts = machine.metrics().FindCounter("pfdev.ring.posts");
  const pfobs::Counter* rx_reaped = machine.metrics().FindCounter("pfdev.ring.reaped");
  const pfobs::Counter* tx_posts = machine.metrics().FindCounter("pfdev.ring.tx_posts");
  if (machine.pf().ring_slots() > 0) {
    std::printf(" | ring: posted=%llu reaped=%llu tx-posted=%llu",
                rx_posts == nullptr ? 0ull : (unsigned long long)rx_posts->value(),
                rx_reaped == nullptr ? 0ull : (unsigned long long)rx_reaped->value(),
                tx_posts == nullptr ? 0ull : (unsigned long long)tx_posts->value());
  }
  std::printf("\n");
  const pfobs::Histogram* latency = machine.metrics().FindHistogram("pf.demux.latency");
  if (latency != nullptr && latency->count() > 0) {
    std::printf(" demux latency: n=%llu p50=%.1f us p99=%.1f us max=%.1f us\n",
                (unsigned long long)latency->count(), latency->Percentile(0.50) / 1e3,
                latency->Percentile(0.99) / 1e3, latency->max() / 1e3);
  }
  const pf::DropRecorder* recorder = machine.pf().FlightRecorder();
  if (recorder != nullptr && recorder->size() > 0) {
    const std::vector<pf::DropRecord> tail = recorder->Tail(4);
    std::printf(" last %zu drops (of %llu recorded):\n", tail.size(),
                (unsigned long long)recorder->total_recorded());
    for (const pf::DropRecord& r : tail) {
      std::printf("  t=%-12llu flow=%-6llu %-14s port=%-4u pc=%-3d %u bytes\n",
                  (unsigned long long)r.timestamp_ns, (unsigned long long)r.flow_id,
                  pf::ToString(r.reason).c_str(), r.port, r.pc, r.packet_bytes);
    }
  }
  std::printf("\n");
}

// The pftop table: the sketch's top-K flows by packet count, each ranked
// row showing rate (bytes over the flow's observed lifetime) and, for flows
// still resident in the exact table, the per-reason drop drill-down. Flows
// the LRU evicted still rank (the sketch survives eviction) but can only
// show their count bound.
void RenderTopFlows(pfkern::Machine& machine, size_t k, double now_ms) {
  const pfobs::FlowTable* flows = machine.pf().FlowStats();
  if (flows == nullptr) {
    return;
  }
  const pfobs::FlowTable::Totals& totals = flows->totals();
  std::printf("=== pftop %-8s t=%.3f ms flows: live=%zu seen=%llu evicted=%llu"
              " pkts=%llu drops=%llu ===\n",
              machine.name().c_str(), now_ms, flows->size(),
              (unsigned long long)totals.flows_seen, (unsigned long long)totals.evictions,
              (unsigned long long)totals.packets, (unsigned long long)totals.drops);
  std::printf(" rank flow              %8s %9s %10s %7s %6s  drops by reason\n", "pkts",
              "bytes", "rate", "deliv", "drops");
  size_t rank = 0;
  for (const pfobs::SpaceSavingSketch::Entry& hit : flows->TopK(k)) {
    ++rank;
    char sig[24];
    std::snprintf(sig, sizeof(sig), "%016llx", (unsigned long long)hit.key);
    const pfobs::FlowTable::Entry* entry = flows->Find(hit.key);
    if (entry == nullptr) {
      // Evicted from the exact table: only the sketch's bound survives
      // (true count is within [count-error, count]).
      std::printf(" %4zu %s %8llu %9s %10s %7s %6s  <evicted; count within -%llu>\n", rank,
                  sig, (unsigned long long)hit.count, "-", "-", "-", "-",
                  (unsigned long long)hit.error);
      continue;
    }
    char rate[24] = "-";
    if (entry->last_seen_ns > entry->first_seen_ns) {
      std::snprintf(rate, sizeof(rate), "%.1f KB/s",
                    static_cast<double>(entry->bytes) * 1e9 / 1024.0 /
                        static_cast<double>(entry->last_seen_ns - entry->first_seen_ns));
    }
    std::printf(" %4zu %s %8llu %9llu %10s %7llu %6llu ", rank, sig,
                (unsigned long long)entry->packets, (unsigned long long)entry->bytes, rate,
                (unsigned long long)entry->deliveries, (unsigned long long)entry->drops);
    if (entry->drops == 0) {
      std::printf(" -");
    }
    for (size_t slot = 0; slot < pfobs::kFlowDropSlots; ++slot) {
      if (entry->drops_by_slot[slot] == 0) {
        continue;
      }
      const std::string label = slot < pf::kDropReasonCount
                                    ? pf::ToString(static_cast<pf::DropReason>(slot))
                                    : std::string("?");
      std::printf(" %s=%llu", label.c_str(), (unsigned long long)entry->drops_by_slot[slot]);
    }
    if (entry->latency_samples > 0) {
      std::printf("  [demux avg %.1f us]",
                  static_cast<double>(entry->latency_sum_ns) /
                      static_cast<double>(entry->latency_samples) / 1e3);
    }
    std::printf("\n");
  }
  std::printf("\n");
}

// The conndb panel (--conn): live connections with their verdicts, the
// transition counters and their partition identity, watermark/emergency
// state, verdict-cache residency (the pf.demux.cache.live/.capacity
// gauges, as the table last stood in its cache configuration), and the
// per-port extension veto counts.
void RenderConnPanel(pfkern::Machine& machine, double now_ms) {
  const pf::ConnDB* db = machine.pf().ConnDb();
  if (db == nullptr) {
    return;
  }
  const pf::ConnDB::Stats& s = db->stats();
  std::printf("=== pfconn %-8s t=%.3f ms live=%zu/%zu %s ===\n", machine.name().c_str(),
              now_ms, db->live(), db->capacity(),
              db->emergency() ? "EMERGENCY" : "normal");
  std::printf(" lookups=%llu hits=%llu misses=%llu stale-epoch=%llu\n",
              (unsigned long long)s.lookups, (unsigned long long)s.hits,
              (unsigned long long)s.misses, (unsigned long long)s.stale_epoch);
  std::printf(" created=%llu updated=%llu refused=%llu expired=%llu (lazy=%llu gc=%llu)"
              " evicted=%llu (cap=%llu emerg=%llu stale=%llu)\n",
              (unsigned long long)s.created, (unsigned long long)s.updated,
              (unsigned long long)s.refused, (unsigned long long)s.expired(),
              (unsigned long long)s.expired_lazy, (unsigned long long)s.expired_gc,
              (unsigned long long)s.evicted(), (unsigned long long)s.evicted_capacity,
              (unsigned long long)s.evicted_emergency, (unsigned long long)s.evicted_stale);
  std::printf(" identity created == live+expired+evicted+refused: %llu == %zu+%llu+%llu+%llu"
              " [%s]\n",
              (unsigned long long)s.created, db->live(), (unsigned long long)s.expired(),
              (unsigned long long)s.evicted(), (unsigned long long)s.refused,
              db->IdentityHolds() ? "ok" : "VIOLATED");
  std::printf(" emergency transitions: engaged=%llu disengaged=%llu | gc: sweeps=%llu"
              " scanned=%llu reclaimed=%llu\n",
              (unsigned long long)s.emergency_engaged,
              (unsigned long long)s.emergency_disengaged, (unsigned long long)s.gc_sweeps,
              (unsigned long long)s.gc_scanned, (unsigned long long)s.expired_gc);
  const pfobs::Gauge* cache_size = machine.metrics().FindGauge("pf.demux.cache.live");
  const pfobs::Gauge* cache_cap = machine.metrics().FindGauge("pf.demux.cache.capacity");
  if (cache_size != nullptr && cache_cap != nullptr) {
    std::printf(" verdict cache residency: %lld/%lld entries\n",
                (long long)cache_size->value(), (long long)cache_cap->value());
  }
  pf::PacketFilter& core = machine.pf().core();
  for (const pf::PortId id : core.Ports()) {
    const pf::PortExtension* ext = core.Extension(id);
    if (ext != nullptr) {
      std::printf(" port %u ext %-9s inspected=%llu vetoed=%llu (%s)\n", id,
                  ext->name().c_str(), (unsigned long long)ext->inspected(),
                  (unsigned long long)ext->vetoed(), pf::ToString(ext->reason()).c_str());
    }
  }
  size_t shown = 0;
  for (const pf::ConnDB::Entry& entry : db->Snapshot()) {
    if (shown == 0) {
      std::printf("  %-16s %4s %8s %9s %12s\n", "connection", "port", "pkts", "bytes",
                  "idle us");
    }
    if (++shown > 6) {
      break;
    }
    std::printf("  %016llx %4u %8llu %9llu %12.1f\n", (unsigned long long)entry.signature,
                entry.port, (unsigned long long)entry.packets,
                (unsigned long long)entry.bytes,
                (now_ms * 1e3) - static_cast<double>(entry.last_seen_ns) / 1e3);
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!ParseOptions(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: pfstat [--once] [--interval-ms N] [--duration-ms N]\n"
                 "              [--strategy checked|fast|tree|predecoded|indexed]\n"
                 "              [--loss P] [--ring N] [--csv PATH] [--json PATH|-]\n"
                 "              [--flight-json PATH] [--trend BENCH.json]\n"
                 "              [--top] [--top-k N] [--conn] [--pcapng PATH]\n");
    return 2;
  }
  if (options.trend_path != nullptr) {
    return TrendMode(options.trend_path);
  }
  // Machine-readable snapshot to stdout: suppress the human tables.
  const bool quiet =
      options.json_path != nullptr && std::strcmp(options.json_path, "-") == 0;

  pfsim::Simulator sim;
  pflink::EthernetSegment wire(&sim, pflink::LinkType::kExperimental3Mb);
  if (options.loss > 0.0) {
    wire.SetLossRate(options.loss);
  }
  pfkern::Machine sender(&sim, &wire, pflink::MacAddr::Experimental(1),
                         pfkern::MicroVaxUltrixCosts(), "sender");
  pfkern::Machine receiver(&sim, &wire, pflink::MacAddr::Experimental(2),
                           pfkern::MicroVaxUltrixCosts(), "receiver");
  receiver.pf().core().SetStrategy(options.strategy);
  receiver.pf().core().SetProfiling(true);
  if (options.ring_slots > 0) {
    receiver.pf().SetRingDelivery(static_cast<size_t>(options.ring_slots));
  }
  if (options.top) {
    receiver.pf().EnableFlowAccounting({});
  }
  int pcap_tap_id = 0;
  if (options.pcapng_path != nullptr) {
    // A sampled, filter-scoped tap: capture only socket-35 Pup traffic
    // entering the demux, every other matching packet, 96 bytes each.
    pf::TapConfig tap;
    tap.stage = pf::TapStage::kDemuxIn;
    tap.name = "pup35";
    tap.filter = pfnet::MakePupSocketFilter(35, 10);
    tap.snaplen = 96;
    tap.sample_every = 2;
    pcap_tap_id = receiver.taps().Attach(std::move(tap));
    if (pcap_tap_id == 0) {
      std::fprintf(stderr, "pfstat: capture tap rejected\n");
      return 2;
    }
  }

  const pfsim::Duration duration = pfsim::Milliseconds(options.duration_ms);
  const pfsim::Duration interval = pfsim::Milliseconds(options.interval_ms);

  // Three bound sockets. Socket 77's port gets a 2-packet queue and no
  // reader: every accepted packet beyond the first two is a queue-overflow
  // drop. Traffic also goes to unbound socket 99 (no-match) and arrives as
  // truncated frames (short-packet).
  pf::PortId overflow_port = pf::kInvalidPort;
  auto receiver_setup = [&]() -> pfsim::Task {
    const int pid = receiver.NewPid();
    if (options.conn) {
      // A deliberately small table so the panel shows watermark pressure,
      // and a short TTL so the GC worker has something to reclaim.
      pf::ConnDB::Config conn;
      conn.capacity = 8;
      conn.ttl_ns = 20'000'000;  // 20 simulated ms
      co_await receiver.pf().EnableConnTracking(pid, conn);
    }
    const pf::PortId port35 = co_await receiver.pf().Open(pid);
    co_await receiver.pf().SetFilter(pid, port35, pfnet::MakePupSocketFilter(35, 10));
    const pf::PortId port44 = co_await receiver.pf().Open(pid);
    co_await receiver.pf().SetFilter(pid, port44, pfnet::MakePupSocketFilter(44, 8));
    const pf::PortId port77 = co_await receiver.pf().Open(pid);
    co_await receiver.pf().SetFilter(pid, port77, pfnet::MakePupSocketFilter(77, 6));
    pfkern::PacketFilterDevice::PortOptions tiny;
    tiny.queue_limit = 2;
    co_await receiver.pf().Configure(pid, port77, tiny);
    overflow_port = port77;
    if (options.conn) {
      // Socket 44: token bucket well under the sender's achieved rate
      // (~75 pps once Write costs serialize), so the panel shows
      // rate-limited vetoes. Socket 77: seeded 25% rndblock.
      pf::RateLimitExt::Config limit;
      limit.rate_pps = 25;
      limit.burst = 1;
      co_await receiver.pf().AttachExtension(pid, port44,
                                             std::make_unique<pf::RateLimitExt>(limit));
      pf::RndBlockExt::Config rnd;
      rnd.drop_ppm = 250'000;
      rnd.seed = 42;
      co_await receiver.pf().AttachExtension(pid, port77,
                                             std::make_unique<pf::RndBlockExt>(rnd));
    }

    // Drain the two live sockets for the duration of the run.
    for (const pf::PortId port : {port35, port44}) {
      sim.Spawn([](pfkern::Machine& m, int reader_pid, pf::PortId p,
                   pfsim::Duration total) -> pfsim::Task {
        const auto deadline = m.sim()->Now() + total;
        while (m.sim()->Now() < deadline) {
          co_await m.pf().Read(reader_pid, p, pfsim::Milliseconds(5));
        }
      }(receiver, pid, port, duration));
    }
  };

  auto sender_process = [&]() -> pfsim::Task {
    const int pid = sender.NewPid();
    co_await sim.Delay(pfsim::Milliseconds(1));  // let the receiver bind
    const auto deadline = sim.Now() + duration;
    std::vector<uint8_t> truncated = pftest::MakePupFrame(8, 35);
    truncated.resize(8);  // valid link header, Pup layer cut off mid-word
    while (sim.Now() < deadline) {
      co_await sender.pf().Write(pid, pftest::MakePupFrame(8, 35));
      co_await sender.pf().Write(pid, pftest::MakePupFrame(8, 44));
      co_await sender.pf().Write(pid, pftest::MakePupFrame(8, 77));
      co_await sender.pf().Write(pid, pftest::MakePupFrame(8, 99));  // unbound
      co_await sender.pf().Write(pid, truncated);
      co_await sim.Delay(pfsim::Milliseconds(2));
    }
  };

  pfobs::MetricsSampler sampler(&receiver.metrics(), {"pf.*"});
  auto stat_process = [&]() -> pfsim::Task {
    const auto deadline = sim.Now() + duration + interval;
    while (sim.Now() < deadline) {
      co_await sim.Delay(interval);
      sampler.Sample(sim.NowNanos());
      const double now_ms = pfsim::ToMilliseconds(sim.Now().time_since_epoch());
      if (options.top) {
        RenderTopFlows(receiver, static_cast<size_t>(options.top_k), now_ms);
      } else {
        RenderTable(receiver, now_ms);
      }
      if (options.conn) {
        RenderConnPanel(receiver, now_ms);
      }
    }
  };

  sim.Spawn(receiver_setup());
  sim.Spawn(sender_process());
  if (!options.once) {
    sim.Spawn(stat_process());  // --once: no live loop, one sample at the end
  }
  sim.Run();

  if (options.once) {
    sampler.Sample(sim.NowNanos());
  }
  // Final state (the only table under --once) plus the hottest filter's
  // annotated disassembly, driven by the same profile the table reads.
  if (!quiet) {
    RenderTable(receiver, pfsim::ToMilliseconds(sim.Now().time_since_epoch()));
    if (options.top) {
      RenderTopFlows(receiver, static_cast<size_t>(options.top_k),
                     pfsim::ToMilliseconds(sim.Now().time_since_epoch()));
    }
    if (options.conn) {
      RenderConnPanel(receiver, pfsim::ToMilliseconds(sim.Now().time_since_epoch()));
    }
    if (overflow_port != pf::kInvalidPort) {
      const std::string dump = receiver.pf().ProfileDump(overflow_port);
      if (!dump.empty()) {
        std::printf("overflowing port %u filter profile:\n%s\n", overflow_port, dump.c_str());
      }
    }
  }

  bool ok = true;
  if (options.csv_path != nullptr) {
    ok = WriteFile(options.csv_path, sampler.ToCsv()) && ok;
  }
  if (options.json_path != nullptr) {
    ok = WriteFile(options.json_path, sampler.ToJson()) && ok;
  }
  if (options.flight_json_path != nullptr) {
    const pf::DropRecorder* recorder = receiver.pf().FlightRecorder();
    ok = recorder != nullptr &&
         WriteFile(options.flight_json_path, recorder->ToJson()) && ok;
  }
  if (options.pcapng_path != nullptr) {
    const pf::CaptureTap* tap = receiver.taps().Find(pcap_tap_id);
    if (!receiver.taps().WriteFile(options.pcapng_path) || tap == nullptr) {
      std::fprintf(stderr, "pfstat: cannot write %s\n", options.pcapng_path);
      ok = false;
    } else {
      std::fprintf(quiet ? stderr : stdout,
                   "pcapng %s: offered=%llu matched=%llu sampled-out=%llu captured=%llu"
                   " (%zu bytes)\n",
                   options.pcapng_path, (unsigned long long)tap->stats().offered,
                   (unsigned long long)tap->stats().matched,
                   (unsigned long long)tap->stats().sampled_out,
                   (unsigned long long)tap->stats().captured,
                   receiver.taps().pcapng().buffer().size());
    }
  }
  std::fprintf(quiet ? stderr : stdout,
               "sampled %zu rows x %zu columns over %.0f ms simulated\n", sampler.row_count(),
               sampler.columns().size() + 1,
               pfsim::ToMilliseconds(sim.Now().time_since_epoch()));
  return ok ? 0 : 1;
}

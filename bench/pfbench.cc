// pfbench: the performance-observatory runner (DESIGN.md §14), and the one
// executable that runs registered benches.
//
// `pfbench <id> [args...]` runs the one registered bench named <id> (the §6
// tables, sec_6_1, figs 2/3, the micro benches — see PFBENCH_MAIN in
// bench/harness.h) with its own arguments and its normal stdout, and exits
// with its exit code; an unknown id exits 2. Every bench evaluates its gates
// on every run, so this is also how ctest runs each bench's gate.
//
// With no id it sweeps every registered bench in one process and writes a
// single schema-versioned BENCH_<git-sha>.json capturing, per bench: every
// printed table row (stable ids), cost-ledger totals, metric counters, gate
// outcomes, host wall-clock (steady_clock, warmup + trimmed-median
// repetitions), and getrusage deltas (pfobs::HostStats).
//
// The committed reference lives in bench/baselines/; `--compare` diffs a run
// against it with per-class tolerances — the fresh sweep, or with `--fresh`
// an existing run document — and exits 1 on regression. ctest runs this as
// pfbench_baseline_check; CI's perf-gate job uploads the JSON as the trend
// artifact.
//
// Flags:
//   --out PATH       output file (*.json) or directory (default: '.'; file
//                    name BENCH_<sha>.json)
//   --compare FILE   diff against this baseline; exit 1 on regression, 2 when
//                    it cannot be read
//   --fresh FILE     compare this run document instead of sweeping
//   --perturb PCT    self-test: scale every fresh number by (1 + PCT/100)
//                    before comparing — pfbench_perturb_check proves a +20%
//                    shift trips the gate
//   --gate-host MODE auto (default: from the fresh run's build meta), on, off
//   --only SUBSTR    run only benches whose id contains SUBSTR (repeatable)
//   --reps N         timed repetitions per bench (default 3, trimmed median)
//   --warmup N       untimed warmup runs per bench (default 1)
//   --wall-tol X     wall-clock ratio tolerance for --compare (default 5.0)
//   --obs-tol X      obs tax-ratio tolerance for --compare (default 2.0)
//   --verbose        let benches write their normal stdout (default: muted)
//   --list           print registered bench ids and exit
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "bench/recv_common.h"
#include "bench/report.h"
#include "src/net/pup_endpoint.h"
#include "src/obs/host_stats.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/pf/demux.h"
#include "tests/test_packets.h"

namespace {

using pfbench::BenchCapture;
using pfbench::CapturedTable;
using pfbench::RunBench;
using pfbench::RunDoc;
using pfbench::RunRow;
using pfbench::RunTable;
using pfobs::HostStats;

// --- The obs self-overhead bench -------------------------------------------
//
// The observability layer (PRs 2/4) rides the demux hot path; this holds it
// to a budget. Two attached-vs-detached pairs, wall-clocked on the host:
//   * the raw PacketFilter::Demux loop with the metrics registry + flight
//     recorder attached vs nothing attached (the per-packet counter tax);
//   * the full machine receive path with a TraceSession attached vs not
//     (span/flow-event emission tax).
// The tax ratios are first-class tracked numbers: they land in the baseline
// under the "obs" tolerance class with their own gate.

// Median of the middle samples (drop min and max when n >= 3) — the same
// trimming the runner applies to bench wall clocks.
double TrimmedMedian(std::vector<double> samples) {
  if (samples.empty()) {
    return 0;
  }
  std::sort(samples.begin(), samples.end());
  size_t lo = 0;
  size_t hi = samples.size();
  if (samples.size() >= 3) {
    ++lo;
    --hi;
  }
  const size_t n = hi - lo;
  const size_t mid = lo + n / 2;
  return n % 2 == 1 ? samples[mid] : (samples[mid - 1] + samples[mid]) / 2.0;
}

// What rides the demux hot path while the loop is clocked.
enum class DemuxObsMode {
  kDetached,         // nothing attached: the no-observer floor
  kMetricsRecorder,  // metrics registry + flight recorder (the PR-4 tax)
  kFlowStats,        // per-flow accounting enabled (DESIGN.md §16)
  kEmptyTapSet,      // TapSet attached with zero taps: the mask-test tax
  kSampledTap,       // one filter-scoped 1-in-16 capture tap at demux-in
};

// Host ns per Demux call over a rotating 64-port packet set.
double DemuxLoopNsPerPacket(DemuxObsMode mode) {
  constexpr int kPorts = 64;
  constexpr int kRounds = 64;
  pfobs::MetricsRegistry registry;
  pf::TapSet taps;
  pf::PacketFilter filter;
  if (mode == DemuxObsMode::kMetricsRecorder) {
    filter.AttachMetrics(&registry);
    filter.SetFlightRecorder(64);
  }
  if (mode == DemuxObsMode::kFlowStats) {
    filter.EnableFlowStats({});
  }
  if (mode == DemuxObsMode::kEmptyTapSet || mode == DemuxObsMode::kSampledTap) {
    filter.AttachTaps(&taps);
  }
  if (mode == DemuxObsMode::kSampledTap) {
    pf::TapConfig tap;
    tap.stage = pf::TapStage::kDemuxIn;
    tap.filter = pfnet::MakePupSocketFilter(1, 10);
    tap.snaplen = 64;
    tap.sample_every = 16;
    taps.Attach(std::move(tap));
  }
  for (int socket = 1; socket <= kPorts; ++socket) {
    const pf::PortId port = filter.OpenPort();
    filter.SetFilter(port, pfnet::MakePupSocketFilter(static_cast<uint32_t>(socket), 10));
    filter.SetQueueLimit(port, 1);
  }
  std::vector<std::vector<uint8_t>> packets;
  packets.reserve(kPorts);
  for (int socket = 1; socket <= kPorts; ++socket) {
    packets.push_back(pftest::MakePupFrame(8, static_cast<uint32_t>(socket)));
  }
  for (const auto& packet : packets) {
    filter.Demux(packet);  // warmup: builds the index, seeds the caches
  }
  std::vector<double> samples;
  for (int sample = 0; sample < 5; ++sample) {
    const int64_t start = pfobs::HostWallNs();
    for (int round = 0; round < kRounds; ++round) {
      for (const auto& packet : packets) {
        filter.Demux(packet);
      }
    }
    const int64_t end = pfobs::HostWallNs();
    samples.push_back(static_cast<double>(end - start) / (kRounds * kPorts));
  }
  return TrimmedMedian(std::move(samples));
}

// Host ns per MeasureReceivePerPacketMs packet, traced vs untraced.
double RecvPathNsPerPacket(bool attach_trace) {
  std::vector<double> samples;
  for (int sample = 0; sample < 3; ++sample) {
    pfobs::TraceSession session;
    pfbench::RecvConfig config;
    config.burst = 4;
    config.bursts = 25;
    config.batching = true;
    if (attach_trace) {
      config.trace = &session;
    }
    const int64_t start = pfobs::HostWallNs();
    pfbench::MeasureReceivePerPacketMs(config);
    const int64_t end = pfobs::HostWallNs();
    samples.push_back(static_cast<double>(end - start) / (config.burst * config.bursts));
  }
  return TrimmedMedian(std::move(samples));
}

int ObsOverheadMain(int /*argc*/, char** /*argv*/) {
  const double nan = std::nan("");
  const double demux_detached = DemuxLoopNsPerPacket(DemuxObsMode::kDetached);
  const double demux_attached = DemuxLoopNsPerPacket(DemuxObsMode::kMetricsRecorder);
  const double demux_flow = DemuxLoopNsPerPacket(DemuxObsMode::kFlowStats);
  const double demux_empty_taps = DemuxLoopNsPerPacket(DemuxObsMode::kEmptyTapSet);
  const double demux_sampled_tap = DemuxLoopNsPerPacket(DemuxObsMode::kSampledTap);
  const double recv_untraced = RecvPathNsPerPacket(false);
  const double recv_traced = RecvPathNsPerPacket(true);
  pfbench::PrintTable(
      "Obs self-overhead: demux hot path, host wall clock",
      "registry+flight-recorder attached vs detached; trace attached vs detached",
      "ns/packet",
      {
          {"PacketFilter::Demux, obs detached", nan, demux_detached},
          {"PacketFilter::Demux, registry+recorder attached", nan, demux_attached},
          {"PacketFilter::Demux, flow accounting enabled", nan, demux_flow},
          {"PacketFilter::Demux, tap set attached, no taps", nan, demux_empty_taps},
          {"PacketFilter::Demux, sampled filter tap active", nan, demux_sampled_tap},
          {"receive path, trace detached", nan, recv_untraced},
          {"receive path, trace attached", nan, recv_traced},
      });
  pfbench::PrintTable(
      "Obs self-overhead: instrumentation tax",
      "attached / detached wall-clock ratios — the budget the obs layer is held to",
      "ratio (attached/detached)",
      {
          {"metrics+recorder tax on Demux", nan,
           demux_detached > 0 ? demux_attached / demux_detached : 0},
          {"flow-accounting tax on Demux", nan,
           demux_detached > 0 ? demux_flow / demux_detached : 0},
          {"empty tap-set tax on Demux", nan,
           demux_detached > 0 ? demux_empty_taps / demux_detached : 0},
          {"sampled-tap tax on Demux", nan,
           demux_detached > 0 ? demux_sampled_tap / demux_detached : 0},
          {"trace tax on the receive path", nan,
           recv_untraced > 0 ? recv_traced / recv_untraced : 0},
      });
  pfbench::PrintNote(
      "Ratios below the obs-class floor (1.5x) always pass the gate; above it "
      "they may not exceed the baseline by the obs tolerance.");
  return 0;
}

PFBENCH_MAIN("obs_overhead", ObsOverheadMain)

// --- The sweep --------------------------------------------------------------

struct Options {
  std::string out = ".";
  std::string compare_baseline;
  std::string fresh;
  double perturb = 0;
  std::string gate_host = "auto";
  std::vector<std::string> only;
  int reps = 3;
  int warmup = 1;
  double wall_tol = 5.0;
  double obs_tol = 2.0;
  bool verbose = false;
  bool list = false;
};

bool ParseOptions(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    const auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (std::strcmp(argv[i], "--out") == 0) {
      const char* v = value();
      if (v == nullptr) return false;
      options->out = v;
    } else if (std::strcmp(argv[i], "--compare") == 0) {
      const char* v = value();
      if (v == nullptr) return false;
      options->compare_baseline = v;
    } else if (std::strcmp(argv[i], "--fresh") == 0) {
      const char* v = value();
      if (v == nullptr) return false;
      options->fresh = v;
    } else if (std::strcmp(argv[i], "--perturb") == 0) {
      const char* v = value();
      if (v == nullptr) return false;
      options->perturb = std::atof(v);
    } else if (std::strcmp(argv[i], "--gate-host") == 0) {
      const char* v = value();
      if (v == nullptr) return false;
      options->gate_host = v;
      if (options->gate_host != "auto" && options->gate_host != "on" &&
          options->gate_host != "off") {
        return false;
      }
    } else if (std::strcmp(argv[i], "--only") == 0) {
      const char* v = value();
      if (v == nullptr) return false;
      options->only.push_back(v);
    } else if (std::strcmp(argv[i], "--reps") == 0) {
      const char* v = value();
      if (v == nullptr || std::atoi(v) < 1) return false;
      options->reps = std::atoi(v);
    } else if (std::strcmp(argv[i], "--warmup") == 0) {
      const char* v = value();
      if (v == nullptr || std::atoi(v) < 0) return false;
      options->warmup = std::atoi(v);
    } else if (std::strcmp(argv[i], "--wall-tol") == 0) {
      const char* v = value();
      if (v == nullptr || std::atof(v) <= 1.0) return false;
      options->wall_tol = std::atof(v);
    } else if (std::strcmp(argv[i], "--obs-tol") == 0) {
      const char* v = value();
      if (v == nullptr || std::atof(v) <= 1.0) return false;
      options->obs_tol = std::atof(v);
    } else if (std::strcmp(argv[i], "--verbose") == 0) {
      options->verbose = true;
    } else if (std::strcmp(argv[i], "--list") == 0) {
      options->list = true;
    } else {
      return false;
    }
  }
  // --fresh compares an existing run, so it needs a baseline to compare to.
  return options->fresh.empty() || !options->compare_baseline.empty();
}

bool Selected(const Options& options, const std::string& id) {
  if (options.only.empty()) {
    return true;
  }
  for (const std::string& needle : options.only) {
    if (id.find(needle) != std::string::npos) {
      return true;
    }
  }
  return false;
}

// Mutes stdout (the benches' table printing) for the duration of one run;
// stderr stays live for failures. Restores on destruction.
class StdoutMuter {
 public:
  explicit StdoutMuter(bool mute) : mute_(mute) {
    if (!mute_) {
      return;
    }
    std::fflush(stdout);
    saved_fd_ = dup(STDOUT_FILENO);
    const int devnull = open("/dev/null", O_WRONLY);
    if (saved_fd_ < 0 || devnull < 0) {
      mute_ = false;
      return;
    }
    dup2(devnull, STDOUT_FILENO);
    close(devnull);
  }
  ~StdoutMuter() {
    if (!mute_) {
      return;
    }
    std::fflush(stdout);
    dup2(saved_fd_, STDOUT_FILENO);
    close(saved_fd_);
  }

 private:
  bool mute_;
  int saved_fd_ = -1;
};

struct RepResult {
  BenchCapture capture;
  double wall_ns = 0;
  HostStats host;
  int exit_code = 0;
};

RepResult RunOnce(const pfbench::BenchEntry& bench, bool verbose) {
  // No arguments: every bench has one configuration, gates included.
  std::string prog = "pfbench:" + bench.id;
  char* argv[] = {prog.data(), nullptr};
  RepResult rep;
  pfbench::BeginCapture();
  const HostStats host_before = HostStats::Sample();
  const int64_t wall_before = pfobs::HostWallNs();
  {
    StdoutMuter muter(!verbose);
    rep.exit_code = bench.fn(1, argv);
  }
  rep.wall_ns = static_cast<double>(pfobs::HostWallNs() - wall_before);
  rep.host = HostStats::Delta(host_before, HostStats::Sample());
  rep.capture = pfbench::EndCapture();
  return rep;
}

// Identical table shapes and bit-identical exact-class values across reps:
// the determinism the exact gate relies on.
bool RepsDeterministic(const std::vector<RepResult>& reps) {
  for (size_t r = 1; r < reps.size(); ++r) {
    const auto& a = reps[0].capture.tables;
    const auto& b = reps[r].capture.tables;
    if (a.size() != b.size()) {
      return false;
    }
    for (size_t t = 0; t < a.size(); ++t) {
      if (a[t].title != b[t].title || a[t].rows.size() != b[t].rows.size()) {
        return false;
      }
      if (pfbench::ClassifyUnit(a[t].unit) != pfbench::kClassExact) {
        continue;
      }
      for (size_t i = 0; i < a[t].rows.size(); ++i) {
        if (a[t].rows[i].measured != b[t].rows[i].measured) {
          return false;
        }
      }
    }
    if (reps[r].capture.ledger != reps[0].capture.ledger ||
        reps[r].capture.metrics != reps[0].capture.metrics) {
      return false;
    }
  }
  return true;
}

RunBench Summarize(const std::string& id, const std::vector<RepResult>& reps) {
  RunBench bench;
  bench.id = id;
  for (const RepResult& rep : reps) {
    if (rep.exit_code != 0) {
      bench.exit_code = rep.exit_code;
    }
  }
  const RepResult& last = reps.back();
  bench.host = last.host;
  bench.checks = last.capture.checks;
  bench.ledger = last.capture.ledger;
  bench.metrics = last.capture.metrics;
  {
    std::vector<double> walls;
    for (const RepResult& rep : reps) {
      walls.push_back(rep.wall_ns);
    }
    bench.wall_ns = TrimmedMedian(std::move(walls));
  }
  const bool deterministic = RepsDeterministic(reps);
  bench.checks.push_back({"pfbench." + id + ".deterministic", deterministic});
  if (!deterministic) {
    std::fprintf(stderr,
                 "pfbench: %s: exact-class outputs differ across repetitions — "
                 "the exact gate cannot hold\n",
                 id.c_str());
  }

  std::vector<std::string> used_ids;
  for (size_t t = 0; t < last.capture.tables.size(); ++t) {
    const CapturedTable& captured = last.capture.tables[t];
    RunTable table;
    table.title = captured.title;
    table.unit = captured.unit;
    table.tol_class = pfbench::ClassifyUnit(captured.unit);
    table.id = pfbench::SlugifyTitle(captured.title);
    while (std::find(used_ids.begin(), used_ids.end(), table.id) != used_ids.end()) {
      table.id += "_x";  // duplicate titles within one bench
    }
    used_ids.push_back(table.id);
    for (size_t r = 0; r < captured.rows.size(); ++r) {
      RunRow row;
      row.id = "r" + std::to_string(r);
      row.label = captured.rows[r].label;
      row.paper = captured.rows[r].paper;
      if (table.tol_class == pfbench::kClassExact) {
        row.measured = captured.rows[r].measured;
      } else {
        // Wall/obs rows: trimmed median across reps (matching by position;
        // deterministic row sets make positions stable).
        std::vector<double> samples;
        for (const RepResult& rep : reps) {
          if (t < rep.capture.tables.size() && r < rep.capture.tables[t].rows.size()) {
            samples.push_back(rep.capture.tables[t].rows[r].measured);
          }
        }
        row.measured = TrimmedMedian(std::move(samples));
      }
      table.rows.push_back(std::move(row));
    }
    bench.tables.push_back(std::move(table));
  }
  return bench;
}

std::string OutputPath(const Options& options, const std::string& sha) {
  const std::string& out = options.out;
  if (out.size() > 5 && out.compare(out.size() - 5, 5, ".json") == 0) {
    return out;
  }
  return out + "/BENCH_" + sha + ".json";
}

// `pfbench <id> [args...]`: the bench's own command line.
int RunSingle(int argc, char** argv) {
  for (const pfbench::BenchEntry& bench : pfbench::RegisteredBenches()) {
    if (bench.id == argv[0]) {
      return bench.fn(argc, argv);
    }
  }
  std::fprintf(stderr, "pfbench: no bench named '%s' (pfbench --list shows them)\n", argv[0]);
  return 2;
}

// The one reader for baseline and fresh run documents; names the problem
// on stderr when `path` cannot be read or parsed.
bool ReadRunDoc(const std::string& path, RunDoc* doc) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "pfbench: cannot read %s\n", path.c_str());
    return false;
  }
  std::string text;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, n);
  }
  std::fclose(f);
  std::string error;
  if (!pfbench::RunDocFromString(text, doc, &error)) {
    std::fprintf(stderr, "pfbench: %s does not parse: %s\n", path.c_str(), error.c_str());
    return false;
  }
  return true;
}

// Diffs `fresh` against `baseline` with the tolerances and host-gate mode
// the options name; 1 on regression, else 0.
int Compare(const Options& options, const RunDoc& baseline, RunDoc fresh) {
  if (options.perturb != 0) {
    std::fprintf(stderr, "pfbench: self-test, perturbing fresh run by %+.1f%%\n",
                 options.perturb);
    pfbench::Perturb(&fresh, options.perturb);
  }
  pfbench::CompareOptions copts;
  copts.wall_tol = options.wall_tol;
  copts.obs_tol = options.obs_tol;
  copts.gate_host = options.gate_host == "auto"
                        ? pfbench::HostGatesEnforced(fresh.build_type, fresh.sanitizers)
                        : options.gate_host == "on";
  const pfbench::CompareResult result = pfbench::CompareRuns(baseline, fresh, copts);
  std::fputs(result.report.c_str(), stdout);
  std::printf("pfbench --compare: %d regression(s), %d improvement(s), %d warning(s)\n",
              result.regressions, result.improvements, result.warnings);
  return result.regressions > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strncmp(argv[1], "--", 2) != 0) {
    return RunSingle(argc - 1, argv + 1);
  }
  Options options;
  if (!ParseOptions(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: pfbench BENCH_ID [bench args...]\n"
                 "       pfbench [--out FILE|DIR] [--compare BASELINE.json] [--only SUBSTR]...\n"
                 "               [--reps N] [--warmup N] [--wall-tol X] [--obs-tol X]\n"
                 "               [--gate-host auto|on|off] [--perturb PCT] [--verbose] [--list]\n"
                 "       pfbench --compare BASELINE.json --fresh RUN.json [--perturb PCT]\n"
                 "               [--gate-host auto|on|off] [--wall-tol X] [--obs-tol X]\n");
    return 2;
  }
  const std::vector<pfbench::BenchEntry> benches = pfbench::RegisteredBenches();
  if (options.list) {
    for (const pfbench::BenchEntry& bench : benches) {
      std::printf("%s\n", bench.id.c_str());
    }
    return 0;
  }

  // Read the baseline before sweeping: an unreadable one fails in seconds.
  RunDoc baseline;
  if (!options.compare_baseline.empty() && !ReadRunDoc(options.compare_baseline, &baseline)) {
    return 2;
  }
  if (!options.fresh.empty()) {
    RunDoc fresh;
    if (!ReadRunDoc(options.fresh, &fresh)) {
      return 2;
    }
    return Compare(options, baseline, std::move(fresh));
  }

  RunDoc doc;
  doc.git_sha = pfbench::BuildGitSha();
  doc.build_type = pfbench::BuildTypeName();
  doc.sanitizers = pfbench::SanitizerFlags();
  doc.reps = options.reps;

  int failed = 0;
  for (const pfbench::BenchEntry& bench : benches) {
    if (!Selected(options, bench.id)) {
      continue;
    }
    std::fprintf(stderr, "pfbench: %-32s ", bench.id.c_str());
    for (int w = 0; w < options.warmup; ++w) {
      RunOnce(bench, /*verbose=*/false);
    }
    std::vector<RepResult> reps;
    bool named_failure = false;
    for (int r = 0; r < options.reps; ++r) {
      reps.push_back(RunOnce(bench, options.verbose));
      // The bench's own report went to the muted stdout; name the failure.
      for (const pfbench::CheckOutcome& gate : reps.back().capture.checks) {
        if (!gate.passed) {
          std::fprintf(stderr, "%spfbench: %s rep %d: gate %s FAILED", named_failure ? "" : "\n",
                       bench.id.c_str(), r + 1, gate.name.c_str());
          if (!std::isnan(gate.measured)) {
            std::fprintf(stderr, ", measured %.4g", gate.measured);
          }
          std::fputc('\n', stderr);
          named_failure = true;
        }
      }
    }
    RunBench summary = Summarize(bench.id, reps);
    if (summary.exit_code != 0) {
      ++failed;
      std::fprintf(stderr, "FAILED (exit %d)\n", summary.exit_code);
    } else {
      std::fprintf(stderr, "%6.1f ms wall, %zu tables, %zu checks\n",
                   summary.wall_ns / 1e6, summary.tables.size(), summary.checks.size());
    }
    doc.benches.push_back(std::move(summary));
  }
  if (doc.benches.empty()) {
    std::fprintf(stderr, "pfbench: no benches matched\n");
    return 2;
  }

  const std::string path = OutputPath(options, doc.git_sha);
  const std::string json = pfbench::ToJson(doc);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "pfbench: cannot write %s\n", path.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::fprintf(stderr, "pfbench: wrote %s (%zu benches, %s build%s)\n", path.c_str(),
               doc.benches.size(), doc.build_type.c_str(),
               doc.sanitizers.empty() ? "" : ", sanitized");

  if (failed > 0) {
    std::fprintf(stderr, "pfbench: %d bench(es) failed\n", failed);
    return 1;
  }

  if (!options.compare_baseline.empty()) {
    return Compare(options, baseline, std::move(doc));
  }
  return 0;
}

// pfperf: the host-clock benchmark. One single-threaded process runs one
// seeded workload against the public APIs of src/ for a fixed time and
// prints its metrics; README.md in this directory defines every metric and
// workload. Usually driven through run.py, which builds this binary:
//
//   pfperf --workload demux_ports --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the workload
// again with spans around every call into a layer and reports the
// per-layer split. The last line of stdout is the result object; the line
// before it is a report with the run environment, the generated mix, the
// exact (simulated-clock) outputs, the sample counts and every host
// metric's value per repetition (which run.py pools over processes).
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "perfbench/common.h"
#include "src/util/json.h"

#ifndef PFPERF_BUILD_TYPE
#define PFPERF_BUILD_TYPE "unknown"
#endif
#ifndef PFPERF_SANITIZERS
#define PFPERF_SANITIZERS ""
#endif

namespace pfperf {

// --- common.h implementations ---

namespace {
double g_ns_per_tick = 1.0;
}  // namespace

Injection g_injection;

void CalibrateClock() {
#ifdef PFPERF_HAVE_TSC
  const auto wall0 = std::chrono::steady_clock::now();
  const uint64_t tick0 = Ticks();
  while (std::chrono::steady_clock::now() - wall0 < std::chrono::milliseconds(50)) {
  }
  const auto wall1 = std::chrono::steady_clock::now();
  const uint64_t tick1 = Ticks();
  g_ns_per_tick =
      static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(wall1 - wall0).count()) /
      static_cast<double>(tick1 - tick0);
#endif
}

double NsPerTick() { return g_ns_per_tick; }

void SpinNs(int64_t ns) {
  const uint64_t start = Ticks();
  while (TicksToNs(Ticks() - start) < static_cast<double>(ns)) {
  }
}

double ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

Rng::Rng(uint64_t seed) {
  uint64_t x = seed;
  for (uint64_t& word : s_) {
    x += 0x9e3779b97f4a7c15ULL;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    word = z ^ (z >> 31);
  }
}

uint64_t Rng::Next() {
  const auto rotl = [](uint64_t v, int k) { return (v << k) | (v >> (64 - k)); };
  const uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::Exponential(double mean) { return -mean * std::log(1.0 - Uniform()); }

Zipf::Zipf(size_t n, double exponent) {
  double sum = 0;
  for (size_t k = 1; k <= n; ++k) {
    sum += 1.0 / std::pow(static_cast<double>(k), exponent);
    cdf_.push_back(sum);
  }
  for (double& c : cdf_) {
    c /= sum;
  }
}

size_t Zipf::Sample(Rng& rng) const {
  const double u = rng.Uniform();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min(static_cast<size_t>(it - cdf_.begin()), cdf_.size() - 1);
}

namespace {
constexpr const char* kLayerNames[kLayerCount] = {
    "rep", "setup", "traffic", "probe", "reconfig", "sim",
    "pf.demux", "pf.delivery", "pf.bind", "pf.conndb", "verify",
};
}  // namespace

const char* LayerName(Layer layer) { return kLayerNames[static_cast<size_t>(layer)]; }

Layer ParseLayer(const std::string& name) {
  for (size_t i = 0; i < kLayerCount; ++i) {
    if (name == kLayerNames[i]) {
      return static_cast<Layer>(i);
    }
  }
  return Layer::kCount;
}

Tracer::Tracer(size_t keep) : keep_(keep), origin_(Ticks()) {
  track_ = session_.RegisterTrack("pfperf");
}

void Tracer::Begin(Layer layer, uint64_t id) {
  stack_.push_back(Open{layer, id, next_number_++, Ticks(), 0});
}

void Tracer::End() {
  const uint64_t end = Ticks();
  const Open open = stack_.back();
  stack_.pop_back();
  const uint64_t duration = end - open.start;
  self_ns_[static_cast<size_t>(open.layer)] += TicksToNs(duration - open.child_ticks);
  const uint64_t parent = stack_.empty() ? 0 : stack_.back().number;
  if (!stack_.empty()) {
    stack_.back().child_ticks += duration;
  }
  if (session_.event_count() < keep_) {
    session_.Complete(track_, "pfperf", LayerName(open.layer),
                      static_cast<int64_t>(TicksToNs(open.start - origin_)),
                      static_cast<int64_t>(TicksToNs(end - origin_)),
                      {{"id", static_cast<int64_t>(open.id)},
                       {"span", static_cast<int64_t>(open.number)},
                       {"parent", static_cast<int64_t>(parent)}});
  }
}

void RepSample::Summarize() {
  demux_samples = demux_ns.size();
  reconfig_samples = reconfig_ns.size();
  demux_p50_ns = Quantile(demux_ns, 0.5);
  demux_p95_ns = Quantile(demux_ns, 0.95);
  double sum = 0;
  for (const double v : demux_ns) {
    sum += v;
  }
  demux_mean_ns = demux_ns.empty() ? 0 : sum / static_cast<double>(demux_ns.size());
  bind_p50_ns = Quantile(bind_ns, 0.5);
  reconfig_p50_ns = Quantile(reconfig_ns, 0.5);
  first_demux_p50_ns = Quantile(first_demux_ns, 0.5);
  for (std::vector<double>* v : {&demux_ns, &bind_ns, &reconfig_ns, &first_demux_ns}) {
    std::vector<double>().swap(*v);
  }
}

void FinishShares(const std::vector<RepSample>& traced,
                  const std::map<std::string, double>& layer_ns, double packets, Metrics& out) {
  double wall = 0;
  for (const RepSample& s : traced) {
    wall += s.traffic_ns;
  }
  double attributed = 0;
  for (const auto& [layer, ns] : layer_ns) {
    out["host.share." + layer] = ns / wall;
    attributed += ns;
  }
  out["host.attributed_share"] = attributed / wall;
  out["host.unattributed_ns_per_packet"] = (wall - attributed) / packets;
}

namespace {

struct MetricDecl {
  const char* name;
  const char* unit;
};

// Keep in sync with BENCHMARK.json (run.py checks every result against it).
constexpr MetricDecl kEndToEnd[] = {
    {"throughput_pps", "packets/s"}, {"goodput_MBps", "MB/s"},
    {"demux_p50_ns", "ns"},          {"demux_p95_ns", "ns"},
    {"reconfig_p50_us", "us"},       {"sim_us_per_packet", "us"},
    {"setup_s", "s"},                {"peak_rss_mb", "MB"},
};

constexpr MetricDecl kPerLayer[] = {
    {"sim.events_per_packet", "count"},
    {"sim.sched_ns_per_event", "ns"},
    {"link.fcs_ns_per_kB", "ns/kB"},
    {"link.frames_per_packet", "count"},
    {"kernel.syscalls_per_packet", "count"},
    {"kernel.ctx_switches_per_packet", "count"},
    {"kernel.copies_per_packet", "count"},
    {"kernel.sim_latency_p99_us", "us"},
    {"kernel.sim_us.context_switch", "us"},
    {"kernel.sim_us.syscall", "us"},
    {"kernel.sim_us.copy", "us"},
    {"kernel.sim_us.interrupt", "us"},
    {"kernel.sim_us.filter_eval", "us"},
    {"kernel.sim_us.pf_bookkeeping", "us"},
    {"kernel.sim_us.timestamp", "us"},
    {"kernel.sim_us.driver_send", "us"},
    {"kernel.sim_us.protocol_user", "us"},
    {"kernel.sim_us.index_probe", "us"},
    {"kernel.sim_us.flow_cache", "us"},
    {"kernel.sim_us.conn_db", "us"},
    {"kernel.sim_us.conn_gc", "us"},
    {"pf.demux.ns_per_packet", "ns"},
    {"pf.engine.ns_per_pass", "ns"},
    {"pf.engine.ns_per_filter", "ns"},
    {"pf.engine.work_per_packet", "count"},
    {"pf.engine.filters_run_per_packet", "count"},
    {"pf.bind.us_per_call", "us"},
    {"pf.rebuild.us", "us"},
    {"pf.fastpath.hit_ratio", "fraction"},
    {"pf.conndb.ns_per_lookup", "ns"},
    {"pf.conndb.evictions_per_kpkt", "count"},
    {"pf.conndb.live_peak", "count"},
    {"pf.delivery.ns_per_packet", "ns"},
    {"net.sim_goodput_kBps", "kB/s"},
    {"net.vmtp.reads_per_packet", "count"},
    {"net.vmtp.retransmits", "count"},
    {"obs.trace_tax", "ratio"},
    {"host.attributed_share", "fraction"},
    {"host.unattributed_ns_per_packet", "ns"},
    {"host.share.sim", "fraction"},
    {"host.share.link", "fraction"},
    {"host.share.pf.demux", "fraction"},
    {"host.share.pf.delivery", "fraction"},
    {"host.share.pf.bind", "fraction"},
    {"host.share.pf.conndb", "fraction"},
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (value == nullptr) {
      return false;
    }
    ++i;
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      o.trace = std::strcmp(value, "0") != 0;
    } else if (arg == "--trace-out") {
      o.trace_out = value;
    } else if (arg == "--inject-layer") {
      g_injection.layer = ParseLayer(value);
      if (g_injection.layer == Layer::kCount) {
        return false;
      }
    } else if (arg == "--inject-ns") {
      g_injection.ns = std::strtoll(value, nullptr, 10);
    } else {
      return false;
    }
  }
  return !o.workload.empty() && o.seconds > 0;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "demux_ports") {
    return MakeDemuxPorts(seed);
  }
  if (name == "conn_churn") {
    return MakeConnChurn(seed);
  }
  if (name == "stack_small") {
    return MakeStackSmall(seed);
  }
  if (name == "vmtp_bulk") {
    return MakeVmtpBulk(seed);
  }
  return nullptr;
}

// A fixed integer loop; its time tells a slow or contended host apart.
double CalibrationLoopMs() {
  const auto start = std::chrono::steady_clock::now();
  uint64_t x = 0x12345678;
  for (int i = 0; i < 20'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  const auto end = std::chrono::steady_clock::now();
  if (x == 0) {
    std::fprintf(stderr, "unreachable\n");
  }
  return std::chrono::duration<double, std::milli>(end - start).count();
}

// The process's peak resident set (VmHWM). Not getrusage's ru_maxrss, which
// survives exec and so would report a larger parent's peak.
double PeakRssKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr);
    }
  }
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss);
}

// Repeats the workload until `seconds` have passed (at least `min_reps`).
// `first_rss_kb`, when set, receives the peak resident set after the first
// repetition: the workload's own footprint, before the run's bookkeeping
// grows with the number of repetitions.
std::vector<RepSample> RunFor(Workload& w, double seconds, size_t min_reps, Tracer* tracer,
                              double* first_rss_kb = nullptr) {
  std::vector<RepSample> reps;
  const auto start = std::chrono::steady_clock::now();
  while (reps.size() < min_reps ||
         std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count() <
             seconds) {
    reps.push_back(w.RunRep(tracer));
    RepSample& s = reps.back();
    s.Summarize();
    if (first_rss_kb != nullptr && reps.size() == 1) {
      *first_rss_kb = PeakRssKb();
    }
    // Only the first repetition keeps its exact outputs; the others must
    // equal them. Memory then does not grow with the number of repetitions.
    if (reps.size() > 1) {
      if (s.exact != reps.front().exact) {
        s.violations.push_back("exact outputs differ between repetitions of the same inputs");
      }
      s.exact.clear();
    }
    if (!s.violations.empty()) {
      break;  // no point repeating a broken run
    }
  }
  return reps;
}

constexpr double kQuietCost = 0.05;
constexpr double kQuietRate = 0.95;
// The first repetitions of a process run slower (cold caches, and on a
// shared host often a contended first half second); they are checked like
// the others but give no host metric.
constexpr double kWarmupSeconds = 0.5;

template <typename Fn>
double QuantileOf(const std::vector<RepSample>& reps, double q, Fn fn) {
  std::vector<double> values;
  for (const RepSample& s : reps) {
    values.push_back(fn(s));
  }
  return Quantile(values, q);
}

// The host-clock end-to-end metrics, one value per repetition. A rate's
// quiet-host end is its high quantile, a cost's its low one. run.py pools
// these per-repetition values over several processes with the same rule.
struct HostSeries {
  const char* name;
  bool rate;
  double (*of)(const RepSample&);
};
constexpr HostSeries kHostSeries[] = {
    {"throughput_pps", true,
     [](const RepSample& s) { return static_cast<double>(s.packets) / (s.traffic_ns / 1e9); }},
    {"goodput_MBps", true,
     [](const RepSample& s) { return static_cast<double>(s.bytes) / 1e6 / (s.traffic_ns / 1e9); }},
    {"demux_p50_ns", false, [](const RepSample& s) { return s.demux_p50_ns; }},
    {"demux_p95_ns", false, [](const RepSample& s) { return s.demux_p95_ns; }},
    {"reconfig_p50_us", false, [](const RepSample& s) { return s.reconfig_p50_ns / 1000.0; }},
    {"setup_s", false, [](const RepSample& s) { return s.setup_ns / 1e9; }},
};

std::string Num(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string MapJson(const Metrics& m) {
  std::string out = "{";
  for (const auto& [key, value] : m) {
    out += (out.size() > 1 ? "," : "") + std::string("\"") + pfutil::JsonEscape(key) + "\":" + Num(value);
  }
  return out + "}";
}

std::string MetricsJson(const Metrics& values, const MetricDecl* decls, size_t count) {
  std::string out = "{";
  for (size_t i = 0; i < count; ++i) {
    out += (i > 0 ? "," : "") + std::string("\"") + decls[i].name + "\":{\"value\":" +
           Num(values.at(decls[i].name)) + ",\"unit\":\"" + decls[i].unit + "\"}";
  }
  return out + "}";
}

}  // namespace
}  // namespace pfperf

int main(int argc, char** argv) {
  using namespace pfperf;
  Options opt;
  if (!ParseArgs(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: pfperf --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--trace-out FILE] [--inject-layer LAYER --inject-ns NS]\n");
    return 2;
  }
  std::unique_ptr<Workload> workload = MakeWorkload(opt.workload, opt.seed);
  if (workload == nullptr) {
    std::fprintf(stderr, "pfperf: unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  CalibrateClock();

  // --- Run environment.
  const std::string build_type = PFPERF_BUILD_TYPE;
  const std::string sanitizers = PFPERF_SANITIZERS;
  const bool release = build_type == "Release" && sanitizers.empty();
  if (!release) {
    std::fprintf(stderr,
                 "pfperf: WARNING: build type '%s' sanitizers '%s': host-clock metrics are "
                 "not comparable with a Release build\n",
                 build_type.c_str(), sanitizers.c_str());
  }
  const char* sha = std::getenv("PFPERF_GIT_SHA");
  const char* digest = std::getenv("PFPERF_SRC_DIGEST");
  std::string env = "{\"git_sha\":\"" + pfutil::JsonEscape(sha != nullptr ? sha : "unknown") +
                    "\",\"src_digest\":\"" +
                    pfutil::JsonEscape(digest != nullptr ? digest : "unknown") +
                    "\",\"build_type\":\"" + pfutil::JsonEscape(build_type) +
                    "\",\"sanitizers\":\"" + pfutil::JsonEscape(sanitizers) +
                    "\",\"host_metrics_valid\":" + (release ? "true" : "false") +
                    ",\"nproc\":" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
                    ",\"calibration_loop_ms\":" + Num(CalibrationLoopMs()) +
                    ",\"ns_per_tick\":" + Num(NsPerTick()) + "}";

  // --- Repetitions: a warm-up, then untraced ones for the end-to-end
  // metrics; in a traced run, half the time untraced (the trace tax's base)
  // and half traced.
  const double warmup_seconds = std::min(kWarmupSeconds, opt.seconds / 10);
  double rss_kb = 0;
  std::vector<RepSample> warmup = RunFor(*workload, warmup_seconds, 1, nullptr, &rss_kb);
  const double untraced_seconds = (opt.trace ? opt.seconds / 2 : opt.seconds) - warmup_seconds;
  std::vector<RepSample> reps = RunFor(*workload, untraced_seconds, 3, nullptr);
  std::unique_ptr<Tracer> tracer;
  std::vector<RepSample> traced;
  if (opt.trace && reps.back().violations.empty()) {
    tracer = std::make_unique<Tracer>(20000);
    traced = RunFor(*workload, opt.seconds / 2, 3, tracer.get());
  }

  // --- Correctness: outputs, invariants, and exact repetition.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> violations;
  std::vector<const RepSample*> all;
  for (const RepSample& s : warmup) {
    all.push_back(&s);
  }
  for (const RepSample& s : reps) {
    all.push_back(&s);
  }
  for (const RepSample& s : traced) {
    all.push_back(&s);
  }
  for (const RepSample* s : all) {
    attempted += s->attempted;
    failed += s->failed;
    for (const std::string& v : s->violations) {
      violations.push_back(v);
    }
    if (s->packets == 0) {
      violations.push_back("a repetition delivered nothing");
    }
  }
  if (warmup.front().exact != reps.front().exact) {
    violations.push_back("exact outputs differ between repetitions of the same inputs");
  }
  if (!traced.empty() && traced.front().exact != reps.front().exact) {
    violations.push_back("exact outputs differ between traced and untraced repetitions");
  }
  std::sort(violations.begin(), violations.end());
  violations.erase(std::unique(violations.begin(), violations.end()), violations.end());
  failed += violations.size();
  const RepSample& first = reps.front();

  // --- Metrics. On a shared host, co-tenant load slows whole repetitions
  // (their throughput varies up to 2x within one run), so each host metric
  // is the quiet-host end of its repetitions: the 5th percentile of a cost,
  // the 95th of a rate. That end repeats from run to run; a median lands on
  // whichever share of repetitions happened to be slowed.
  Metrics e2e;
  std::string samples = "{";
  for (const HostSeries& series : kHostSeries) {
    e2e[series.name] = QuantileOf(reps, series.rate ? kQuietRate : kQuietCost, series.of);
    std::string values;
    for (const RepSample& s : reps) {
      values += (values.empty() ? "" : ",") + Num(series.of(s));
    }
    samples += (samples.size() > 1 ? ",\"" : "\"") + std::string(series.name) + "\":[" + values + "]";
  }
  samples += "}";
  e2e["sim_us_per_packet"] = first.exact.count("sim_us_per_packet") != 0
                                 ? first.exact.at("sim_us_per_packet")
                                 : 0.0;
  e2e["peak_rss_mb"] = rss_kb / 1024.0;

  Metrics layers;
  std::vector<std::string> undeclared;
  std::set<std::string> declared;
  for (const MetricDecl& d : kPerLayer) {
    layers[d.name] = 0;
    declared.insert(d.name);
  }
  if (opt.trace && !traced.empty()) {
    for (const auto& [key, value] : traced.front().exact) {
      if (declared.count(key) != 0) {
        layers[key] = value;
      } else if (key.rfind("n.", 0) != 0 && key != "sim_us_per_packet") {
        undeclared.push_back(key);
      }
    }
    workload->PerLayer(traced, layers);
    auto wall = [](const RepSample& s) { return s.traffic_ns; };
    const double untraced_wall = QuantileOf(reps, kQuietCost, wall);
    const double traced_wall = QuantileOf(traced, kQuietCost, wall);
    layers["obs.trace_tax"] = traced_wall / untraced_wall;
    for (const auto& [key, value] : layers) {
      if (declared.count(key) == 0) {
        undeclared.push_back(key);
      }
    }
    if (!opt.trace_out.empty() && !tracer->session().WriteChromeTraceFile(opt.trace_out)) {
      std::fprintf(stderr, "pfperf: cannot write %s\n", opt.trace_out.c_str());
    }
  }
  for (const std::string& key : undeclared) {
    std::fprintf(stderr, "pfperf: WARNING: undeclared metric %s\n", key.c_str());
  }

  // --- Report line, then the result line.
  Metrics counts;
  counts["warmup_reps"] = static_cast<double>(warmup.size());
  counts["reps"] = static_cast<double>(reps.size());
  counts["traced_reps"] = static_cast<double>(traced.size());
  counts["demux_samples_per_rep"] = static_cast<double>(first.demux_samples);
  counts["reconfig_samples_per_rep"] = static_cast<double>(first.reconfig_samples);
  counts["packets_per_rep"] = static_cast<double>(first.packets);
  counts["delivery_calls_per_packet"] =
      first.delivery_packets > 0
          ? static_cast<double>(first.delivery_calls) / static_cast<double>(first.delivery_packets)
          : 0.0;
  // Within-run dispersion of the repetitions' throughput (noisy-host check).
  std::vector<double> rep_pps;
  for (const RepSample& s : reps) {
    rep_pps.push_back(static_cast<double>(s.packets) / (s.traffic_ns / 1e9));
  }
  counts["rep_throughput_p10"] = Quantile(rep_pps, 0.1);
  counts["rep_throughput_p90"] = Quantile(rep_pps, 0.9);
  counts["failed_ratio"] = static_cast<double>(failed) / static_cast<double>(std::max<uint64_t>(attempted, 1));
  std::string violation_json = "[";
  for (const std::string& v : violations) {
    violation_json += (violation_json.size() > 1 ? ",\"" : "\"") + pfutil::JsonEscape(v) + "\"";
  }
  violation_json += "]";
  std::printf("{\"report\":{\"workload\":\"%s\",\"seed\":%llu,\"trace\":%d,\"env\":%s,"
              "\"counts\":%s,\"mix\":%s,\"exact\":%s,\"violations\":%s,\"samples\":%s}}\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0,
              env.c_str(), MapJson(counts).c_str(), MapJson(workload->MixProperties()).c_str(),
              MapJson(first.exact).c_str(), violation_json.c_str(), samples.c_str());
  const std::string metrics =
      opt.trace ? MetricsJson(layers, kPerLayer, std::size(kPerLayer))
                : MetricsJson(e2e, kEndToEnd, std::size(kEndToEnd));
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":%s}\n",
              failed == 0 ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.c_str());
  for (const std::string& v : violations) {
    std::fprintf(stderr, "pfperf: %s\n", v.c_str());
  }
  return violations.empty() ? 0 : 1;
}

// Shared pieces of pfperf, the host-clock benchmark: the host clock, order
// statistics, the seeded generator helpers, the span recorder, and the
// record each workload fills per repetition.
//
// Nothing here is part of the program under test: the generator, the
// verification, and the spans live in this directory and call the public
// headers under src/ only.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/obs/trace.h"
#include "src/pf/packet_buf.h"

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#define PFPERF_HAVE_TSC 1
#else
#include <chrono>
#endif

namespace pfperf {

// --- Host clock ---
// Per-call timings read the invariant TSC, converted to ns with a factor
// calibrated against steady_clock once per run (CalibrateClock). Hosts
// without a TSC fall back to steady_clock ticks of 1 ns.
inline uint64_t Ticks() {
#ifdef PFPERF_HAVE_TSC
  return __rdtsc();
#else
  return static_cast<uint64_t>(std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}
void CalibrateClock();
double NsPerTick();
inline double TicksToNs(uint64_t ticks) { return static_cast<double>(ticks) * NsPerTick(); }
// Busy-waits `ns` nanoseconds (the attribution self-test's injected delay).
void SpinNs(int64_t ns);
// Phase totals (set-up, traffic) read the calling thread's CPU time, not
// the TSC. The benchmark is single-threaded and never sleeps, so on a quiet
// host the two clocks agree; on a shared one the CPU time leaves out the
// time the thread waited for a CPU (another process on its vCPU, or time
// the hypervisor gave to another guest), which the wall clock counts.
double ThreadCpuNs();

// --- Order statistics ---
// Linear interpolation between closest ranks; `values` is taken by value
// because it is sorted.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

// --- Seeded generator ---
// xoshiro256** seeded through splitmix64: the benchmark's own generator, so
// the inputs do not depend on any code under test.
class Rng {
 public:
  explicit Rng(uint64_t seed);
  uint64_t Next();
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  uint64_t Below(uint64_t n) { return Next() % n; }
  double Exponential(double mean);

 private:
  std::array<uint64_t, 4> s_{};
};

// Zipf(s) over ranks 0..n-1 by inverse CDF.
class Zipf {
 public:
  Zipf(size_t n, double exponent);
  size_t Sample(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

// --- Spans ---
// The layers the benchmark times from outside, by wrapping its own calls
// into them. Names double as metric prefixes.
enum class Layer : uint8_t {
  kRep,       // one repetition (root)
  kSetup,     // building the configuration
  kTraffic,   // the measured traffic phase
  kProbe,     // per-call Demux probe on the workload's live filter set
  kReconfig,  // writes followed by the first Demux
  kSim,       // Simulator::RunUntil (everything the simulation runs)
  kDemux,     // PacketFilter::Demux
  kDelivery,  // PacketFilter::PopBatch
  kBind,      // PacketFilter::SetFilter
  kConnGc,    // ConnDB::GcSweep
  kVerify,    // the benchmark's own output checks
  kCount,
};
inline constexpr size_t kLayerCount = static_cast<size_t>(Layer::kCount);
const char* LayerName(Layer layer);
// Parses a LayerName; kCount if unknown.
Layer ParseLayer(const std::string& name);

// The self-test's fixed delay: spun inside every span of `layer`.
struct Injection {
  Layer layer = Layer::kCount;
  int64_t ns = 0;
};
extern Injection g_injection;

// Records spans keyed by the host clock: per-layer self time (span minus
// its child spans) for every span, and the first `keep` spans as Chrome
// trace events in a pfobs::TraceSession (args: the generator sequence
// number as "id" and the parent span's number as "parent").
class Tracer {
 public:
  explicit Tracer(size_t keep);
  void Begin(Layer layer, uint64_t id);
  void End();
  const std::array<double, kLayerCount>& self_ns() const { return self_ns_; }
  pfobs::TraceSession& session() { return session_; }

 private:
  struct Open {
    Layer layer;
    uint64_t id;
    uint64_t number;
    uint64_t start;
    uint64_t child_ticks;
  };
  size_t keep_;
  uint64_t origin_ = 0;
  uint64_t next_number_ = 1;
  std::vector<Open> stack_;
  std::array<double, kLayerCount> self_ns_{};
  pfobs::TraceSession session_;
  int track_ = 0;
};

// RAII span; a null tracer costs one branch (plus the injection check).
class Span {
 public:
  Span(Tracer* tracer, Layer layer, uint64_t id = 0) : tracer_(tracer) {
    if (tracer_ != nullptr) {
      tracer_->Begin(layer, id);
    }
    if (g_injection.layer == layer) {
      SpinNs(g_injection.ns);
    }
  }
  ~Span() {
    if (tracer_ != nullptr) {
      tracer_->End();
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

// --- Results ---
using Metrics = std::map<std::string, double>;

// One repetition of a workload: host timings (noisy), plus the exact block
// that must repeat bit for bit across repetitions of the same inputs.
struct RepSample {
  double setup_ns = 0;
  double traffic_ns = 0;
  uint64_t packets = 0;  // delivered to their reader and verified
  uint64_t bytes = 0;    // verified payload bytes
  uint64_t attempted = 0;
  uint64_t failed = 0;   // lost, misdelivered, corrupted, failed transactions
  std::vector<std::string> violations;  // broken invariants (fatal)

  std::vector<double> demux_ns;     // one host latency per timed Demux call
  std::vector<double> bind_ns;      // one per timed SetFilter
  std::vector<double> reconfig_ns;  // SetFilter + the first Demux after it
  std::vector<double> first_demux_ns;  // the Demux part of reconfig_ns
  uint64_t delivery_calls = 0;      // PopBatch calls
  uint64_t delivery_packets = 0;    // packets they returned

  // Summaries of the vectors above. Summarize() fills them and frees the
  // vectors, so memory does not grow with the number of repetitions.
  size_t demux_samples = 0;
  size_t reconfig_samples = 0;
  double demux_p50_ns = 0;
  double demux_p95_ns = 0;
  double demux_mean_ns = 0;
  double bind_p50_ns = 0;
  double reconfig_p50_ns = 0;
  double first_demux_p50_ns = 0;
  void Summarize();

  // Span self time per layer during the traffic phase and the Demux probe
  // (traced reps only).
  std::array<double, kLayerCount> traffic_layer_ns{};
  std::array<double, kLayerCount> probe_layer_ns{};
  // Deterministic outputs: simulated-clock metrics and modeled counts.
  Metrics exact;
};

// A workload: seeded inputs built once, then repeated.
class Workload {
 public:
  virtual ~Workload() = default;
  // Measured properties of the generated mix (generator side).
  virtual Metrics MixProperties() const = 0;
  // One repetition; `tracer` is null in untraced runs.
  virtual RepSample RunRep(Tracer* tracer) = 0;
  // Per-layer metrics from the traced repetitions (plus the workload's
  // replays); `out` already holds every declared name at 0.
  virtual void PerLayer(const std::vector<RepSample>& traced, Metrics& out) = 0;
};

// Sets host.share.<layer> (layer host ns / traffic wall), host.attributed_share
// and host.unattributed_ns_per_packet from per-layer host-time totals over
// the traced repetitions.
void FinishShares(const std::vector<RepSample>& traced,
                  const std::map<std::string, double>& layer_ns, double packets, Metrics& out);

// A complete Experimental-Ethernet Pup frame addressed to `dst_socket`.
// `identifier` (frame bytes 8..11) and `flow_id` (bytes 24..27, present when
// `data_bytes` >= 4) are read by no filter.
pf::PacketBuf PupFrame(uint32_t dst_socket, uint32_t identifier, size_t data_bytes,
                       uint32_t flow_id);

std::unique_ptr<Workload> MakeDemuxPorts(uint64_t seed);
std::unique_ptr<Workload> MakeConnChurn(uint64_t seed);
std::unique_ptr<Workload> MakeStackSmall(uint64_t seed);
std::unique_ptr<Workload> MakeVmtpBulk(uint64_t seed);

}  // namespace pfperf

#endif  // PERFBENCH_COMMON_H_

// Simulator-wide metrics: named counters, gauges, and fixed-bucket latency
// histograms collected in a per-machine MetricsRegistry.
//
// Design constraints (mirroring what made counters cheap in the historical
// kernels this repo reproduces):
//   * One count per event. A counter has no storage of its own: its owner
//     keeps the count in a plain uint64_t field (usually a member of the
//     owner's Stats struct) and registers the field's address once with
//     Expose(). The hot path increments that field and nothing else;
//     value(), ToText/ToJson and the sampler read it in place.
//   * Fold on retire. An owner that dies, detaches or is replaced while its
//     registry lives on calls Retire() first: each counter keeps the value
//     it reads at that moment, and a later Expose of the same name counts
//     on from there — so a counter is cumulative across owners, and no
//     registry entry points into freed memory. A registry must outlive
//     every owner still exposed in it.
//   * Gauges and histograms are registry-owned; hot paths hold raw
//     Gauge*/Histogram* pointers obtained once at registration. Registry
//     storage is node-based (std::map), so the pointers stay valid for the
//     registry's lifetime.
//   * Everything is keyed on *simulated* time. Histogram samples are
//     nanoseconds of simulated duration (or any other int64 unit the
//     registrant chooses, e.g. instructions per packet).
//   * The registry is a passive container: no threads, no I/O. Dumping
//     (ToText / ToJson) is explicit, so benches and tests can snapshot the
//     full state of a machine at any point.
//
// Naming scheme: dotted lowercase paths, `<subsystem>.<object>.<metric>`
// (e.g. "pf.demux.packets_in", "pf.filter_eval.fast", "ip.in"). DESIGN.md's
// Observability section lists the registered names.
#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pfobs {

// A named view of a count kept by its owner (see MetricsRegistry::Expose).
class Counter {
 public:
  uint64_t value() const { return field_ == nullptr ? base_ : base_ + *field_; }

 private:
  friend class MetricsRegistry;
  const uint64_t* field_ = nullptr;  // the live owner's field, if any
  // Retired owners' final counts, less the live field's value at its
  // Expose (or at Reset). Unsigned wraparound keeps value() exact.
  uint64_t base_ = 0;
};

class Gauge {
 public:
  void Set(int64_t v) { value_ = v; }
  void Add(int64_t delta) { value_ += delta; }
  int64_t value() const { return value_; }
  void Reset() { value_ = 0; }

 private:
  int64_t value_ = 0;
};

// Default histogram boundaries for simulated-latency samples in
// nanoseconds: 1 µs to ~8.4 s in powers of two. 24 finite buckets plus an
// overflow bucket.
std::vector<int64_t> DefaultLatencyBoundsNs();

// A fixed-bucket histogram: sample x lands in the first bucket whose upper
// bound is >= x (the last bucket is unbounded). Percentiles are
// bucket-resolution estimates; sum/count/min/max are exact.
class Histogram {
 public:
  Histogram() : Histogram(DefaultLatencyBoundsNs()) {}
  explicit Histogram(std::vector<int64_t> bounds);

  void Record(int64_t sample);

  uint64_t count() const { return count_; }
  int64_t sum() const { return sum_; }
  int64_t min() const { return count_ == 0 ? 0 : min_; }
  int64_t max() const { return count_ == 0 ? 0 : max_; }
  double mean() const {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(count_);
  }

  // Bucket-resolution percentile estimate (p in [0,1], clamped): the upper
  // bound of the bucket containing the p-th ranked sample, clamped to the
  // exact [min(), max()] range seen. Documented edge cases (unit-tested in
  // tests/obs_test.cc):
  //   * empty histogram        -> 0
  //   * single sample          -> that sample exactly, for every p
  //   * all samples > bounds() -> max() exactly (the overflow bucket has no
  //     upper bound of its own)
  // The clamp keeps estimates inside the observed range — without it a
  // lone sample of 5 in the (.., 10] bucket would report p50 = 10.
  int64_t Percentile(double p) const;

  const std::vector<int64_t>& bounds() const { return bounds_; }
  // bounds().size() + 1 entries; the last is the overflow bucket.
  const std::vector<uint64_t>& bucket_counts() const { return buckets_; }

  void Reset();

 private:
  std::vector<int64_t> bounds_;
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  int64_t sum_ = 0;
  int64_t min_ = 0;
  int64_t max_ = 0;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Registers `name` as a view of `*field`, a count its owner keeps: from
  // now on the counter gains whatever `*field` gains (a name registered
  // before counts on from its current value). A name has one live owner
  // at a time, which must Retire the field before it dies while this
  // registry lives on.
  void Expose(const std::string& name, const uint64_t* field);
  // Folds every exposed field inside the `size` bytes at `owner` into its
  // counter and stops reading it: each counter keeps the value it reads
  // now. Retire(stats_) retires a Stats struct, Retire(*this) an object.
  void Retire(const void* owner, size_t size);
  template <typename T>
  void Retire(const T& owner) {
    Retire(&owner, sizeof(T));
  }

  // Find-or-create. Returned pointers remain valid for the registry's
  // lifetime; hot paths cache them.
  Gauge* gauge(const std::string& name);
  Histogram* histogram(const std::string& name);
  Histogram* histogram(const std::string& name, std::vector<int64_t> bounds);

  // Find-only (nullptr if never registered) — for tests and dump tooling.
  const Counter* FindCounter(const std::string& name) const;
  const Gauge* FindGauge(const std::string& name) const;
  const Histogram* FindHistogram(const std::string& name) const;

  // Enumeration for dump/sampling tooling (sampler.h, examples/pfstat).
  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, Gauge>& gauges() const { return gauges_; }
  const std::map<std::string, Histogram>& histograms() const { return histograms_; }

  size_t size() const { return counters_.size() + gauges_.size() + histograms_.size(); }

  // Zeroes every metric (registration survives; cached pointers stay valid;
  // counters count on from zero, their owners' fields untouched).
  void Reset();

  // Human-readable dump, one metric per line, sorted by name. Histograms
  // report count/sum and p50/p90/p99 (interpreting samples as nanoseconds
  // when `latency_units` — the default — is true).
  std::string ToText() const;

  // Machine-readable dump:
  //   {"counters":{...},"gauges":{...},
  //    "histograms":{"name":{"count":..,"sum":..,"min":..,"max":..,
  //                          "p50":..,"p90":..,"p99":..},...}}
  std::string ToJson() const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace pfobs

#endif  // SRC_OBS_METRICS_H_

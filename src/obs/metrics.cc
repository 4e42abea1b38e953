#include "src/obs/metrics.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstdio>

namespace pfobs {

std::vector<int64_t> DefaultLatencyBoundsNs() {
  std::vector<int64_t> bounds;
  bounds.reserve(24);
  for (int64_t b = 1000; b <= int64_t{1000} << 23; b <<= 1) {
    bounds.push_back(b);  // 1 µs, 2 µs, ... ~8.4 s
  }
  return bounds;
}

Histogram::Histogram(std::vector<int64_t> bounds) : bounds_(std::move(bounds)) {
  buckets_.assign(bounds_.size() + 1, 0);
}

void Histogram::Record(int64_t sample) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), sample);
  ++buckets_[static_cast<size_t>(it - bounds_.begin())];
  if (count_ == 0) {
    min_ = max_ = sample;
  } else {
    min_ = std::min(min_, sample);
    max_ = std::max(max_, sample);
  }
  ++count_;
  sum_ += sample;
}

int64_t Histogram::Percentile(double p) const {
  if (count_ == 0) {
    return 0;
  }
  p = std::clamp(p, 0.0, 1.0);
  const uint64_t rank = static_cast<uint64_t>(p * static_cast<double>(count_ - 1)) + 1;
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= rank) {
      // Clamp the bucket bound into the observed range: a sample can sit
      // well below its bucket's upper bound (and the overflow bucket has
      // none), but no sample is outside [min_, max_].
      const int64_t bound = i < bounds_.size() ? bounds_[i] : max_;
      return std::clamp(bound, min_, max_);
    }
  }
  return max_;
}

void Histogram::Reset() {
  buckets_.assign(bounds_.size() + 1, 0);
  count_ = 0;
  sum_ = 0;
  min_ = 0;
  max_ = 0;
}

void MetricsRegistry::Expose(const std::string& name, const uint64_t* field) {
  Counter& counter = counters_[name];
  assert(counter.field_ == nullptr);
  counter.field_ = field;
  counter.base_ -= *field;
}

void MetricsRegistry::Retire(const void* owner, size_t size) {
  const auto begin = reinterpret_cast<uintptr_t>(owner);
  for (auto& [name, counter] : counters_) {
    const auto at = reinterpret_cast<uintptr_t>(counter.field_);
    if (counter.field_ != nullptr && at >= begin && at - begin < size) {
      counter.base_ += *counter.field_;
      counter.field_ = nullptr;
    }
  }
}

Gauge* MetricsRegistry::gauge(const std::string& name) { return &gauges_[name]; }

Histogram* MetricsRegistry::histogram(const std::string& name) {
  return &histograms_[name];
}

Histogram* MetricsRegistry::histogram(const std::string& name, std::vector<int64_t> bounds) {
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) {
    return &it->second;
  }
  return &histograms_.emplace(name, Histogram(std::move(bounds))).first->second;
}

const Counter* MetricsRegistry::FindCounter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second;
}

const Gauge* MetricsRegistry::FindGauge(const std::string& name) const {
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : &it->second;
}

const Histogram* MetricsRegistry::FindHistogram(const std::string& name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

void MetricsRegistry::Reset() {
  for (auto& [name, c] : counters_) {
    c.base_ = c.field_ == nullptr ? 0 : 0 - *c.field_;
  }
  for (auto& [name, g] : gauges_) {
    g.Reset();
  }
  for (auto& [name, h] : histograms_) {
    h.Reset();
  }
}

std::string MetricsRegistry::ToText() const {
  std::string out;
  char line[256];
  for (const auto& [name, c] : counters_) {
    std::snprintf(line, sizeof(line), "  %-40s %12llu\n", name.c_str(),
                  static_cast<unsigned long long>(c.value()));
    out += line;
  }
  for (const auto& [name, g] : gauges_) {
    std::snprintf(line, sizeof(line), "  %-40s %12lld\n", name.c_str(),
                  static_cast<long long>(g.value()));
    out += line;
  }
  for (const auto& [name, h] : histograms_) {
    std::snprintf(line, sizeof(line),
                  "  %-40s count=%llu sum=%.3fms p50=%.3fms p90=%.3fms p99=%.3fms\n",
                  name.c_str(), static_cast<unsigned long long>(h.count()),
                  static_cast<double>(h.sum()) / 1e6,
                  static_cast<double>(h.Percentile(0.50)) / 1e6,
                  static_cast<double>(h.Percentile(0.90)) / 1e6,
                  static_cast<double>(h.Percentile(0.99)) / 1e6);
    out += line;
  }
  return out;
}

namespace {

void AppendJsonKey(std::string* out, const std::string& name, bool* first) {
  if (!*first) {
    *out += ',';
  }
  *first = false;
  *out += '"';
  out->append(name);  // metric names never contain characters needing escape
  *out += "\":";
}

}  // namespace

std::string MetricsRegistry::ToJson() const {
  std::string out = "{\"counters\":{";
  char buf[160];
  bool first = true;
  for (const auto& [name, c] : counters_) {
    AppendJsonKey(&out, name, &first);
    std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(c.value()));
    out += buf;
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    AppendJsonKey(&out, name, &first);
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(g.value()));
    out += buf;
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    AppendJsonKey(&out, name, &first);
    std::snprintf(buf, sizeof(buf),
                  "{\"count\":%llu,\"sum\":%lld,\"min\":%lld,\"max\":%lld,"
                  "\"p50\":%lld,\"p90\":%lld,\"p99\":%lld}",
                  static_cast<unsigned long long>(h.count()), static_cast<long long>(h.sum()),
                  static_cast<long long>(h.min()), static_cast<long long>(h.max()),
                  static_cast<long long>(h.Percentile(0.50)),
                  static_cast<long long>(h.Percentile(0.90)),
                  static_cast<long long>(h.Percentile(0.99)));
    out += buf;
  }
  out += "}}";
  return out;
}

}  // namespace pfobs

// Per-flow accounting for the demultiplexer: a bounded FlowTable of exact
// per-flow counters fronted by a Space-Saving top-K heavy-hitter sketch
// (Metwally, Agrawal & El Abbadi, "Efficient Computation of Frequent and
// Top-k Elements in Data Streams", ICDT 2005).
//
// Design (DESIGN.md §16):
//   * Flows are identified by a 64-bit signature the demux computes per
//     packet (FlowSignature below). The table never parses headers — it
//     accounts whatever key the caller hands it.
//   * The table is bounded: at capacity, recording a new flow evicts the
//     least-recently-touched entry (each entry carries the generation —
//     a monotonic record count — at which it was last touched, so eviction
//     order is explainable post-hoc and tests can pin it down). Evicted
//     counts are folded into `Totals::evicted_*`, so
//         sum over live entries + evicted_* == totals
//     holds exactly at all times — which is what lets `pf.flow.*` reconcile
//     bit-exactly against the demux counters and the cost ledger no matter
//     how much churn the table saw.
//   * The sketch is the O(K)-memory answer to "which flows are eating the
//     machine" under millions of short-lived flows: it survives table
//     eviction and guarantees for every reported flow
//         count - error <= true packets <= count
//     with error <= N/K (N = packets recorded). pftop ranks by it and
//     drills into the exact table for flows still resident.
//
// This layer is pfobs (no pf dependency): drop reasons arrive as opaque
// slot indices (the pf layer maps DropReason onto them).
#ifndef SRC_OBS_FLOW_STATS_H_
#define SRC_OBS_FLOW_STATS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <list>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/obs/metrics.h"

namespace pfobs {

// Default flow identity: a hash of the frame's first kFlowSignaturePrefix
// bytes (enough to cover link + network + transport headers; tails differ
// only in payload). Never returns 0, so 0 can mean "no signature computed".
inline constexpr size_t kFlowSignaturePrefix = 64;

// The one home of the flow-signature computation (ROADMAP item 4): the
// demux, the drop recorder, the capture taps, the FlowTable, and the
// connection database all key on FlowSignature::Of(frame), so a flow's
// identity cross-references across every plane.
//
// The hash reads the prefix, zero-padded to 64 bytes, as eight
// little-endian 64-bit words. Each word, and the prefix length, is xored
// with its own key and folded by a 64x64 -> 128-bit multiply (high half
// xor low half); the nine folds are independent and summed. The value is
// the same on every host. Its low bits index the ConnDB table directly.
// The values are pinned by unit test (flow_stats_test): changing the
// function invalidates recorded pcapng/flight-recorder cross-references.
struct FlowSignature {
  static uint64_t Of(std::span<const uint8_t> frame);
};

// Opaque per-flow drop-reason slots (pf::DropReason has 8 reasons today;
// spare room costs 8 bytes per entry and saves a layering dependency).
inline constexpr size_t kFlowDropSlots = 12;

// The Space-Saving stream summary: at most K monitored keys. An untracked
// key replaces the minimum-count entry, inheriting its count as `error`.
class SpaceSavingSketch {
 public:
  struct Entry {
    uint64_t key = 0;
    uint64_t count = 0;  // upper bound on the key's true count
    uint64_t error = 0;  // overestimate bound: true count >= count - error
  };

  explicit SpaceSavingSketch(size_t k);

  void Add(uint64_t key, uint64_t weight = 1);

  size_t capacity() const { return k_; }
  size_t size() const { return heap_.size(); }
  uint64_t total_weight() const { return total_; }
  // Untracked keys that displaced a monitored minimum.
  uint64_t replacements() const { return replacements_; }

  // Monitored entries, by count descending (ties: key ascending, so output
  // is deterministic). At most `n`.
  std::vector<Entry> Top(size_t n = SIZE_MAX) const;

 private:
  // Min-heap on count with a key -> heap position map, so Add is O(log K).
  struct Slot {
    Entry entry;
  };
  void SiftUp(size_t pos);
  void SiftDown(size_t pos);
  void Swap(size_t a, size_t b);
  bool Less(size_t a, size_t b) const;

  size_t k_;
  std::vector<Slot> heap_;
  std::unordered_map<uint64_t, size_t> pos_;
  uint64_t total_ = 0;
  uint64_t replacements_ = 0;
};

class FlowTable {
 public:
  struct Config {
    size_t capacity = 4096;  // exact entries before LRU eviction
    size_t top_k = 64;       // sketch width
  };

  struct Entry {
    uint64_t signature = 0;
    uint64_t packets = 0;
    uint64_t bytes = 0;
    uint64_t deliveries = 0;  // copies enqueued for this flow
    uint64_t drops = 0;       // sum of drops_by_slot
    std::array<uint64_t, kFlowDropSlots> drops_by_slot{};
    uint64_t latency_samples = 0;
    int64_t latency_sum_ns = 0;
    int64_t latency_max_ns = 0;
    uint64_t first_seen_ns = 0;
    uint64_t last_seen_ns = 0;
    uint64_t generation = 0;  // table generation at the last touch
  };

  // Stream totals: every Record()/RecordDrop() lands here exactly once,
  // eviction notwithstanding. `evicted_*` carries what left the table, so
  // live entries + evicted == totals (asserted in tests).
  struct Totals {
    uint64_t packets = 0;
    uint64_t bytes = 0;
    uint64_t deliveries = 0;
    uint64_t drops = 0;
    std::array<uint64_t, kFlowDropSlots> drops_by_slot{};
    uint64_t flows_seen = 0;  // table insertions (re-insertion after
                              // eviction counts again)
    uint64_t evictions = 0;
    uint64_t evicted_packets = 0;
    uint64_t evicted_bytes = 0;
    uint64_t evicted_deliveries = 0;
    uint64_t evicted_drops = 0;
    uint64_t latency_samples = 0;
    int64_t latency_sum_ns = 0;
  };

  FlowTable();  // default Config
  explicit FlowTable(Config config);
  ~FlowTable() { AttachMetrics(nullptr); }

  // Exposes totals() as "pf.flow.*" counters and registers the active
  // gauge and latency histogram; null detaches, retiring the counters from
  // the registry last attached (so does destruction).
  void AttachMetrics(MetricsRegistry* registry);

  // One call per demuxed packet with the copies enqueued for it. Drops
  // (lost copies and whole-packet rejections) arrive via RecordDrop.
  void Record(uint64_t signature, size_t bytes, uint32_t deliveries, uint64_t now_ns);
  // One call per counted drop (whole packet or per lost copy).
  void RecordDrop(uint64_t signature, size_t slot, uint64_t now_ns);
  // Per-flow demux latency (simulated ns), recorded by the kernel device.
  void RecordLatency(uint64_t signature, int64_t latency_ns);

  const Entry* Find(uint64_t signature) const;
  size_t size() const { return entries_.size(); }
  size_t capacity() const { return config_.capacity; }
  const Totals& totals() const { return totals_; }
  uint64_t generation() const { return generation_; }
  const SpaceSavingSketch& sketch() const { return sketch_; }

  // Live entries, most-recently-touched first.
  std::vector<Entry> Snapshot() const;
  // The sketch's ranking (count desc). `n` bounds the output.
  std::vector<SpaceSavingSketch::Entry> TopK(size_t n = SIZE_MAX) const;

  // Test hook: forces the touch counter so tests can pin down wraparound
  // behavior (eviction order is list order, never a generation compare, so
  // a wrapped generation only affects the post-hoc stamps).
  void SetGenerationForTest(uint64_t generation) { generation_ = generation; }

 private:
  Entry* Touch(uint64_t signature, uint64_t now_ns);
  void UpdateGauges();

  Config config_;
  // LRU: most recent at front; map values point into the list.
  std::list<Entry> entries_;
  std::unordered_map<uint64_t, std::list<Entry>::iterator> index_;
  SpaceSavingSketch sketch_;
  Totals totals_;
  uint64_t generation_ = 0;

  // The registry attached by AttachMetrics (null = detached), and the
  // gauge and histogram registered there.
  MetricsRegistry* registry_ = nullptr;
  Gauge* active_gauge_ = nullptr;
  Histogram* latency_hist_ = nullptr;
};

}  // namespace pfobs

#endif  // SRC_OBS_FLOW_STATS_H_

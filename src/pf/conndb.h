// The stateful half of the flow machinery (DESIGN.md §17, ROADMAP item 4):
// a bounded connection database keyed by pfobs::FlowSignature, storing the
// demux verdict ("this flow was claimed by this port") plus per-connection
// accounting, with the robustness machinery real stateful filters need to
// survive SYN/RFC-flood churn:
//
//   * Generation-stamped lazy expiry: every touch restamps the entry with
//     the DB's monotonic generation counter and the simulated clock; a
//     lookup that finds an entry older than `ttl_ns` expires it on the spot
//     (bounded work — exactly one entry) instead of serving stale state.
//   * Incremental background GC: GcSweep() scans a bounded batch of slab
//     slots per call, reclaiming expired entries. The host (the simulated
//     kernel's worker timer, modeled on npf_worker) drives it from the
//     clock; the DB itself never blocks demux.
//   * Overload watermarks with hysteresis: when live connections reach the
//     high water mark the DB enters *emergency mode* — each subsequent
//     attempt to instantiate new state first sheds a bounded batch of the
//     oldest-generation (LRU-tail) entries, and optionally refuses the new
//     state outright — and leaves it only when live drains to the low water
//     mark. Demux degrades gracefully to the stateless priority walk for
//     refused flows; nothing ever blocks or corrupts.
//
// Every state transition is counted, and the counters form an exact
// partition (asserted in tests, reconciled bit-exactly against the
// "pf.conn.*" metrics and the cost ledger by bench/micro_flood):
//
//     created == live + expired + evicted + refused
//
// where `created` counts every attempt to instantiate state for a
// not-yet-present flow (refused attempts included), `expired` folds the
// lazy + GC reclamations and `evicted` folds capacity + emergency + stale
// removals.
//
// Determinism: eviction order, GC order, and every counter must be
// bit-identical across toolchains (the observatory's exact-class baselines
// depend on it), so the DB never iterates its unordered_map. Entries live
// in a slab vector; the LRU list is index-linked through the slab; the GC
// cursor walks slab slots in index order; freed slots are reused LIFO.
//
// Soundness of serving verdicts from state is the *caller's* contract, not
// the DB's: PacketFilter only consults the DB when the key determines every
// bound filter's verdict, it re-confirms every hit against the claimed
// port's own filter, and it bumps `epoch` on any change that can alter the
// walk's outcome — an entry stamped with an older epoch is never served
// (the full walk restamps it).
//
// This is PacketFilter's one flow-state fast path: Demux consults it only
// while connection tracking is on (PacketFilter::EnableConnTracking).
#ifndef SRC_PF_CONNDB_H_
#define SRC_PF_CONNDB_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/obs/metrics.h"

namespace pf {

class ConnDB {
 public:
  struct Config {
    // Hard bound on live entries; 0 holds nothing (every instantiation
    // attempt is refused).
    size_t capacity = 4096;
    uint64_t ttl_ns = 30'000'000'000;  // idle lifetime (simulated ns)
    // Watermarks as integer percent of capacity (integers keep threshold
    // arithmetic bit-exact). Emergency engages at live >= high, disengages
    // at live <= low; low < high gives the hysteresis band. A high mark
    // above 100 is never reached, which disables emergency mode.
    uint32_t high_water_pct = 90;
    uint32_t low_water_pct = 70;
    // LRU-tail entries shed per Establish() attempt while in emergency
    // (bounds the per-packet work under flood).
    size_t emergency_evict_batch = 8;
    // In emergency, refuse to instantiate new state entirely (the demux
    // then stays on the stateless path for that flow).
    bool refuse_new_in_emergency = false;
    size_t gc_batch = 64;  // slab slots scanned per GcSweep()
  };

  struct Entry {
    uint64_t signature = 0;
    uint32_t port = 0;         // claiming PortId
    uint64_t epoch = 0;        // filter-configuration epoch at last stamp
    uint64_t packets = 0;      // packets served from this entry (incl. the
                               // establishing one)
    uint64_t bytes = 0;
    uint64_t created_ns = 0;
    uint64_t last_seen_ns = 0;
    uint64_t generation = 0;   // DB generation at last touch
  };

  // Exact transition counters; see the partition identity above.
  struct Stats {
    uint64_t lookups = 0;
    uint64_t hits = 0;         // entry present, fresh, epoch-current
    uint64_t misses = 0;       // no entry (or expired on this lookup)
    uint64_t stale_epoch = 0;  // entry present but epoch-mismatched
                               // (counted inside misses)
    uint64_t created = 0;      // instantiation attempts for absent flows
    uint64_t updated = 0;      // Establish() on an already-present flow
    uint64_t refused = 0;      // attempts declined in emergency
    uint64_t expired_lazy = 0;
    uint64_t expired_gc = 0;
    uint64_t evicted_capacity = 0;
    uint64_t evicted_emergency = 0;
    uint64_t evicted_stale = 0;  // caller invalidated (re-confirm failed)
    uint64_t emergency_engaged = 0;
    uint64_t emergency_disengaged = 0;
    uint64_t gc_sweeps = 0;
    uint64_t gc_scanned = 0;

    uint64_t expired() const { return expired_lazy + expired_gc; }
    uint64_t evicted() const {
      return evicted_capacity + evicted_emergency + evicted_stale;
    }
  };

  enum class EstablishOutcome {
    kCreated,  // new entry instantiated
    kUpdated,  // existing entry restamped (verdict/port/epoch refreshed)
    kRefused,  // emergency refusal — caller stays stateless for this flow
  };

  ConnDB() : ConnDB(Config{}) {}
  explicit ConnDB(Config config) { Reconfigure(config); }

  // Applies `config` in place. Entries and counters carry over; entries
  // beyond the new capacity are shed from the LRU tail (evicted_capacity),
  // so the partition identity holds across reconfiguration.
  void Reconfigure(Config config);

  // Fast-path lookup. A hit accounts the packet into the entry, moves it to
  // the LRU front, and restamps clock + generation. An entry idle past
  // ttl_ns is expired here (lazy) and reported as a miss; an entry stamped
  // with a different epoch is left in place but reported as a miss (the
  // caller's full walk will Establish() over it). Returns nullptr on miss.
  const Entry* Lookup(uint64_t signature, uint64_t now_ns, uint64_t epoch,
                      size_t bytes);

  // Record the outcome of a full priority walk: the flow `signature` was
  // claimed by `port` under filter-configuration `epoch`. Creates, updates,
  // or — in emergency with refuse_new_in_emergency — refuses.
  EstablishOutcome Establish(uint64_t signature, uint32_t port, uint64_t now_ns,
                             uint64_t epoch, size_t bytes);

  // Remove an entry whose served verdict failed the caller's
  // re-confirmation (signature collision): counted as evicted_stale.
  void Invalidate(uint64_t signature);

  // One incremental GC step: scans up to gc_batch slab slots from the
  // persistent cursor, expiring entries idle past ttl_ns. Returns the
  // number reclaimed (the host stops re-arming its timer once the table
  // drains).
  size_t GcSweep(uint64_t now_ns);

  const Entry* Find(uint64_t signature) const;
  size_t live() const { return live_; }
  size_t capacity() const { return config_.capacity; }
  bool emergency() const { return emergency_; }
  const Stats& stats() const { return stats_; }
  const Config& config() const { return config_; }
  uint64_t generation() const { return generation_; }

  // The partition identity, checked in one place so tests/benches assert
  // through the same arithmetic the docs state.
  bool IdentityHolds() const {
    return stats_.created ==
           live_ + stats_.expired() + stats_.evicted() + stats_.refused;
  }

  // Live entries, most-recently-touched first (pfstat --conn).
  std::vector<Entry> Snapshot() const;

  // Registers "<prefix>.*" counters/gauges ("pf.conn.lookups", ...); null
  // detaches. Pointers are cached — detached, every hook is a null check.
  void AttachMetrics(pfobs::MetricsRegistry* registry, const std::string& prefix = "pf.conn");

 private:
  static constexpr uint32_t kNil = UINT32_MAX;

  struct Slot {
    Entry entry;
    uint32_t lru_prev = kNil;
    uint32_t lru_next = kNil;
    bool in_use = false;
  };

  enum class RemoveCause {
    kExpiredLazy,
    kExpiredGc,
    kEvictedCapacity,
    kEvictedEmergency,
    kEvictedStale,
  };

  void LruDetach(uint32_t i);
  void LruPushFront(uint32_t i);
  void Remove(uint32_t i, RemoveCause cause);
  void UpdateWatermark();
  void UpdateGauges();
  bool Expired(const Entry& entry, uint64_t now_ns) const {
    return now_ns - entry.last_seen_ns > config_.ttl_ns;
  }

  Config config_;
  size_t high_count_ = 0;  // live >= this engages emergency
  size_t low_count_ = 0;   // live <= this disengages

  std::vector<Slot> slots_;          // slab; grows lazily up to capacity
  std::vector<uint32_t> free_;       // reusable slot indices (LIFO)
  std::unordered_map<uint64_t, uint32_t> index_;  // signature -> slot
  uint32_t lru_head_ = kNil;  // most recently touched
  uint32_t lru_tail_ = kNil;  // eviction victim
  size_t live_ = 0;
  size_t gc_cursor_ = 0;
  bool emergency_ = false;
  uint64_t generation_ = 0;
  Stats stats_;

  struct Metrics {
    pfobs::Counter* lookups = nullptr;
    pfobs::Counter* hits = nullptr;
    pfobs::Counter* misses = nullptr;
    pfobs::Counter* stale_epoch = nullptr;
    pfobs::Counter* created = nullptr;
    pfobs::Counter* updated = nullptr;
    pfobs::Counter* refused = nullptr;
    pfobs::Counter* expired_lazy = nullptr;
    pfobs::Counter* expired_gc = nullptr;
    pfobs::Counter* evicted_capacity = nullptr;
    pfobs::Counter* evicted_emergency = nullptr;
    pfobs::Counter* evicted_stale = nullptr;
    pfobs::Counter* emergency_engaged = nullptr;
    pfobs::Counter* emergency_disengaged = nullptr;
    pfobs::Counter* gc_sweeps = nullptr;
    pfobs::Counter* gc_scanned = nullptr;
    pfobs::Counter* gc_reclaimed = nullptr;
    pfobs::Gauge* live = nullptr;
    pfobs::Gauge* capacity = nullptr;
    pfobs::Gauge* emergency = nullptr;
  };
  Metrics metrics_;
};

}  // namespace pf

#endif  // SRC_PF_CONNDB_H_

// The filter execution engine: one home for every way this repository can
// evaluate a bound set of filters against a packet.
//
// The paper describes a single interpreter (§4) and sketches two §7
// improvements — performing the validity tests ahead of time, and compiling
// the active filter set into a decision table. Those are two independent
// choices, and the engine keeps them apart:
//
// *How* one filter runs — two execution paths:
//   * InterpretChecked (interpreter.h) — the §4 reference: every check per
//     instruction at run time. Used by kChecked only.
//   * InterpretPredecoded (below) — the §7 ahead-of-time form: the
//     validator proved the stack and opcode checks once, and Bind()
//     pre-decodes the program into a flat array of {op, fetch kind,
//     operand} structs, so the hot loop does no word splitting, literal
//     fetching or constant-table lookups; only packet-bounds and
//     divide-by-zero checks remain. Used by every other strategy. On a
//     validated program it returns the same ExecResult as
//     InterpretChecked, bit for bit.
//
// *Which* filters run — three named strategies:
//   * kChecked — the priority walk over every candidate, checked (§4).
//   * kFast    — the same walk, pre-decoded (§7 validate-ahead).
//   * kIndexed — §7's "decision table" as a hash dispatch index over the
//                conjunction-shaped filters (conjunction.h): rebuild time
//                chooses a small set of discriminating (word, mask) pairs
//                shared across the bound set; Match() hashes those words'
//                masked values once and only the filters in the matching
//                bucket are (re-)executed. The index is a pruner, never an
//                oracle — a bucket hit is always re-confirmed by running
//                the filter itself, so hash collisions cannot mis-deliver
//                and every accept comes from a filter run. Filters outside
//                the conjunction subset, and packets too short to load
//                every indexed word, fall back to the sequential pass.
//                Common-case cost is O(index width), independent of
//                bound_count().
//
// An Engine owns the bound filter set (keyed by an opaque uint32_t — the
// demultiplexer uses its PortId) and its priority order: SetOrder() ranks
// the bound keys, rank 0 first. Match(packet) starts one evaluation pass;
// the returned MatchPass hands back the pass's *candidates* — the ascending
// ranks that can possibly accept — and answers per-filter verdicts lazily,
// so a caller that stops after the first accepting filter (fig. 4-1's claim
// rule) pays nothing for the filters it never asks about. Sequential
// strategies make every rank a candidate; kIndexed hands back only the
// filters its bucket lets through, merged with the filters it cannot prune
// (DESIGN.md §4). Each pass accumulates an ExecTelemetry — the single
// struct the kernel Ledger and the §6 benchmarks charge costs from.
#ifndef SRC_PF_ENGINE_H_
#define SRC_PF_ENGINE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/obs/metrics.h"
#include "src/pf/conjunction.h"
#include "src/pf/interpreter.h"
#include "src/pf/profile.h"
#include "src/pf/program.h"
#include "src/pf/validate.h"

namespace pf {

enum class Strategy : uint8_t {
  kChecked = 0,  // §4 priority walk, per-instruction checking
  kFast,         // §7 priority walk, validated ahead and pre-decoded
  kIndexed,      // §7 decision table: hash dispatch on shared words + re-confirm
};

inline constexpr Strategy kAllStrategies[] = {Strategy::kChecked, Strategy::kFast,
                                              Strategy::kIndexed};
inline constexpr size_t kStrategyCount = sizeof(kAllStrategies) / sizeof(kAllStrategies[0]);

std::string ToString(Strategy strategy);

// Everything one evaluation pass did, in one place. The kernel's Ledger
// (src/kernel/pf_device.cc) and the §6 benchmarks draw from this struct;
// there are no other execution out-params.
struct ExecTelemetry {
  uint32_t filters_run = 0;       // programs interpreted sequentially
  uint64_t insns_executed = 0;    // filter instructions evaluated
  uint32_t tree_probes = 0;       // always 0; perfbench/bare.cc and stack.cc still read it
  uint32_t index_probes = 0;      // discriminating-word loads for the hash index

  ExecTelemetry& operator+=(const ExecTelemetry& other) {
    filters_run += other.filters_run;
    insns_executed += other.insns_executed;
    index_probes += other.index_probes;
    return *this;
  }
};

// One filter's answer for one packet. Errors reject (§4) and are surfaced in
// `status` so hosts can count them per port. `insns_executed` is how many
// instructions *this* filter ran (0 when an index prune rejected it without
// a run); since execution is straight-line, the erroring instruction of a
// non-kOk verdict is pc insns_executed - 1 — the flight recorder's
// "rejecting pc".
struct Verdict {
  bool accept = false;
  ExecStatus status = ExecStatus::kOk;
  bool short_circuited = false;
  uint32_t insns_executed = 0;
};

// One pre-decoded instruction. The operand is resolved at Bind() time:
// PUSHLIT literals and the PUSHZERO/PUSHONE/PUSHFFFF/... constants all
// collapse to kImm with the value in `imm`.
struct PredecodedInsn {
  enum class Fetch : uint8_t {
    kNone,  // no stack push
    kImm,   // push `imm`
    kWord,  // push packet word `word_index`
    kInd,   // v2: pop a byte offset, push the packet word there
  };
  BinaryOp op = BinaryOp::kNop;
  Fetch fetch = Fetch::kNone;
  uint8_t word_index = 0;
  uint16_t imm = 0;
};

class Engine {
 public:
  using Key = uint32_t;

  // One bound filter and everything Bind() precomputed for it. Exposed so
  // hosts can cache a `const Binding*` handle (PacketFilter keeps one per
  // port, refreshed when it rebuilds its priority order) and hand it back
  // to Confirm() or MatchPass::Test(), skipping the per-(packet, key) hash
  // lookup. A handle stays valid until its key is Unbind()ed or Clear()
  // runs; re-Bind()ing the same key updates it in place and keeps its rank.
  struct Binding {
    ValidatedProgram program;
    std::vector<PredecodedInsn> decoded;
    std::optional<std::vector<FieldTest>> conjunction;
    uint32_t rank = 0;     // position in the priority order (SetOrder)
    // Allocated by SetProfiling(true) / Bind() while profiling; updated by
    // the const run paths (MatchPass, Confirm), hence mutable. Null
    // whenever profiling has never been on for this binding.
    mutable std::unique_ptr<ProgramProfile> profile;
  };

  explicit Engine(Strategy strategy = Strategy::kFast) : strategy_(strategy) {}

  void set_strategy(Strategy strategy);
  Strategy strategy() const { return strategy_; }

  // --- Observability (src/obs) ---
  // Exposes per-strategy counts ("engine.<strategy>.passes" /
  // ".filters_run" / ".insns") and registers a work histogram
  // ("engine.<strategy>.insns_per_pass"); with no registry attached,
  // RecordPass is a null check. Null detaches, retiring the counts from
  // the registry last attached; the host detaches before the engine dies.
  void AttachMetrics(pfobs::MetricsRegistry* registry);
  // Folds one finished pass's telemetry into the attached registry under
  // the *current* strategy; no-op when none is attached. Hosts that own the
  // whole pass (PacketFilter::Demux, RunOne) call this once per packet.
  void RecordPass(const ExecTelemetry& telemetry);

  // --- The bound filter set ---
  // Bind() performs every ahead-of-time step once: the program arrives
  // already validated, is pre-decoded, and its conjunction shape (if any)
  // is extracted for kIndexed. Binding a new key changes the key set: it
  // ranks after a SetOrder() and the index rebuilds at the next Match().
  // Re-binding a bound key is a patch, not a rebuild: the binding keeps
  // its rank, and under kIndexed a conjunction that tests the same
  // (word, mask) pairs as before at most moves its one index entry to its
  // new bucket; only a change of shape rebuilds the index.
  void Bind(Key key, ValidatedProgram program);
  bool Unbind(Key key);
  void Clear();
  size_t bound_count() const { return filters_.size(); }
  // Ranks the bound set for the candidate walk: `order[r]` is the key tested
  // r-th. `order` must name every bound key exactly once. Until a SetOrder()
  // follows the latest new-key Bind or Unbind, keys rank in ascending key
  // order. Over an unchanged key set the index is patched, never rebuilt:
  // only the keys between the first and the last position where `order`
  // differs from the current order are re-ranked, and the index's ranks
  // are remapped in one pass (an unchanged order costs one comparison per
  // key).
  void SetOrder(std::span<const Key> order);
  // The binding at `rank` in the order last set (valid until the next
  // Bind/Unbind/Clear).
  const Binding* BindingAt(uint32_t rank) const { return ranked_[rank]; }
  // The bound program, or nullptr. Pointer invalidated by Bind/Unbind/Clear.
  const ValidatedProgram* Find(Key key) const;
  // The full binding (see struct Binding above), or nullptr. The pointer
  // survives re-Bind() of the same key; Unbind/Clear invalidate it.
  const Binding* FindBinding(Key key) const;

  // --- Index introspection (meaningful under kIndexed) ---
  // These reflect the current index; Match() rebuilds it lazily after a new-key Bind, an Unbind, a re-Bind that changed a
  // conjunction's shape, or set_strategy.
  bool index_in_use() const { return strategy_ == Strategy::kIndexed && !index_ranks_.empty(); }
  // Number of discriminating (word, mask) pairs probed per packet.
  size_t index_width() const { return index_pairs_.size(); }
  // Filters dispatched through the index (the rest run sequentially).
  size_t index_entries() const { return index_ranks_.size(); }

  // --- Filter-program profiling (src/pf/profile.h) ---
  // Opt-in per-binding profiles: per-pc hit counts, exit pcs, and charged
  // (ledger-reconcilable) instruction counts. When kIndexed prunes a filter
  // without running it, the pass replays the pre-decoded program once —
  // uncharged — so per-pc *hit* counts are identical across every strategy.
  // Off (the default) the cost is a single branch per filter test.
  void SetProfiling(bool enabled);
  bool profiling() const { return profiling_; }
  // The profile collected for `key`, or nullptr (not bound, or profiling
  // was never enabled for it). Same lifetime rules as FindBinding().
  const ProgramProfile* Profile(Key key) const;
  // Sum over every binding's profile plus the probe work done while
  // profiling was on (the kFilterEval reconciliation inputs).
  ProfileTotals profile_totals() const;
  // Zeroes every profile and the probe totals; keeps profiling enabled.
  void ResetProfiles();

  // One packet's evaluation pass over the bound set. Match() front-loads
  // the kIndexed probe; Test() is lazy. At most one pass per Engine may be
  // live at a time (it borrows the engine's candidate buffers),
  // Bind/Unbind/Clear/SetOrder invalidate it, and the packet bytes must
  // outlive the pass (it holds a span, not a copy).
  class MatchPass {
   public:
    // The ranks a first-accept walk must test, ascending. Every rank is a
    // candidate under the sequential strategies, on packets shorter than
    // the index's words (kOutOfPacket statuses stay exact), and while
    // profiling (pruned filters are replayed, uncharged). Otherwise only the
    // index bucket, merged with the filters the index does not cover: a
    // filter left out would have returned Verdict{} with no work and no
    // status, so skipping it changes nothing observable.
    std::span<const uint32_t> candidates() const { return walk_; }
    // Verdict for the filter at `rank` (a member of candidates()).
    Verdict TestRank(uint32_t rank);
    // Verdict for the filter bound at `key` (reject if none is bound), in
    // any order — a pruned filter rejects.
    Verdict Test(Key key);
    // Same, with the binding handle supplied by the caller (must be the
    // engine's binding for `key`, or nullptr) — skips the map lookup. A
    // caller that needs one known filter and no pass calls Confirm().
    Verdict Test(Key key, const Binding* binding);
    const ExecTelemetry& telemetry() const { return telemetry_; }

   private:
    friend class Engine;
    MatchPass(const Engine* engine, std::span<const uint8_t> packet)
        : engine_(engine), packet_(packet) {}
    bool Live(uint32_t rank) const;
    // `live` = the index let this filter through (or nothing prunes).
    Verdict Evaluate(const Binding& binding, bool live);

    const Engine* engine_;
    std::span<const uint8_t> packet_;
    ExecTelemetry telemetry_;
    std::span<const uint32_t> walk_;  // what candidates() hands back
    // When pruning_: the ranks the index let through, merged with the ones
    // it does not cover (ascending); every other rank rejects.
    std::span<const uint32_t> live_;
    bool pruning_ = false;
  };

  MatchPass Match(std::span<const uint8_t> packet);

  // Runs one bound filter — `binding`, a handle from this engine — on
  // `packet`, with the execution path the strategy selects, and nothing
  // else: no pass, no index refresh, no hash and no probe. The one way to
  // run one known binding (the connection table's hit path and a capture
  // tap's predicate); it is the same run a MatchPass does for each filter
  // it tests. Adds one filters_run and the filter's instructions to
  // *telemetry if non-null; a profiled binding records a charged run.
  Verdict Confirm(const Binding& binding, std::span<const uint8_t> packet,
                  ExecTelemetry* telemetry = nullptr) const;

  // Convenience for single-program callers (examples, tests): one packet
  // against one bound filter, telemetry accumulated into *telemetry if
  // non-null. Benchmarks hot-loop Match()+Test() directly instead.
  Verdict RunOne(Key key, std::span<const uint8_t> packet, ExecTelemetry* telemetry = nullptr);

 private:
  // At most this many discriminating (word, mask) pairs are probed per
  // packet — the constant bounding kIndexed's common-case cost.
  static constexpr size_t kMaxIndexWords = 4;

  void AssignRanks();
  // Rebuilds the index for the current strategy if a key-set, shape or
  // strategy change made it stale.
  void Refresh() {
    if (dirty_) {
      Rebuild();
    }
  }
  void Rebuild();
  void RebuildIndex();
  // FNV-1a over the discriminating words' masked values (the index bucket
  // key). Needs a packet of at least prune_min_packet_bytes_, which loads
  // every word.
  uint64_t HashIndexWords(std::span<const uint8_t> packet) const;
  // The bucket a conjunction's expected values hash to, or nullopt when it
  // does not test every discriminating pair (it stays uncovered).
  std::optional<uint64_t> BucketOf(const std::vector<FieldTest>& tests) const;
  // Adds `delta` (+1 or -1) to the count of every distinct pair `tests`
  // examines.
  void CountPairs(const std::optional<std::vector<FieldTest>>& tests, int delta);
  // Where (hash, rank) sits, or belongs, in the sorted index arrays.
  size_t IndexSlot(uint64_t hash, uint32_t rank) const;
  // SetOrder's patch: maps every index rank in [lo, hi) through
  // rank_remap_ and restores ascending ranks within each bucket and across
  // uncovered_ranks_.
  void RemapIndexRanks(uint32_t lo, uint32_t hi);

  // What RecordPass counts per strategy while a registry is attached.
  struct StrategyCounts {
    uint64_t passes = 0;
    uint64_t filters_run = 0;
    uint64_t insns = 0;
    pfobs::Histogram* insns_per_pass = nullptr;
  };

  Strategy strategy_;
  bool profiling_ = false;
  // Probe work performed while profiling (accumulated by Match); the
  // per-binding instruction counts live in Binding::profile.
  uint64_t profiled_index_probes_ = 0;
  pfobs::MetricsRegistry* metrics_registry_ = nullptr;
  StrategyCounts strategy_counts_[kStrategyCount];
  std::unordered_map<Key, Binding> filters_;
  bool dirty_ = false;        // Refresh() pending
  // A new-key Bind or an Unbind since the last SetOrder; implies dirty_,
  // so the index is rebuilt after the ranks are assigned afresh.
  bool ranks_dirty_ = false;

  // --- Priority order ---
  std::vector<Key> order_;               // rank -> key
  std::vector<const Binding*> ranked_;   // rank -> binding
  std::vector<uint32_t> all_ranks_;      // 0 .. bound_count()-1

  // --- Hash dispatch index (kIndexed) ---
  // Ranks of the bindings the index does not cover, ascending: they are
  // candidates on every packet.
  std::vector<uint32_t> uncovered_ranks_;
  // Every indexed filter's word references fit in a packet of at least this
  // many bytes; shorter packets take the sequential fallback so pruning
  // can never hide a kOutOfPacket status a sequential run would report.
  size_t prune_min_packet_bytes_ = 0;
  // Per-pass scratch, reserved at rebuild so passes never allocate: the
  // bucket merged with uncovered_ranks_.
  std::vector<uint32_t> merged_;
  std::vector<FieldTestKey> index_pairs_;  // the discriminating words, sorted
  // One entry per indexed filter, sorted by (bucket hash, rank): a bucket is
  // a run of equal hashes, its ranks ascending.
  std::vector<uint64_t> index_hashes_;
  std::vector<uint32_t> index_ranks_;

  // --- Write-path state, off the per-packet cache lines ---
  // How many bound conjunctions test each (word, mask) pair (a filter that
  // tests a pair twice counts once), sorted by pair: the pairs tested by
  // the most filters discriminate best. Kept current by Bind/Unbind under
  // every strategy, so a rebuild starts from the counts.
  std::vector<std::pair<FieldTestKey, uint32_t>> pair_counts_;
  std::vector<uint32_t> rank_remap_;  // SetOrder scratch: old rank - lo -> new rank
};

// Bind-time pre-decode of a validated program (exposed for tests and the
// disassembler-style tooling; Engine::Bind calls it).
std::vector<PredecodedInsn> Predecode(const ValidatedProgram& program);

// The pre-decoded interpreter every strategy but kChecked runs (exposed for
// tests; Engine uses it internally).
ExecResult InterpretPredecoded(std::span<const PredecodedInsn> insns,
                               std::span<const uint8_t> packet);

}  // namespace pf

#endif  // SRC_PF_ENGINE_H_

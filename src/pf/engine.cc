#include "src/pf/engine.h"

#include <algorithm>
#include <cassert>
#include <iterator>

#include "src/util/byte_order.h"

namespace pf {

std::string ToString(Strategy strategy) {
  switch (strategy) {
    case Strategy::kChecked:
      return "checked";
    case Strategy::kFast:
      return "fast";
    case Strategy::kIndexed:
      return "indexed";
  }
  return "unknown";
}

namespace {

// FNV-1a over the discriminating words' masked values. Collisions only ever
// *add* false candidates to a bucket (weeded out by re-confirmation); they
// can never remove a true match, because equal tuples hash equally.
constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t MixIndexHash(uint64_t hash, uint16_t value) {
  hash = (hash ^ static_cast<uint64_t>(value & 0xff)) * kFnvPrime;
  hash = (hash ^ static_cast<uint64_t>(value >> 8)) * kFnvPrime;
  return hash;
}

// True when `a` and `b` test the same (word, mask) pairs in the same
// order: then the pair counts, the discriminating pairs and whether the
// filter is indexed are all unchanged, and only its bucket can move. Both
// not conjunctions counts as the same shape (the filter stays uncovered).
bool SamePairs(const std::optional<std::vector<FieldTest>>& a,
               const std::optional<std::vector<FieldTest>>& b) {
  if (!a.has_value() || !b.has_value()) {
    return a.has_value() == b.has_value();
  }
  return std::equal(a->begin(), a->end(), b->begin(), b->end(),
                    [](const FieldTest& x, const FieldTest& y) { return KeyOf(x) == KeyOf(y); });
}

// The shortest packet that holds every word `tests` reads.
size_t WordReach(const std::vector<FieldTest>& tests) {
  size_t bytes = 0;
  for (const FieldTest& test : tests) {
    bytes = std::max<size_t>(bytes, 2 * (static_cast<size_t>(test.word) + 1));
  }
  return bytes;
}

}  // namespace

std::vector<PredecodedInsn> Predecode(const ValidatedProgram& program) {
  const std::vector<uint16_t>& words = program.program().words;
  std::vector<PredecodedInsn> decoded;
  decoded.reserve(words.size());
  for (size_t i = 0; i < words.size(); ++i) {
    const RawFields fields = SplitWord(words[i]);
    PredecodedInsn insn;
    insn.op = static_cast<BinaryOp>(fields.op_bits);
    if (fields.action_bits >= kPushWordBase) {
      insn.fetch = PredecodedInsn::Fetch::kWord;
      insn.word_index = static_cast<uint8_t>(fields.action_bits - kPushWordBase);
    } else {
      switch (static_cast<StackAction>(fields.action_bits)) {
        case StackAction::kNoPush:
          insn.fetch = PredecodedInsn::Fetch::kNone;
          break;
        case StackAction::kPushLit:
          // The validator proved the literal exists; fold it in here so the
          // hot loop never touches a second program word.
          insn.fetch = PredecodedInsn::Fetch::kImm;
          insn.imm = words[++i];
          break;
        case StackAction::kPushZero:
          insn.fetch = PredecodedInsn::Fetch::kImm;
          insn.imm = 0x0000;
          break;
        case StackAction::kPushOne:
          insn.fetch = PredecodedInsn::Fetch::kImm;
          insn.imm = 0x0001;
          break;
        case StackAction::kPushFFFF:
          insn.fetch = PredecodedInsn::Fetch::kImm;
          insn.imm = 0xffff;
          break;
        case StackAction::kPushFF00:
          insn.fetch = PredecodedInsn::Fetch::kImm;
          insn.imm = 0xff00;
          break;
        case StackAction::kPush00FF:
          insn.fetch = PredecodedInsn::Fetch::kImm;
          insn.imm = 0x00ff;
          break;
        case StackAction::kPushInd:
          insn.fetch = PredecodedInsn::Fetch::kInd;
          break;
        case StackAction::kPushWord:
          break;  // unreachable: encoded values >= kPushWordBase handled above
      }
    }
    decoded.push_back(insn);
  }
  return decoded;
}

// kFast's whole per-filter cost is this loop. [[gnu::flatten]] inlines
// EvalBinaryOp at -O2 as well as -O3, and the instruction count stays in a
// local rather than in the returned ExecResult (which may live in the
// caller's memory), so no instruction pays for a call or a store. The
// 64-byte alignment pins where the loop sits in a cache line: without it,
// editing unrelated code earlier in this file moved the loop and changed
// kFast's conj 21 hit time by ~25% in micro_interpreter.
[[gnu::flatten, gnu::aligned(64)]] ExecResult InterpretPredecoded(
    std::span<const PredecodedInsn> insns, std::span<const uint8_t> packet) {
  if (insns.empty()) {
    // An empty filter accepts every packet, as in the interpreters.
    return ExecResult{.accept = true};
  }

  // The top of the stack lives in a register, `top`; the values under it
  // in below[1..depth-1] (below[0] takes the first push's empty `top`). An
  // instruction that both pushes and operates never touches memory, so a
  // push-and-compare term costs no store-to-load round trip.
  uint16_t below[kMaxStackDepth];
  uint16_t top = 0;
  uint32_t depth = 0;
  uint32_t executed = 0;
  const auto finish = [&executed](bool accept, ExecStatus status, bool short_circuited) {
    return ExecResult{accept, status, executed, short_circuited};
  };

  for (const PredecodedInsn& insn : insns) {
    ++executed;
    uint16_t pushed = 0;
    bool has_push = true;
    switch (insn.fetch) {
      case PredecodedInsn::Fetch::kNone:
        has_push = false;
        break;
      case PredecodedInsn::Fetch::kImm:
        pushed = insn.imm;
        break;
      case PredecodedInsn::Fetch::kWord:
        if (!pfutil::LoadPacketWord(packet, insn.word_index, &pushed)) {
          return finish(false, ExecStatus::kOutOfPacket, false);
        }
        break;
      case PredecodedInsn::Fetch::kInd:
        // Replaces the top: pops a byte offset, pushes the word there.
        if (!pfutil::LoadPacketWordAtByte(packet, top, &top)) {
          return finish(false, ExecStatus::kOutOfPacket, false);
        }
        has_push = false;
        break;
    }

    if (insn.op == BinaryOp::kNop) {
      if (has_push) {
        below[depth++] = top;
        top = pushed;
      }
      continue;
    }
    // t1 is the top of stack after this instruction's push, if any.
    const uint16_t t1 = has_push ? pushed : top;
    const uint16_t t2 = has_push ? top : below[--depth];
    uint16_t result = 0;
    switch (detail::EvalBinaryOp(insn.op, t1, t2, &result)) {
      case detail::OpOutcome::kContinue:
        break;
      case detail::OpOutcome::kAccept:
        return finish(true, ExecStatus::kOk, true);
      case detail::OpOutcome::kReject:
        return finish(false, ExecStatus::kOk, true);
      case detail::OpOutcome::kDivideByZero:
        return finish(false, ExecStatus::kDivideByZero, false);
    }
    top = result;
  }
  return finish(top != 0, ExecStatus::kOk, false);
}

void Engine::AttachMetrics(pfobs::MetricsRegistry* registry) {
  metrics_registry_ = registry;
  if (registry == nullptr) {
    for (StrategyMetrics& metrics : strategy_metrics_) {
      metrics = StrategyMetrics{};
    }
    return;
  }
  // Work histograms are instruction counts, not latencies: small linear-ish
  // bounds instead of the default nanosecond scale.
  const std::vector<int64_t> insn_bounds = {0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512};
  for (const Strategy strategy : kAllStrategies) {
    const std::string prefix = "engine." + ToString(strategy);
    StrategyMetrics& metrics = strategy_metrics_[static_cast<size_t>(strategy)];
    metrics.passes = registry->counter(prefix + ".passes");
    metrics.filters_run = registry->counter(prefix + ".filters_run");
    metrics.insns = registry->counter(prefix + ".insns");
    metrics.insns_per_pass = registry->histogram(prefix + ".insns_per_pass", insn_bounds);
  }
}

void Engine::RecordPass(const ExecTelemetry& telemetry) {
  if (metrics_registry_ == nullptr) {
    return;
  }
  StrategyMetrics& metrics = strategy_metrics_[static_cast<size_t>(strategy_)];
  metrics.passes->Add();
  metrics.filters_run->Add(telemetry.filters_run);
  const uint64_t work = telemetry.insns_executed + telemetry.index_probes;
  metrics.insns->Add(work);
  metrics.insns_per_pass->Record(static_cast<int64_t>(work));
}

void Engine::set_strategy(Strategy strategy) {
  if (strategy_ == strategy) {
    return;
  }
  strategy_ = strategy;
  dirty_ = true;
}

void Engine::Bind(Key key, ValidatedProgram program) {
  Binding binding{std::move(program), {}, std::nullopt, 0, nullptr};
  binding.decoded = Predecode(binding.program);
  binding.conjunction = ExtractConjunction(binding.program.program());
  if (profiling_) {
    binding.profile = std::make_unique<ProgramProfile>();
    binding.profile->pc.resize(binding.decoded.size());
  }
  const auto it = filters_.find(key);
  if (it == filters_.end()) {
    CountPairs(binding.conjunction, +1);
    filters_.emplace(key, std::move(binding));
    dirty_ = true;
    ranks_dirty_ = true;
    return;
  }
  // Re-Bind: same key, same rank.
  Binding& slot = it->second;
  binding.rank = slot.rank;
  if (!SamePairs(slot.conjunction, binding.conjunction)) {
    CountPairs(slot.conjunction, -1);
    CountPairs(binding.conjunction, +1);
    dirty_ = true;
  } else if (strategy_ == Strategy::kIndexed && !dirty_ && slot.conjunction.has_value() &&
             !slot.conjunction->empty()) {
    // Same pairs: the index keeps its shape, and an indexed filter moves
    // at most from its old bucket to its new one.
    const std::optional<uint64_t> from = BucketOf(*slot.conjunction);
    if (from.has_value()) {
      const uint64_t to = *BucketOf(*binding.conjunction);
      if (to != *from) {
        const size_t at = IndexSlot(*from, binding.rank);
        index_hashes_.erase(index_hashes_.begin() + static_cast<ptrdiff_t>(at));
        index_ranks_.erase(index_ranks_.begin() + static_cast<ptrdiff_t>(at));
        const size_t into = IndexSlot(to, binding.rank);
        index_hashes_.insert(index_hashes_.begin() + static_cast<ptrdiff_t>(into), to);
        index_ranks_.insert(index_ranks_.begin() + static_cast<ptrdiff_t>(into), binding.rank);
      }
    }
  }
  slot = std::move(binding);
}

bool Engine::Unbind(Key key) {
  const auto it = filters_.find(key);
  if (it == filters_.end()) {
    return false;
  }
  CountPairs(it->second.conjunction, -1);
  filters_.erase(it);
  dirty_ = true;
  ranks_dirty_ = true;
  return true;
}

void Engine::Clear() {
  filters_.clear();
  pair_counts_.clear();
  dirty_ = true;
  ranks_dirty_ = true;
  Refresh();
}

void Engine::SetOrder(std::span<const Key> order) {
  if (ranks_dirty_) {
    // The key set changed: the index is stale anyway, rank from scratch.
    order_.assign(order.begin(), order.end());
    AssignRanks();
    return;
  }
  assert(order.size() == order_.size());
  // Only [lo, hi) moved; it holds the same keys as before, so their old
  // ranks are a permutation of [lo, hi).
  const auto n = static_cast<uint32_t>(order.size());
  uint32_t lo = 0;
  while (lo < n && order[lo] == order_[lo]) {
    ++lo;
  }
  if (lo == n) {
    return;
  }
  uint32_t hi = n;
  while (order[hi - 1] == order_[hi - 1]) {
    --hi;
  }
  rank_remap_.resize(hi - lo);
  for (uint32_t rank = lo; rank < hi; ++rank) {
    Binding& binding = filters_.at(order[rank]);
    assert(binding.rank >= lo && binding.rank < hi);
    rank_remap_[binding.rank - lo] = rank;
    binding.rank = rank;
    ranked_[rank] = &binding;
    order_[rank] = order[rank];
  }
  if (!dirty_) {
    RemapIndexRanks(lo, hi);
  }
}

void Engine::RemapIndexRanks(uint32_t lo, uint32_t hi) {
  // One insertion pass per list, remapping as it goes. Outside the moved
  // window nothing changed, so the data is nearly sorted already. Hashes
  // never move: within the index only ranks of one bucket trade places.
  const auto patch = [&](std::vector<uint32_t>& ranks, const std::vector<uint64_t>* buckets) {
    for (size_t i = 0; i < ranks.size(); ++i) {
      const uint32_t rank = ranks[i] >= lo && ranks[i] < hi ? rank_remap_[ranks[i] - lo] : ranks[i];
      size_t j = i;
      for (; j > 0 && ranks[j - 1] > rank; --j) {
        if (buckets != nullptr && (*buckets)[j - 1] != (*buckets)[i]) {
          break;
        }
        ranks[j] = ranks[j - 1];
      }
      ranks[j] = rank;
    }
  };
  patch(index_ranks_, &index_hashes_);
  patch(uncovered_ranks_, nullptr);
}

void Engine::AssignRanks() {
  assert(order_.size() == filters_.size());
  ranked_.clear();
  all_ranks_.clear();
  for (uint32_t rank = 0; rank < order_.size(); ++rank) {
    Binding& binding = filters_.at(order_[rank]);
    binding.rank = rank;
    ranked_.push_back(&binding);
    all_ranks_.push_back(rank);
  }
  ranks_dirty_ = false;
}

void Engine::Rebuild() {
  if (ranks_dirty_) {
    // No SetOrder() since the last Bind/Unbind: rank by key.
    order_.clear();
    for (const auto& [key, binding] : filters_) {
      order_.push_back(key);
    }
    std::sort(order_.begin(), order_.end());
    AssignRanks();
  }
  dirty_ = false;
  RebuildIndex();
}

const ValidatedProgram* Engine::Find(Key key) const {
  const Binding* binding = FindBinding(key);
  return binding == nullptr ? nullptr : &binding->program;
}

const Engine::Binding* Engine::FindBinding(Key key) const {
  const auto it = filters_.find(key);
  return it == filters_.end() ? nullptr : &it->second;
}

void Engine::SetProfiling(bool enabled) {
  profiling_ = enabled;
  if (!enabled) {
    return;  // keep collected profiles readable after disabling
  }
  for (auto& [key, binding] : filters_) {
    if (binding.profile == nullptr) {
      binding.profile = std::make_unique<ProgramProfile>();
      binding.profile->pc.resize(binding.decoded.size());
    }
  }
}

const ProgramProfile* Engine::Profile(Key key) const {
  const Binding* binding = FindBinding(key);
  return binding == nullptr ? nullptr : binding->profile.get();
}

ProfileTotals Engine::profile_totals() const {
  ProfileTotals totals;
  totals.index_probes = profiled_index_probes_;
  for (const auto& [key, binding] : filters_) {
    if (binding.profile == nullptr) {
      continue;
    }
    totals.passes += binding.profile->passes;
    totals.runs += binding.profile->runs;
    totals.hit_insns += binding.profile->hit_insns();
    totals.charged_insns += binding.profile->charged_insns();
  }
  return totals;
}

void Engine::ResetProfiles() {
  profiled_index_probes_ = 0;
  for (auto& [key, binding] : filters_) {
    if (binding.profile != nullptr) {
      binding.profile->Reset();
    }
  }
}

void Engine::CountPairs(const std::optional<std::vector<FieldTest>>& tests, int delta) {
  if (!tests.has_value()) {
    return;
  }
  for (auto test = tests->begin(); test != tests->end(); ++test) {
    const FieldTestKey pair = KeyOf(*test);
    if (std::any_of(tests->begin(), test,
                    [&](const FieldTest& prior) { return KeyOf(prior) == pair; })) {
      continue;  // each pair counts once per filter
    }
    auto it = std::lower_bound(
        pair_counts_.begin(), pair_counts_.end(), pair,
        [](const std::pair<FieldTestKey, uint32_t>& entry, const FieldTestKey& key) {
          return entry.first < key;
        });
    if (delta > 0) {
      if (it == pair_counts_.end() || !(it->first == pair)) {
        it = pair_counts_.insert(it, {pair, 0});
      }
      ++it->second;
    } else if (--it->second == 0) {
      pair_counts_.erase(it);
    }
  }
}

std::optional<uint64_t> Engine::BucketOf(const std::vector<FieldTest>& tests) const {
  uint64_t bucket = kFnvOffset;
  for (const FieldTestKey& pair : index_pairs_) {
    const auto it = std::find_if(tests.begin(), tests.end(),
                                 [&](const FieldTest& t) { return KeyOf(t) == pair; });
    if (it == tests.end()) {
      return std::nullopt;
    }
    bucket = MixIndexHash(bucket, static_cast<uint16_t>(it->value & it->mask));
  }
  return bucket;
}

size_t Engine::IndexSlot(uint64_t hash, uint32_t rank) const {
  const auto [first, last] = std::equal_range(index_hashes_.begin(), index_hashes_.end(), hash);
  const auto ranks = index_ranks_.begin();
  return static_cast<size_t>(std::lower_bound(ranks + (first - index_hashes_.begin()),
                                              ranks + (last - index_hashes_.begin()), rank) -
                             ranks);
}

void Engine::RebuildIndex() {
  uncovered_ranks_.clear();
  prune_min_packet_bytes_ = 0;
  index_pairs_.clear();
  index_hashes_.clear();
  index_ranks_.clear();
  if (strategy_ != Strategy::kIndexed || pair_counts_.empty()) {
    return;  // no conjunction tests a pair: nothing to probe
  }
  // From here on every binding is either indexed or uncovered.
  uint32_t max_count = 0;
  for (const auto& [pair, n] : pair_counts_) {
    max_count = std::max(max_count, n);
  }
  for (const auto& [pair, n] : pair_counts_) {
    if (n == max_count && index_pairs_.size() < kMaxIndexWords) {
      index_pairs_.push_back(pair);
    }
  }

  // A filter joins the index iff it tests every discriminating pair: its
  // bucket key is the hash of its expected masked values in pair order.
  // Empty conjunctions (accept-all) match every packet and stay uncovered.
  std::vector<std::pair<uint64_t, uint32_t>> entries;  // (bucket, rank)
  for (const auto& [key, binding] : filters_) {
    const std::optional<uint64_t> bucket =
        binding.conjunction.has_value() && !binding.conjunction->empty()
            ? BucketOf(*binding.conjunction)
            : std::nullopt;
    if (!bucket.has_value()) {
      uncovered_ranks_.push_back(binding.rank);
      continue;
    }
    entries.emplace_back(*bucket, binding.rank);
    prune_min_packet_bytes_ = std::max(prune_min_packet_bytes_, WordReach(*binding.conjunction));
  }
  std::sort(entries.begin(), entries.end());
  for (const auto& [bucket, rank] : entries) {
    index_hashes_.push_back(bucket);
    index_ranks_.push_back(rank);
  }
  std::sort(uncovered_ranks_.begin(), uncovered_ranks_.end());
  merged_.reserve(filters_.size());
}

uint64_t Engine::HashIndexWords(std::span<const uint8_t> packet) const {
  uint64_t signature = kFnvOffset;
  for (const FieldTestKey& pair : index_pairs_) {
    uint16_t word = 0;
    pfutil::LoadPacketWord(packet, pair.word, &word);
    signature = MixIndexHash(signature, static_cast<uint16_t>(word & pair.mask));
  }
  return signature;
}

Engine::MatchPass Engine::Match(std::span<const uint8_t> packet) {
  Refresh();
  MatchPass pass(this, packet);
  pass.walk_ = all_ranks_;
  if (!index_in_use() || packet.size() < prune_min_packet_bytes_) {
    // Nothing prunes, or a pruned filter could have reported kOutOfPacket
    // on this packet: every filter runs, so statuses stay exact.
    return pass;
  }
  const auto [first, last] =
      std::equal_range(index_hashes_.begin(), index_hashes_.end(), HashIndexWords(packet));
  pass.telemetry_.index_probes += static_cast<uint32_t>(index_pairs_.size());
  const std::span<const uint32_t> hits =
      std::span<const uint32_t>(index_ranks_)
          .subspan(static_cast<size_t>(first - index_hashes_.begin()),
                   static_cast<size_t>(last - first));
  if (profiling_) {
    profiled_index_probes_ += pass.telemetry_.index_probes;
  }
  if (uncovered_ranks_.empty() || hits.empty()) {
    pass.live_ = hits.empty() ? std::span<const uint32_t>(uncovered_ranks_) : hits;
  } else {
    merged_.clear();
    std::merge(hits.begin(), hits.end(), uncovered_ranks_.begin(), uncovered_ranks_.end(),
               std::back_inserter(merged_));
    pass.live_ = merged_;
  }
  pass.pruning_ = true;
  if (!profiling_) {
    pass.walk_ = pass.live_;
  }
  return pass;
}

bool Engine::MatchPass::Live(uint32_t rank) const {
  return !pruning_ || std::binary_search(live_.begin(), live_.end(), rank);
}

Verdict Engine::MatchPass::TestRank(uint32_t rank) {
  // Outside profiling the walk only visits live ranks.
  return Evaluate(*engine_->ranked_[rank], !engine_->profiling_ || Live(rank));
}

Verdict Engine::MatchPass::Test(Key key) { return Test(key, engine_->FindBinding(key)); }

Verdict Engine::MatchPass::Test(Key /*key*/, const Binding* binding) {
  if (binding == nullptr) {
    return Verdict{};  // nothing bound: never accepts
  }
  return Evaluate(*binding, Live(binding->rank));
}

Verdict Engine::MatchPass::Evaluate(const Binding& binding, bool live) {
  if (!live) {
    // Pruned: some discriminating test mismatched on a packet long enough
    // that the program itself would have rejected cleanly, so the filter
    // does no work and has no status.
    if (engine_->profiling_ && binding.profile != nullptr) {
      // Replay (uncharged) so per-pc hit counts match a sequential run.
      binding.profile->RecordExec(InterpretPredecoded(binding.decoded, packet_),
                                  /*charged=*/false);
    }
    return Verdict{};
  }
  ++telemetry_.filters_run;
  const ExecResult exec = engine_->strategy_ == Strategy::kChecked
                              ? InterpretChecked(binding.program.program(), packet_)
                              : InterpretPredecoded(binding.decoded, packet_);
  telemetry_.insns_executed += exec.insns_executed;
  if (engine_->profiling_ && binding.profile != nullptr) {
    binding.profile->RecordExec(exec, /*charged=*/true);
  }
  return Verdict{exec.accept, exec.status, exec.short_circuited, exec.insns_executed};
}

Verdict Engine::RunOne(Key key, std::span<const uint8_t> packet, ExecTelemetry* telemetry) {
  MatchPass pass = Match(packet);
  const Verdict verdict = pass.Test(key);
  RecordPass(pass.telemetry());
  if (telemetry != nullptr) {
    *telemetry += pass.telemetry();
  }
  return verdict;
}

}  // namespace pf

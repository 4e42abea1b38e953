#include "src/pf/engine.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <map>

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
  filters_.insert_or_assign(key, std::move(binding));
  dirty_ = true;
  ranks_dirty_ = true;
}

bool Engine::Unbind(Key key) {
  if (filters_.erase(key) == 0) {
    return false;
  }
  dirty_ = true;
  ranks_dirty_ = true;
  return true;
}

void Engine::Clear() {
  filters_.clear();
  dirty_ = true;
  ranks_dirty_ = true;
  Refresh();
}

void Engine::SetOrder(std::span<const Key> order) {
  if (!ranks_dirty_ && std::equal(order.begin(), order.end(), order_.begin(), order_.end())) {
    return;
  }
  order_.assign(order.begin(), order.end());
  AssignRanks();
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
  dirty_ = true;  // the index holds ranks
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

void Engine::RebuildIndex() {
  uncovered_ranks_.clear();
  prune_min_packet_bytes_ = 0;
  index_pairs_.clear();
  index_hashes_.clear();
  index_ranks_.clear();
  index_covers_all_ = false;
  if (strategy_ != Strategy::kIndexed || filters_.empty()) {
    return;
  }

  // Count how many conjunction filters test each (word, mask) pair; the
  // pairs tested by the *most* filters discriminate best. std::map keeps the
  // choice deterministic.
  std::map<FieldTestKey, size_t> counts;
  bool all_conjunctions = true;
  for (const auto& [key, binding] : filters_) {
    if (!binding.conjunction.has_value()) {
      all_conjunctions = false;
      continue;
    }
    for (const FieldTest& test : *binding.conjunction) {
      // Count each pair once per filter even if tested twice.
      bool first = true;
      for (const FieldTest& prior : *binding.conjunction) {
        if (&prior == &test) {
          break;
        }
        if (KeyOf(prior) == KeyOf(test)) {
          first = false;
          break;
        }
      }
      if (first) {
        ++counts[KeyOf(test)];
      }
    }
  }
  if (counts.empty()) {
    return;  // only accept-alls / non-conjunctions bound: nothing to probe
  }
  // From here on every binding is either indexed or uncovered.
  size_t max_count = 0;
  for (const auto& [pair, n] : counts) {
    max_count = std::max(max_count, n);
  }
  for (const auto& [pair, n] : counts) {
    if (n == max_count && index_pairs_.size() < kMaxIndexWords) {
      index_pairs_.push_back(pair);
    }
  }

  // The signature fully determines every filter's verdict iff every filter
  // is a conjunction and every tested pair is among the probed ones.
  index_covers_all_ = all_conjunctions;
  for (const auto& [pair, n] : counts) {
    if (std::find(index_pairs_.begin(), index_pairs_.end(), pair) == index_pairs_.end()) {
      index_covers_all_ = false;
      break;
    }
  }

  // A filter joins the index iff it tests every discriminating pair: its
  // bucket key is the hash of its expected masked values in pair order.
  // Empty conjunctions (accept-all) match every packet and stay uncovered.
  std::vector<std::pair<uint64_t, uint32_t>> entries;  // (bucket, rank)
  for (const auto& [key, binding] : filters_) {
    if (!binding.conjunction.has_value() || binding.conjunction->empty()) {
      uncovered_ranks_.push_back(binding.rank);
      continue;
    }
    const std::vector<FieldTest>& tests = *binding.conjunction;
    uint64_t bucket = kFnvOffset;
    bool indexable = true;
    for (const FieldTestKey& pair : index_pairs_) {
      const auto it = std::find_if(tests.begin(), tests.end(),
                                   [&](const FieldTest& t) { return KeyOf(t) == pair; });
      if (it == tests.end()) {
        indexable = false;
        break;
      }
      bucket = MixIndexHash(bucket, static_cast<uint16_t>(it->value & it->mask));
    }
    if (!indexable) {
      uncovered_ranks_.push_back(binding.rank);
      continue;
    }
    entries.emplace_back(bucket, binding.rank);
    prune_min_packet_bytes_ = std::max(prune_min_packet_bytes_, WordReach(tests));
  }
  std::sort(entries.begin(), entries.end());
  for (const auto& [bucket, rank] : entries) {
    index_hashes_.push_back(bucket);
    index_ranks_.push_back(rank);
  }
  std::sort(uncovered_ranks_.begin(), uncovered_ranks_.end());
  merged_.reserve(filters_.size());
}

bool Engine::index_covers_all() {
  Refresh();
  return strategy_ == Strategy::kIndexed && index_covers_all_;
}

std::optional<uint64_t> Engine::HashIndexWords(std::span<const uint8_t> packet) const {
  uint64_t signature = kFnvOffset;
  for (const FieldTestKey& pair : index_pairs_) {
    uint16_t word = 0;
    if (!pfutil::LoadPacketWord(packet, pair.word, &word)) {
      return std::nullopt;
    }
    signature = MixIndexHash(signature, static_cast<uint16_t>(word & pair.mask));
  }
  return signature;
}

std::optional<uint64_t> Engine::IndexSignature(std::span<const uint8_t> packet) {
  Refresh();
  if (strategy_ != Strategy::kIndexed || index_pairs_.empty()) {
    return std::nullopt;
  }
  return HashIndexWords(packet);
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
  // Cannot fail: every indexed word fits in prune_min_packet_bytes_.
  const auto [first, last] =
      std::equal_range(index_hashes_.begin(), index_hashes_.end(), *HashIndexWords(packet));
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

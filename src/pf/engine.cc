#include "src/pf/engine.h"

#include <algorithm>
#include <map>

#include "src/util/byte_order.h"

namespace pf {

std::string ToString(Strategy strategy) {
  switch (strategy) {
    case Strategy::kChecked:
      return "checked";
    case Strategy::kFast:
      return "fast";
    case Strategy::kTree:
      return "tree";
    case Strategy::kPredecoded:
      return "predecoded";
    case Strategy::kIndexed:
      return "indexed";
    case Strategy::kCompiled:
      return "compiled";
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

ExecResult InterpretPredecoded(std::span<const PredecodedInsn> insns,
                               std::span<const uint8_t> packet) {
  ExecResult res;
  if (insns.empty()) {
    // An empty filter accepts every packet, as in the interpreters.
    res.accept = true;
    return res;
  }

  uint16_t stack[kMaxStackDepth];
  uint32_t depth = 0;

  for (const PredecodedInsn& insn : insns) {
    ++res.insns_executed;
    switch (insn.fetch) {
      case PredecodedInsn::Fetch::kNone:
        break;
      case PredecodedInsn::Fetch::kImm:
        stack[depth++] = insn.imm;
        break;
      case PredecodedInsn::Fetch::kWord: {
        uint16_t value = 0;
        if (!pfutil::LoadPacketWord(packet, insn.word_index, &value)) {
          res.status = ExecStatus::kOutOfPacket;
          return res;
        }
        stack[depth++] = value;
        break;
      }
      case PredecodedInsn::Fetch::kInd: {
        uint16_t value = 0;
        if (!pfutil::LoadPacketWordAtByte(packet, stack[depth - 1], &value)) {
          res.status = ExecStatus::kOutOfPacket;
          return res;
        }
        stack[depth - 1] = value;
        break;
      }
    }

    if (insn.op == BinaryOp::kNop) {
      continue;
    }
    const uint16_t t1 = stack[--depth];  // original top of stack
    const uint16_t t2 = stack[depth - 1];
    uint16_t result = 0;
    switch (detail::EvalBinaryOp(insn.op, t1, t2, &result)) {
      case detail::OpOutcome::kContinue:
        break;
      case detail::OpOutcome::kAccept:
        res.accept = true;
        res.short_circuited = true;
        return res;
      case detail::OpOutcome::kReject:
        res.accept = false;
        res.short_circuited = true;
        return res;
      case detail::OpOutcome::kDivideByZero:
        res.status = ExecStatus::kDivideByZero;
        return res;
    }
    stack[depth - 1] = result;
  }

  res.accept = stack[depth - 1] != 0;
  return res;
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
  const uint64_t work =
      telemetry.insns_executed + telemetry.tree_probes + telemetry.index_probes;
  metrics.insns->Add(work);
  metrics.insns_per_pass->Record(static_cast<int64_t>(work));
}

void Engine::set_strategy(Strategy strategy) {
  if (strategy_ == strategy) {
    return;
  }
  strategy_ = strategy;
  tree_dirty_ = true;
  index_dirty_ = true;
  compiled_dirty_ = true;
}

void Engine::Bind(Key key, ValidatedProgram program) {
  Binding binding{std::move(program), {}, std::nullopt, false, {}, -1, 0, nullptr};
  binding.decoded = Predecode(binding.program);
  binding.conjunction = ExtractConjunction(binding.program.program());
  binding.compiled = CompileProgram(binding.program);
  if (profiling_) {
    binding.profile = std::make_unique<ProgramProfile>();
    binding.profile->pc.resize(binding.decoded.size());
  }
  filters_.insert_or_assign(key, std::move(binding));
  tree_dirty_ = true;
  index_dirty_ = true;
  compiled_dirty_ = true;
}

bool Engine::Unbind(Key key) {
  if (filters_.erase(key) == 0) {
    return false;
  }
  tree_dirty_ = true;
  index_dirty_ = true;
  compiled_dirty_ = true;
  return true;
}

void Engine::Clear() {
  filters_.clear();
  tree_.Build({});
  tree_dirty_ = false;
  index_pairs_.clear();
  index_buckets_.clear();
  index_entries_ = 0;
  index_covers_all_ = false;
  index_min_packet_bytes_ = 0;
  index_dirty_ = false;
  compiled_prefix_groups_ = 0;
  prefix_cache_.clear();
  compiled_dirty_ = false;
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
  totals.tree_probes = profiled_tree_probes_;
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
  profiled_tree_probes_ = 0;
  profiled_index_probes_ = 0;
  for (auto& [key, binding] : filters_) {
    if (binding.profile != nullptr) {
      binding.profile->Reset();
    }
  }
}

void Engine::RebuildIndex() {
  index_pairs_.clear();
  index_buckets_.clear();
  index_entries_ = 0;
  index_covers_all_ = false;
  index_min_packet_bytes_ = 0;
  index_dirty_ = false;
  for (auto& [key, binding] : filters_) {
    binding.indexed = false;
  }
  if (strategy_ != Strategy::kIndexed || filters_.empty()) {
    return;
  }

  // Count how many conjunction filters test each (word, mask) pair; the
  // pairs tested by the *most* filters discriminate best (same heuristic as
  // DecisionTree::BuildNode). std::map keeps the choice deterministic.
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
  // Empty conjunctions (accept-all) match every packet and stay sequential.
  for (auto& [key, binding] : filters_) {
    if (!binding.conjunction.has_value() || binding.conjunction->empty()) {
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
      continue;
    }
    binding.indexed = true;
    ++index_entries_;
    index_buckets_[bucket].push_back(key);
    for (const FieldTest& test : tests) {
      index_min_packet_bytes_ =
          std::max<size_t>(index_min_packet_bytes_, 2 * (static_cast<size_t>(test.word) + 1));
    }
  }
}

bool Engine::RefreshIndex() {
  if (strategy_ != Strategy::kIndexed) {
    return false;
  }
  if (index_dirty_) {
    RebuildIndex();
  }
  return true;
}

bool Engine::index_covers_all() { return RefreshIndex() && index_covers_all_; }

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
  if (!RefreshIndex() || index_pairs_.empty()) {
    return std::nullopt;
  }
  return HashIndexWords(packet);
}

void Engine::RebuildCompiledPrefixes() {
  compiled_dirty_ = false;
  compiled_prefix_groups_ = 0;
  prefix_cache_.clear();
  for (auto& [key, binding] : filters_) {
    binding.prefix_group = -1;
    binding.prefix_len = 0;
  }
  if (strategy_ != Strategy::kCompiled || filters_.size() < 2) {
    return;
  }

  // Key order keeps group assignment deterministic across identical bound
  // sets (unordered_map iteration order is not).
  std::vector<Key> keys;
  keys.reserve(filters_.size());
  for (const auto& [key, binding] : filters_) {
    keys.push_back(key);
  }
  std::sort(keys.begin(), keys.end());

  // Group by first compiled op; ops compare equal only when their operand
  // encodings AND end_insns accounting agree, so any common prefix yields
  // identical ExecResults (and cursors) for a given packet no matter which
  // member executes it.
  std::vector<std::vector<Key>> groups;
  for (const Key key : keys) {
    const Binding& binding = filters_.at(key);
    if (binding.compiled.ops.size() < 2) {
      continue;  // a lone verdict op is not worth sharing
    }
    bool placed = false;
    for (std::vector<Key>& group : groups) {
      if (filters_.at(group.front()).compiled.ops.front() == binding.compiled.ops.front()) {
        group.push_back(key);
        placed = true;
        break;
      }
    }
    if (!placed) {
      groups.push_back({key});
    }
  }
  for (const std::vector<Key>& group : groups) {
    if (group.size() < 2) {
      continue;
    }
    const std::vector<CompiledOp>& head = filters_.at(group.front()).compiled.ops;
    size_t lcp = head.size();
    for (const Key key : group) {
      const std::vector<CompiledOp>& ops = filters_.at(key).compiled.ops;
      size_t match = 0;
      const size_t limit = std::min(lcp, ops.size());
      while (match < limit && ops[match] == head[match]) {
        ++match;
      }
      lcp = match;
    }
    if (lcp < 2) {
      continue;  // too short to be worth a cache slot
    }
    const int group_id = static_cast<int>(compiled_prefix_groups_++);
    for (const Key key : group) {
      Binding& binding = filters_.at(key);
      binding.prefix_group = group_id;
      binding.prefix_len = static_cast<uint32_t>(lcp);
    }
  }
  prefix_cache_.assign(compiled_prefix_groups_, PrefixCacheEntry{});
}

void Engine::RebuildTree() {
  std::vector<std::pair<uint32_t, std::vector<FieldTest>>> compiled;
  if (strategy_ == Strategy::kTree) {
    for (const auto& [key, binding] : filters_) {
      if (binding.conjunction.has_value()) {
        compiled.emplace_back(key, *binding.conjunction);
      }
    }
  }
  tree_.Build(std::move(compiled));
  tree_dirty_ = false;
}

Engine::MatchPass Engine::Match(std::span<const uint8_t> packet) {
  if (strategy_ == Strategy::kTree && tree_dirty_) {
    RebuildTree();
  }
  RefreshIndex();
  if (strategy_ == Strategy::kCompiled) {
    if (compiled_dirty_) {
      RebuildCompiledPrefixes();
    }
    // New pass: every prefix-cache entry with an older generation is stale.
    ++compiled_pass_gen_;
  }
  MatchPass pass(this, packet);
  if (tree_in_use()) {
    match_buffer_.clear();
    tree_.Match(packet, &match_buffer_, &pass.telemetry_.tree_probes);
    pass.tree_matches_ = &match_buffer_;
    if (profiling_) {
      profiled_tree_probes_ += pass.telemetry_.tree_probes;
    }
  }
  if (index_in_use()) {
    pass.index_active_ = true;
    if (packet.size() < index_min_packet_bytes_) {
      // A pruned filter could have reported kOutOfPacket on this packet;
      // run everything sequentially so statuses stay exact.
      pass.index_seq_fallback_ = true;
    } else {
      // Cannot fail: every indexed word fits in index_min_packet_bytes_.
      const auto it = index_buckets_.find(*HashIndexWords(packet));
      pass.telemetry_.index_probes += static_cast<uint32_t>(index_pairs_.size());
      pass.index_candidates_ = it == index_buckets_.end() ? nullptr : &it->second;
      if (profiling_) {
        profiled_index_probes_ += pass.telemetry_.index_probes;
      }
    }
  }
  return pass;
}

Verdict Engine::MatchPass::Test(Key key) { return Test(key, engine_->FindBinding(key)); }

Verdict Engine::MatchPass::Test(Key key, const Binding* binding) {
  if (binding == nullptr) {
    return Verdict{};  // nothing bound: never accepts
  }
  if (tree_matches_ != nullptr && binding->conjunction.has_value()) {
    // The walk already answered every conjunction filter at once.
    Verdict verdict;
    verdict.accept = std::find(tree_matches_->begin(), tree_matches_->end(), key) !=
                     tree_matches_->end();
    if (engine_->profiling_ && binding->profile != nullptr) {
      // Replay (uncharged) so per-pc hit counts match a sequential run.
      binding->profile->RecordExec(InterpretPredecoded(binding->decoded, packet_),
                                   /*charged=*/false);
    }
    return verdict;
  }
  if (index_active_ && binding->indexed && !index_seq_fallback_) {
    const bool candidate =
        index_candidates_ != nullptr &&
        std::find(index_candidates_->begin(), index_candidates_->end(), key) !=
            index_candidates_->end();
    if (!candidate) {
      // Some discriminating test mismatched, and the packet is long enough
      // that the program itself would have rejected cleanly: exact prune.
      if (engine_->profiling_ && binding->profile != nullptr) {
        binding->profile->RecordExec(InterpretPredecoded(binding->decoded, packet_),
                                     /*charged=*/false);
      }
      return Verdict{};
    }
    // Bucket hit: fall through and re-confirm with the filter itself.
  }
  ++telemetry_.filters_run;
  ExecResult exec;
  switch (engine_->strategy_) {
    case Strategy::kChecked:
      exec = InterpretChecked(binding->program.program(), packet_);
      break;
    case Strategy::kPredecoded:
    case Strategy::kIndexed:  // re-confirmation / sequential fallback
      exec = InterpretPredecoded(binding->decoded, packet_);
      ++telemetry_.decode_cache_hits;
      break;
    case Strategy::kFast:
    case Strategy::kTree:  // non-conjunction fallback within a tree pass
      exec = InterpretFast(binding->program, packet_);
      break;
    case Strategy::kCompiled: {
      const CompiledProgram& compiled = binding->compiled;
      if (packet_.size() < compiled.min_packet_bytes) {
        // Below the hoisted guard the fused path would skip the bounds
        // checks a sequential run performs; the pre-decoded interpreter
        // keeps kOutOfPacket statuses (and their pcs) exact.
        exec = InterpretPredecoded(binding->decoded, packet_);
        ++telemetry_.decode_cache_hits;
        break;
      }
      uint32_t fused = 0;
      if (binding->prefix_group >= 0) {
        PrefixCacheEntry& entry =
            engine_->prefix_cache_[static_cast<size_t>(binding->prefix_group)];
        if (entry.gen != engine_->compiled_pass_gen_) {
          entry.gen = engine_->compiled_pass_gen_;
          entry.cursor = CompiledCursor{};
          const std::optional<ExecResult> exit = ExecCompiledPrefix(
              compiled, packet_, binding->prefix_len, &entry.cursor, &fused);
          entry.exited = exit.has_value();
          if (entry.exited) {
            entry.exit = *exit;
          }
        }
        if (entry.exited) {
          // The shared prefix itself produced the verdict; every member of
          // the group reports the identical ExecResult, so charging stays
          // exact even though only the first member executed it.
          exec = entry.exit;
        } else {
          exec = ExecCompiledFrom(compiled, packet_, binding->prefix_len, entry.cursor,
                                  &fused);
        }
      } else {
        exec = ExecCompiled(compiled, packet_, &fused);
      }
      telemetry_.fused_ops += fused;
      break;
    }
  }
  telemetry_.insns_executed += exec.insns_executed;
  if (engine_->profiling_ && binding->profile != nullptr) {
    binding->profile->RecordExec(exec, /*charged=*/true);
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

// pf::Engine tests: strategy selection, bind-time pre-decoding, per-pass
// telemetry, lazy evaluation, the kIndexed hash dispatch index — and the
// cross-strategy parity property: randomized programs (conjunction-shaped
// and not) against randomized packets must produce identical verdicts and
// statuses under all three strategies — and the patched-vs-rebuilt
// property: an engine reconfigured in place must match a twin built from
// scratch after every step.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "src/pf/builder.h"
#include "src/pf/engine.h"
#include "src/util/rng.h"
#include "tests/test_packets.h"

namespace {

using pf::BinaryOp;
using pf::Engine;
using pf::ExecStatus;
using pf::FilterBuilder;
using pf::LangVersion;
using pf::PredecodedInsn;
using pf::Program;
using pf::StackAction;
using pf::Strategy;
using pf::ValidatedProgram;
using pf::Verdict;

constexpr Engine::Key kKey = 1;

// --- Pre-decode unit tests ---

TEST(PredecodeTest, FoldsLiteralsAndConstants) {
  FilterBuilder b;
  b.PushWord(8).Lit(BinaryOp::kCand, 35).PushWord(3).ConstOp(StackAction::kPush00FF,
                                                             BinaryOp::kAnd);
  const auto validated = ValidatedProgram::Create(b.Build(10));
  ASSERT_TRUE(validated.has_value());
  const auto decoded = pf::Predecode(*validated);
  // 4 instructions; the PUSHLIT literal word is folded, not a fifth entry.
  ASSERT_EQ(decoded.size(), 4u);
  EXPECT_EQ(decoded[0].fetch, PredecodedInsn::Fetch::kWord);
  EXPECT_EQ(decoded[0].word_index, 8);
  EXPECT_EQ(decoded[0].op, BinaryOp::kNop);
  EXPECT_EQ(decoded[1].fetch, PredecodedInsn::Fetch::kImm);
  EXPECT_EQ(decoded[1].imm, 35);
  EXPECT_EQ(decoded[1].op, BinaryOp::kCand);
  EXPECT_EQ(decoded[3].fetch, PredecodedInsn::Fetch::kImm);
  EXPECT_EQ(decoded[3].imm, 0x00ff);
  EXPECT_EQ(decoded[3].op, BinaryOp::kAnd);
}

TEST(PredecodeTest, InterpretPredecodedMatchesChecked) {
  const auto packet = pftest::MakePupFrame(50, 35);
  for (const Program& program : {pf::PaperFig38Filter(), pf::PaperFig39Filter()}) {
    const auto validated = ValidatedProgram::Create(program);
    ASSERT_TRUE(validated.has_value());
    const pf::ExecResult checked = pf::InterpretChecked(program, packet);
    const pf::ExecResult pre = pf::InterpretPredecoded(pf::Predecode(*validated), packet);
    EXPECT_EQ(pre.accept, checked.accept);
    EXPECT_EQ(pre.status, checked.status);
    EXPECT_EQ(pre.insns_executed, checked.insns_executed);
    EXPECT_EQ(pre.short_circuited, checked.short_circuited);
  }
}

TEST(PredecodeTest, EmptyProgramAcceptsEverything) {
  const pf::ExecResult r = pf::InterpretPredecoded({}, pftest::MakePupFrame(8, 35));
  EXPECT_TRUE(r.accept);
  EXPECT_EQ(r.insns_executed, 0u);
}

// --- Engine filter-set management ---

TEST(EngineTest, BindFindUnbind) {
  Engine engine;
  EXPECT_EQ(engine.bound_count(), 0u);
  EXPECT_EQ(engine.Find(kKey), nullptr);
  engine.Bind(kKey, *ValidatedProgram::Create(pf::PaperFig39Filter(42)));
  ASSERT_NE(engine.Find(kKey), nullptr);
  EXPECT_EQ(engine.Find(kKey)->priority(), 42);
  EXPECT_EQ(engine.bound_count(), 1u);
  // Rebinding replaces.
  engine.Bind(kKey, *ValidatedProgram::Create(pf::PaperFig39Filter(7)));
  EXPECT_EQ(engine.bound_count(), 1u);
  EXPECT_EQ(engine.Find(kKey)->priority(), 7);
  EXPECT_TRUE(engine.Unbind(kKey));
  EXPECT_FALSE(engine.Unbind(kKey));
  EXPECT_EQ(engine.bound_count(), 0u);
}

TEST(EngineTest, UnboundKeyRejects) {
  Engine engine;
  const auto packet = pftest::MakePupFrame(8, 35);
  Engine::MatchPass pass = engine.Match(packet);
  const Verdict verdict = pass.Test(99);
  EXPECT_FALSE(verdict.accept);
  EXPECT_EQ(pass.telemetry().filters_run, 0u);
}

TEST(EngineTest, LazyEvaluationSkipsUntestedFilters) {
  Engine engine(Strategy::kFast);
  engine.Bind(1, *ValidatedProgram::Create(pf::PaperFig39Filter()));
  engine.Bind(2, *ValidatedProgram::Create(pf::PaperFig39Filter()));
  engine.Bind(3, *ValidatedProgram::Create(pf::PaperFig39Filter()));
  const auto packet = pftest::MakePupFrame(8, 35);
  Engine::MatchPass pass = engine.Match(packet);
  EXPECT_TRUE(pass.Test(1).accept);
  // Only the filter actually asked about was run.
  EXPECT_EQ(pass.telemetry().filters_run, 1u);
}

TEST(EngineTest, EveryStrategyRunsANonConjunctionOnce) {
  // Fig. 3-8 tests ranges, so the index does not cover it:
  // every strategy interprets it exactly once, doing kChecked's work.
  const auto packet = pftest::MakePupFrame(50, 35);
  const uint32_t checked_insns =
      pf::InterpretChecked(pf::PaperFig38Filter(), packet).insns_executed;
  for (const Strategy strategy : pf::kAllStrategies) {
    Engine engine(strategy);
    engine.Bind(kKey, *ValidatedProgram::Create(pf::PaperFig38Filter()));
    pf::ExecTelemetry telemetry;
    EXPECT_TRUE(engine.RunOne(kKey, packet, &telemetry).accept) << pf::ToString(strategy);
    EXPECT_EQ(telemetry.filters_run, 1u) << pf::ToString(strategy);
    EXPECT_EQ(telemetry.insns_executed, checked_insns) << pf::ToString(strategy);
    EXPECT_EQ(telemetry.index_probes, 0u) << pf::ToString(strategy);
  }
}

// --- kIndexed hash dispatch index ---

Program SocketConjunction(uint32_t socket, uint8_t priority = 10) {
  FilterBuilder b;
  b.WordEqualsShortCircuit(pfproto::kWordDstSocketLow, static_cast<uint16_t>(socket & 0xffff))
      .WordEqualsShortCircuit(pfproto::kWordDstSocketHigh, static_cast<uint16_t>(socket >> 16))
      .WordEquals(pfproto::kWordEtherType, pfproto::kEtherTypePup);
  return b.Build(priority);
}

TEST(EngineIndexTest, BuildsOverSharedDiscriminatingPairs) {
  Engine engine(Strategy::kIndexed);
  for (Engine::Key key = 1; key <= 8; ++key) {
    engine.Bind(key, *ValidatedProgram::Create(SocketConjunction(key)));
  }
  // Match rebuilds the index lazily; any packet will do.
  (void)engine.Match(pftest::MakePupFrame(50, 5));
  EXPECT_TRUE(engine.index_in_use());
  EXPECT_EQ(engine.index_width(), 3u);   // socket-low, socket-high, ether type
  EXPECT_EQ(engine.index_entries(), 8u); // every filter dispatches via the index
}

TEST(EngineIndexTest, PrunesNonMatchingFiltersWithoutRunningThem) {
  Engine engine(Strategy::kIndexed);
  for (Engine::Key key = 1; key <= 8; ++key) {
    engine.Bind(key, *ValidatedProgram::Create(SocketConjunction(key)));
  }
  const auto packet = pftest::MakePupFrame(50, 5);
  Engine::MatchPass pass = engine.Match(packet);
  for (Engine::Key key = 1; key <= 8; ++key) {
    EXPECT_EQ(pass.Test(key).accept, key == 5u) << "key " << key;
  }
  // Three index probes answered seven filters; only the candidate ran.
  EXPECT_EQ(pass.telemetry().index_probes, 3u);
  EXPECT_EQ(pass.telemetry().filters_run, 1u);
}

TEST(EngineIndexTest, ShortPacketFallsBackToSequentialExactness) {
  Engine engine(Strategy::kIndexed);
  for (Engine::Key key = 1; key <= 4; ++key) {
    engine.Bind(key, *ValidatedProgram::Create(SocketConjunction(key)));
  }
  // 4 bytes: too short to load the socket words — every filter must run
  // sequentially so kOutOfPacket statuses match kChecked exactly.
  const std::vector<uint8_t> runt = {1, 2, 3, 4};
  Engine::MatchPass pass = engine.Match(runt);
  for (Engine::Key key = 1; key <= 4; ++key) {
    const Verdict verdict = pass.Test(key);
    EXPECT_FALSE(verdict.accept);
    EXPECT_EQ(verdict.status, ExecStatus::kOutOfPacket);
  }
  EXPECT_EQ(pass.telemetry().index_probes, 0u);
  EXPECT_EQ(pass.telemetry().filters_run, 4u);
}

TEST(EngineIndexTest, NonConjunctionFiltersFallBackButConjunctionsStayIndexed) {
  Engine engine(Strategy::kIndexed);
  engine.Bind(1, *ValidatedProgram::Create(pf::PaperFig38Filter()));  // ranges: not indexable
  engine.Bind(2, *ValidatedProgram::Create(SocketConjunction(35)));
  engine.Bind(3, *ValidatedProgram::Create(SocketConjunction(36)));
  const auto packet = pftest::MakePupFrame(50, 35);
  Engine::MatchPass pass = engine.Match(packet);
  EXPECT_TRUE(engine.index_in_use());
  // The two conjunctions dispatch through the index; the fig. 3-8 filter
  // (ranges) is not a conjunction, so it stays off it and runs every time.
  EXPECT_EQ(engine.index_width(), 3u);
  EXPECT_EQ(engine.index_entries(), 2u);

  EXPECT_TRUE(pass.Test(1).accept);   // fig. 3-8 accepts this frame (ran sequentially)
  EXPECT_TRUE(pass.Test(2).accept);   // bucket hit, re-confirmed
  EXPECT_FALSE(pass.Test(3).accept);  // pruned
  EXPECT_EQ(pass.telemetry().filters_run, 2u);
}

// An accept-all filter (the empty conjunction) tests no word, so it has no
// bucket: it stays a candidate on every packet, beside the indexed filters.
TEST(EngineIndexTest, MatchAllFilterStaysACandidate) {
  Engine engine(Strategy::kIndexed);
  engine.Bind(1, *ValidatedProgram::Create(Program{}));
  engine.Bind(2, *ValidatedProgram::Create(SocketConjunction(35)));
  const auto packet = pftest::MakePupFrame(50, 36);  // misses the socket filter
  Engine::MatchPass pass = engine.Match(packet);
  EXPECT_TRUE(engine.index_in_use());
  EXPECT_EQ(engine.index_entries(), 1u);
  EXPECT_EQ(pass.candidates().size(), 1u);
  EXPECT_TRUE(pass.Test(1).accept);
  EXPECT_FALSE(pass.Test(2).accept);
  EXPECT_EQ(pass.telemetry().filters_run, 1u);  // only the accept-all ran
}

TEST(EngineIndexTest, StrategySwitchRebuildsIndex) {
  Engine engine(Strategy::kFast);
  engine.Bind(kKey, *ValidatedProgram::Create(pf::PaperFig39Filter()));
  (void)engine.Match(pftest::MakePupFrame(8, 35));
  EXPECT_FALSE(engine.index_in_use());
  engine.set_strategy(Strategy::kIndexed);
  (void)engine.Match(pftest::MakePupFrame(8, 35));
  EXPECT_TRUE(engine.index_in_use());
  engine.set_strategy(Strategy::kFast);
  EXPECT_FALSE(engine.index_in_use());
}

TEST(EngineIndexTest, BindingHandleSkipsTheMapLookup) {
  Engine engine(Strategy::kIndexed);
  engine.Bind(1, *ValidatedProgram::Create(SocketConjunction(35)));
  const Engine::Binding* binding = engine.FindBinding(1);
  ASSERT_NE(binding, nullptr);
  // Re-binding the same key keeps the handle valid (node stability).
  engine.Bind(1, *ValidatedProgram::Create(SocketConjunction(36)));
  EXPECT_EQ(engine.FindBinding(1), binding);
  const auto packet = pftest::MakePupFrame(50, 36);
  Engine::MatchPass pass = engine.Match(packet);
  EXPECT_TRUE(pass.Test(1, binding).accept);
}

// --- Cross-backend parity property ---

// A guaranteed-valid random program: a random walk over the instruction set
// that tracks stack depth. Not conjunction-shaped in general (ranges, ORs,
// arithmetic, indirect pushes all appear).
Program RandomWalkProgram(pfutil::Rng* rng) {
  const bool v2 = rng->Chance(0.3);
  FilterBuilder b(v2 ? LangVersion::kV2 : LangVersion::kV1);
  uint32_t depth = 0;
  const int steps = static_cast<int>(rng->Range(1, 10));
  for (int i = 0; i < steps; ++i) {
    // Pick a stack action (always push something when empty so ops and the
    // final verdict have operands; keep clear of the depth limit).
    StackAction action = StackAction::kPushWord;
    switch (rng->Below(6)) {
      case 0:
        action = StackAction::kPushLit;
        break;
      case 1:
        action = StackAction::kPushZero;
        break;
      case 2:
        action = StackAction::kPushOne;
        break;
      case 3:
        action = v2 && depth >= 1 ? StackAction::kPushInd : StackAction::kPushWord;
        break;
      default:
        action = StackAction::kPushWord;
        break;
    }
    const uint8_t word_index = static_cast<uint8_t>(rng->Below(16));  // may be out of packet
    const uint16_t literal = static_cast<uint16_t>(rng->Below(6));    // small: collisions likely
    if (action != StackAction::kPushInd) {
      ++depth;  // every action except PUSHIND pushes a new word
    }

    // Optionally attach a binary operator when two operands are available.
    BinaryOp op = BinaryOp::kNop;
    if (depth >= 2 && rng->Chance(0.7)) {
      static constexpr BinaryOp kV1Ops[] = {
          BinaryOp::kEq,  BinaryOp::kNeq, BinaryOp::kLt,   BinaryOp::kLe,
          BinaryOp::kGt,  BinaryOp::kGe,  BinaryOp::kAnd,  BinaryOp::kOr,
          BinaryOp::kXor, BinaryOp::kCor, BinaryOp::kCand, BinaryOp::kCnor,
          BinaryOp::kCnand};
      static constexpr BinaryOp kV2Ops[] = {BinaryOp::kAdd, BinaryOp::kSub, BinaryOp::kMul,
                                            BinaryOp::kDiv, BinaryOp::kMod, BinaryOp::kLsh,
                                            BinaryOp::kRsh};
      if (v2 && rng->Chance(0.35)) {
        op = kV2Ops[rng->Below(std::size(kV2Ops))];
      } else {
        op = kV1Ops[rng->Below(std::size(kV1Ops))];
      }
      --depth;
    }

    if (action == StackAction::kPushLit) {
      b.Lit(op, literal);
    } else {
      b.Stmt(action, op, word_index);
    }
  }
  if (depth == 0) {
    b.PushOne();  // leave a verdict on the stack
  }
  return b.Build(static_cast<uint8_t>(rng->Below(4)));
}

// A random canonical conjunction (the indexable shape).
Program RandomConjunction(pfutil::Rng* rng) {
  FilterBuilder b;
  const int tests = static_cast<int>(rng->Range(1, 3));
  for (int i = 0; i < tests; ++i) {
    const uint8_t word = static_cast<uint8_t>(rng->Range(1, 10));
    const uint16_t value = static_cast<uint16_t>(rng->Below(4));
    const bool last = i == tests - 1;
    if (rng->Chance(0.3)) {
      const uint16_t mask = rng->Chance(0.5) ? 0x00ff : 0xff00;
      if (last) {
        b.MaskedWordEquals(word, mask, value);
      } else {
        b.MaskedWordEqualsShortCircuit(word, mask, value);
      }
    } else if (last) {
      b.WordEquals(word, value);
    } else {
      b.WordEqualsShortCircuit(word, value);
    }
  }
  return b.Build(static_cast<uint8_t>(rng->Below(4)));
}

TEST(EngineParityProperty, AllStrategiesAgreeOnRandomPrograms) {
  pfutil::Rng rng(0xe2617e);
  int conjunctions = 0;
  int errors_seen = 0;
  int pruned = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const Program program = rng.Chance(0.5) ? RandomConjunction(&rng) : RandomWalkProgram(&rng);
    const auto validated = ValidatedProgram::Create(program);
    ASSERT_TRUE(validated.has_value()) << "trial " << trial;
    const bool conjunction_shaped = pf::ExtractConjunction(program).has_value();
    conjunctions += conjunction_shaped ? 1 : 0;

    for (int p = 0; p < 8; ++p) {
      // Random packets, sometimes tiny so word references fall outside.
      std::vector<uint8_t> packet;
      const size_t bytes = rng.Below(2) == 0 ? rng.Below(6) : rng.Range(8, 28);
      for (size_t i = 0; i < bytes; ++i) {
        packet.push_back(static_cast<uint8_t>(rng.Below(6)));
      }

      Verdict verdicts[std::size(pf::kAllStrategies)];
      pf::ExecTelemetry telemetry[std::size(pf::kAllStrategies)];
      for (size_t s = 0; s < std::size(pf::kAllStrategies); ++s) {
        Engine engine(pf::kAllStrategies[s]);
        engine.Bind(kKey, *validated);
        verdicts[s] = engine.RunOne(kKey, packet, &telemetry[s]);
      }
      const Verdict& checked = verdicts[0];
      errors_seen += checked.status != ExecStatus::kOk ? 1 : 0;
      for (size_t s = 1; s < std::size(pf::kAllStrategies); ++s) {
        const Strategy strategy = pf::kAllStrategies[s];
        SCOPED_TRACE("trial " + std::to_string(trial) + " packet " + std::to_string(p) +
                     " strategy " + pf::ToString(strategy));
        // Every strategy reports kChecked's exact accept and status: kIndexed
        // sends packets too short for its words down the sequential path.
        EXPECT_EQ(verdicts[s].accept, checked.accept);
        EXPECT_EQ(verdicts[s].status, checked.status);
        // Work matches wherever the filter ran. Only kIndexed may prune, only
        // a conjunction, and a pruned filter is a clean reject.
        if (telemetry[s].filters_run == 1) {
          EXPECT_EQ(telemetry[s].insns_executed, telemetry[0].insns_executed);
        } else {
          ++pruned;
          EXPECT_EQ(strategy, Strategy::kIndexed);
          EXPECT_TRUE(conjunction_shaped);
          EXPECT_EQ(telemetry[s].insns_executed, 0u);
          EXPECT_FALSE(checked.accept);
          EXPECT_EQ(checked.status, ExecStatus::kOk);
        }
      }
    }
  }
  // The generator must exercise both sides of the conjunction split, the
  // error paths and the prune, or the property is vacuous.
  EXPECT_GT(conjunctions, 50);
  EXPECT_LT(conjunctions, 350);
  EXPECT_GT(errors_seen, 0);
  EXPECT_GT(pruned, 0);
}

// The tentpole's correctness property: with a whole *set* of filters bound
// (the situation the index exists for), kIndexed must agree with kChecked
// on every filter's accept AND status for every packet — including
// non-conjunction fallbacks, error-rejecting programs, and runt packets.
TEST(EngineParityProperty, IndexedMatchesCheckedOnRandomFilterSets) {
  pfutil::Rng rng(0x1d3a7);
  int pruned_passes = 0;
  int errors_seen = 0;
  for (int trial = 0; trial < 60; ++trial) {
    Engine checked(Strategy::kChecked);
    Engine indexed(Strategy::kIndexed);
    const size_t filters = rng.Range(2, 12);
    for (Engine::Key key = 1; key <= filters; ++key) {
      const Program program =
          rng.Chance(0.7) ? RandomConjunction(&rng) : RandomWalkProgram(&rng);
      const auto validated = ValidatedProgram::Create(program);
      ASSERT_TRUE(validated.has_value());
      checked.Bind(key, *validated);
      indexed.Bind(key, *validated);
    }
    for (int p = 0; p < 6; ++p) {
      std::vector<uint8_t> packet;
      const size_t bytes = rng.Below(2) == 0 ? rng.Below(6) : rng.Range(8, 28);
      for (size_t i = 0; i < bytes; ++i) {
        packet.push_back(static_cast<uint8_t>(rng.Below(6)));
      }
      Engine::MatchPass checked_pass = checked.Match(packet);
      Engine::MatchPass indexed_pass = indexed.Match(packet);
      for (Engine::Key key = 1; key <= filters; ++key) {
        const Verdict want = checked_pass.Test(key);
        const Verdict got = indexed_pass.Test(key);
        EXPECT_EQ(got.accept, want.accept) << "trial " << trial << " key " << key;
        EXPECT_EQ(got.status, want.status) << "trial " << trial << " key " << key;
        errors_seen += want.status != ExecStatus::kOk ? 1 : 0;
      }
      // Pruning must actually happen somewhere, or the test is vacuous.
      if (indexed_pass.telemetry().filters_run < checked_pass.telemetry().filters_run) {
        ++pruned_passes;
      }
    }
  }
  EXPECT_GT(pruned_passes, 0);
  EXPECT_GT(errors_seen, 0);
}

// --- Patched-vs-rebuilt property ---

// The (word, mask) shapes the property draws conjunctions from. A, C and
// the accept-all share pairs; C tests A's pairs in another order (a change
// of shape that keeps the pair set); B drops one pair and D tests only a
// pair nobody else does.
constexpr pf::FieldTestKey kShapeA[] = {{1, 0xffff}, {2, 0xffff}, {3, 0x00ff}};
constexpr pf::FieldTestKey kShapeB[] = {{1, 0xffff}, {2, 0xffff}};
constexpr pf::FieldTestKey kShapeC[] = {{2, 0xffff}, {1, 0xffff}, {3, 0x00ff}};
constexpr pf::FieldTestKey kShapeD[] = {{4, 0xffff}};
constexpr std::span<const pf::FieldTestKey> kShapes[] = {kShapeA, kShapeB, kShapeC, kShapeD};

// A conjunction over `shape` with values drawn from {0, 1, 2}, so many
// keys share a bucket.
Program ShapedConjunction(std::span<const pf::FieldTestKey> shape, pfutil::Rng* rng) {
  FilterBuilder b;
  for (size_t i = 0; i < shape.size(); ++i) {
    const auto value = static_cast<uint16_t>(rng->Below(3));
    const bool last = i + 1 == shape.size();
    if (shape[i].mask != 0xffff) {
      last ? b.MaskedWordEquals(shape[i].word, shape[i].mask, value)
           : b.MaskedWordEqualsShortCircuit(shape[i].word, shape[i].mask, value);
    } else {
      last ? b.WordEquals(shape[i].word, value) : b.WordEqualsShortCircuit(shape[i].word, value);
    }
  }
  return b.Build(static_cast<uint8_t>(rng->Below(4)));
}

// Shape A 13 times in 20; B, C, D once each; a non-conjunction three times;
// an accept-all once.
Program ShapedProgram(pfutil::Rng* rng, size_t* shape) {
  const uint64_t pick = rng->Below(20);
  if (pick < 16) {
    *shape = pick < std::size(kShapes) ? pick : 0;
  } else if (pick < 19) {
    *shape = std::size(kShapes);  // non-conjunction
    return RandomWalkProgram(rng);
  } else {
    *shape = std::size(kShapes) + 1;  // accept-all
    return Program{static_cast<uint8_t>(rng->Below(4)), LangVersion::kV1, {}};
  }
  return ShapedConjunction(kShapes[*shape], rng);
}

// Packets over the same small value set, some shorter than the index's
// words.
std::vector<std::vector<uint8_t>> ShapedPacketPool(pfutil::Rng* rng) {
  std::vector<std::vector<uint8_t>> pool;
  for (int i = 0; i < 24; ++i) {
    const size_t bytes = i < 4 ? rng->Below(8) : rng->Range(8, 12);
    std::vector<uint8_t> packet(bytes);
    for (size_t b = 0; b < bytes; ++b) {
      packet[b] = b % 2 == 0 ? 0 : static_cast<uint8_t>(rng->Below(3));  // big-endian words 0..2
    }
    pool.push_back(std::move(packet));
  }
  return pool;
}

class PatchedEngine {
 public:
  explicit PatchedEngine(uint64_t seed) : rng_(seed), pool_(ShapedPacketPool(&rng_)) {
    engine_.set_strategy(Strategy::kIndexed);
    const uint64_t keys = rng_.Range(1, 48);
    for (uint64_t k = 0; k < keys; ++k) {
      BindNew();
    }
    engine_.SetOrder(order_);
  }

  void Step() {
    const uint64_t op = rng_.Below(16);
    SCOPED_TRACE("op " + std::to_string(op));
    const Engine::Key key = order_.empty() ? 0 : order_[rng_.Below(order_.size())];
    switch (op) {
      case 0:
      case 1:
        if (key != 0) {  // re-Bind keeping the bucket: same tests, new priority
          Program program = programs_.at(key).first;
          program.priority = static_cast<uint8_t>(rng_.Below(4));
          Rebind(key, program, programs_.at(key).second);
        }
        break;
      case 2:
      case 3:
      case 4:
        if (key != 0 && programs_.at(key).second < std::size(kShapes)) {
          // Same shape, fresh values: the bucket may move.
          const size_t shape = programs_.at(key).second;
          Rebind(key, ShapedConjunction(kShapes[shape], &rng_), shape);
        }
        break;
      case 5:
        if (key != 0) {  // a new shape, maybe a non-conjunction
          size_t shape = 0;
          const Program program = ShapedProgram(&rng_, &shape);
          Rebind(key, program, shape);
        }
        break;
      case 6:
      case 7:
      case 8:
        if (order_.size() > 1) {  // one key moves
          const size_t from = rng_.Below(order_.size());
          const Engine::Key moved = order_[from];
          order_.erase(order_.begin() + static_cast<ptrdiff_t>(from));
          order_.insert(order_.begin() + static_cast<ptrdiff_t>(rng_.Below(order_.size() + 1)),
                        moved);
          engine_.SetOrder(order_);
        }
        break;
      case 9:
        for (size_t i = order_.size(); i > 1; --i) {  // an arbitrary permutation
          std::swap(order_[i - 1], order_[rng_.Below(i)]);
        }
        engine_.SetOrder(order_);
        break;
      case 10:
        if (!order_.empty() && rng_.Chance(0.5)) {  // a sub-range reversed
          const size_t a = rng_.Below(order_.size());
          const size_t b = rng_.Below(order_.size());
          std::reverse(order_.begin() + static_cast<ptrdiff_t>(std::min(a, b)),
                       order_.begin() + static_cast<ptrdiff_t>(std::max(a, b) + 1));
        }
        engine_.SetOrder(order_);  // sometimes unchanged
        break;
      case 11:
        if (key != 0) {
          ASSERT_TRUE(engine_.Unbind(key));
          programs_.erase(key);
          order_.erase(std::find(order_.begin(), order_.end(), key));
          SetOrderOrKeyOrder();
        }
        break;
      case 12:
        if (order_.size() < 64) {
          BindNew();
          SetOrderOrKeyOrder();
        }
        break;
      case 13:
        engine_.set_strategy(pf::kAllStrategies[rng_.Below(pf::kStrategyCount)]);
        break;
      default:
        break;  // compare only
    }
    Compare();
  }

 private:
  void BindNew() {
    const Engine::Key key = next_key_++;
    size_t shape = 0;
    Program program = ShapedProgram(&rng_, &shape);
    engine_.Bind(key, *ValidatedProgram::Create(program));
    programs_.insert_or_assign(key, std::make_pair(std::move(program), shape));
    order_.insert(order_.begin() + static_cast<ptrdiff_t>(rng_.Below(order_.size() + 1)), key);
  }

  void Rebind(Engine::Key key, const Program& program, size_t shape) {
    engine_.Bind(key, *ValidatedProgram::Create(program));
    programs_.insert_or_assign(key, std::make_pair(program, shape));
  }

  // After a key-set change: hand over the new order, or leave the engine
  // to rank by key until the next pass.
  void SetOrderOrKeyOrder() {
    if (rng_.Chance(0.7)) {
      engine_.SetOrder(order_);
    } else {
      std::sort(order_.begin(), order_.end());
    }
  }

  void Compare() {
    Engine twin(engine_.strategy());
    for (const Engine::Key key : order_) {
      twin.Bind(key, *ValidatedProgram::Create(programs_.at(key).first));
    }
    twin.SetOrder(order_);
    for (const std::vector<uint8_t>& packet : pool_) {
      SCOPED_TRACE("packet of " + std::to_string(packet.size()) + " bytes");
      Engine::MatchPass got = engine_.Match(packet);
      Engine::MatchPass want = twin.Match(packet);
      const std::vector<uint32_t> got_candidates(got.candidates().begin(),
                                                 got.candidates().end());
      const std::vector<uint32_t> want_candidates(want.candidates().begin(),
                                                  want.candidates().end());
      ASSERT_EQ(got_candidates, want_candidates);
      for (uint32_t rank = 0; rank < order_.size(); ++rank) {
        ASSERT_EQ(engine_.BindingAt(rank), engine_.FindBinding(order_[rank])) << "rank " << rank;
        const Verdict g = got.Test(order_[rank]);
        const Verdict w = want.Test(order_[rank]);
        ASSERT_EQ(g.accept, w.accept) << "rank " << rank;
        ASSERT_EQ(g.status, w.status) << "rank " << rank;
      }
      ASSERT_EQ(got.telemetry().filters_run, want.telemetry().filters_run);
      ASSERT_EQ(got.telemetry().index_probes, want.telemetry().index_probes);
    }
    ASSERT_EQ(engine_.index_width(), twin.index_width());
    ASSERT_EQ(engine_.index_entries(), twin.index_entries());
  }

  pfutil::Rng rng_;
  std::vector<std::vector<uint8_t>> pool_;
  Engine engine_;
  Engine::Key next_key_ = 1;
  std::vector<Engine::Key> order_;
  // key -> (program, index into kShapes; past the end: not a shaped conjunction)
  std::map<Engine::Key, std::pair<Program, size_t>> programs_;
};

// Re-Binds, order changes, key-set changes and strategy flips patch the
// priority order and the index in place; after every step the result must
// be indistinguishable from a twin built from scratch in the same order.
TEST(EnginePatchProperty, PatchedMatchesRebuiltUnderRandomReconfiguration) {
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    PatchedEngine engine(seed);
    for (int step = 0; step < 150; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      engine.Step();
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
    }
  }
}

}  // namespace

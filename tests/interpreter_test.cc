// Interpreter tests: every operator, the paper's example filters against
// fig. 3-7 packets, short-circuit semantics, error handling, and the
// agreement property between the checked interpreter and the pre-decoded
// one kFast runs.
#include <gtest/gtest.h>

#include <type_traits>

#include "src/pf/builder.h"
#include "src/pf/engine.h"
#include "src/pf/interpreter.h"
#include "src/util/rng.h"
#include "tests/test_packets.h"

namespace {

using pf::BinaryOp;
using pf::ExecResult;
using pf::ExecStatus;
using pf::FilterBuilder;
using pf::LangVersion;
using pf::Program;
using pf::StackAction;

ExecResult RunBoth(const Program& program, std::span<const uint8_t> packet) {
  const ExecResult checked = pf::InterpretChecked(program, packet);
  const auto validated = pf::ValidatedProgram::Create(program);
  if (validated.has_value()) {
    const ExecResult fast = pf::InterpretPredecoded(pf::Predecode(*validated), packet);
    EXPECT_EQ(fast.accept, checked.accept);
    EXPECT_EQ(fast.status, checked.status);
    EXPECT_EQ(fast.insns_executed, checked.insns_executed);
    EXPECT_EQ(fast.short_circuited, checked.short_circuited);
  }
  return checked;
}

// Packet whose word n has value 0x0100 + n (distinct, predictable words).
std::vector<uint8_t> IndexedPacket(size_t words = 16) {
  std::vector<uint8_t> packet;
  for (size_t i = 0; i < words; ++i) {
    packet.push_back(1);
    packet.push_back(static_cast<uint8_t>(i));
  }
  return packet;
}

TEST(InterpreterTest, EmptyFilterAcceptsEverything) {
  const ExecResult r = RunBoth(Program{}, IndexedPacket());
  EXPECT_TRUE(r.accept);
  EXPECT_EQ(r.insns_executed, 0u);
}

TEST(InterpreterTest, PaperFig38AcceptsPupInRange) {
  // Fig. 3-8: EtherType == 2 and 0 < PupType <= 100.
  const Program filter = pf::PaperFig38Filter();
  EXPECT_TRUE(RunBoth(filter, pftest::MakePupFrame(50, 35)).accept);
  EXPECT_TRUE(RunBoth(filter, pftest::MakePupFrame(1, 35)).accept);
  EXPECT_TRUE(RunBoth(filter, pftest::MakePupFrame(100, 35)).accept);
  EXPECT_FALSE(RunBoth(filter, pftest::MakePupFrame(0, 35)).accept);
  EXPECT_FALSE(RunBoth(filter, pftest::MakePupFrame(101, 35)).accept);
  // Non-Pup EtherType.
  EXPECT_FALSE(RunBoth(filter, pftest::MakePupFrame(50, 35, 2, 1, 8, 0x0800)).accept);
}

TEST(InterpreterTest, PaperFig39AcceptsSocket35) {
  const Program filter = pf::PaperFig39Filter();
  const ExecResult hit = RunBoth(filter, pftest::MakePupFrame(8, 35));
  EXPECT_TRUE(hit.accept);
  EXPECT_FALSE(hit.short_circuited);  // all three tests ran
  EXPECT_EQ(hit.insns_executed, 6u);

  // Wrong socket: the CAND on the low word exits after 2 instructions —
  // the optimization the paper added the short-circuit operators for.
  const ExecResult miss = RunBoth(filter, pftest::MakePupFrame(8, 36));
  EXPECT_FALSE(miss.accept);
  EXPECT_TRUE(miss.short_circuited);
  EXPECT_EQ(miss.insns_executed, 2u);
}

struct OpCase {
  BinaryOp op;
  uint16_t t2;  // pushed first
  uint16_t t1;  // pushed second (top of stack)
  uint16_t expected;
};

class BinaryOpTest : public ::testing::TestWithParam<OpCase> {};

TEST_P(BinaryOpTest, ComputesExpectedResult) {
  const OpCase& c = GetParam();
  FilterBuilder b(LangVersion::kV2);
  b.PushLit(c.t2).PushLit(c.t1).Op(c.op);
  // Compare against 'expected', so acceptance == correctness. An expected
  // value of 0 must reject (top of stack zero).
  const ExecResult r = RunBoth(b.Build(0), IndexedPacket());
  EXPECT_EQ(r.status, ExecStatus::kOk);
  EXPECT_EQ(r.accept, c.expected != 0) << pf::ToString(c.op) << " " << c.t2 << "," << c.t1;
}

INSTANTIATE_TEST_SUITE_P(
    Comparisons, BinaryOpTest,
    ::testing::Values(OpCase{BinaryOp::kEq, 5, 5, 1}, OpCase{BinaryOp::kEq, 5, 6, 0},
                      OpCase{BinaryOp::kNeq, 5, 6, 1}, OpCase{BinaryOp::kNeq, 5, 5, 0},
                      OpCase{BinaryOp::kLt, 4, 5, 1}, OpCase{BinaryOp::kLt, 5, 5, 0},
                      OpCase{BinaryOp::kLt, 6, 5, 0}, OpCase{BinaryOp::kLe, 5, 5, 1},
                      OpCase{BinaryOp::kLe, 6, 5, 0}, OpCase{BinaryOp::kGt, 6, 5, 1},
                      OpCase{BinaryOp::kGt, 5, 5, 0}, OpCase{BinaryOp::kGe, 5, 5, 1},
                      OpCase{BinaryOp::kGe, 4, 5, 0},
                      // Comparisons are unsigned: 0x8000 > 1.
                      OpCase{BinaryOp::kGt, 0x8000, 1, 1}, OpCase{BinaryOp::kLt, 1, 0xffff, 1}));

INSTANTIATE_TEST_SUITE_P(
    Bitwise, BinaryOpTest,
    ::testing::Values(OpCase{BinaryOp::kAnd, 0x0ff0, 0x00ff, 0x00f0},
                      OpCase{BinaryOp::kAnd, 0x0f00, 0x00f0, 0},
                      OpCase{BinaryOp::kOr, 0x0f00, 0x00f0, 0x0ff0},
                      OpCase{BinaryOp::kOr, 0, 0, 0},
                      OpCase{BinaryOp::kXor, 0x00ff, 0x0ff0, 0x0f0f},
                      OpCase{BinaryOp::kXor, 0xaaaa, 0xaaaa, 0}));

INSTANTIATE_TEST_SUITE_P(
    ArithmeticV2, BinaryOpTest,
    ::testing::Values(OpCase{BinaryOp::kAdd, 3, 4, 7}, OpCase{BinaryOp::kAdd, 0xffff, 1, 0},
                      OpCase{BinaryOp::kSub, 10, 3, 7}, OpCase{BinaryOp::kSub, 3, 10, 0xfff9},
                      OpCase{BinaryOp::kMul, 6, 7, 42}, OpCase{BinaryOp::kMul, 0x100, 0x100, 0},
                      OpCase{BinaryOp::kDiv, 42, 6, 7}, OpCase{BinaryOp::kMod, 43, 6, 1},
                      OpCase{BinaryOp::kLsh, 1, 4, 16}, OpCase{BinaryOp::kRsh, 0x100, 4, 16},
                      OpCase{BinaryOp::kLsh, 1, 20, 16},  // shift counts mod 16
                      OpCase{BinaryOp::kRsh, 1, 1, 0}));

TEST(InterpreterTest, NopLeavesStackAlone) {
  FilterBuilder b;
  b.PushZero().PushOne();  // stack: 0, 1 -> top 1 -> accept
  EXPECT_TRUE(RunBoth(b.Build(0), IndexedPacket()).accept);
}

// --- Short-circuit semantics (fig. 3-6 table) ---

struct ShortCircuitCase {
  BinaryOp op;
  bool equal;            // whether T1 == T2
  bool exits;            // returns immediately?
  bool verdict_if_exit;  // value returned on exit
  // gtest names each case after the parameter's raw bytes, so this slot is a
  // member rather than padding: uninitialised padding gave the cases
  // different names from one build or run to the next. The values keep the
  // names the cases are listed under; the test never reads them.
  uint8_t name_byte;
  uint16_t pushed;  // value pushed when continuing
};
static_assert(sizeof(ShortCircuitCase) == 8 &&
                  std::has_unique_object_representations_v<ShortCircuitCase>,
              "every byte of a case's name must be a member");

class ShortCircuitTest : public ::testing::TestWithParam<ShortCircuitCase> {};

TEST_P(ShortCircuitTest, MatchesFig36Table) {
  const auto& c = GetParam();
  FilterBuilder b;
  b.PushLit(7).PushLit(c.equal ? 7 : 8).Op(c.op);
  if (!c.exits) {
    // Add a tail that would flip the verdict, proving we continued: XOR
    // with 1 inverts a 0/1 truth value.
    b.PushOne().Op(BinaryOp::kXor);
  }
  const ExecResult r = RunBoth(b.Build(0), IndexedPacket());
  EXPECT_EQ(r.status, ExecStatus::kOk);
  if (c.exits) {
    EXPECT_TRUE(r.short_circuited);
    EXPECT_EQ(r.accept, c.verdict_if_exit);
    EXPECT_EQ(r.insns_executed, 3u);
  } else {
    EXPECT_FALSE(r.short_circuited);
    EXPECT_EQ(r.accept, (c.pushed ^ 1) != 0);
    EXPECT_EQ(r.insns_executed, 5u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Fig36, ShortCircuitTest,
    ::testing::Values(
        // COR: returns TRUE immediately if equal, else pushes FALSE.
        ShortCircuitCase{BinaryOp::kCor, true, true, true, 0x00, 0},
        ShortCircuitCase{BinaryOp::kCor, false, false, false, 0x55, 0},
        // CAND: returns FALSE immediately if unequal, else pushes TRUE.
        ShortCircuitCase{BinaryOp::kCand, false, true, false, 0x55, 0},
        ShortCircuitCase{BinaryOp::kCand, true, false, false, 0x7F, 1},
        // CNOR: returns FALSE immediately if equal, else pushes FALSE.
        ShortCircuitCase{BinaryOp::kCnor, true, true, false, 0x7F, 0},
        ShortCircuitCase{BinaryOp::kCnor, false, false, false, 0x55, 0},
        // CNAND: returns TRUE immediately if unequal, else pushes TRUE.
        ShortCircuitCase{BinaryOp::kCnand, false, true, true, 0x7F, 0},
        ShortCircuitCase{BinaryOp::kCnand, true, false, false, 0x55, 1}));

// --- Errors ---

TEST(InterpreterTest, OutOfPacketReferenceRejects) {
  FilterBuilder b;
  b.PushWord(40).Lit(BinaryOp::kEq, 0);
  const std::vector<uint8_t> tiny = IndexedPacket(4);  // 8 bytes
  const ExecResult r = RunBoth(b.Build(0), tiny);
  EXPECT_FALSE(r.accept);
  EXPECT_EQ(r.status, ExecStatus::kOutOfPacket);
}

TEST(InterpreterTest, WordStraddlingPacketEndRejects) {
  FilterBuilder b;
  b.PushWord(2).Lit(BinaryOp::kEq, 0);
  const std::vector<uint8_t> five_bytes(5, 0);  // word 2 needs bytes 4..5
  EXPECT_EQ(RunBoth(b.Build(0), five_bytes).status, ExecStatus::kOutOfPacket);
}

TEST(InterpreterTest, CheckedCatchesUnderflow) {
  Program p;
  p.words = {pf::EncodeWord(BinaryOp::kAnd, StackAction::kNoPush)};
  const ExecResult r = pf::InterpretChecked(p, IndexedPacket());
  EXPECT_FALSE(r.accept);
  EXPECT_EQ(r.status, ExecStatus::kStackUnderflow);
}

TEST(InterpreterTest, CheckedCatchesOverflow) {
  Program p;
  p.words.assign(pf::kMaxStackDepth + 1, pf::EncodeWord(BinaryOp::kNop, StackAction::kPushOne));
  EXPECT_EQ(pf::InterpretChecked(p, IndexedPacket()).status, ExecStatus::kStackOverflow);
}

TEST(InterpreterTest, CheckedCatchesBadOpcode) {
  Program p;
  p.words = {static_cast<uint16_t>(777 << 6)};
  EXPECT_EQ(pf::InterpretChecked(p, IndexedPacket()).status, ExecStatus::kBadOpcode);
}

TEST(InterpreterTest, CheckedCatchesEmptyStackAtEnd) {
  Program p;
  p.words = {pf::EncodeWord(BinaryOp::kNop, StackAction::kNoPush)};
  EXPECT_EQ(pf::InterpretChecked(p, IndexedPacket()).status, ExecStatus::kEmptyStackAtEnd);
}

TEST(InterpreterTest, DivideByZeroRejects) {
  FilterBuilder b(LangVersion::kV2);
  b.PushLit(10).PushZero().Op(BinaryOp::kDiv);
  const ExecResult r = RunBoth(b.Build(0), IndexedPacket());
  EXPECT_EQ(r.status, ExecStatus::kDivideByZero);
  EXPECT_FALSE(r.accept);
}

// --- v2 indirect push (§7) ---

TEST(InterpreterTest, IndirectPushReadsComputedOffset) {
  // Read the word at byte offset 6 (word 3) via PUSHIND: offset computed
  // as 2 + 4 with the v2 ADD operator (the "addressing-unit conversion"
  // use case of §7).
  FilterBuilder b(LangVersion::kV2);
  b.PushLit(2).Lit(BinaryOp::kAdd, 4).IndOp().Lit(BinaryOp::kEq, 0x0103);
  const ExecResult r = RunBoth(b.Build(0), IndexedPacket());
  EXPECT_EQ(r.status, ExecStatus::kOk);
  EXPECT_TRUE(r.accept);
}

TEST(InterpreterTest, IndirectPushOutOfBoundsRejects) {
  FilterBuilder b(LangVersion::kV2);
  b.PushLit(9999).IndOp().Lit(BinaryOp::kEq, 0);
  EXPECT_EQ(RunBoth(b.Build(0), IndexedPacket()).status, ExecStatus::kOutOfPacket);
}

TEST(InterpreterTest, IndirectPushUnalignedOffset) {
  // Byte offset 1 reads bytes 1..2 = 0x00 0x01 (packet 01 00 01 01 ...).
  FilterBuilder b(LangVersion::kV2);
  b.PushOne().IndOp().Lit(BinaryOp::kEq, 0x0001);
  EXPECT_TRUE(RunBoth(b.Build(0), IndexedPacket()).accept);
}

// --- Property: checked and fast (pre-decoded) agree on arbitrary *valid*
// programs ---

TEST(InterpreterProperty, CheckedAndFastAgreeOnRandomValidPrograms) {
  pfutil::Rng rng(0xf117e4);
  int valid_programs = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    // Depth-aware generator: usually legal moves, occasionally not, so both
    // the fast path and the validator's rejections get exercised.
    Program p;
    p.version = LangVersion::kV2;
    uint32_t depth = 0;
    const size_t n = rng.Range(1, 12);
    for (size_t i = 0; i < n; ++i) {
      uint8_t action;
      if (rng.Chance(0.05)) {
        action = static_cast<uint8_t>(rng.Below(64));  // anything, maybe illegal
      } else if (depth >= 1 && rng.Chance(0.15)) {
        action = static_cast<uint8_t>(StackAction::kPushInd);
      } else if (rng.Chance(0.5)) {
        action = static_cast<uint8_t>(pf::kPushWordBase + rng.Below(20));
      } else {
        action = static_cast<uint8_t>(rng.Range(1, 6));  // PUSHLIT..PUSH00FF
      }
      uint16_t op = 0;  // NOP
      const uint32_t depth_after_push =
          depth + (action >= pf::kPushWordBase ||
                           (action >= 1 && action <= 6)
                       ? 1
                       : 0);
      if (depth_after_push >= 2 && rng.Chance(0.7)) {
        op = static_cast<uint16_t>(rng.Below(23));  // includes the 14/15 gap
      } else if (rng.Chance(0.05)) {
        op = static_cast<uint16_t>(rng.Below(1024));
      }
      p.words.push_back(static_cast<uint16_t>((op << 6) | action));
      if (action == static_cast<uint8_t>(StackAction::kPushLit)) {
        if (rng.Chance(0.95)) {
          p.words.push_back(rng.NextU16());
          ++i;
        }
      }
      depth = depth_after_push;
      if (op != 0 && depth >= 1) {
        --depth;
      }
    }
    const auto validated = pf::ValidatedProgram::Create(p);
    if (!validated.has_value()) {
      continue;  // the validator filters malformed programs; fast path N/A
    }
    ++valid_programs;
    const std::vector<uint8_t> packet = IndexedPacket(rng.Range(0, 24));
    const ExecResult checked = pf::InterpretChecked(p, packet);
    const ExecResult fast = pf::InterpretPredecoded(pf::Predecode(*validated), packet);
    ASSERT_EQ(checked.accept, fast.accept) << "trial " << trial;
    ASSERT_EQ(checked.status, fast.status) << "trial " << trial;
    ASSERT_EQ(checked.insns_executed, fast.insns_executed) << "trial " << trial;
  }
  // The generator must actually exercise the fast path a fair amount.
  EXPECT_GT(valid_programs, 100);
}

}  // namespace

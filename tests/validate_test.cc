// Validator tests: every rejection class of §7's ahead-of-time checking,
// plus the program-shape metadata it reports.
#include <gtest/gtest.h>

#include "src/pf/builder.h"
#include "src/pf/validate.h"

namespace {

using pf::BinaryOp;
using pf::LangVersion;
using pf::Program;
using pf::StackAction;
using pf::ValidationError;

Program Words(std::initializer_list<uint16_t> words, LangVersion v = LangVersion::kV1) {
  Program p;
  p.version = v;
  p.words = words;
  return p;
}

TEST(ValidateTest, EmptyProgramIsValid) {
  const auto r = pf::Validate(Program{});
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.instruction_count, 0u);
  EXPECT_EQ(r.max_stack_depth, 0u);
}

TEST(ValidateTest, PaperFiltersValidate) {
  EXPECT_TRUE(pf::Validate(pf::PaperFig38Filter()).ok);
  const auto r = pf::Validate(pf::PaperFig39Filter());
  EXPECT_TRUE(r.ok);
  EXPECT_TRUE(r.has_short_circuit);
  EXPECT_TRUE(r.uses_push_word);
  EXPECT_EQ(r.max_word_index, 8);
  EXPECT_EQ(r.instruction_count, 6u);
}

TEST(ValidateTest, RejectsTooLong) {
  Program p;
  p.words.assign(pf::kMaxProgramWords + 1,
                 pf::EncodeWord(BinaryOp::kNop, StackAction::kPushZero));
  EXPECT_EQ(pf::Validate(p).error, ValidationError::kTooLong);
}

TEST(ValidateTest, RejectsBadOpcode) {
  const auto r = pf::Validate(Words({static_cast<uint16_t>(900 << 6)}));
  EXPECT_EQ(r.error, ValidationError::kBadOpcode);
  EXPECT_EQ(r.error_word, 0u);
}

TEST(ValidateTest, RejectsBadAction) {
  // Action 9 is unassigned.
  const auto r = pf::Validate(Words({9}));
  EXPECT_EQ(r.error, ValidationError::kBadAction);
}

TEST(ValidateTest, RejectsMissingLiteral) {
  const auto r =
      pf::Validate(Words({pf::EncodeWord(BinaryOp::kNop, StackAction::kPushLit)}));
  EXPECT_EQ(r.error, ValidationError::kMissingLiteral);
}

TEST(ValidateTest, RejectsBinaryOpUnderflow) {
  // One operand, two needed.
  const auto r =
      pf::Validate(Words({pf::EncodeWord(BinaryOp::kEq, StackAction::kPushZero)}));
  EXPECT_EQ(r.error, ValidationError::kStackUnderflow);
}

TEST(ValidateTest, RejectsBareOpOnEmptyStack) {
  const auto r = pf::Validate(Words({pf::EncodeWord(BinaryOp::kAnd, StackAction::kNoPush)}));
  EXPECT_EQ(r.error, ValidationError::kStackUnderflow);
  EXPECT_EQ(r.error_word, 0u);
}

TEST(ValidateTest, RejectsStackOverflow) {
  Program p;
  for (size_t i = 0; i < pf::kMaxStackDepth + 1; ++i) {
    p.words.push_back(pf::EncodeWord(BinaryOp::kNop, StackAction::kPushOne));
  }
  const auto r = pf::Validate(p);
  EXPECT_EQ(r.error, ValidationError::kStackOverflow);
  EXPECT_EQ(r.error_word, pf::kMaxStackDepth);
}

TEST(ValidateTest, DepthAtLimitIsAccepted) {
  Program p;
  for (size_t i = 0; i < pf::kMaxStackDepth; ++i) {
    p.words.push_back(pf::EncodeWord(BinaryOp::kNop, StackAction::kPushOne));
  }
  const auto r = pf::Validate(p);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.max_stack_depth, pf::kMaxStackDepth);
}

TEST(ValidateTest, RejectsEmptyStackAtEnd) {
  // NOP does nothing; a one-NOP program ends with no verdict.
  const auto r = pf::Validate(Words({pf::EncodeWord(BinaryOp::kNop, StackAction::kNoPush)}));
  EXPECT_EQ(r.error, ValidationError::kEmptyStackAtEnd);
}

TEST(ValidateTest, IndirectPushRequiresOperand) {
  Program p = Words({pf::EncodeWord(BinaryOp::kNop, StackAction::kPushInd)}, LangVersion::kV2);
  EXPECT_EQ(pf::Validate(p).error, ValidationError::kStackUnderflow);

  pf::FilterBuilder b(LangVersion::kV2);
  b.PushLit(4).IndOp();
  const auto r = pf::Validate(b.Build(0));
  EXPECT_TRUE(r.ok);
  EXPECT_TRUE(r.uses_indirect);
}

TEST(ValidateTest, V2OpsRejectedInV1) {
  Program p = Words({pf::EncodeWord(BinaryOp::kNop, StackAction::kPushOne),
                     pf::EncodeWord(BinaryOp::kAdd, StackAction::kPushOne)});
  EXPECT_EQ(pf::Validate(p).error, ValidationError::kBadOpcode);
  p.version = LangVersion::kV2;
  const auto r = pf::Validate(p);
  EXPECT_TRUE(r.ok);
}

TEST(ValidateTest, DivisionFlagged) {
  pf::FilterBuilder b(LangVersion::kV2);
  b.PushWord(0).Lit(BinaryOp::kDiv, 10);
  const auto r = pf::Validate(b.Build(0));
  EXPECT_TRUE(r.ok);
  EXPECT_TRUE(r.uses_division);
}

TEST(ValidateTest, ErrorStringsAreDistinct) {
  EXPECT_NE(pf::ToString(ValidationError::kStackUnderflow),
            pf::ToString(ValidationError::kStackOverflow));
  EXPECT_EQ(pf::ToString(ValidationError::kNone), "ok");
}

TEST(ValidatedProgramTest, CreateRejectsInvalid) {
  EXPECT_FALSE(pf::ValidatedProgram::Create(
                   Words({pf::EncodeWord(BinaryOp::kEq, StackAction::kPushZero)}))
                   .has_value());
  const auto vp = pf::ValidatedProgram::Create(pf::PaperFig38Filter());
  ASSERT_TRUE(vp.has_value());
  EXPECT_EQ(vp->priority(), 10);
}

}  // namespace

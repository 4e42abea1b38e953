// Conjunction extraction (conjunction.h): which programs are the canonical
// conjunction of masked-word equality tests that kIndexed's §7 decision
// table and the BPF cross-compiler build on, and which are not.
#include <gtest/gtest.h>

#include "src/pf/builder.h"
#include "src/pf/conjunction.h"

namespace {

using pf::BinaryOp;
using pf::FieldTest;
using pf::FilterBuilder;
using pf::Program;

TEST(ExtractConjunctionTest, ExtractsFig39Shape) {
  const auto tests = pf::ExtractConjunction(pf::PaperFig39Filter());
  ASSERT_TRUE(tests.has_value());
  ASSERT_EQ(tests->size(), 3u);
  EXPECT_EQ((*tests)[0], (FieldTest{8, 0xffff, 35}));
  EXPECT_EQ((*tests)[1], (FieldTest{7, 0xffff, 0}));
  EXPECT_EQ((*tests)[2], (FieldTest{1, 0xffff, 2}));
}

TEST(ExtractConjunctionTest, ExtractsMaskedTests) {
  FilterBuilder b;
  b.MaskedWordEqualsShortCircuit(3, 0x00ff, 8).WordEquals(1, 2);
  const auto tests = pf::ExtractConjunction(b.Build(10));
  ASSERT_TRUE(tests.has_value());
  EXPECT_EQ((*tests)[0], (FieldTest{3, 0x00ff, 8}));
}

TEST(ExtractConjunctionTest, ExtractsLiteralMask) {
  FilterBuilder b;
  b.MaskedWordEquals(4, 0x0f0f, 0x0502);
  const auto tests = pf::ExtractConjunction(b.Build(10));
  ASSERT_TRUE(tests.has_value());
  EXPECT_EQ((*tests)[0], (FieldTest{4, 0x0f0f, 0x0502}));
}

TEST(ExtractConjunctionTest, EmptyProgramIsMatchAll) {
  const auto tests = pf::ExtractConjunction(Program{});
  ASSERT_TRUE(tests.has_value());
  EXPECT_TRUE(tests->empty());
}

TEST(ExtractConjunctionTest, RejectsRangeFilters) {
  // Fig. 3-8 contains GT/LE — not a pure conjunction of equalities.
  EXPECT_FALSE(pf::ExtractConjunction(pf::PaperFig38Filter()).has_value());
}

TEST(ExtractConjunctionTest, RejectsOrCombinations) {
  FilterBuilder b;
  b.PushWord(1).Lit(BinaryOp::kEq, 2).PushWord(1).Lit(BinaryOp::kEq, 3).Op(BinaryOp::kOr);
  EXPECT_FALSE(pf::ExtractConjunction(b.Build(10)).has_value());
}

TEST(ExtractConjunctionTest, RejectsTrailingNonConjunctionSuffix) {
  // A valid conjunction unit followed by instructions outside the shape.
  FilterBuilder b;
  b.WordEqualsShortCircuit(1, 2).PushOne();
  EXPECT_FALSE(pf::ExtractConjunction(b.Build(10)).has_value());

  // A unit cut off mid-way: PUSHWORD with no comparison at all.
  FilterBuilder truncated;
  truncated.WordEqualsShortCircuit(1, 2).PushWord(3);
  EXPECT_FALSE(pf::ExtractConjunction(truncated.Build(10)).has_value());

  // A mask with its comparison missing.
  FilterBuilder masked;
  masked.PushWord(3).ConstOp(pf::StackAction::kPush00FF, BinaryOp::kAnd);
  EXPECT_FALSE(pf::ExtractConjunction(masked.Build(10)).has_value());
}

TEST(ExtractConjunctionTest, AcceptsPushZeroIdioms) {
  // fig. 3-9 tests the high socket word against zero with PUSHZERO|CAND;
  // PUSHZERO|EQ and PUSHONE|CAND are the same idiom.
  FilterBuilder b;
  b.PushWord(7).ZeroOp(BinaryOp::kCand).WordEquals(1, 2);
  const auto tests = pf::ExtractConjunction(b.Build(10));
  ASSERT_TRUE(tests.has_value());
  EXPECT_EQ((*tests)[0], (FieldTest{7, 0xffff, 0}));

  FilterBuilder final_zero;
  final_zero.PushWord(7).ZeroOp(BinaryOp::kEq);
  const auto final_tests = pf::ExtractConjunction(final_zero.Build(10));
  ASSERT_TRUE(final_tests.has_value());
  EXPECT_EQ((*final_tests)[0], (FieldTest{7, 0xffff, 0}));

  FilterBuilder one;
  one.PushWord(4).ConstOp(pf::StackAction::kPushOne, BinaryOp::kCand).WordEquals(1, 2);
  const auto one_tests = pf::ExtractConjunction(one.Build(10));
  ASSERT_TRUE(one_tests.has_value());
  EXPECT_EQ((*one_tests)[0], (FieldTest{4, 0xffff, 1}));
}

TEST(ExtractConjunctionTest, MaskMustPrecedeComparison) {
  // Canonical order: PUSHWORD, mask|AND, literal|compare.
  FilterBuilder canonical;
  canonical.PushWord(3).ConstOp(pf::StackAction::kPush00FF, BinaryOp::kAnd).Lit(BinaryOp::kCand, 8);
  EXPECT_TRUE(pf::ExtractConjunction(canonical.Build(10)).has_value());

  // The mask arriving after the comparison is not the conjunction shape
  // (it is also a different predicate).
  FilterBuilder reversed;
  reversed.PushWord(3).Lit(BinaryOp::kEq, 8).ConstOp(pf::StackAction::kPush00FF, BinaryOp::kAnd);
  EXPECT_FALSE(pf::ExtractConjunction(reversed.Build(10)).has_value());

  // Two masks in a row never match the single optional mask slot.
  FilterBuilder doubled;
  doubled.PushWord(3)
      .ConstOp(pf::StackAction::kPush00FF, BinaryOp::kAnd)
      .Lit(BinaryOp::kAnd, 0x000f)
      .Lit(BinaryOp::kEq, 8);
  EXPECT_FALSE(pf::ExtractConjunction(doubled.Build(10)).has_value());
}

}  // namespace

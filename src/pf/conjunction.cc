#include "src/pf/conjunction.h"

namespace pf {

std::optional<std::vector<FieldTest>> ExtractConjunction(const Program& program) {
  const auto decoded = DecodeProgram(program);
  if (!decoded.has_value()) {
    return std::nullopt;
  }
  const std::vector<Instruction>& insns = *decoded;
  std::vector<FieldTest> tests;
  size_t i = 0;
  while (i < insns.size()) {
    FieldTest test;
    // PUSHWORD+n with no operation.
    if (insns[i].action != StackAction::kPushWord || insns[i].op != BinaryOp::kNop) {
      return std::nullopt;
    }
    test.word = insns[i].word_index;
    ++i;
    if (i >= insns.size()) {
      return std::nullopt;
    }
    // Optional mask: <constant or literal> | AND.
    if (insns[i].op == BinaryOp::kAnd) {
      switch (insns[i].action) {
        case StackAction::kPushFFFF:
          test.mask = 0xffff;
          break;
        case StackAction::kPushFF00:
          test.mask = 0xff00;
          break;
        case StackAction::kPush00FF:
          test.mask = 0x00ff;
          break;
        case StackAction::kPushLit:
          test.mask = insns[i].literal;
          break;
        default:
          return std::nullopt;
      }
      ++i;
      if (i >= insns.size()) {
        return std::nullopt;
      }
    }
    // Comparison: PUSHLIT|CAND v (any unit), PUSHLIT|EQ v (final unit only),
    // or the PUSHZERO idiom for v == 0.
    uint16_t value = 0;
    if (insns[i].action == StackAction::kPushLit) {
      value = insns[i].literal;
    } else if (insns[i].action == StackAction::kPushZero) {
      value = 0;
    } else if (insns[i].action == StackAction::kPushOne) {
      value = 1;
    } else {
      return std::nullopt;
    }
    const bool is_final = i + 1 == insns.size();
    if (insns[i].op == BinaryOp::kCand || (is_final && insns[i].op == BinaryOp::kEq)) {
      test.value = value;
      tests.push_back(test);
      ++i;
    } else {
      return std::nullopt;
    }
  }
  // A value with bits outside the mask can never match; keep the test. The
  // index buckets it by value & mask, and re-confirmation rejects it.
  return tests;
}

}  // namespace pf

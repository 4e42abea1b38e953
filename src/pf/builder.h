// Run-time filter construction. The paper (§3.1): "In normal use, the
// filters are not directly constructed by the programmer, but are 'compiled'
// at run time by a library procedure." FilterBuilder is that library
// procedure: a fluent API whose calls mirror the paper's listings —
// `PUSHWORD+1, PUSHLIT | EQ, 2` becomes `b.PushWord(1).LitOp(BinaryOp::kEq, 2)`.
//
// Higher-level helpers (WordEquals, MaskedWordEquals, and their
// short-circuit forms) emit the canonical conjunction shape that
// ExtractConjunction (conjunction.h) recognizes and kIndexed dispatches on.
#ifndef SRC_PF_BUILDER_H_
#define SRC_PF_BUILDER_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/pf/program.h"
#include "src/pf/validate.h"

namespace pf {

class FilterBuilder {
 public:
  explicit FilterBuilder(LangVersion version = LangVersion::kV1) : version_(version) {}

  // --- Primitive forms (one instruction word each, paper notation) ---

  // PUSHWORD+n (no operation).
  FilterBuilder& PushWord(uint8_t n) { return Stmt(StackAction::kPushWord, BinaryOp::kNop, n); }
  // PUSHLIT, literal (no operation).
  FilterBuilder& PushLit(uint16_t literal) { return Lit(BinaryOp::kNop, literal); }
  FilterBuilder& PushZero() { return Stmt(StackAction::kPushZero, BinaryOp::kNop); }
  FilterBuilder& PushOne() { return Stmt(StackAction::kPushOne, BinaryOp::kNop); }
  // NOPUSH | op.
  FilterBuilder& Op(BinaryOp op) { return Stmt(StackAction::kNoPush, op); }
  // PUSHLIT | op, literal — e.g. LitOp(kEq, 2) is the paper's `PUSHLIT|EQ, 2`.
  FilterBuilder& Lit(BinaryOp op, uint16_t literal) {
    instructions_.push_back(Instruction{op, StackAction::kPushLit, 0, literal});
    return *this;
  }
  FilterBuilder& LitOp(BinaryOp op, uint16_t literal) { return Lit(op, literal); }
  // <constant-push action> | op — e.g. ConstOp(kPush00FF, kAnd) is `PUSH00FF|AND`.
  FilterBuilder& ConstOp(StackAction action, BinaryOp op) { return Stmt(action, op); }
  // PUSHWORD+n | op.
  FilterBuilder& WordOp(uint8_t n, BinaryOp op) { return Stmt(StackAction::kPushWord, op, n); }
  // PUSHZERO | op etc. convenience:
  FilterBuilder& ZeroOp(BinaryOp op) { return Stmt(StackAction::kPushZero, op); }
  // v2: PUSHIND (pop byte offset, push word there) | op.
  FilterBuilder& IndOp(BinaryOp op = BinaryOp::kNop) { return Stmt(StackAction::kPushInd, op); }
  // Fully general.
  FilterBuilder& Stmt(StackAction action, BinaryOp op, uint8_t word_index = 0) {
    instructions_.push_back(Instruction{op, action, word_index, 0});
    return *this;
  }

  // --- Field-test helpers ---

  // packet.word[n] == value
  FilterBuilder& WordEquals(uint8_t n, uint16_t value) {
    return PushWord(n).Lit(BinaryOp::kEq, value);
  }
  // packet.word[n] == value, rejecting immediately on mismatch (CAND).
  FilterBuilder& WordEqualsShortCircuit(uint8_t n, uint16_t value) {
    return PushWord(n).Lit(BinaryOp::kCand, value);
  }
  // (packet.word[n] & mask) == value. Uses the dedicated mask-constant
  // actions for the masks they cover, PUSHLIT otherwise.
  FilterBuilder& MaskedWordEquals(uint8_t n, uint16_t mask, uint16_t value) {
    PushWord(n);
    AppendMask(mask);
    return Lit(BinaryOp::kEq, value);
  }
  FilterBuilder& MaskedWordEqualsShortCircuit(uint8_t n, uint16_t mask, uint16_t value) {
    PushWord(n);
    AppendMask(mask);
    return Lit(BinaryOp::kCand, value);
  }
  // lo <= (packet.word[n] & mask) <= hi, composed with AND as in fig. 3-8.
  FilterBuilder& MaskedWordInRange(uint8_t n, uint16_t mask, uint16_t lo, uint16_t hi) {
    PushWord(n);
    AppendMask(mask);
    Lit(BinaryOp::kGe, lo);
    PushWord(n);
    AppendMask(mask);
    Lit(BinaryOp::kLe, hi);
    return Op(BinaryOp::kAnd);
  }

  size_t instruction_count() const { return instructions_.size(); }
  LangVersion version() const { return version_; }

  Program Build(uint8_t priority) const {
    return EncodeProgram(instructions_, priority, version_);
  }
  // Builds and validates; nullopt carries no detail — call Validate(Build())
  // when the error matters.
  std::optional<ValidatedProgram> BuildValidated(uint8_t priority) const {
    return ValidatedProgram::Create(Build(priority));
  }

 private:
  void AppendMask(uint16_t mask) {
    switch (mask) {
      case 0xffff:
        break;  // identity mask: no instruction needed
      case 0xff00:
        ConstOp(StackAction::kPushFF00, BinaryOp::kAnd);
        break;
      case 0x00ff:
        ConstOp(StackAction::kPush00FF, BinaryOp::kAnd);
        break;
      default:
        Lit(BinaryOp::kAnd, mask);
        break;
    }
  }

  LangVersion version_;
  std::vector<Instruction> instructions_;
};

// The paper's example programs, used by tests and benchmarks.
//
// Fig. 3-8: accepts Pup packets (EtherType == 2 at word 1) with
// 0 < PupType <= 100 (PupType is the low byte of word 3).
Program PaperFig38Filter(uint8_t priority = 10);
// Fig. 3-9: accepts Pup packets with DstSocket == 35, testing the socket
// words first with CAND so mismatches exit early.
Program PaperFig39Filter(uint8_t priority = 10);

}  // namespace pf

#endif  // SRC_PF_BUILDER_H_

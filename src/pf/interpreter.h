// The filter interpreter (§3.1, §4): "It simply iterates through the
// 'instruction words' of a filter (there are no branch instructions),
// evaluating the filter predicate using a small stack."
//
// InterpretChecked() is the historical interpreter: every check the paper
// lists (§7) is performed per instruction at run time — instruction
// validity, stack under/overflow, out-of-packet references. It works on any
// Program. The §7 "perform the tests ahead of time" form is the engine's
// pre-decoded interpreter (InterpretPredecoded in engine.h), which runs a
// ValidatedProgram with only the packet-bounds and divide-by-zero checks
// left; micro_interpreter benchmarks the difference.
//
// Errors reject the packet (§4: "or an error is detected, it returns the
// predicate value to indicate acceptance or rejection") and are reported in
// ExecResult::status so the kernel can count them.
#ifndef SRC_PF_INTERPRETER_H_
#define SRC_PF_INTERPRETER_H_

#include <cstdint>
#include <span>
#include <string>

#include "src/pf/program.h"

namespace pf {

enum class ExecStatus : uint8_t {
  kOk = 0,
  kBadOpcode,
  kBadAction,
  kMissingLiteral,
  kStackUnderflow,
  kStackOverflow,
  kOutOfPacket,     // PUSHWORD/PUSHIND past the end of the packet
  kEmptyStackAtEnd,
  kDivideByZero,    // v2 DIV/MOD with zero divisor
};

std::string ToString(ExecStatus status);

struct ExecResult {
  bool accept = false;
  ExecStatus status = ExecStatus::kOk;
  uint32_t insns_executed = 0;   // instructions actually evaluated
  bool short_circuited = false;  // a COR/CAND/CNOR/CNAND exited early
};

ExecResult InterpretChecked(const Program& program, std::span<const uint8_t> packet);

namespace detail {

// Outcome of applying one binary operator.
enum class OpOutcome : uint8_t {
  kContinue,      // a result value was produced (push it, keep going)
  kAccept,        // short-circuit conditional terminated the program: ACCEPT
  kReject,        // short-circuit conditional terminated the program: REJECT
  kDivideByZero,  // v2 DIV/MOD with zero divisor
};

// Applies `op` to the two popped operands (t1 was the top of stack, t2 the
// word beneath it), writing the value to push through *out. Shared by the
// checked interpreter (interpreter.cc) and the pre-decoded one (engine.cc)
// so fig. 3-6's semantics live in exactly one place. `op` must
// already be known valid and must not be kNop.
inline OpOutcome EvalBinaryOp(BinaryOp op, uint16_t t1, uint16_t t2, uint16_t* out) {
  switch (op) {
    case BinaryOp::kEq:
      *out = t2 == t1;
      return OpOutcome::kContinue;
    case BinaryOp::kNeq:
      *out = t2 != t1;
      return OpOutcome::kContinue;
    case BinaryOp::kLt:
      *out = t2 < t1;
      return OpOutcome::kContinue;
    case BinaryOp::kLe:
      *out = t2 <= t1;
      return OpOutcome::kContinue;
    case BinaryOp::kGt:
      *out = t2 > t1;
      return OpOutcome::kContinue;
    case BinaryOp::kGe:
      *out = t2 >= t1;
      return OpOutcome::kContinue;
    case BinaryOp::kAnd:
      *out = t2 & t1;
      return OpOutcome::kContinue;
    case BinaryOp::kOr:
      *out = t2 | t1;
      return OpOutcome::kContinue;
    case BinaryOp::kXor:
      *out = t2 ^ t1;
      return OpOutcome::kContinue;
    case BinaryOp::kCor:
    case BinaryOp::kCand:
    case BinaryOp::kCnor:
    case BinaryOp::kCnand: {
      const bool r = t1 == t2;
      // Early-exit table of fig. 3-6.
      if (op == BinaryOp::kCor && r) {
        return OpOutcome::kAccept;
      }
      if (op == BinaryOp::kCand && !r) {
        return OpOutcome::kReject;
      }
      if (op == BinaryOp::kCnor && r) {
        return OpOutcome::kReject;
      }
      if (op == BinaryOp::kCnand && !r) {
        return OpOutcome::kAccept;
      }
      *out = r ? 1 : 0;
      return OpOutcome::kContinue;
    }
    case BinaryOp::kAdd:
      *out = static_cast<uint16_t>(t2 + t1);
      return OpOutcome::kContinue;
    case BinaryOp::kSub:
      *out = static_cast<uint16_t>(t2 - t1);
      return OpOutcome::kContinue;
    case BinaryOp::kMul:
      *out = static_cast<uint16_t>(t2 * t1);
      return OpOutcome::kContinue;
    case BinaryOp::kDiv:
    case BinaryOp::kMod:
      if (t1 == 0) {
        return OpOutcome::kDivideByZero;
      }
      *out = op == BinaryOp::kDiv ? static_cast<uint16_t>(t2 / t1)
                                  : static_cast<uint16_t>(t2 % t1);
      return OpOutcome::kContinue;
    case BinaryOp::kLsh:
      *out = static_cast<uint16_t>(t2 << (t1 & 15));
      return OpOutcome::kContinue;
    case BinaryOp::kRsh:
      *out = static_cast<uint16_t>(t2 >> (t1 & 15));
      return OpOutcome::kContinue;
    case BinaryOp::kNop:
      break;  // callers filter kNop before popping operands
  }
  *out = 0;
  return OpOutcome::kContinue;
}

}  // namespace detail

}  // namespace pf

#endif  // SRC_PF_INTERPRETER_H_

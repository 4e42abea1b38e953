// Ahead-of-time filter validation (§7: "Since the filter language does not
// include branching instructions, all these tests can be performed ahead of
// time").
//
// Because programs are straight-line, stack depth at every instruction is a
// static quantity: the validator proves, once, that a program never
// underflows or overflows the evaluation stack, that every PUSHLIT has its
// literal, and that every opcode is assigned. InterpretPredecoded() (engine.h)
// then runs without per-instruction checking; only packet-bounds checks (and
// divide-by-zero for v2 programs) remain at run time, exactly as the paper
// anticipates ("except for indirect-push instructions").
#ifndef SRC_PF_VALIDATE_H_
#define SRC_PF_VALIDATE_H_

#include <cstdint>
#include <optional>
#include <string>

#include "src/pf/program.h"

namespace pf {

enum class ValidationError : uint8_t {
  kNone = 0,
  kTooLong,          // more than kMaxProgramWords words
  kBadOpcode,        // unassigned binary operator (for the program's version)
  kBadAction,        // unassigned stack action (for the program's version)
  kMissingLiteral,   // PUSHLIT as the last program word
  kStackUnderflow,   // a binary op (or PUSHIND) with too few operands
  kStackOverflow,    // depth would exceed kMaxStackDepth
  kEmptyStackAtEnd,  // non-empty program that leaves no verdict on the stack
};

std::string ToString(ValidationError error);

struct ValidationResult {
  bool ok = false;
  ValidationError error = ValidationError::kNone;
  size_t error_word = 0;  // word offset of the offending instruction

  // Metadata about the program's shape:
  size_t instruction_count = 0;
  uint32_t max_stack_depth = 0;
  uint8_t max_word_index = 0;    // highest PUSHWORD operand (0 if none)
  bool uses_push_word = false;
  bool uses_indirect = false;    // v2 PUSHIND present
  bool uses_division = false;    // v2 DIV/MOD present
  bool has_short_circuit = false;
};

ValidationResult Validate(const Program& program);

// A Program that has passed Validate(). The only way to construct one is
// through Create(), so holding a ValidatedProgram *is* the proof the fast
// interpreter relies on.
class ValidatedProgram {
 public:
  static std::optional<ValidatedProgram> Create(Program program);

  const Program& program() const { return program_; }
  const ValidationResult& meta() const { return meta_; }
  uint8_t priority() const { return program_.priority; }

 private:
  ValidatedProgram(Program program, ValidationResult meta)
      : program_(std::move(program)), meta_(meta) {}

  Program program_;
  ValidationResult meta_;
};

}  // namespace pf

#endif  // SRC_PF_VALIDATE_H_

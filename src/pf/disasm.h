// Filter disassembler: renders programs in the paper's listing notation
// (`PUSHWORD+3, PUSH00FF | AND`), one instruction per line, for debugging,
// logging, and the filter_lab example.
#ifndef SRC_PF_DISASM_H_
#define SRC_PF_DISASM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/pf/profile.h"
#include "src/pf/program.h"
#include "src/pf/validate.h"

namespace pf {

// One-line rendering of a single instruction, e.g. "PUSHLIT | EQ, 2".
std::string DisassembleInstruction(const Instruction& insn);

// Multi-line rendering of the whole program with a header line giving
// priority, length, and language version. Malformed programs render the
// valid prefix followed by an error note.
std::string Disassemble(const Program& program);

// Simulated-cost attribution by opcode class: every executed instruction is
// attributed to its binary operator (EQ, CAND, ...) or, for pure pushes, its
// push kind (PUSHWORD, PUSHLIT, ...). Sorted by hits descending, then name.
// The charged sums across a whole engine reconcile with the kFilterEval
// ledger (see ProfileTotals in profile.h).
struct OpcodeAttribution {
  std::string opcode;
  uint64_t hits = 0;     // equivalent executions
  uint64_t charged = 0;  // ledger-charged executions
};
std::vector<OpcodeAttribution> AttributeByOpcode(const ValidatedProgram& program,
                                                 const ProgramProfile& profile);

// Annotated disassembly of a profiled program: each instruction with its
// hit count, charged count, accept/reject exit counts, cumulative charged
// cost, and a "<-- hot" marker on the most-hit instruction; followed by the
// per-opcode attribution. `insn_cost_ns` scales the cost column (pass the
// cost model's filter_insn in nanoseconds); 0 leaves it in instruction
// counts.
std::string DisassembleAnnotated(const ValidatedProgram& program, const ProgramProfile& profile,
                                 int64_t insn_cost_ns = 0);

}  // namespace pf

#endif  // SRC_PF_DISASM_H_

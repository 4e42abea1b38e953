// Filter-program profiling (the introspection side of §6.4): per-pc hit
// counts, accept/reject exit points, and simulated-cost attribution for one
// bound filter program.
//
// The filter language has no branches — execution is a straight prefix of
// the instruction list, cut short only by a short-circuit operator or an
// error. One ExecResult therefore determines the whole per-pc trace: pcs
// [0, insns_executed) ran, and insns_executed-1 is the exit pc. That is what
// lets every Engine strategy feed the *same* profile:
//
//   * hits    — "equivalent executions": how often this pc would have run
//               under the §4 sequential interpreter. When kIndexed prunes a
//               filter via the hash index, the engine replays the
//               pre-decoded program once (uncharged) so the per-pc hit
//               counts stay identical across all three strategies.
//   * charged — executions the cost Ledger actually paid for (the filter
//               really was interpreted). Cost attribution uses this count:
//               filter_apply * runs + filter_insn * (sum of charged)
//               reconciles exactly with the Cost::kFilterEval ledger total
//               (asserted in table_6_10).
//
// pc means *instruction index* (PUSHLIT's literal word is folded into its
// instruction), matching Predecode() and the disassembler's line numbers.
#ifndef SRC_PF_PROFILE_H_
#define SRC_PF_PROFILE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/pf/interpreter.h"

namespace pf {

// Counters for one instruction slot.
struct PcProfile {
  uint64_t hits = 0;          // equivalent executions (strategy-independent)
  uint64_t charged = 0;       // executions the Ledger was charged for
  uint64_t accept_exits = 0;  // passes that ended here accepting
  uint64_t reject_exits = 0;  // passes that ended here rejecting (or erroring)
};

// One bound program's profile. Owned by Engine::Binding; allocated when
// profiling is enabled and never touched (a null check) when it is off.
struct ProgramProfile {
  // One entry per instruction, in program order.
  std::vector<PcProfile> pc;

  uint64_t passes = 0;   // verdicts produced (equivalent sequential runs)
  uint64_t runs = 0;     // actual interpretations (charged filter_apply)
  uint64_t accepts = 0;
  uint64_t rejects = 0;
  uint64_t errors = 0;   // passes that ended in a non-kOk status

  // Folds one finished execution into the profile. `charged` says whether
  // the engine really interpreted the program (vs. replaying it to mirror an
  // index prune). Execution is straight-line, so `exec`
  // fully determines which pcs ran and where the pass exited.
  void RecordExec(const ExecResult& exec, bool charged);

  uint64_t hit_insns() const;      // sum of pc[].hits
  uint64_t charged_insns() const;  // sum of pc[].charged

  // The pc with the most hits (ties go to the earliest), or -1 when no
  // instruction has run — the annotated disassembly's hot-path marker.
  int HottestPc() const;

  void Reset();
};

// Engine-wide rollup of every binding's profile plus the probe work done on
// the passes' behalf while profiling was on. The reconciliation identity
// (see table_6_10):
//
//   kFilterEval total == filter_apply * runs + filter_insn * charged_insns
struct ProfileTotals {
  uint64_t passes = 0;
  uint64_t runs = 0;
  uint64_t hit_insns = 0;
  uint64_t charged_insns = 0;
  uint64_t index_probes = 0;  // hash-index word loads while profiling
};

}  // namespace pf

#endif  // SRC_PF_PROFILE_H_

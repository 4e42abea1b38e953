// Generated filter programs, checked differentially. A seeded generator
// writes valid programs over every opcode and stack action of both language
// versions (indirect loads, literal and constant pushes, stacks up to the
// depth limit, programs up to the length limit), mutates some into every
// kind of invalid program (bad opcode or action, missing literal, stack
// underflow and overflow, no verdict, too long, wrong version, random
// words), and runs them on packets of 0, 1 and random lengths. It checks:
//
// * Validate(), the disassembler and InterpretChecked() never crash, on any
//   program; a validated program never reports a fault the validator rules
//   out.
// * On every validated program, the pre-decoded interpreter returns the
//   same ExecResult as InterpretChecked(), field for field, and the CSPF ->
//   BPF cross-compiler (where it applies) returns the same verdict.
// * Sets of 1..4 generated programs (conjunctions mixed in, so the index
//   prunes) bound into an Engine under each of the three strategies return
//   kChecked's accept and status per filter; a filter a strategy ran returns
//   kChecked's Verdict exactly, and one it did not run (a kIndexed prune) is
//   a clean reject that kChecked also rejected with kOk; a profiled twin
//   reports the same verdicts and telemetry; and the per-pc profile hits
//   and exits are identical across strategies (charged counts too, for
//   kFast).
//
// Time-boxed: the first seed always runs to completion and must cover
// every opcode, action, validation error and execution status; further
// seeds run while the budget lasts (PF_PROGRAM_FUZZ_SECONDS, default 2;
// raise it for a soak). A failure names its seed; PF_PROGRAM_FUZZ_SEED=N
// PF_PROGRAM_FUZZ_SECONDS=0 replays exactly that seed.
#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "src/pf/bpf.h"
#include "src/pf/builder.h"
#include "src/pf/disasm.h"
#include "src/pf/engine.h"
#include "src/util/rng.h"

namespace {

using pf::BinaryOp;
using pf::Engine;
using pf::ExecResult;
using pf::ExecStatus;
using pf::LangVersion;
using pf::Program;
using pf::StackAction;
using pf::Strategy;
using pf::ValidatedProgram;
using pf::ValidationError;
using pf::Verdict;

constexpr int kProgramsPerSeed = 400;
constexpr int kFilterSetsPerSeed = 60;
constexpr int kPacketsPerProgram = 6;

constexpr BinaryOp kV1Ops[] = {BinaryOp::kEq,  BinaryOp::kNeq,  BinaryOp::kLt,
                               BinaryOp::kLe,  BinaryOp::kGt,   BinaryOp::kGe,
                               BinaryOp::kAnd, BinaryOp::kOr,   BinaryOp::kXor,
                               BinaryOp::kCor, BinaryOp::kCand, BinaryOp::kCnor,
                               BinaryOp::kCnand};
constexpr BinaryOp kV2Ops[] = {BinaryOp::kAdd, BinaryOp::kSub, BinaryOp::kMul, BinaryOp::kDiv,
                               BinaryOp::kMod, BinaryOp::kLsh, BinaryOp::kRsh};
constexpr StackAction kConstPushes[] = {StackAction::kPushZero, StackAction::kPushOne,
                                        StackAction::kPushFFFF, StackAction::kPushFF00,
                                        StackAction::kPush00FF};

// What the first seed must reach, or the properties are vacuous.
struct Coverage {
  std::array<bool, 23> ops{};          // by opcode value, in validated programs
  std::array<bool, 9> actions{};       // by action value; PUSHWORD+n is slot 8
  std::array<bool, 9> statuses{};      // ExecStatus from InterpretChecked
  std::array<bool, 8> errors{};        // ValidationError from Validate
  bool v1 = false;
  bool v2 = false;
  bool max_length = false;             // a valid program of kMaxProgramWords words
  bool max_depth = false;              // a valid program reaching kMaxStackDepth
  int pruned = 0;                      // filters an index pass did not run

  void Expect() const {
    for (const BinaryOp op : kV1Ops) {
      EXPECT_TRUE(ops[static_cast<size_t>(op)]) << pf::ToString(op);
    }
    for (const BinaryOp op : kV2Ops) {
      EXPECT_TRUE(ops[static_cast<size_t>(op)]) << pf::ToString(op);
    }
    for (size_t action = 0; action < actions.size(); ++action) {
      EXPECT_TRUE(actions[action]) << "action " << action;
    }
    for (size_t status = 0; status < statuses.size(); ++status) {
      EXPECT_TRUE(statuses[status]) << pf::ToString(static_cast<ExecStatus>(status));
    }
    for (size_t error = 1; error < errors.size(); ++error) {
      EXPECT_TRUE(errors[error]) << pf::ToString(static_cast<ValidationError>(error));
    }
    EXPECT_TRUE(v1);
    EXPECT_TRUE(v2);
    EXPECT_TRUE(max_length);
    EXPECT_TRUE(max_depth);
    EXPECT_GT(pruned, 0);
  }
};

// A word index biased toward the packet's front, so most loads land.
uint8_t RandomWordIndex(pfutil::Rng* rng) {
  return static_cast<uint8_t>(rng->Chance(0.85) ? rng->Below(12)
                                                : rng->Below(pf::kMaxWordIndex + 1));
}

// A literal biased toward small values: equalities hit and divisors are 0.
uint16_t RandomLiteral(pfutil::Rng* rng) {
  return rng->Chance(0.8) ? static_cast<uint16_t>(rng->Below(6)) : rng->NextU16();
}

// A valid program of exactly `words` words (at least 1). Every instruction
// keeps the stack within [1, kMaxStackDepth] once the first push lands.
Program RandomValidProgram(pfutil::Rng* rng, LangVersion version, size_t words) {
  const bool v2 = version == LangVersion::kV2;
  Program program;
  program.version = version;
  program.priority = static_cast<uint8_t>(rng->Below(4));
  size_t depth = 0;
  while (program.words.size() < words) {
    const size_t room = words - program.words.size();
    StackAction action = StackAction::kPushWord;
    const uint64_t pick = rng->Below(10);
    if (depth >= 2 && (depth == pf::kMaxStackDepth || pick == 0)) {
      action = StackAction::kNoPush;
    } else if (v2 && depth >= 1 && pick == 1) {
      action = StackAction::kPushInd;
    } else if (pick <= 3 && room >= 2) {
      action = StackAction::kPushLit;
    } else if (pick <= 5) {
      action = kConstPushes[rng->Below(std::size(kConstPushes))];
    }
    const bool pushes = action != StackAction::kNoPush && action != StackAction::kPushInd;
    const size_t operands = depth + (pushes ? 1 : 0);
    BinaryOp op = BinaryOp::kNop;
    if (operands >= 2 && (action == StackAction::kNoPush || rng->Chance(0.6))) {
      op = v2 && rng->Chance(0.4) ? kV2Ops[rng->Below(std::size(kV2Ops))]
                                  : kV1Ops[rng->Below(std::size(kV1Ops))];
    }
    program.words.push_back(pf::EncodeWord(op, action, RandomWordIndex(rng)));
    if (action == StackAction::kPushLit) {
      program.words.push_back(RandomLiteral(rng));
    }
    depth = operands - (op == BinaryOp::kNop ? 0 : 1);
  }
  return program;
}

// One mutation that (usually) makes `program` invalid, each aimed at one
// validation error; the last two are unaimed.
Program Mutate(pfutil::Rng* rng, Program program) {
  std::vector<uint16_t>& words = program.words;
  const size_t at = rng->Below(words.size());
  switch (rng->Below(9)) {
    case 0: {  // unassigned opcode: the v1/v2 gap, past the last, or v2-only in v1
      static constexpr uint16_t kBadOps[] = {14, 15, 23, 511, 1023};
      uint16_t op = kBadOps[rng->Below(std::size(kBadOps))];
      if (program.version == LangVersion::kV1 && rng->Chance(0.3)) {
        op = static_cast<uint16_t>(kV2Ops[rng->Below(std::size(kV2Ops))]);
      }
      words[at] = static_cast<uint16_t>((op << 6) | (words[at] & pf::kStackActionMask));
      break;
    }
    case 1: {  // unassigned action (PUSHIND is one in v1)
      const uint16_t action = program.version == LangVersion::kV1 && rng->Chance(0.3)
                                  ? static_cast<uint16_t>(StackAction::kPushInd)
                                  : static_cast<uint16_t>(rng->Range(8, 15));
      words[at] = static_cast<uint16_t>((words[at] & ~pf::kStackActionMask) | action);
      break;
    }
    case 2:  // PUSHLIT as the last word
      words.push_back(pf::EncodeWord(BinaryOp::kNop, StackAction::kPushLit));
      break;
    case 3:  // pop more operands than were pushed
      for (size_t i = rng->Range(1, 40); i > 0; --i) {
        words.push_back(pf::EncodeWord(BinaryOp::kAnd, StackAction::kNoPush));
      }
      break;
    case 4:  // push past the depth limit
      for (size_t i = 0; i <= pf::kMaxStackDepth; ++i) {
        words.insert(words.begin() + static_cast<std::ptrdiff_t>(at),
                     pf::EncodeWord(BinaryOp::kNop, StackAction::kPushOne));
      }
      break;
    case 5:  // no verdict left on the stack
      words.assign(rng->Range(1, 4), pf::EncodeWord(BinaryOp::kNop, StackAction::kNoPush));
      break;
    case 6:  // one word too many (or more)
      while (words.size() <= pf::kMaxProgramWords) {
        words.push_back(pf::EncodeWord(BinaryOp::kNop, StackAction::kNoPush));
      }
      break;
    case 7:  // flip bits
      words[at] ^= static_cast<uint16_t>(1u << rng->Below(16));
      break;
    default:  // random words
      for (uint16_t& word : words) {
        if (rng->Chance(0.5)) {
          word = rng->NextU16();
        }
      }
      break;
  }
  return program;
}

// A canonical conjunction over the front words: what the index covers.
Program RandomConjunction(pfutil::Rng* rng) {
  pf::FilterBuilder b;
  const int tests = static_cast<int>(rng->Range(1, 3));
  for (int i = 0; i < tests; ++i) {
    const uint8_t word = static_cast<uint8_t>(rng->Below(6));
    const uint16_t value = static_cast<uint16_t>(rng->Below(3));
    const bool last = i + 1 == tests;
    if (rng->Chance(0.3)) {
      const uint16_t mask = rng->Chance(0.5) ? 0x00ff : 0xff00;
      last ? b.MaskedWordEquals(word, mask, value)
           : b.MaskedWordEqualsShortCircuit(word, mask, value);
    } else {
      last ? b.WordEquals(word, value) : b.WordEqualsShortCircuit(word, value);
    }
  }
  return b.Build(static_cast<uint8_t>(rng->Below(4)));
}

// Packets of 0 and 1 bytes, then random lengths; bytes from a small
// alphabet so comparisons hit and loaded divisors are often 0.
std::vector<uint8_t> RandomPacket(pfutil::Rng* rng, int index) {
  const size_t bytes = index < 2 ? static_cast<size_t>(index) : rng->Below(101);
  std::vector<uint8_t> packet(bytes);
  const bool small = rng->Chance(0.8);
  for (uint8_t& byte : packet) {
    byte = small ? static_cast<uint8_t>(rng->Below(3)) : rng->NextU8();
  }
  return packet;
}

size_t RandomLength(pfutil::Rng* rng) {
  const uint64_t pick = rng->Below(20);
  if (pick == 0) {
    return pf::kMaxProgramWords;
  }
  if (pick <= 2) {
    return rng->Range(200, pf::kMaxProgramWords);
  }
  if (pick <= 6) {
    return rng->Range(13, 64);
  }
  return rng->Range(1, 12);
}

bool IsValidityFault(ExecStatus status) {
  return status != ExecStatus::kOk && status != ExecStatus::kOutOfPacket &&
         status != ExecStatus::kDivideByZero;
}

void ExpectSameExec(const ExecResult& got, const ExecResult& want) {
  EXPECT_EQ(got.accept, want.accept);
  EXPECT_EQ(got.status, want.status);
  EXPECT_EQ(got.insns_executed, want.insns_executed);
  EXPECT_EQ(got.short_circuited, want.short_circuited);
}

void NoteValidProgram(const ValidatedProgram& validated, Coverage* coverage) {
  const Program& program = validated.program();
  (program.version == LangVersion::kV1 ? coverage->v1 : coverage->v2) = true;
  coverage->max_length |= program.words.size() == pf::kMaxProgramWords;
  coverage->max_depth |= validated.meta().max_stack_depth == pf::kMaxStackDepth;
  const std::optional<std::vector<pf::Instruction>> decoded = pf::DecodeProgram(program);
  for (const pf::Instruction& insn : *decoded) {
    coverage->ops[static_cast<size_t>(insn.op)] = true;
    coverage->actions[insn.action == StackAction::kPushWord ? 8
                                                            : static_cast<size_t>(insn.action)] =
        true;
  }
}

// One program, valid or not, through the validator, the disassembler and
// the interpreters.
void CheckProgram(pfutil::Rng* rng, const Program& program, Coverage* coverage) {
  const pf::ValidationResult validation = pf::Validate(program);
  coverage->errors[static_cast<size_t>(validation.error)] = true;
  EXPECT_FALSE(pf::Disassemble(program).empty());
  const std::optional<ValidatedProgram> validated = ValidatedProgram::Create(program);
  ASSERT_EQ(validated.has_value(), validation.ok);
  if (validated.has_value()) {
    NoteValidProgram(*validated, coverage);
  }
  const std::vector<pf::PredecodedInsn> decoded =
      validated.has_value() ? pf::Predecode(*validated) : std::vector<pf::PredecodedInsn>{};
  const std::optional<pf::BpfProgram> bpf = pf::CompileToBpf(program);
  for (int p = 0; p < kPacketsPerProgram; ++p) {
    SCOPED_TRACE("packet " + std::to_string(p));
    const std::vector<uint8_t> packet = RandomPacket(rng, p);
    const ExecResult checked = pf::InterpretChecked(program, packet);
    coverage->statuses[static_cast<size_t>(checked.status)] = true;
    if (!validated.has_value()) {
      continue;
    }
    EXPECT_FALSE(IsValidityFault(checked.status)) << pf::ToString(checked.status);
    ExpectSameExec(pf::InterpretPredecoded(decoded, packet), checked);
    if (bpf.has_value()) {
      EXPECT_EQ(pf::BpfRun(*bpf, packet) != 0, checked.accept);
    }
  }
}

// One filter set bound under every strategy, plain and profiled, over a
// packet stream.
void CheckFilterSet(pfutil::Rng* rng, Coverage* coverage) {
  std::vector<ValidatedProgram> programs;
  for (size_t i = rng->Range(1, 4); i > 0; --i) {
    const LangVersion version = rng->Chance(0.5) ? LangVersion::kV1 : LangVersion::kV2;
    const Program program = rng->Chance(0.5)
                                ? RandomConjunction(rng)
                                : RandomValidProgram(rng, version, rng->Range(1, 16));
    programs.push_back(*ValidatedProgram::Create(program));
  }
  constexpr size_t kCount = std::size(pf::kAllStrategies);
  std::vector<Engine> plain;
  std::vector<Engine> profiled;
  plain.reserve(kCount);
  profiled.reserve(kCount);
  for (const Strategy strategy : pf::kAllStrategies) {
    plain.emplace_back(strategy);
    profiled.emplace_back(strategy);
    profiled.back().SetProfiling(true);
    for (size_t key = 0; key < programs.size(); ++key) {
      plain.back().Bind(static_cast<Engine::Key>(key), programs[key]);
      profiled.back().Bind(static_cast<Engine::Key>(key), programs[key]);
    }
  }

  for (int p = 0; p < 2 * kPacketsPerProgram; ++p) {
    SCOPED_TRACE("packet " + std::to_string(p));
    const std::vector<uint8_t> packet = RandomPacket(rng, p);
    std::vector<Verdict> reference;
    for (size_t s = 0; s < kCount; ++s) {
      const Strategy strategy = pf::kAllStrategies[s];
      SCOPED_TRACE(pf::ToString(strategy));
      Engine::MatchPass pass = plain[s].Match(packet);
      Engine::MatchPass twin = profiled[s].Match(packet);
      for (size_t key = 0; key < programs.size(); ++key) {
        SCOPED_TRACE("filter " + std::to_string(key));
        const uint32_t ran_before = pass.telemetry().filters_run;
        const Verdict verdict = pass.Test(static_cast<Engine::Key>(key));
        const bool ran = pass.telemetry().filters_run != ran_before;
        const Verdict profiled_verdict = twin.Test(static_cast<Engine::Key>(key));
        EXPECT_EQ(profiled_verdict.accept, verdict.accept);
        EXPECT_EQ(profiled_verdict.status, verdict.status);
        EXPECT_EQ(profiled_verdict.insns_executed, verdict.insns_executed);
        if (strategy == Strategy::kChecked) {
          ASSERT_TRUE(ran);
          reference.push_back(verdict);
          continue;
        }
        const Verdict& want = reference[key];
        EXPECT_EQ(verdict.accept, want.accept);
        EXPECT_EQ(verdict.status, want.status);
        if (ran) {
          EXPECT_EQ(verdict.short_circuited, want.short_circuited);
          EXPECT_EQ(verdict.insns_executed, want.insns_executed);
        } else {
          // Only the index prunes, and only a filter that would have
          // rejected cleanly: no accept comes from anything but a run.
          EXPECT_EQ(strategy, Strategy::kIndexed);
          EXPECT_FALSE(want.accept);
          EXPECT_EQ(want.status, ExecStatus::kOk);
          EXPECT_FALSE(verdict.short_circuited);
          EXPECT_EQ(verdict.insns_executed, 0u);
          ++coverage->pruned;
        }
      }
      EXPECT_EQ(twin.telemetry().filters_run, pass.telemetry().filters_run);
      EXPECT_EQ(twin.telemetry().insns_executed, pass.telemetry().insns_executed);
      EXPECT_EQ(twin.telemetry().index_probes, pass.telemetry().index_probes);
    }
  }

  for (size_t key = 0; key < programs.size(); ++key) {
    const pf::ProgramProfile& want = *profiled[0].Profile(static_cast<Engine::Key>(key));
    for (size_t s = 1; s < kCount; ++s) {
      SCOPED_TRACE(pf::ToString(pf::kAllStrategies[s]) + " filter " + std::to_string(key));
      const pf::ProgramProfile& got = *profiled[s].Profile(static_cast<Engine::Key>(key));
      ASSERT_EQ(got.pc.size(), want.pc.size());
      for (size_t pc = 0; pc < want.pc.size(); ++pc) {
        EXPECT_EQ(got.pc[pc].hits, want.pc[pc].hits) << "pc " << pc;
        EXPECT_EQ(got.pc[pc].accept_exits, want.pc[pc].accept_exits) << "pc " << pc;
        EXPECT_EQ(got.pc[pc].reject_exits, want.pc[pc].reject_exits) << "pc " << pc;
        if (pf::kAllStrategies[s] == Strategy::kFast) {
          EXPECT_EQ(got.pc[pc].charged, want.pc[pc].charged) << "pc " << pc;
        }
      }
      EXPECT_EQ(got.passes, want.passes);
      EXPECT_EQ(got.accepts, want.accepts);
      EXPECT_EQ(got.rejects, want.rejects);
      EXPECT_EQ(got.errors, want.errors);
    }
  }
}

void RunSeed(uint64_t seed, Coverage* coverage) {
  pfutil::Rng rng(seed);
  for (int i = 0; i < kProgramsPerSeed; ++i) {
    SCOPED_TRACE("program " + std::to_string(i));
    const LangVersion version = rng.Chance(0.5) ? LangVersion::kV1 : LangVersion::kV2;
    Program program = rng.Chance(0.1) ? RandomConjunction(&rng)
                                      : RandomValidProgram(&rng, version, RandomLength(&rng));
    if (rng.Chance(0.4)) {
      program = Mutate(&rng, std::move(program));
    }
    CheckProgram(&rng, program, coverage);
    if (::testing::Test::HasFailure()) {
      return;
    }
  }
  for (int i = 0; i < kFilterSetsPerSeed; ++i) {
    SCOPED_TRACE("filter set " + std::to_string(i));
    CheckFilterSet(&rng, coverage);
    if (::testing::Test::HasFailure()) {
      return;
    }
  }
}

TEST(ProgramFuzzTest, GeneratedProgramsAgreeAcrossExecutionPathsAndStrategies) {
  const char* seconds_env = std::getenv("PF_PROGRAM_FUZZ_SECONDS");
  const char* seed_env = std::getenv("PF_PROGRAM_FUZZ_SEED");
  const double budget_s = seconds_env != nullptr ? std::atof(seconds_env) : 2.0;
  const uint64_t first_seed = seed_env != nullptr ? std::strtoull(seed_env, nullptr, 10) : 1;
  const auto start = std::chrono::steady_clock::now();
  const auto elapsed_s = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  };
  uint64_t seed = first_seed;
  do {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Coverage coverage;
    RunSeed(seed, &coverage);
    if (::testing::Test::HasFailure()) {
      return;
    }
    if (seed == first_seed) {
      coverage.Expect();
    }
    ++seed;
  } while (elapsed_s() < budget_s);
  ::testing::Test::RecordProperty("seeds", static_cast<int>(seed - first_seed));
}

}  // namespace

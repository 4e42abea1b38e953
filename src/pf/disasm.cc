#include "src/pf/disasm.h"

#include <algorithm>
#include <cstdio>
#include <map>

namespace pf {

std::string DisassembleInstruction(const Instruction& insn) {
  std::string out;
  if (insn.action == StackAction::kPushWord) {
    out = "PUSHWORD+" + std::to_string(insn.word_index);
  } else {
    out = ToString(insn.action);
  }
  if (insn.op != BinaryOp::kNop) {
    if (insn.action == StackAction::kNoPush) {
      out = ToString(insn.op);  // paper renders bare ops without "NOPUSH |"
    } else {
      out += " | " + ToString(insn.op);
    }
  }
  if (insn.HasLiteral()) {
    out += ", " + std::to_string(insn.literal);
  }
  return out;
}

std::string Disassemble(const Program& program) {
  char header[96];
  std::snprintf(header, sizeof(header), "filter: priority %u, %zu words, %s\n", program.priority,
                program.words.size(), program.version == LangVersion::kV1 ? "v1" : "v2");
  std::string out = header;
  // Decode incrementally so a malformed tail still shows the valid prefix.
  Program prefix = program;
  while (!prefix.words.empty()) {
    if (auto decoded = DecodeProgram(prefix)) {
      for (const Instruction& insn : *decoded) {
        out += "  " + DisassembleInstruction(insn) + "\n";
      }
      if (prefix.words.size() != program.words.size()) {
        out += "  <malformed tail: " +
               std::to_string(program.words.size() - prefix.words.size()) + " word(s)>\n";
      }
      return out;
    }
    prefix.words.pop_back();
  }
  if (!program.words.empty()) {
    out += "  <malformed program>\n";
  }
  return out;
}

namespace {

// The attribution bucket an instruction belongs to: its binary operator, or
// for pure pushes, the push kind.
std::string OpcodeClass(const Instruction& insn) {
  if (insn.op != BinaryOp::kNop) {
    return ToString(insn.op);
  }
  return insn.action == StackAction::kPushWord ? "PUSHWORD" : ToString(insn.action);
}

}  // namespace

std::vector<OpcodeAttribution> AttributeByOpcode(const ValidatedProgram& program,
                                                 const ProgramProfile& profile) {
  std::vector<OpcodeAttribution> out;
  const auto decoded = DecodeProgram(program.program());
  if (!decoded.has_value() || decoded->size() != profile.pc.size()) {
    return out;  // profile does not belong to this program
  }
  std::map<std::string, OpcodeAttribution> by_opcode;
  for (size_t i = 0; i < decoded->size(); ++i) {
    OpcodeAttribution& slot = by_opcode[OpcodeClass((*decoded)[i])];
    slot.hits += profile.pc[i].hits;
    slot.charged += profile.pc[i].charged;
  }
  out.reserve(by_opcode.size());
  for (auto& [opcode, slot] : by_opcode) {
    slot.opcode = opcode;
    out.push_back(std::move(slot));
  }
  std::sort(out.begin(), out.end(), [](const OpcodeAttribution& a, const OpcodeAttribution& b) {
    if (a.hits != b.hits) {
      return a.hits > b.hits;
    }
    return a.opcode < b.opcode;
  });
  return out;
}

std::string DisassembleAnnotated(const ValidatedProgram& program, const ProgramProfile& profile,
                                 int64_t insn_cost_ns) {
  const Program& raw = program.program();
  char line[192];
  std::snprintf(line, sizeof(line), "filter: priority %u, %zu words, %s\n", raw.priority,
                raw.words.size(), raw.version == LangVersion::kV1 ? "v1" : "v2");
  std::string out = line;
  std::snprintf(line, sizeof(line),
                "profile: %llu passes (%llu charged runs), %llu accept / %llu reject / "
                "%llu error\n",
                static_cast<unsigned long long>(profile.passes),
                static_cast<unsigned long long>(profile.runs),
                static_cast<unsigned long long>(profile.accepts),
                static_cast<unsigned long long>(profile.rejects),
                static_cast<unsigned long long>(profile.errors));
  out += line;

  const auto decoded = DecodeProgram(raw);
  if (!decoded.has_value() || decoded->size() != profile.pc.size()) {
    out += "  <profile does not match program>\n";
    return out;
  }
  const char* cost_unit = insn_cost_ns > 0 ? "cum-ns" : "cum-insns";
  std::snprintf(line, sizeof(line), "  pc %10s %10s %9s %9s %10s  insn\n", "hits", "charged",
                "acc-exit", "rej-exit", cost_unit);
  out += line;
  const int hottest = profile.HottestPc();
  const int64_t unit = insn_cost_ns > 0 ? insn_cost_ns : 1;
  uint64_t cumulative = 0;
  for (size_t i = 0; i < decoded->size(); ++i) {
    const PcProfile& slot = profile.pc[i];
    cumulative += slot.charged * static_cast<uint64_t>(unit);
    std::snprintf(line, sizeof(line), "  %2zu %10llu %10llu %9llu %9llu %10llu  %s%s\n", i,
                  static_cast<unsigned long long>(slot.hits),
                  static_cast<unsigned long long>(slot.charged),
                  static_cast<unsigned long long>(slot.accept_exits),
                  static_cast<unsigned long long>(slot.reject_exits),
                  static_cast<unsigned long long>(cumulative),
                  DisassembleInstruction((*decoded)[i]).c_str(),
                  static_cast<int>(i) == hottest ? "   <-- hot" : "");
    out += line;
  }
  for (const OpcodeAttribution& slot : AttributeByOpcode(program, profile)) {
    std::snprintf(line, sizeof(line), "  op %-12s hits=%llu charged=%llu cost=%llu%s\n",
                  slot.opcode.c_str(), static_cast<unsigned long long>(slot.hits),
                  static_cast<unsigned long long>(slot.charged),
                  static_cast<unsigned long long>(slot.charged * static_cast<uint64_t>(unit)),
                  insn_cost_ns > 0 ? "ns" : "");
    out += line;
  }
  return out;
}

}  // namespace pf

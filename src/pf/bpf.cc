#include "src/pf/bpf.h"

#include <cstdio>

#include "src/pf/conjunction.h"

namespace pf {

namespace {

using namespace bpf;  // NOLINT: the encoding constants read like the spec

// One place that says which code values this machine implements; shared by
// the interpreter and the validator so they can never drift apart.
bool CodeKnown(uint16_t code) {
  switch (code) {
    case kLd | kW | kAbs:
    case kLd | kH | kAbs:
    case kLd | kB | kAbs:
    case kLd | kW | kInd:
    case kLd | kH | kInd:
    case kLd | kB | kInd:
    case kLd | kImm:
    case kLd | kW | kLen:
    case kLd | kMem:
    case kLdx | kImm:
    case kLdx | kW | kLen:
    case kLdx | kMem:
    case kLdx | kB | kMsh:
    case kSt:
    case kStx:
    case kAlu | kAdd | kK:
    case kAlu | kAdd | kX:
    case kAlu | kSub | kK:
    case kAlu | kSub | kX:
    case kAlu | kMul | kK:
    case kAlu | kMul | kX:
    case kAlu | kDiv | kK:
    case kAlu | kDiv | kX:
    case kAlu | kMod | kK:
    case kAlu | kMod | kX:
    case kAlu | kAnd | kK:
    case kAlu | kAnd | kX:
    case kAlu | kOr | kK:
    case kAlu | kOr | kX:
    case kAlu | kXor | kK:
    case kAlu | kXor | kX:
    case kAlu | kLsh | kK:
    case kAlu | kLsh | kX:
    case kAlu | kRsh | kK:
    case kAlu | kRsh | kX:
    case kAlu | kNeg:
    case kJmp | kJa:
    case kJmp | kJeq | kK:
    case kJmp | kJeq | kX:
    case kJmp | kJgt | kK:
    case kJmp | kJgt | kX:
    case kJmp | kJge | kK:
    case kJmp | kJge | kX:
    case kJmp | kJset | kK:
    case kJmp | kJset | kX:
    case kRet | kK:
    case kRet | kA:
    case kMisc:         // tax
    case kMisc | 0x80:  // txa
      return true;
    default:
      return false;
  }
}

}  // namespace

std::optional<BpfProgram> CompileToBpf(const Program& program) {
  const std::optional<std::vector<FieldTest>> tests = ExtractConjunction(program);
  if (!tests.has_value()) {
    return std::nullopt;
  }
  BpfProgram out;
  if (tests->empty()) {
    // Accept-all (the empty filter / empty conjunction).
    out.insns.push_back({kRet | kK, 0, 0, 0xFFFF});
    return out;
  }
  std::vector<size_t> jeq_at;
  for (const FieldTest& test : *tests) {
    out.insns.push_back({kLd | kH | kAbs, 0, 0, static_cast<uint32_t>(2 * test.word)});
    if (test.mask != 0xffff) {
      out.insns.push_back({kAlu | kAnd | kK, 0, 0, test.mask});
    }
    jeq_at.push_back(out.insns.size());
    // Compare against the *unmasked* expected value: a CSPF test whose
    // value has bits outside its mask can never match, and neither can
    // this jeq (A was masked).
    out.insns.push_back({kJmp | kJeq | kK, 0, 0, test.value});
  }
  out.insns.push_back({kRet | kK, 0, 0, 0xFFFF});  // accept: fell through every test
  out.insns.push_back({kRet | kK, 0, 0, 0});       // reject
  const size_t reject = out.insns.size() - 1;
  for (const size_t at : jeq_at) {
    const size_t offset = reject - at - 1;
    if (offset > 0xff) {
      return std::nullopt;  // conjunction too long for an 8-bit jump
    }
    out.insns[at].jf = static_cast<uint8_t>(offset);
  }
  return out;
}

uint32_t BpfRun(const BpfProgram& program, std::span<const uint8_t> packet) {
  const size_t len = packet.size();
  uint32_t a = 0;
  uint32_t x = 0;
  uint32_t mem[kMemWords] = {};
  size_t pc = 0;
  // Jumps are forward-only, so the loop terminates; running off the end
  // (or any bad load / division) aborts with 0, as in the classic filter.
  while (pc < program.insns.size()) {
    const BpfInsn& insn = program.insns[pc];
    ++pc;  // all jump offsets are relative to the *next* instruction
    const uint32_t k = insn.k;
    switch (insn.code) {
      case kLd | kW | kAbs:
        if (static_cast<size_t>(k) + 4 > len) return 0;
        a = (static_cast<uint32_t>(packet[k]) << 24) |
            (static_cast<uint32_t>(packet[k + 1]) << 16) |
            (static_cast<uint32_t>(packet[k + 2]) << 8) | packet[k + 3];
        break;
      case kLd | kH | kAbs:
        if (static_cast<size_t>(k) + 2 > len) return 0;
        a = (static_cast<uint32_t>(packet[k]) << 8) | packet[k + 1];
        break;
      case kLd | kB | kAbs:
        if (static_cast<size_t>(k) >= len) return 0;
        a = packet[k];
        break;
      case kLd | kW | kInd: {
        const size_t off = static_cast<size_t>(x) + k;
        if (off + 4 > len || off + 4 < off) return 0;
        a = (static_cast<uint32_t>(packet[off]) << 24) |
            (static_cast<uint32_t>(packet[off + 1]) << 16) |
            (static_cast<uint32_t>(packet[off + 2]) << 8) | packet[off + 3];
        break;
      }
      case kLd | kH | kInd: {
        const size_t off = static_cast<size_t>(x) + k;
        if (off + 2 > len || off + 2 < off) return 0;
        a = (static_cast<uint32_t>(packet[off]) << 8) | packet[off + 1];
        break;
      }
      case kLd | kB | kInd: {
        const size_t off = static_cast<size_t>(x) + k;
        if (off >= len) return 0;
        a = packet[off];
        break;
      }
      case kLd | kImm:
        a = k;
        break;
      case kLd | kW | kLen:
        a = static_cast<uint32_t>(len);
        break;
      case kLd | kMem:
        if (k >= kMemWords) return 0;
        a = mem[k];
        break;
      case kLdx | kImm:
        x = k;
        break;
      case kLdx | kW | kLen:
        x = static_cast<uint32_t>(len);
        break;
      case kLdx | kMem:
        if (k >= kMemWords) return 0;
        x = mem[k];
        break;
      case kLdx | kB | kMsh:  // IP header length idiom: 4 * (p[k] & 0xf)
        if (static_cast<size_t>(k) >= len) return 0;
        x = static_cast<uint32_t>(packet[k] & 0x0f) << 2;
        break;
      case kSt:
        if (k >= kMemWords) return 0;
        mem[k] = a;
        break;
      case kStx:
        if (k >= kMemWords) return 0;
        mem[k] = x;
        break;
      case kAlu | kAdd | kK: a += k; break;
      case kAlu | kAdd | kX: a += x; break;
      case kAlu | kSub | kK: a -= k; break;
      case kAlu | kSub | kX: a -= x; break;
      case kAlu | kMul | kK: a *= k; break;
      case kAlu | kMul | kX: a *= x; break;
      case kAlu | kDiv | kK:
        if (k == 0) return 0;
        a /= k;
        break;
      case kAlu | kDiv | kX:
        if (x == 0) return 0;
        a /= x;
        break;
      case kAlu | kMod | kK:
        if (k == 0) return 0;
        a %= k;
        break;
      case kAlu | kMod | kX:
        if (x == 0) return 0;
        a %= x;
        break;
      case kAlu | kAnd | kK: a &= k; break;
      case kAlu | kAnd | kX: a &= x; break;
      case kAlu | kOr | kK: a |= k; break;
      case kAlu | kOr | kX: a |= x; break;
      case kAlu | kXor | kK: a ^= k; break;
      case kAlu | kXor | kX: a ^= x; break;
      case kAlu | kLsh | kK: a = k < 32 ? a << k : 0; break;
      case kAlu | kLsh | kX: a = x < 32 ? a << x : 0; break;
      case kAlu | kRsh | kK: a = k < 32 ? a >> k : 0; break;
      case kAlu | kRsh | kX: a = x < 32 ? a >> x : 0; break;
      case kAlu | kNeg: a = 0u - a; break;
      case kJmp | kJa:
        pc += k;
        break;
      case kJmp | kJeq | kK: pc += a == k ? insn.jt : insn.jf; break;
      case kJmp | kJeq | kX: pc += a == x ? insn.jt : insn.jf; break;
      case kJmp | kJgt | kK: pc += a > k ? insn.jt : insn.jf; break;
      case kJmp | kJgt | kX: pc += a > x ? insn.jt : insn.jf; break;
      case kJmp | kJge | kK: pc += a >= k ? insn.jt : insn.jf; break;
      case kJmp | kJge | kX: pc += a >= x ? insn.jt : insn.jf; break;
      case kJmp | kJset | kK: pc += (a & k) != 0 ? insn.jt : insn.jf; break;
      case kJmp | kJset | kX: pc += (a & x) != 0 ? insn.jt : insn.jf; break;
      case kRet | kK:
        return k;
      case kRet | kA:
        return a;
      case kMisc:  // tax
        x = a;
        break;
      case kMisc | 0x80:  // txa
        a = x;
        break;
      default:
        return 0;  // unknown opcode: abort
    }
  }
  return 0;  // ran off the end
}

bool BpfValidate(const BpfProgram& program, std::string* error) {
  const auto fail = [error](const std::string& why) {
    if (error != nullptr) {
      *error = why;
    }
    return false;
  };
  const size_t len = program.insns.size();
  if (len == 0) {
    return fail("empty program");
  }
  if (len > kMaxInsns) {
    return fail("program exceeds BPF_MAXINSNS");
  }
  for (size_t pc = 0; pc < len; ++pc) {
    const BpfInsn& insn = program.insns[pc];
    char where[64];
    std::snprintf(where, sizeof(where), " at insn %zu", pc);
    if (!CodeKnown(insn.code)) {
      return fail("unknown opcode" + std::string(where));
    }
    const uint16_t klass = ClassOf(insn.code);
    if (klass == kJmp) {
      if (insn.code == (kJmp | kJa)) {
        if (static_cast<uint64_t>(pc) + 1 + insn.k >= len) {
          return fail("ja target out of bounds" + std::string(where));
        }
      } else {
        if (pc + 1 + insn.jt >= len || pc + 1 + insn.jf >= len) {
          return fail("conditional jump target out of bounds" + std::string(where));
        }
      }
    }
    if ((insn.code == (kLd | kMem) || insn.code == (kLdx | kMem) || klass == kSt ||
         klass == kStx) &&
        insn.k >= kMemWords) {
      return fail("scratch memory index out of range" + std::string(where));
    }
    if ((insn.code == (kAlu | kDiv | kK) || insn.code == (kAlu | kMod | kK)) && insn.k == 0) {
      return fail("constant zero divisor" + std::string(where));
    }
  }
  if (ClassOf(program.insns[len - 1].code) != kRet) {
    return fail("program does not end in RET");
  }
  return true;
}

std::string BpfDisassemble(const BpfProgram& program) {
  std::string out;
  char line[96];
  for (size_t pc = 0; pc < program.insns.size(); ++pc) {
    const BpfInsn& insn = program.insns[pc];
    const uint32_t k = insn.k;
    char body[64];
    const char* name = "unimp";
    switch (insn.code) {
      case kLd | kW | kAbs: name = "ld"; std::snprintf(body, sizeof(body), "[%u]", k); break;
      case kLd | kH | kAbs: name = "ldh"; std::snprintf(body, sizeof(body), "[%u]", k); break;
      case kLd | kB | kAbs: name = "ldb"; std::snprintf(body, sizeof(body), "[%u]", k); break;
      case kLd | kW | kInd: name = "ld"; std::snprintf(body, sizeof(body), "[x + %u]", k); break;
      case kLd | kH | kInd: name = "ldh"; std::snprintf(body, sizeof(body), "[x + %u]", k); break;
      case kLd | kB | kInd: name = "ldb"; std::snprintf(body, sizeof(body), "[x + %u]", k); break;
      case kLd | kImm: name = "ld"; std::snprintf(body, sizeof(body), "#0x%x", k); break;
      case kLd | kW | kLen: name = "ld"; std::snprintf(body, sizeof(body), "#pktlen"); break;
      case kLd | kMem: name = "ld"; std::snprintf(body, sizeof(body), "M[%u]", k); break;
      case kLdx | kImm: name = "ldx"; std::snprintf(body, sizeof(body), "#0x%x", k); break;
      case kLdx | kW | kLen: name = "ldx"; std::snprintf(body, sizeof(body), "#pktlen"); break;
      case kLdx | kMem: name = "ldx"; std::snprintf(body, sizeof(body), "M[%u]", k); break;
      case kLdx | kB | kMsh:
        name = "ldxb";
        std::snprintf(body, sizeof(body), "4*([%u]&0xf)", k);
        break;
      case kSt: name = "st"; std::snprintf(body, sizeof(body), "M[%u]", k); break;
      case kStx: name = "stx"; std::snprintf(body, sizeof(body), "M[%u]", k); break;
      case kAlu | kAdd | kK: name = "add"; std::snprintf(body, sizeof(body), "#0x%x", k); break;
      case kAlu | kAdd | kX: name = "add"; std::snprintf(body, sizeof(body), "x"); break;
      case kAlu | kSub | kK: name = "sub"; std::snprintf(body, sizeof(body), "#0x%x", k); break;
      case kAlu | kSub | kX: name = "sub"; std::snprintf(body, sizeof(body), "x"); break;
      case kAlu | kMul | kK: name = "mul"; std::snprintf(body, sizeof(body), "#0x%x", k); break;
      case kAlu | kMul | kX: name = "mul"; std::snprintf(body, sizeof(body), "x"); break;
      case kAlu | kDiv | kK: name = "div"; std::snprintf(body, sizeof(body), "#0x%x", k); break;
      case kAlu | kDiv | kX: name = "div"; std::snprintf(body, sizeof(body), "x"); break;
      case kAlu | kMod | kK: name = "mod"; std::snprintf(body, sizeof(body), "#0x%x", k); break;
      case kAlu | kMod | kX: name = "mod"; std::snprintf(body, sizeof(body), "x"); break;
      case kAlu | kAnd | kK: name = "and"; std::snprintf(body, sizeof(body), "#0x%x", k); break;
      case kAlu | kAnd | kX: name = "and"; std::snprintf(body, sizeof(body), "x"); break;
      case kAlu | kOr | kK: name = "or"; std::snprintf(body, sizeof(body), "#0x%x", k); break;
      case kAlu | kOr | kX: name = "or"; std::snprintf(body, sizeof(body), "x"); break;
      case kAlu | kXor | kK: name = "xor"; std::snprintf(body, sizeof(body), "#0x%x", k); break;
      case kAlu | kXor | kX: name = "xor"; std::snprintf(body, sizeof(body), "x"); break;
      case kAlu | kLsh | kK: name = "lsh"; std::snprintf(body, sizeof(body), "#%u", k); break;
      case kAlu | kLsh | kX: name = "lsh"; std::snprintf(body, sizeof(body), "x"); break;
      case kAlu | kRsh | kK: name = "rsh"; std::snprintf(body, sizeof(body), "#%u", k); break;
      case kAlu | kRsh | kX: name = "rsh"; std::snprintf(body, sizeof(body), "x"); break;
      case kAlu | kNeg: name = "neg"; body[0] = '\0'; break;
      case kJmp | kJa:
        name = "ja";
        std::snprintf(body, sizeof(body), "%zu", pc + 1 + k);
        break;
      case kJmp | kJeq | kK: name = "jeq"; std::snprintf(body, sizeof(body), "#0x%x", k); break;
      case kJmp | kJeq | kX: name = "jeq"; std::snprintf(body, sizeof(body), "x"); break;
      case kJmp | kJgt | kK: name = "jgt"; std::snprintf(body, sizeof(body), "#0x%x", k); break;
      case kJmp | kJgt | kX: name = "jgt"; std::snprintf(body, sizeof(body), "x"); break;
      case kJmp | kJge | kK: name = "jge"; std::snprintf(body, sizeof(body), "#0x%x", k); break;
      case kJmp | kJge | kX: name = "jge"; std::snprintf(body, sizeof(body), "x"); break;
      case kJmp | kJset | kK: name = "jset"; std::snprintf(body, sizeof(body), "#0x%x", k); break;
      case kJmp | kJset | kX: name = "jset"; std::snprintf(body, sizeof(body), "x"); break;
      case kRet | kK: name = "ret"; std::snprintf(body, sizeof(body), "#%u", k); break;
      case kRet | kA: name = "ret"; std::snprintf(body, sizeof(body), "a"); break;
      case kMisc: name = "tax"; body[0] = '\0'; break;
      case kMisc | 0x80: name = "txa"; body[0] = '\0'; break;
      default: std::snprintf(body, sizeof(body), "0x%x", insn.code); break;
    }
    if (ClassOf(insn.code) == kJmp && insn.code != (kJmp | kJa)) {
      // Conditional jumps print their absolute targets, tcpdump -d style.
      std::snprintf(line, sizeof(line), "(%03zu) %-8s %-16s jt %-4zu jf %zu\n", pc, name, body,
                    pc + 1 + insn.jt, pc + 1 + insn.jf);
    } else {
      std::snprintf(line, sizeof(line), "(%03zu) %-8s %s\n", pc, name, body);
    }
    out += line;
  }
  return out;
}

}  // namespace pf

// CSPF → classic BPF cross-compilation, with an embedded reference BPF
// interpreter (ROADMAP item 2).
//
// The paper's filter language (CSPF) is the direct ancestor of the
// accumulator-machine BSD Packet Filter; npf and every tcpdump descend from
// it. Translating our conjunction-shaped filters into classic BPF gives the
// repository a second, *independently specified* execution semantics to
// differential-test the engine against (tests/bpf_test.cc): a program that
// both the §4 interpreter and a from-the-spec BPF machine accept or reject
// identically on random packets is very unlikely to be mis-compiled by
// either path.
//
// Scope: CompileToBpf() handles the canonical conjunction subset (the
// shape ExtractConjunction recognizes — the paper's own examples, and what
// the kIndexed dispatch index covers). Each field test lowers to
//
//     ldh [2*word]        ; the 16-bit packet word, network order
//     and #mask           ; omitted when the test is unmasked
//     jeq #value, L, Lrej ; fall through on match, reject on mismatch
//
// followed by `ret #0xFFFF` (accept) and `ret #0` (reject). Verdict parity
// on short packets is inherited from the machines themselves: a classic
// BPF load past the end of the packet aborts the program and returns 0,
// exactly as a CSPF conjunction rejects with kOutOfPacket.
//
// BpfRun() implements the classic (cBPF) machine: 32-bit accumulator A,
// index register X, 16 scratch memory words, forward-only jumps. BpfValidate
// mirrors the kernel's bpf_validate: in-bounds forward jumps, known
// opcodes, RET-terminated. BpfDisassemble renders `tcpdump -d`-style
// listings (golden-tested).
#ifndef SRC_PF_BPF_H_
#define SRC_PF_BPF_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/pf/program.h"

namespace pf {

// Classic BPF instruction encoding (bpf(4)). The code field is the OR of an
// instruction class with its size/mode/operation/source modifiers.
namespace bpf {
// Instruction classes.
inline constexpr uint16_t kLd = 0x00;
inline constexpr uint16_t kLdx = 0x01;
inline constexpr uint16_t kSt = 0x02;
inline constexpr uint16_t kStx = 0x03;
inline constexpr uint16_t kAlu = 0x04;
inline constexpr uint16_t kJmp = 0x05;
inline constexpr uint16_t kRet = 0x06;
inline constexpr uint16_t kMisc = 0x07;
// ld/ldx size.
inline constexpr uint16_t kW = 0x00;
inline constexpr uint16_t kH = 0x08;
inline constexpr uint16_t kB = 0x10;
// ld/ldx mode.
inline constexpr uint16_t kImm = 0x00;
inline constexpr uint16_t kAbs = 0x20;
inline constexpr uint16_t kInd = 0x40;
inline constexpr uint16_t kMem = 0x60;
inline constexpr uint16_t kLen = 0x80;
inline constexpr uint16_t kMsh = 0xa0;
// alu/jmp operations.
inline constexpr uint16_t kAdd = 0x00;
inline constexpr uint16_t kSub = 0x10;
inline constexpr uint16_t kMul = 0x20;
inline constexpr uint16_t kDiv = 0x30;
inline constexpr uint16_t kOr = 0x40;
inline constexpr uint16_t kAnd = 0x50;
inline constexpr uint16_t kLsh = 0x60;
inline constexpr uint16_t kRsh = 0x70;
inline constexpr uint16_t kNeg = 0x80;
inline constexpr uint16_t kMod = 0x90;
inline constexpr uint16_t kXor = 0xa0;
inline constexpr uint16_t kJa = 0x00;
inline constexpr uint16_t kJeq = 0x10;
inline constexpr uint16_t kJgt = 0x20;
inline constexpr uint16_t kJge = 0x30;
inline constexpr uint16_t kJset = 0x40;
// Operand source / return source.
inline constexpr uint16_t kK = 0x00;
inline constexpr uint16_t kX = 0x08;
inline constexpr uint16_t kA = 0x10;

inline constexpr size_t kMemWords = 16;   // scratch memory slots
inline constexpr size_t kMaxInsns = 512;  // BPF_MAXINSNS

inline constexpr uint16_t ClassOf(uint16_t code) { return code & 0x07; }
}  // namespace bpf

struct BpfInsn {
  uint16_t code = 0;
  uint8_t jt = 0;  // jump-true offset (pc += 1 + jt)
  uint8_t jf = 0;  // jump-false offset
  uint32_t k = 0;

  friend bool operator==(const BpfInsn&, const BpfInsn&) = default;
};

struct BpfProgram {
  std::vector<BpfInsn> insns;
};

// Lowers a CSPF conjunction program to classic BPF. nullopt when the
// program is outside the conjunction subset (ranges, ORs, arithmetic,
// indirect pushes), or — pathological — when a jump offset would not fit
// in 8 bits. Accept-all programs compile to a single `ret #0xFFFF`.
std::optional<BpfProgram> CompileToBpf(const Program& program);

// The reference interpreter: returns the RET value (the number of packet
// bytes to accept; our filters return 0xFFFF). Returns 0 — reject — when
// the program reads past the packet, divides by zero, or runs off the end,
// matching the classic bpf_filter's abort semantics. The program should
// have passed BpfValidate (out-of-bounds pcs abort with 0 regardless).
uint32_t BpfRun(const BpfProgram& program, std::span<const uint8_t> packet);

// Mirror of the kernel's bpf_validate: non-empty, at most kMaxInsns, known
// opcodes only, all jumps forward and in bounds, scratch-memory indices in
// range, no constant zero divisor, terminated by RET. Writes a short
// reason to *error (if non-null) on failure.
bool BpfValidate(const BpfProgram& program, std::string* error = nullptr);

// `tcpdump -d`-style listing, one instruction per line:
//   (000) ldh      [16]
//   (001) jeq      #0x23            jt 2    jf 5
//   (004) ret      #65535
std::string BpfDisassemble(const BpfProgram& program);

}  // namespace pf

#endif  // SRC_PF_BPF_H_

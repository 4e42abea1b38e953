// The conjunction shape of a filter program.
//
// §7: "with a redesigned filter language it might be possible to compile the
// set of active filters into a decision table, which should provide the best
// possible performance." The filters such a table can cover are the (very
// common) conjunctions of masked-word equality tests — the shape the paper's
// own examples have, and the shape FilterBuilder's WordEquals /
// MaskedWordEquals helpers emit. ExtractConjunction() recognizes that shape;
// the engine's kIndexed hash dispatch (engine.h) builds its decision table
// from the result, and the CSPF -> BPF cross-compiler (bpf.h) lowers it.
// Filters that do not fit (ranges, ORs, arithmetic, indirect pushes) run on
// the sequential path.
#ifndef SRC_PF_CONJUNCTION_H_
#define SRC_PF_CONJUNCTION_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/pf/program.h"

namespace pf {

// One field test: (packet.word[word] & mask) == value.
struct FieldTest {
  uint8_t word = 0;
  uint16_t mask = 0xffff;
  uint16_t value = 0;

  friend bool operator==(const FieldTest&, const FieldTest&) = default;
};

// The (word, mask) pair a FieldTest examines — the unit the engine's hashed
// dispatch index groups by when choosing discriminating probes.
struct FieldTestKey {
  uint8_t word = 0;
  uint16_t mask = 0xffff;

  friend bool operator==(const FieldTestKey&, const FieldTestKey&) = default;
  friend bool operator<(const FieldTestKey& a, const FieldTestKey& b) {
    return a.word != b.word ? a.word < b.word : a.mask < b.mask;
  }
};

inline FieldTestKey KeyOf(const FieldTest& test) { return FieldTestKey{test.word, test.mask}; }

// Attempts to express `program` as a conjunction of field tests (an empty
// vector means the filter accepts everything). Returns nullopt when the
// program is not in the canonical conjunction shape:
//   { PUSHWORD+n [, <mask>|AND ] , PUSHLIT|CAND v }*
//     PUSHWORD+n [, <mask>|AND ] , PUSHLIT|(EQ or CAND) v
// with PUSHZERO|CAND / PUSHZERO|EQ accepted for v == 0 (fig. 3-9's idiom).
std::optional<std::vector<FieldTest>> ExtractConjunction(const Program& program);

}  // namespace pf

#endif  // SRC_PF_CONJUNCTION_H_

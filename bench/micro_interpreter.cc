// Wall-clock ns/packet for filter execution, all routed through pf::Engine —
// the §4 "inner loop is quite busy" code, plus the §7 improvements this
// repository implements as Engine strategies:
//   * kChecked vs kFast: run-time checking vs ahead-of-time validation and
//     bind-time pre-decode (no per-instruction word splitting, literal
//     fetches or stack checks),
//   * kTree / kIndexed: one decision-tree walk / hash probe where eligible,
//   * short-circuit operators (fig. 3-8 vs fig. 3-9 on hit/miss traffic),
//   * filter length sweep (the table 6-10 shape in nanoseconds).
//
// Rows land in the observatory's `wall` tolerance class ("ns"-leading unit),
// so the baseline gate only enforces them on Release, sanitizer-free hosts.
//
// Every run evaluates the ahead-of-time regression gate: on the long-filter
// shapes, kFast must stay at least 1.5x faster than kChecked. The gate is
// enforced only on a sanitizer-free Release-family build; elsewhere the
// ratios print as informational.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/pf/builder.h"
#include "src/pf/engine.h"
#include "tests/test_packets.h"

namespace {

constexpr pf::Engine::Key kKey = 1;

const std::vector<uint8_t>& MatchingPacket() {
  static const std::vector<uint8_t> packet = pftest::MakePupFrame(50, 35, 2, 1, 64);
  return packet;
}
const std::vector<uint8_t>& NonMatchingPacket() {
  static const std::vector<uint8_t> packet = pftest::MakePupFrame(50, 9999, 2, 1, 64);
  return packet;
}

// The table 6-10 shape: a constant chain of n instructions — pure
// per-instruction dispatch, no packet loads.
pf::Program LengthN(int n) {
  pf::FilterBuilder b;
  if (n > 0) {
    b.PushOne();
    for (int i = 1; i < n; ++i) {
      b.ConstOp(pf::StackAction::kPushOne, pf::BinaryOp::kAnd);
    }
  }
  return b.Build(10);
}

// A long short-circuit conjunction over live packet words (terms cycle
// through the three fig. 3-9 tests, all true on MatchingPacket): a packet
// load and a literal compare per term.
pf::Program ConjunctionN(int terms) {
  static const uint8_t kWords[] = {8, 7, 1};
  static const uint16_t kValues[] = {35, 0, 2};
  pf::FilterBuilder b;
  for (int i = 0; i < terms; ++i) {
    const int t = i % 3;
    if (i + 1 < terms) {
      b.PushWord(kWords[t]).Lit(pf::BinaryOp::kCand, kValues[t]);
    } else {
      b.PushWord(kWords[t]).Lit(pf::BinaryOp::kEq, kValues[t]);
    }
  }
  return b.Build(10);
}

// Fig. 3-8 style miss: plain EQ + AND, no short-circuits, so a miss still
// walks the whole program.
pf::Program NoShortCircuit() {
  pf::FilterBuilder b;
  b.WordEquals(8, 35).WordEquals(7, 0).Op(pf::BinaryOp::kAnd).WordEquals(1, 2).Op(
      pf::BinaryOp::kAnd);
  return b.Build(10);
}

// v2 indirect push (§7): the variable-offset read the paper wished for.
pf::Program IndirectPush() {
  pf::FilterBuilder b(pf::LangVersion::kV2);
  b.PushLit(2).Lit(pf::BinaryOp::kAdd, 4).IndOp().Lit(pf::BinaryOp::kEq, 0);
  return b.Build(10);
}

// One bound filter and one packet under every strategy: warm up, then time
// the Match+Test hot loop with the steady clock. Strategies are timed in
// interleaved rounds, so a shift in host load lands on all of them alike
// and the kChecked/kFast ratio the gate reads stays paired. Each strategy
// reports its fastest round — the noise-robust estimator, since scheduler
// and cache interference only ever add time. Indexed like kAllStrategies.
std::vector<double> MeasureNsPerPacket(const pf::Program& program,
                                       const std::vector<uint8_t>& packet) {
  std::vector<pf::Engine> engines;
  engines.reserve(pf::kStrategyCount);
  for (const pf::Strategy strategy : pf::kAllStrategies) {
    engines.emplace_back(strategy);
    engines.back().Bind(kKey, *pf::ValidatedProgram::Create(program));
  }

  uint64_t accepted = 0;
  const auto run = [&](pf::Engine& engine, int iterations) {
    for (int i = 0; i < iterations; ++i) {
      pf::Engine::MatchPass pass = engine.Match(packet);
      accepted += pass.Test(kKey).accept ? 1 : 0;
    }
  };
  constexpr int kWarmup = 2048;
  for (pf::Engine& engine : engines) {
    run(engine, kWarmup);
  }

  constexpr int kRounds = 7;
  constexpr int kIters = 16384;
  std::vector<double> best(engines.size(), std::numeric_limits<double>::infinity());
  for (int round = 0; round < kRounds; ++round) {
    for (size_t s = 0; s < engines.size(); ++s) {
      const auto start = std::chrono::steady_clock::now();
      run(engines[s], kIters);
      const auto end = std::chrono::steady_clock::now();
      const double ns =
          static_cast<double>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(end - start).count()) /
          kIters;
      best[s] = std::min(best[s], ns);
    }
  }
  // Keep the verdicts observable so the loop cannot be elided.
  if (accepted == static_cast<uint64_t>(-1)) {
    std::printf("unreachable\n");
  }
  return best;
}

struct Shape {
  std::string name;
  pf::Program program;
  const std::vector<uint8_t>* packet;
  bool long_shape;  // participates in the kFast >= 1.5x gate
};

}  // namespace

static int BenchMain(int /*argc*/, char** /*argv*/) {
  const std::vector<Shape> shapes = {
      {"fig38 hit", pf::PaperFig38Filter(), &MatchingPacket(), false},
      {"fig39 hit", pf::PaperFig39Filter(), &MatchingPacket(), false},
      {"fig39 miss", pf::PaperFig39Filter(), &NonMatchingPacket(), false},
      {"no-sc miss", NoShortCircuit(), &NonMatchingPacket(), false},
      {"indirect v2", IndirectPush(), &MatchingPacket(), false},
      {"len 21 const", LengthN(21), &MatchingPacket(), false},
      {"len 101 const", LengthN(101), &MatchingPacket(), true},
      {"conj 21 hit", ConjunctionN(21), &MatchingPacket(), true},
  };

  const double nan = std::nan("");
  std::vector<pfbench::Row> rows;
  struct Ratio {
    std::string shape;
    double checked_ns = 0;
    double fast_ns = 0;
  };
  std::vector<Ratio> gate;

  for (const Shape& shape : shapes) {
    Ratio ratio;
    ratio.shape = shape.name;
    const std::vector<double> ns_per_strategy = MeasureNsPerPacket(shape.program, *shape.packet);
    for (size_t s = 0; s < pf::kStrategyCount; ++s) {
      const pf::Strategy strategy = pf::kAllStrategies[s];
      const double ns = ns_per_strategy[s];
      char label[64];
      std::snprintf(label, sizeof(label), "%-14s %s", shape.name.c_str(),
                    pf::ToString(strategy).c_str());
      rows.push_back({label, nan, ns});
      if (strategy == pf::Strategy::kChecked) {
        ratio.checked_ns = ns;
      }
      if (strategy == pf::Strategy::kFast) {
        ratio.fast_ns = ns;
      }
    }
    if (shape.long_shape) {
      gate.push_back(ratio);
    }
  }

  pfbench::PrintTable("Filter execution wall clock (host CPU)",
                      "§4 inner loop; §7 improvements as Engine strategies", "ns/packet",
                      rows);
  pfbench::PrintNote(
      "Long shapes gate kFast against kChecked: 'len 101 const' is pure "
      "instruction dispatch, 'conj 21 hit' a packet load and compare per term.");

  // Under -O0 or ASan/UBSan the interpreters' bounds checks and shadow
  // traffic dominate, so the gate would measure the build.
  const bool enforce =
      pfbench::HostGatesEnforced(pfbench::BuildTypeName(), pfbench::SanitizerFlags());
  bool ok = true;
  for (const Ratio& r : gate) {
    const double speedup = r.fast_ns > 0 ? r.checked_ns / r.fast_ns : 0;
    std::printf("check: %-14s kChecked = %.1f ns, kFast = %.1f ns, speedup = %.2fx "
                "(need >= 1.5x)%s\n",
                r.shape.c_str(), r.checked_ns, r.fast_ns, speedup,
                enforce ? "" : " [informational: non-Release or sanitized build]");
    if (enforce) {
      std::string slug = r.shape;
      for (char& c : slug) {
        if (c == ' ') c = '_';
      }
      pfbench::ReportCheck("micro_interpreter.fast_1_5x." + slug, speedup >= 1.5, speedup);
      ok = ok && speedup >= 1.5;
    }
  }
  if (!ok) {
    std::printf("check FAILED\n");
    return 1;
  }
  std::printf("check passed\n");
  return 0;
}

PFBENCH_MAIN("micro_interpreter", BenchMain)

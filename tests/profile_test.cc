// Filter-program profiler (src/pf/profile.h) and its surfaces: golden
// annotated disassembly, per-opcode attribution, cross-strategy hit
// equivalence (every Engine strategy must produce identical per-pc hit
// counts), exit-pc accounting, and the zero-overhead-when-disabled
// guarantee.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/net/pup_endpoint.h"
#include "src/pf/builder.h"
#include "src/pf/demux.h"
#include "src/pf/disasm.h"
#include "src/pf/engine.h"
#include "src/pf/profile.h"
#include "tests/test_packets.h"

namespace {

using pf::PacketFilter;
using pf::PortId;
using pf::ProgramProfile;
using pf::Strategy;

// A frame whose link header parses but whose Pup words are cut off, so any
// PUSHWORD beyond the stub faults with kOutOfPacket.
std::vector<uint8_t> TruncatedFrame() {
  std::vector<uint8_t> frame = pftest::MakePupFrame(8, 35);
  frame.resize(8);
  return frame;
}

// ------------------------------------------------------------ golden dump

TEST(ProfileTest, GoldenAnnotatedDump) {
  PacketFilter filter;
  filter.SetProfiling(true);
  const PortId port = filter.OpenPort();
  ASSERT_TRUE(filter.SetFilter(port, pf::PaperFig39Filter()).ok);

  // 3 matching packets run all 6 instructions and accept at the end; 2
  // non-matching ones short-circuit out of the CAND at pc 1.
  const auto match = pftest::MakePupFrame(50, 35);
  const auto miss = pftest::MakePupFrame(50, 36);
  for (int i = 0; i < 3; ++i) {
    filter.Demux(match);
  }
  for (int i = 0; i < 2; ++i) {
    filter.Demux(miss);
  }

  const ProgramProfile* profile = filter.Profile(port);
  ASSERT_NE(profile, nullptr);
  const pf::ValidatedProgram* program = filter.engine().Find(port);
  ASSERT_NE(program, nullptr);

  const std::string kGolden =
      "filter: priority 10, 8 words, v1\n"
      "profile: 5 passes (5 charged runs), 3 accept / 2 reject / 0 error\n"
      "  pc       hits    charged  acc-exit  rej-exit  cum-insns  insn\n"
      "   0          5          5         0         0          5  PUSHWORD+8   <-- hot\n"
      "   1          5          5         0         2         10  PUSHLIT | CAND, 35\n"
      "   2          3          3         0         0         13  PUSHWORD+7\n"
      "   3          3          3         0         0         16  PUSHZERO | CAND\n"
      "   4          3          3         0         0         19  PUSHWORD+1\n"
      "   5          3          3         3         0         22  PUSHLIT | EQ, 2\n"
      "  op PUSHWORD     hits=11 charged=11 cost=11\n"
      "  op CAND         hits=8 charged=8 cost=8\n"
      "  op EQ           hits=3 charged=3 cost=3\n";
  EXPECT_EQ(pf::DisassembleAnnotated(*program, *profile), kGolden);

  // With a per-instruction cost the cumulative column scales and the unit
  // switches to nanoseconds.
  const std::string scaled = pf::DisassembleAnnotated(*program, *profile, /*insn_cost_ns=*/1000);
  EXPECT_NE(scaled.find("cum-ns"), std::string::npos);
  EXPECT_NE(scaled.find("cost=11000ns"), std::string::npos);
}

TEST(ProfileTest, AnnotatedDumpRejectsForeignProfile) {
  const auto validated = pf::ValidatedProgram::Create(pf::PaperFig39Filter());
  ASSERT_TRUE(validated.has_value());
  ProgramProfile wrong_size;
  wrong_size.pc.resize(2);
  EXPECT_NE(pf::DisassembleAnnotated(*validated, wrong_size).find("does not match"),
            std::string::npos);
  EXPECT_TRUE(pf::AttributeByOpcode(*validated, wrong_size).empty());
}

// --------------------------------------------- cross-strategy equivalence

// The acceptance bar for the profiler: per-pc *hit* counts (equivalent
// sequential executions) are identical whichever strategy produced them,
// because kIndexed's prunes are replayed uncharged.
// Connection tracking stays off: conn-served packets legitimately skip the
// walk, which is exactly the strategy-dependence this test must exclude.
TEST(ProfileTest, AllStrategiesProduceIdenticalHitCounts) {
  constexpr int kSockets = 8;
  std::vector<std::vector<uint8_t>> stream;
  for (int socket = 1; socket <= kSockets; ++socket) {
    for (int copies = 0; copies < socket % 3 + 1; ++copies) {
      stream.push_back(pftest::MakePupFrame(8, static_cast<uint32_t>(socket)));
    }
  }
  stream.push_back(pftest::MakePupFrame(8, 999));  // matches nothing
  stream.push_back(TruncatedFrame());

  struct PortObservation {
    std::vector<uint64_t> hits;
    int hottest_pc = -1;
    uint64_t passes = 0;
  };
  std::vector<std::vector<PortObservation>> per_strategy;

  for (const Strategy strategy : pf::kAllStrategies) {
    PacketFilter filter;
    filter.SetStrategy(strategy);
    filter.SetProfiling(true);
    std::vector<PortId> ports;
    for (int socket = 1; socket <= kSockets; ++socket) {
      const PortId port = filter.OpenPort();
      filter.SetFilter(port, pfnet::MakePupSocketFilter(static_cast<uint32_t>(socket), 10));
      ports.push_back(port);
    }
    for (const auto& packet : stream) {
      filter.Demux(packet);
    }
    std::vector<PortObservation> observations;
    for (const PortId port : ports) {
      const ProgramProfile* profile = filter.Profile(port);
      ASSERT_NE(profile, nullptr) << pf::ToString(strategy);
      PortObservation obs;
      obs.hottest_pc = profile->HottestPc();
      obs.passes = profile->passes;
      for (const pf::PcProfile& pc : profile->pc) {
        obs.hits.push_back(pc.hits);
      }
      observations.push_back(std::move(obs));
    }
    per_strategy.push_back(std::move(observations));
  }

  const std::vector<PortObservation>& reference = per_strategy.front();
  for (size_t s = 1; s < per_strategy.size(); ++s) {
    ASSERT_EQ(per_strategy[s].size(), reference.size());
    for (size_t p = 0; p < reference.size(); ++p) {
      EXPECT_EQ(per_strategy[s][p].hits, reference[p].hits)
          << pf::ToString(pf::kAllStrategies[s]) << " port " << p;
      EXPECT_EQ(per_strategy[s][p].hottest_pc, reference[p].hottest_pc)
          << pf::ToString(pf::kAllStrategies[s]) << " port " << p;
      EXPECT_EQ(per_strategy[s][p].passes, reference[p].passes)
          << pf::ToString(pf::kAllStrategies[s]) << " port " << p;
    }
  }
  // Sanity: the reference actually saw traffic and has a hot pc.
  EXPECT_GT(reference.front().passes, 0u);
  EXPECT_GE(reference.front().hottest_pc, 0);
}

// kFast holds a stronger property than the hit equivalence above: its
// passes are always charged (the pre-decoded interpreter does the full
// sequential work), so per-pc *charged* counts — the ledger-reconciling
// column — must also match kChecked exactly, runt packets included.
TEST(ProfileTest, FastChargedCountsMatchChecked) {
  const std::vector<std::vector<uint8_t>> stream = {
      pftest::MakePupFrame(50, 35), pftest::MakePupFrame(50, 36),
      pftest::MakePupFrame(8, 35),  TruncatedFrame(),
      {1, 2, 3},  // shorter than the first word the filter loads
  };
  const auto run = [&stream](Strategy strategy) {
    PacketFilter filter;
    filter.SetStrategy(strategy);
    filter.SetProfiling(true);
    const PortId port = filter.OpenPort();
    EXPECT_TRUE(filter.SetFilter(port, pf::PaperFig39Filter()).ok);
    for (const auto& packet : stream) {
      filter.Demux(packet);
    }
    const ProgramProfile* profile = filter.Profile(port);
    EXPECT_NE(profile, nullptr);
    return *profile;
  };
  const ProgramProfile checked = run(Strategy::kChecked);
  const ProgramProfile fast = run(Strategy::kFast);
  ASSERT_EQ(fast.pc.size(), checked.pc.size());
  for (size_t pc = 0; pc < checked.pc.size(); ++pc) {
    EXPECT_EQ(fast.pc[pc].hits, checked.pc[pc].hits) << "pc " << pc;
    EXPECT_EQ(fast.pc[pc].charged, checked.pc[pc].charged) << "pc " << pc;
    EXPECT_EQ(fast.pc[pc].accept_exits, checked.pc[pc].accept_exits) << "pc " << pc;
    EXPECT_EQ(fast.pc[pc].reject_exits, checked.pc[pc].reject_exits) << "pc " << pc;
  }
  EXPECT_EQ(fast.charged_insns(), checked.charged_insns());
  EXPECT_EQ(fast.accepts, checked.accepts);
  EXPECT_EQ(fast.errors, checked.errors);
  EXPECT_GT(fast.errors, 0u);  // the truncated frames exercised faults
}

// ------------------------------------------------------------- exit counts

TEST(ProfileTest, ExitPcsAndErrorAccounting) {
  PacketFilter filter;
  filter.SetProfiling(true);
  const PortId port = filter.OpenPort();
  ASSERT_TRUE(filter.SetFilter(port, pf::PaperFig39Filter()).ok);

  filter.Demux(pftest::MakePupFrame(50, 35));  // accept, exits at pc 5
  filter.Demux(pftest::MakePupFrame(50, 36));  // CAND reject, exits at pc 1
  filter.Demux(TruncatedFrame());              // kOutOfPacket at pc 0

  const ProgramProfile* profile = filter.Profile(port);
  ASSERT_NE(profile, nullptr);
  EXPECT_EQ(profile->passes, 3u);
  EXPECT_EQ(profile->accepts, 1u);
  EXPECT_EQ(profile->rejects, 1u);
  EXPECT_EQ(profile->errors, 1u);
  ASSERT_EQ(profile->pc.size(), 6u);
  EXPECT_EQ(profile->pc[5].accept_exits, 1u);
  EXPECT_EQ(profile->pc[1].reject_exits, 1u);
  EXPECT_EQ(profile->pc[0].reject_exits, 1u);  // the erroring instruction
  EXPECT_EQ(profile->pc[0].hits, 3u);
  EXPECT_EQ(profile->pc[5].hits, 1u);
  EXPECT_EQ(profile->hit_insns(), profile->charged_insns());  // sequential run
}

// ------------------------------------------------- zero overhead when off

TEST(ProfileTest, DisabledProfilingIsFreeAndNull) {
  const auto run = [](bool profiling) {
    PacketFilter filter;
    if (profiling) {
      filter.SetProfiling(true);
    }
    const PortId port = filter.OpenPort();
    filter.SetFilter(port, pfnet::MakePupSocketFilter(35, 10));
    for (int i = 0; i < 16; ++i) {
      filter.Demux(pftest::MakePupFrame(8, 35));
      filter.Demux(pftest::MakePupFrame(8, 36));
    }
    return std::make_tuple(filter.global_stats().exec, filter.Profile(port) == nullptr,
                           filter.global_stats().packets_accepted);
  };
  const auto [exec_off, null_off, accepted_off] = run(false);
  const auto [exec_on, null_on, accepted_on] = run(true);

  // Profiling must not change what the engine *does* — the charged work
  // units are identical with it on, off, or never enabled.
  EXPECT_EQ(exec_off.filters_run, exec_on.filters_run);
  EXPECT_EQ(exec_off.insns_executed, exec_on.insns_executed);
  EXPECT_EQ(exec_off.index_probes, exec_on.index_probes);
  EXPECT_EQ(accepted_off, accepted_on);
  EXPECT_TRUE(null_off);  // no profile objects exist when off
  EXPECT_FALSE(null_on);
}

TEST(ProfileTest, ProfilesSurviveDisableAndReset) {
  pf::Engine engine;
  auto validated = pf::ValidatedProgram::Create(pf::PaperFig39Filter());
  ASSERT_TRUE(validated.has_value());
  engine.SetProfiling(true);
  engine.Bind(1, *validated);

  const auto packet = pftest::MakePupFrame(50, 35);
  engine.RunOne(1, packet);
  ASSERT_NE(engine.Profile(1), nullptr);
  EXPECT_EQ(engine.Profile(1)->passes, 1u);

  // Disabling stops recording but keeps the collected profile readable.
  engine.SetProfiling(false);
  engine.RunOne(1, packet);
  EXPECT_EQ(engine.Profile(1)->passes, 1u);

  engine.SetProfiling(true);
  engine.RunOne(1, packet);
  EXPECT_EQ(engine.Profile(1)->passes, 2u);

  engine.ResetProfiles();
  EXPECT_EQ(engine.Profile(1)->passes, 0u);
  EXPECT_EQ(engine.profile_totals().hit_insns, 0u);
}

// -------------------------------------------------------- rollup totals

TEST(ProfileTest, ProfileTotalsSumBindings) {
  PacketFilter filter;
  filter.SetProfiling(true);
  const PortId a = filter.OpenPort();
  const PortId b = filter.OpenPort();
  filter.SetFilter(a, pfnet::MakePupSocketFilter(35, 10));
  filter.SetFilter(b, pfnet::MakePupSocketFilter(36, 10));
  for (int i = 0; i < 4; ++i) {
    filter.Demux(pftest::MakePupFrame(8, 35));
  }
  const pf::ProfileTotals totals = filter.engine().profile_totals();
  const ProgramProfile* pa = filter.Profile(a);
  const ProgramProfile* pb = filter.Profile(b);
  ASSERT_NE(pa, nullptr);
  ASSERT_NE(pb, nullptr);
  EXPECT_EQ(totals.passes, pa->passes + pb->passes);
  EXPECT_EQ(totals.runs, pa->runs + pb->runs);
  EXPECT_EQ(totals.hit_insns, pa->hit_insns() + pb->hit_insns());
  EXPECT_EQ(totals.charged_insns, pa->charged_insns() + pb->charged_insns());
}

}  // namespace

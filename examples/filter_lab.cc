// filter_lab: an interactive tour of the filter language itself — no
// simulator, just the pure pf core. Builds the paper's fig. 3-8 and
// fig. 3-9 programs plus v2-extension examples, disassembles them, runs
// them through every pf::Engine execution strategy, and shows the kIndexed
// decision table collapsing a 32-filter set into a handful of probes and
// one re-confirmed filter run.
#include <cstdio>

#include "src/net/pup_endpoint.h"
#include "src/pf/bpf.h"
#include "src/pf/builder.h"
#include "src/pf/demux.h"
#include "src/pf/disasm.h"
#include "src/pf/engine.h"
#include "tests/test_packets.h"

namespace {

void Show(const char* name, const pf::Program& program,
          std::span<const uint8_t> packet, const char* packet_desc) {
  std::printf("--- %s ---\n%s", name, pf::Disassemble(program).c_str());
  auto validated = pf::ValidatedProgram::Create(program);
  if (!validated.has_value()) {
    std::printf("  validation failed\n\n");
    return;
  }

  // Run the program under every strategy; they must agree on the verdict.
  constexpr pf::Engine::Key kKey = 1;
  pf::ExecTelemetry checked_telemetry;
  pf::Verdict checked;
  bool all_agree = true;
  for (const pf::Strategy strategy : pf::kAllStrategies) {
    pf::Engine engine(strategy);
    engine.Bind(kKey, *validated);
    pf::ExecTelemetry telemetry;
    const pf::Verdict verdict = engine.RunOne(kKey, packet, &telemetry);
    if (strategy == pf::Strategy::kChecked) {
      checked = verdict;
      checked_telemetry = telemetry;
    } else if (verdict.accept != checked.accept) {
      std::printf("  !! %s backend disagrees\n", pf::ToString(strategy).c_str());
      all_agree = false;
    }
  }
  std::printf("  vs %s: %s (%llu instruction%s executed%s)%s\n", packet_desc,
              checked.accept ? "ACCEPT" : "reject",
              (unsigned long long)checked_telemetry.insns_executed,
              checked_telemetry.insns_executed == 1 ? "" : "s",
              checked.short_circuited ? ", short-circuited" : "",
              all_agree ? ", all backends agree" : "");
  const auto& meta = validated->meta();
  std::printf("  validated: max stack depth %u, highest word %u%s\n\n",
              meta.max_stack_depth, meta.max_word_index,
              meta.has_short_circuit ? ", uses short-circuits" : "");
}

}  // namespace

int main() {
  const auto pup35 = pftest::MakePupFrame(/*pup_type=*/50, /*dst_socket=*/35);
  const auto pup36 = pftest::MakePupFrame(50, 36);
  const auto pup_type0 = pftest::MakePupFrame(0, 35);

  std::printf("=== The paper's example filters (figs. 3-8, 3-9) ===\n\n");
  Show("fig. 3-8: Pup packets with 0 < PupType <= 100", pf::PaperFig38Filter(), pup35,
       "Pup type 50, socket 35");
  Show("fig. 3-8 vs PupType 0", pf::PaperFig38Filter(), pup_type0, "Pup type 0");
  Show("fig. 3-9: Pup DstSocket == 35 (short-circuit)", pf::PaperFig39Filter(), pup35,
       "socket 35");
  Show("fig. 3-9 vs socket 36 (early exit after 2 insns)", pf::PaperFig39Filter(), pup36,
       "socket 36");

  std::printf("=== v2 extensions (the paper's sec. 7 wish list) ===\n\n");
  pf::FilterBuilder v2(pf::LangVersion::kV2);
  // Byte offset 6 (computed as 2+4 with the v2 ADD operator) holds the Pup
  // transport-control/type word; type 50 makes it 0x0032.
  v2.PushLit(2).Lit(pf::BinaryOp::kAdd, 4).IndOp().Lit(pf::BinaryOp::kEq, 0x0032);
  Show("indirect push: word at computed byte offset 2+4 == 0x0032 (PupType 50)",
       v2.Build(10), pup35, "a Pup frame of type 50");

  std::printf("=== The decision table (sec. 7), as the kIndexed hash dispatch ===\n\n");
  pf::PacketFilter sequential;
  pf::PacketFilter indexed;
  indexed.SetStrategy(pf::Strategy::kIndexed);
  pf::PortId last_port = 0;  // both filters open the same port ids
  for (uint32_t socket = 1; socket <= 32; ++socket) {
    const pf::Program filter = pfnet::MakePupSocketFilter(socket, 10);
    last_port = sequential.OpenPort();
    sequential.SetFilter(last_port, filter);
    indexed.SetFilter(indexed.OpenPort(), filter);
  }
  const auto packet = pftest::MakePupFrame(8, 32);  // matches the last filter
  const auto seq_result = sequential.Demux(packet);
  const auto indexed_result = indexed.Demux(packet);
  const pf::Engine& engine = indexed.engine();
  std::printf("32 active socket filters, packet for the last-tested socket:\n");
  std::printf("  sequential: %u filters interpreted, %llu instructions\n",
              seq_result.exec.filters_run, (unsigned long long)seq_result.exec.insns_executed);
  std::printf("  indexed:    %zu discriminating words, %zu of 32 filters in the table;\n"
              "              %u probes + %llu instructions (%u filter re-confirmed), %s\n",
              engine.index_width(), engine.index_entries(), indexed_result.exec.index_probes,
              (unsigned long long)indexed_result.exec.insns_executed,
              indexed_result.exec.filters_run,
              indexed.QueueLength(last_port) == 1 && sequential.QueueLength(last_port) == 1
                  ? "same delivery"
                  : "DELIVERY DIFFERS");

  std::printf("\n=== Cross-compilation to classic BPF (DESIGN.md sec. 15) ===\n\n");
  // The conjunction subset cross-compiles to classic BPF — the lineage this
  // paper's interpreter seeded. tcpdump -d style listing:
  const std::optional<pf::BpfProgram> bpf = pf::CompileToBpf(pf::PaperFig39Filter());
  if (bpf.has_value() && pf::BpfValidate(*bpf)) {
    std::printf("fig. 3-9 as classic BPF (verdict on socket-35 frame: %s):\n%s\n",
                pf::BpfRun(*bpf, pup35) != 0 ? "ACCEPT" : "reject",
                pf::BpfDisassemble(*bpf).c_str());
  }

  std::printf("=== Filter profiling (annotated disassembly) ===\n\n");
  // Profile the fig. 3-9 filter over a mixed stream: matching packets run
  // all 5 instructions; non-matching ones short-circuit out after 2. The
  // annotated listing shows exactly where each pass exited and which
  // instruction is hottest.
  pf::PacketFilter profiled;
  profiled.SetProfiling(true);
  const pf::PortId port = profiled.OpenPort();
  profiled.SetFilter(port, pf::PaperFig39Filter());
  for (int i = 0; i < 6; ++i) {
    profiled.Demux(pup35);
  }
  for (int i = 0; i < 4; ++i) {
    profiled.Demux(pup36);
  }
  const pf::ProgramProfile* profile = profiled.Profile(port);
  const pf::ValidatedProgram* bound = profiled.engine().Find(port);
  if (profile != nullptr && bound != nullptr) {
    std::printf("fig. 3-9 after 6 matching + 4 non-matching packets:\n%s\n",
                pf::DisassembleAnnotated(*bound, *profile).c_str());
    std::printf("per-opcode attribution:\n");
    for (const pf::OpcodeAttribution& op : pf::AttributeByOpcode(*bound, *profile)) {
      std::printf("  op %-12s hits=%llu charged=%llu\n", op.opcode.c_str(),
                  (unsigned long long)op.hits, (unsigned long long)op.charged);
    }
  }
  return 0;
}

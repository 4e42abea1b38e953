// Table 6-10: "Cost of interpreting packet filters" — per-packet receive
// time as a function of filter length (0/1/9/21 instructions, batched
// 128-byte packets), plus the paper's break-even analysis against the cost
// of user-level demultiplexing (§6.5.3).
#include "bench/recv_common.h"
#include "src/kernel/ledger.h"
#include "src/obs/metrics.h"
#include "src/pf/builder.h"

namespace {

// An always-accepting filter of exactly `n` instructions: PUSHONE followed
// by (n-1) PUSHONE|AND.
pf::Program AcceptAllOfLength(int n) {
  pf::FilterBuilder b;
  if (n > 0) {
    b.PushOne();
    for (int i = 1; i < n; ++i) {
      b.ConstOp(pf::StackAction::kPushOne, pf::BinaryOp::kAnd);
    }
  }
  return b.Build(10);
}

// What one run's receiver recorded about filter evaluation, from both ends
// of the accounting: the per-strategy histogram in the metrics registry and
// the Ledger's kFilterEval slot. The two are charged under the same
// condition, so their totals must reconcile exactly.
struct FilterEvalAccounting {
  uint64_t hist_count = 0;
  int64_t hist_sum_ns = 0;
  int64_t hist_p50_ns = 0;
  int64_t hist_p99_ns = 0;
  uint64_t ledger_charges = 0;
  int64_t ledger_total_ns = 0;
};

// One profiled run (PR 4 tentpole): the engine's per-pc profile against the
// Ledger's kFilterEval slot. The attribution identity is exact:
//   kFilterEval total == filter_apply * runs + filter_insn * charged_insns
// because the Ledger charges FilterCost(exec) per packet from the same
// telemetry the profiler folds in (index probes are charged separately, as
// kIndexProbe).
struct ProfiledRun {
  pf::ProfileTotals totals;
  std::vector<uint64_t> hits;  // per-pc equivalent-execution counts
  int hottest_pc = -1;
  uint64_t ledger_charges = 0;
  int64_t ledger_total_ns = 0;
  std::string dump;  // annotated disassembly of the bound filter
};

double Measure(int filter_length, pf::Strategy strategy = pf::Strategy::kFast,
               FilterEvalAccounting* accounting = nullptr) {
  pfbench::RecvConfig config;
  config.frame_total = 128;
  config.burst = 4;
  config.batching = true;
  config.filter = AcceptAllOfLength(filter_length);
  config.strategy = strategy;
  if (accounting != nullptr) {
    config.inspect = [accounting, strategy](pfkern::Machine& receiver) {
      const pfobs::Histogram* hist = receiver.metrics().FindHistogram(
          "pf.filter_eval." + pf::ToString(strategy));
      if (hist != nullptr) {
        accounting->hist_count = hist->count();
        accounting->hist_sum_ns = hist->sum();
        accounting->hist_p50_ns = hist->Percentile(0.50);
        accounting->hist_p99_ns = hist->Percentile(0.99);
      }
      accounting->ledger_charges = receiver.ledger().count(pfkern::Cost::kFilterEval);
      accounting->ledger_total_ns = receiver.ledger().total(pfkern::Cost::kFilterEval).count();
    };
  }
  return pfbench::MeasureReceivePerPacketMs(config);
}

ProfiledRun MeasureProfiled(int filter_length, pf::Strategy strategy) {
  ProfiledRun run;
  pfbench::RecvConfig config;
  config.frame_total = 128;
  config.burst = 4;
  config.batching = true;
  config.filter = AcceptAllOfLength(filter_length);
  config.strategy = strategy;
  config.profile = true;
  config.inspect = [&run](pfkern::Machine& receiver) {
    pf::PacketFilter& core = receiver.pf().core();
    run.totals = core.engine().profile_totals();
    for (const pf::PortId id : core.Ports()) {
      const pf::ProgramProfile* profile = core.Profile(id);
      if (profile == nullptr) {
        continue;
      }
      run.hottest_pc = profile->HottestPc();
      for (const pf::PcProfile& pc : profile->pc) {
        run.hits.push_back(pc.hits);
      }
      run.dump = receiver.pf().ProfileDump(id);
    }
    run.ledger_charges = receiver.ledger().count(pfkern::Cost::kFilterEval);
    run.ledger_total_ns = receiver.ledger().total(pfkern::Cost::kFilterEval).count();
  };
  pfbench::MeasureReceivePerPacketMs(config);
  return run;
}

}  // namespace

static int BenchMain(int /*argc*/, char** /*argv*/) {
  const double t0 = Measure(0);
  const double t1 = Measure(1);
  const double t9 = Measure(9);
  const double t21 = Measure(21);
  pfbench::PrintTable("Table 6-10: Cost of interpreting packet filters",
                      "batched 128-byte packets, filter length sweep, §6.5.3", "(ms)",
                      {
                          {"0 instructions", 1.9, t0},
                          {"1 instruction", 2.0, t1},
                          {"9 instructions", 2.2, t9},
                          {"21 instructions", 2.5, t21},
                      });
  const double slope_us = (t21 - t0) / 21.0 * 1000.0;
  std::printf("    per-instruction slope: paper ~28.6 us, ours %.1f us\n", slope_us);

  // The cost model charges the engine's structural counts (ExecTelemetry),
  // so the simulated cost must be identical whichever execution path
  // interprets the filter — only wall-clock differs (see micro_interpreter).
  const double t21_checked = Measure(21, pf::Strategy::kChecked);
  std::printf("    backend invariance (21 insns): fast %.2f ms, checked %.2f ms\n", t21,
              t21_checked);

  // Per-strategy filter-evaluation histograms vs. the Ledger: the registry's
  // "pf.filter_eval.<strategy>" histogram samples the same simulated cost the
  // Ledger charges as kFilterEval, so count==charges and sum==total for every
  // strategy. A mismatch means the two accounting paths diverged.
  std::printf("\n    filter-eval accounting (21 insns, per strategy):\n");
  bool reconciled = true;
  for (const pf::Strategy strategy : pf::kAllStrategies) {
    FilterEvalAccounting acct;
    Measure(21, strategy, &acct);
    const bool ok =
        acct.hist_count == acct.ledger_charges && acct.hist_sum_ns == acct.ledger_total_ns;
    reconciled = reconciled && ok;
    std::printf(
        "      %-10s hist: n=%llu sum=%.3f ms p50=%.1f us p99=%.1f us | "
        "ledger kFilterEval: n=%llu sum=%.3f ms  [%s]\n",
        pf::ToString(strategy).c_str(), (unsigned long long)acct.hist_count,
        acct.hist_sum_ns / 1e6, acct.hist_p50_ns / 1e3, acct.hist_p99_ns / 1e3,
        (unsigned long long)acct.ledger_charges, acct.ledger_total_ns / 1e6,
        ok ? "reconciled" : "MISMATCH");
  }
  pfbench::ReportCheck("table_6_10.filter_eval_reconciles", reconciled);
  if (!reconciled) {
    std::fprintf(stderr, "filter-eval histogram does not reconcile with the ledger\n");
    return 1;
  }

  // Profiler attribution (PR 4): the per-pc profile's charged counts, priced
  // by the cost model, must equal the Ledger's kFilterEval total *exactly*,
  // and the per-pc equivalent-hit counts (and thus the hot instruction) must
  // be identical whichever strategy produced them.
  const pfkern::CostModel costs = pfkern::MicroVaxUltrixCosts();
  std::printf("\n    profiler attribution (21 insns, per strategy):\n");
  bool attributed = true;
  ProfiledRun reference;
  bool have_reference = false;
  for (const pf::Strategy strategy : pf::kAllStrategies) {
    const ProfiledRun run = MeasureProfiled(21, strategy);
    const int64_t attributed_ns =
        costs.filter_apply.count() * static_cast<int64_t>(run.totals.runs) +
        costs.filter_insn.count() * static_cast<int64_t>(run.totals.charged_insns);
    bool ok = attributed_ns == run.ledger_total_ns && run.hottest_pc >= 0;
    if (!have_reference) {
      reference = run;
      have_reference = true;
    } else {
      ok = ok && run.hits == reference.hits && run.hottest_pc == reference.hottest_pc;
    }
    attributed = attributed && ok;
    std::printf(
        "      %-10s passes=%llu runs=%llu hit-insns=%llu charged-insns=%llu "
        "| attributed %.3f ms vs ledger %.3f ms, hot pc %d  [%s]\n",
        pf::ToString(strategy).c_str(), (unsigned long long)run.totals.passes,
        (unsigned long long)run.totals.runs, (unsigned long long)run.totals.hit_insns,
        (unsigned long long)run.totals.charged_insns, attributed_ns / 1e6,
        run.ledger_total_ns / 1e6, run.hottest_pc, ok ? "exact" : "MISMATCH");
  }
  pfbench::ReportCheck("table_6_10.profiler_attribution", attributed);
  if (!attributed) {
    std::fprintf(stderr, "profiler attribution does not reconcile with the ledger\n");
    return 1;
  }
  std::printf("\n    annotated profile (21 insns, %s):\n%s",
              pf::ToString(pf::kAllStrategies[0]).c_str(), reference.dump.c_str());

  // Break-even (§6.5.3): user-level demultiplexing costs ~2.7 ms extra per
  // 128-byte packet (table 6-8); how many 21-instruction filters can the
  // kernel interpret before kernel demux loses?
  pfbench::RecvConfig user;
  user.frame_total = 128;
  user.user_demux = true;
  const double user_extra =
      pfbench::MeasureReceivePerPacketMs(user) - pfbench::MeasureReceivePerPacketMs({});
  const double per_filter = (t21 - t0);
  std::printf(
      "    break-even: user-level demux overhead %.2f ms ~= %.1f long (21-insn) filters "
      "tested per packet (paper: ~3 without short-circuits, ~10 with)\n",
      user_extra, user_extra / per_filter);
  return 0;
}

PFBENCH_MAIN("table_6_10_filter_cost", BenchMain)

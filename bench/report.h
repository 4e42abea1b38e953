// The performance observatory's run document (DESIGN.md §14).
//
// A RunDoc is one pfbench sweep: every registered bench's tables (with
// stable row ids), cost-ledger totals, metric counters, gate outcomes,
// host wall-clock, and getrusage numbers, under a schema-versioned envelope
// stamped with the build identity. bench/pfbench.cc produces one per run
// (BENCH_<git-sha>.json), bench/baselines/ holds the committed reference,
// `pfbench --compare` diffs the two, and tests/bench_json_test round-trips
// the schema.
//
// Tolerance classes — how a row is allowed to move against the baseline:
//   * exact — numbers derived from the simulated cost model. Deterministic
//     by construction, so any drift is a real behavioural change: the gate
//     requires bit-exact equality and a legitimate shift requires
//     re-baselining in the same commit (EXPERIMENTS.md).
//   * wall  — host wall-clock (steady_clock). Gated by a ratio threshold,
//     and only for Release-family non-sanitized builds.
//   * obs   — instrumentation-tax ratios (attached/detached). Gated by a
//     ratio threshold with an absolute floor below which any value passes.
#ifndef BENCH_REPORT_H_
#define BENCH_REPORT_H_

#include <map>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/obs/host_stats.h"
#include "src/util/json.h"

namespace pfbench {

inline constexpr char kRunSchema[] = "pfbench-run-1";
inline constexpr char kClassExact[] = "exact";
inline constexpr char kClassWall[] = "wall";
inline constexpr char kClassObs[] = "obs";

struct RunRow {
  std::string id;     // stable within the table: "r0", "r1", ... by position
  std::string label;  // human-readable; NOT identity (labels may embed rates)
  double paper = 0;   // NaN when the paper reports nothing
  double measured = 0;
};

struct RunTable {
  std::string id;  // slug of the title — titles are stable strings
  std::string title;
  std::string unit;
  std::string tol_class;  // kClassExact / kClassWall / kClassObs
  std::vector<RunRow> rows;
};

struct RunBench {
  std::string id;
  int exit_code = 0;
  double wall_ns = 0;  // trimmed median across repetitions
  pfobs::HostStats host;
  std::vector<RunTable> tables;
  std::vector<CheckOutcome> checks;
  std::map<std::string, double> ledger;   // "<slug>.total_ns"/".charges", summed
  std::map<std::string, double> metrics;  // counters, summed across machines

  const RunTable* FindTable(const std::string& table_id) const;
};

struct RunDoc {
  std::string schema = kRunSchema;
  std::string git_sha;
  std::string build_type;
  std::string sanitizers;
  int reps = 0;
  std::vector<RunBench> benches;

  const RunBench* FindBench(const std::string& bench_id) const;
};

// "Table 6-1: Cost of sending packets" -> "table_6_1_cost_of_sending_packets"
std::string SlugifyTitle(const std::string& title);

// Tolerance class from a table's unit string: host-nanosecond units are
// wall-clock, tax ratios are obs, everything else is simulated/deterministic
// and therefore exact.
std::string ClassifyUnit(const std::string& unit);

std::string ToJson(const RunDoc& doc);
bool RunDocFromJson(const pfutil::JsonValue& value, RunDoc* out, std::string* error);
// Convenience: parse + convert.
bool RunDocFromString(const std::string& text, RunDoc* out, std::string* error);

struct CompareOptions {
  double wall_tol = 5.0;   // wall rows fail above baseline * wall_tol
  double obs_tol = 2.0;    // obs rows fail above baseline * obs_tol ...
  double obs_floor = 1.5;  // ... unless the fresh tax ratio is below this
  // Gate wall/obs classes. `pfbench --compare` sets this from the fresh
  // run's meta (HostGatesEnforced): Debug or sanitized builds report host
  // numbers but don't gate them (the same ctest entry must pass under the
  // ASan CI job).
  bool gate_host = true;
};

struct CompareResult {
  int regressions = 0;
  int improvements = 0;  // wall rows >=25% faster: re-baseline candidates
  int warnings = 0;      // additions, skipped host gates, rebaseline hints
  std::string report;    // human-readable findings, one per line
};

CompareResult CompareRuns(const RunDoc& baseline, const RunDoc& fresh,
                          const CompareOptions& options);

// Scales every measured number (rows, ledger totals, wall clocks) by
// (1 + percent/100): the self-test hook proving the gate trips — a +20%
// perturbation must make CompareRuns report regressions (bench_json_test,
// and the pfbench_perturb_check WILL_FAIL ctest entry).
void Perturb(RunDoc* doc, double percent);

}  // namespace pfbench

#endif  // BENCH_REPORT_H_

// micro_sched: host cost of one simulator event, pfsim::Simulator vs. a
// std::function priority queue (DESIGN.md §2).
//
// Two event shapes, each at 16, 150 and 1024 pending events (traced
// perfbench runs average about 33 on stack_small and 2 on vmtp_bulk; the
// three depths bracket a workload's queue):
//   * callbacks: no-op callbacks that reschedule themselves at a
//     pseudo-random delay, so every executed event leaves one in its place;
//   * resumes:   coroutines that loop on Delay(), so every event is a bare
//     coroutine resume that schedules the next one.
// The reference is the queue the simulator used before its key heap: a
// std::priority_queue of {at, seq, std::function} events, with a resume
// wrapped in a lambda. Both sides replay the same delay sequence and must
// end at the same simulated time. Each of 21 rounds times both sides back
// to back; a cell's ratio (reference ns / Simulator ns) is the median of
// the per-round ratios, and the table shows each side's fastest run.
//
// Every run gates each shape's geometric-mean ratio over the three depths:
// callbacks >= 1.10, resumes >= 1.20 (enforced on sanitizer-free
// Release-family builds; informational elsewhere, where it measures the
// sanitizer or -O0). Each bound sits 7-10% under the lowest of 65 runs,
// Release and RelWithDebInfo, idle and loaded, on a shared 4-vCPU host
// (EXPERIMENTS.md).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <coroutine>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "bench/harness.h"
#include "src/sim/simulator.h"
#include "src/sim/task.h"

namespace {

constexpr size_t kDepths[] = {16, 150, 1024};
constexpr int kRounds = 21;
constexpr uint64_t kEventsPerRun = 20000;

// The event queue the Simulator replaced, kept here as the gate's reference.
class ReferenceQueue {
 public:
  using Callback = std::function<void()>;

  ReferenceQueue() = default;
  ReferenceQueue(const ReferenceQueue&) = delete;
  ReferenceQueue& operator=(const ReferenceQueue&) = delete;
  ~ReferenceQueue() {
    for (std::coroutine_handle<> h : frames_) {
      h.destroy();
    }
  }

  int64_t NowNanos() const { return now_; }
  void Schedule(pfsim::Duration delay, Callback fn) {
    events_.push(Event{now_ + delay.count(), next_seq_++, std::move(fn)});
  }
  void ScheduleResume(pfsim::Duration delay, std::coroutine_handle<> h) {
    Schedule(delay, [h] { h.resume(); });
  }
  auto Delay(pfsim::Duration d) {
    struct Awaiter {
      ReferenceQueue* queue;
      pfsim::Duration d;
      bool await_ready() const noexcept { return d.count() <= 0; }
      void await_suspend(std::coroutine_handle<> h) { queue->ScheduleResume(d, h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, d};
  }
  void Spawn(pfsim::Task task) {
    std::coroutine_handle<> h = task.Release();
    frames_.push_back(h);
    h.resume();
  }
  bool Step() {
    if (events_.empty()) {
      return false;
    }
    Event ev = std::move(const_cast<Event&>(events_.top()));
    events_.pop();
    now_ = ev.at;
    ev.fn();
    return true;
  }

 private:
  struct Event {
    int64_t at;
    uint64_t seq;
    Callback fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
  };

  std::priority_queue<Event, std::vector<Event>, Later> events_;
  std::vector<std::coroutine_handle<>> frames_;
  int64_t now_ = 0;
  uint64_t next_seq_ = 0;
};

// The shared delay sequence: an LCG, 1 ns .. ~1 ms.
pfsim::Duration NextDelay(uint64_t* state) {
  *state = *state * 6364136223846793005ULL + 1442695040888963407ULL;
  return pfsim::Nanoseconds(1 + static_cast<int64_t>(*state >> 44));
}

template <typename Queue>
struct Reschedule {
  Queue* queue;
  uint64_t* state;
  void operator()() const { queue->Schedule(NextDelay(state), *this); }
};

template <typename Queue>
pfsim::Task Sleeper(Queue* queue, uint64_t* state) {
  for (;;) {
    co_await queue->Delay(NextDelay(state));
  }
}

enum class Shape { kCallbacks, kResumes };

struct RunResult {
  double ns_per_event = 0;
  int64_t end_ns = 0;  // the clock after the run: both sides must agree
};

// One timed run: `depth` events pending, then kEventsPerRun Steps.
template <typename Queue>
RunResult TimeRun(Shape shape, size_t depth) {
  Queue queue;
  uint64_t state = 0x2545f4914f6cdd1dULL;
  for (size_t i = 0; i < depth; ++i) {
    if (shape == Shape::kCallbacks) {
      Reschedule<Queue>{&queue, &state}();
    } else {
      queue.Spawn(Sleeper(&queue, &state));
    }
  }
  const auto start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < kEventsPerRun; ++i) {
    queue.Step();
  }
  const std::chrono::duration<double, std::nano> elapsed =
      std::chrono::steady_clock::now() - start;
  return {elapsed.count() / static_cast<double>(kEventsPerRun), queue.NowNanos()};
}

struct Cell {
  Shape shape;
  size_t depth;
  double simulator_ns = 1e300;  // fastest run
  double reference_ns = 1e300;  // fastest run
  double ratio = 0;             // median over rounds of reference/Simulator
  bool agree = true;
};

// Each round times both sides back to back, alternating which goes first,
// so the per-round ratio compares runs under the same host conditions.
void Measure(Cell* cell) {
  TimeRun<pfsim::Simulator>(cell->shape, cell->depth);  // warm-up
  TimeRun<ReferenceQueue>(cell->shape, cell->depth);
  std::vector<double> ratios;
  for (int round = 0; round < kRounds; ++round) {
    RunResult sim;
    RunResult ref;
    if (round % 2 == 0) {
      sim = TimeRun<pfsim::Simulator>(cell->shape, cell->depth);
      ref = TimeRun<ReferenceQueue>(cell->shape, cell->depth);
    } else {
      ref = TimeRun<ReferenceQueue>(cell->shape, cell->depth);
      sim = TimeRun<pfsim::Simulator>(cell->shape, cell->depth);
    }
    cell->simulator_ns = std::min(cell->simulator_ns, sim.ns_per_event);
    cell->reference_ns = std::min(cell->reference_ns, ref.ns_per_event);
    cell->agree = cell->agree && sim.end_ns == ref.end_ns;
    ratios.push_back(ref.ns_per_event / sim.ns_per_event);
  }
  std::sort(ratios.begin(), ratios.end());
  cell->ratio = ratios[ratios.size() / 2];
}

}  // namespace

static int BenchMain(int /*argc*/, char** /*argv*/) {
  struct ShapeGate {
    const char* name;
    Shape shape;
    double min_ratio;
  };
  const ShapeGate gates[] = {{"callbacks", Shape::kCallbacks, 1.10},
                             {"resumes", Shape::kResumes, 1.20}};

  const double nan = std::nan("");
  std::vector<pfbench::Row> rows;
  std::vector<std::vector<Cell>> cells_by_shape;
  for (const ShapeGate& gate : gates) {
    std::vector<Cell>& cells = cells_by_shape.emplace_back();
    for (const size_t depth : kDepths) {
      Cell& cell = cells.emplace_back(Cell{gate.shape, depth});
      Measure(&cell);
      const std::string label = std::string(gate.name) + " depth " + std::to_string(depth);
      rows.push_back({label + ": Simulator", nan, cell.simulator_ns});
      rows.push_back({label + ": std::function priority_queue", nan, cell.reference_ns});
    }
  }
  pfbench::PrintTable("Simulator host cost per event (host CPU)",
                      "key heap over a callback slab vs a std::function priority queue",
                      "ns/event", rows);

  const bool enforce =
      pfbench::HostGatesEnforced(pfbench::BuildTypeName(), pfbench::SanitizerFlags());
  bool ok = true;
  for (size_t g = 0; g < std::size(gates); ++g) {
    const ShapeGate& gate = gates[g];
    double log_sum = 0;
    bool agree = true;
    for (const Cell& cell : cells_by_shape[g]) {
      std::printf("check: %-9s depth %4zu: ratio %.2f\n", gate.name, cell.depth, cell.ratio);
      log_sum += std::log(cell.ratio);
      agree = agree && cell.agree;
    }
    const double ratio = std::exp(log_sum / static_cast<double>(std::size(kDepths)));
    std::printf("check: %-9s geometric mean ratio %.2f (need >= %.2f)%s\n", gate.name, ratio,
                gate.min_ratio,
                enforce ? "" : " [informational: non-Release or sanitized build]");
    if (!agree) {
      std::fprintf(stderr, "micro_sched FAILED: %s: the Simulator and the reference "
                           "end at different simulated times\n",
                   gate.name);
    }
    const bool passed = agree && (!enforce || ratio >= gate.min_ratio);
    pfbench::ReportCheck("micro_sched." + std::string(gate.name) + ".ratio", passed, ratio);
    ok = ok && passed;
  }
  std::printf(ok ? "check passed\n" : "check FAILED\n");
  return ok ? 0 : 1;
}

PFBENCH_MAIN("micro_sched", BenchMain)

#include "perfbench/replay.h"

#include <cstdint>

#include "perfbench/common.h"
#include "src/link/frame.h"
#include "src/obs/flow_stats.h"
#include "src/pf/validate.h"
#include "src/sim/simulator.h"

namespace pfperf {

namespace {

// Reschedules itself at a pseudo-random delay, so every executed event
// leaves one pending in its place.
struct Reschedule {
  pfsim::Simulator* sim;
  uint64_t* state;
  void operator()() const {
    *state = *state * 6364136223846793005ULL + 1442695040888963407ULL;
    sim->Schedule(pfsim::Nanoseconds(1 + static_cast<int64_t>(*state >> 44)), *this);
  }
};

}  // namespace

double ReplaySchedNsPerEvent(size_t depth, size_t events) {
  pfsim::Simulator sim;
  uint64_t state = 0x2545f4914f6cdd1dULL;
  Reschedule again{&sim, &state};
  for (size_t i = 0; i < (depth == 0 ? 1 : depth); ++i) {
    again();
  }
  const uint64_t start = Ticks();
  for (size_t i = 0; i < events; ++i) {
    sim.Step();
  }
  return TicksToNs(Ticks() - start) / static_cast<double>(events);
}

double ReplayFcsNsPerKB(const std::vector<pf::PacketBuf>& frames, size_t min_bytes) {
  std::vector<pflink::Frame> work(frames.size());
  for (size_t i = 0; i < frames.size(); ++i) {
    work[i].bytes = frames[i];
  }
  size_t bytes = 0;
  size_t checks = 0;
  size_t intact = 0;
  const uint64_t start = Ticks();
  while (bytes < min_bytes && !work.empty()) {
    for (pflink::Frame& frame : work) {
      frame.StampFcs();
      intact += frame.FcsIntact() ? 1 : 0;
      ++checks;
      bytes += frame.size();
    }
  }
  const double ns = TicksToNs(Ticks() - start);
  // Every frame was just stamped, so every check must pass.
  if (bytes == 0 || intact != checks) {
    return 0;
  }
  return ns / (static_cast<double>(bytes) / 1024.0);
}

EngineReplay ReplayEngine(const std::vector<pf::Program>& walk_order, pf::Strategy strategy,
                          const std::vector<pf::PacketBuf>& frames) {
  pf::Engine engine(strategy);
  std::vector<const pf::Engine::Binding*> bindings;
  for (size_t i = 0; i < walk_order.size(); ++i) {
    const pf::Engine::Key key = static_cast<pf::Engine::Key>(i + 1);
    engine.Bind(key, *pf::ValidatedProgram::Create(walk_order[i]));
  }
  for (size_t i = 0; i < walk_order.size(); ++i) {
    bindings.push_back(engine.FindBinding(static_cast<pf::Engine::Key>(i + 1)));
  }
  // The first Match rebuilds lazily; keep it out of the timing.
  if (!frames.empty()) {
    engine.Match(frames[0].span());
  }

  std::vector<pf::Engine::Key> claimer(frames.size(), 0);
  const uint64_t pass_start = Ticks();
  for (size_t f = 0; f < frames.size(); ++f) {
    pf::Engine::MatchPass pass = engine.Match(frames[f].span());
    for (size_t i = 0; i < bindings.size(); ++i) {
      const pf::Engine::Key key = static_cast<pf::Engine::Key>(i + 1);
      if (pass.Test(key, bindings[i]).accept) {
        claimer[f] = key;
        break;
      }
    }
  }
  EngineReplay out;
  out.ns_per_pass = frames.empty() ? 0
                                   : TicksToNs(Ticks() - pass_start) /
                                         static_cast<double>(frames.size());

  size_t claimed = 0;
  size_t accepted = 0;
  const uint64_t one_start = Ticks();
  for (size_t f = 0; f < frames.size(); ++f) {
    if (claimer[f] != 0) {
      ++claimed;
      accepted += engine.RunOne(claimer[f], frames[f].span()).accept ? 1 : 0;
    }
  }
  const double one_ns = TicksToNs(Ticks() - one_start);
  if (claimed > 0 && accepted == claimed) {
    out.ns_per_filter = one_ns / static_cast<double>(claimed);
  }
  return out;
}

double ReplayConnDb(const std::vector<pf::PacketBuf>& frames, const pf::ConnDB::Config& config,
                    uint64_t tick_ns, size_t gc_every) {
  std::vector<uint64_t> signatures;
  signatures.reserve(frames.size());
  for (const pf::PacketBuf& frame : frames) {
    signatures.push_back(pfobs::FlowSignature::Of(frame.span()));
  }
  pf::ConnDB db(config);
  uint64_t now_ns = 0;
  const uint64_t start = Ticks();
  for (size_t i = 0; i < signatures.size(); ++i) {
    now_ns += tick_ns;
    const size_t bytes = frames[i].size();
    if (db.Lookup(signatures[i], now_ns, 1, bytes) == nullptr) {
      db.Establish(signatures[i], 1, now_ns, 1, bytes);
    }
    if (gc_every > 0 && (i + 1) % gc_every == 0) {
      db.GcSweep(now_ns);
    }
  }
  const double ns = TicksToNs(Ticks() - start);
  if (signatures.empty() || !db.IdentityHolds()) {
    return 0;
  }
  return ns / static_cast<double>(signatures.size());
}

}  // namespace pfperf

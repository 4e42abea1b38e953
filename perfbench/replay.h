// Replays for the per-layer split: a workload's recorded inputs fed to one
// layer's public functions in isolation, timed on the host clock.
#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstddef>
#include <vector>

#include "src/pf/conndb.h"
#include "src/pf/engine.h"
#include "src/pf/packet_buf.h"
#include "src/pf/program.h"

namespace pfperf {

// Host ns per Simulator::Step() with `depth` no-op events pending (each
// event schedules its successor, so the depth holds).
double ReplaySchedNsPerEvent(size_t depth, size_t events);

// Host ns per kB of frame bytes for Frame::StampFcs + Frame::FcsIntact (one
// transmit stamp, one receive check) over `frames`, repeated until at least
// `min_bytes` have been processed.
double ReplayFcsNsPerKB(const std::vector<pf::PacketBuf>& frames, size_t min_bytes);

struct EngineReplay {
  double ns_per_pass = 0;    // Match + Test in walk order until the first accept
  double ns_per_filter = 0;  // RunOne of the claiming filter
};
// A standalone Engine under `strategy` with `walk_order` bound as keys
// 1..n (index = walk position).
EngineReplay ReplayEngine(const std::vector<pf::Program>& walk_order, pf::Strategy strategy,
                          const std::vector<pf::PacketBuf>& frames);

// Host ns per packet for the conn fast path's table work on a standalone
// ConnDB: Lookup, Establish on a miss, GcSweep every `gc_every` packets,
// with the synthetic clock advancing `tick_ns` per packet.
double ReplayConnDb(const std::vector<pf::PacketBuf>& frames, const pf::ConnDB::Config& config,
                    uint64_t tick_ns, size_t gc_every);

}  // namespace pfperf

#endif  // PERFBENCH_REPLAY_H_

// Deterministic network impairment: the fault-injection model attached to an
// EthernetSegment (SetImpairments).
//
// The ideal medium of segment.h drops frames uniformly at best; real packet
// paths fail in richer ways — burst loss from collisions and fades, bit
// corruption, driver-induced duplication, queue-induced reordering, and
// truncated DMA. Each impairment here is independently configurable, seeded,
// and replayable: the same (config, seed, traffic) triple produces the same
// faults, so any failing chaos-grid cell can be re-run exactly (soak_chaos
// --seed).
//
// Impairments are applied per transmitted frame, in a fixed order:
//   1. loss      — independent Bernoulli drop (the old SetLossRate);
//   2. burst     — Gilbert–Elliott loss with *time-windowed* bad states: each
//                  frame outside a burst may start one (burst_enter); a burst
//                  then lasts a geometric number of burst_slot intervals
//                  (mean duration burst_slot / burst_exit), and frames whose
//                  wire time falls inside the window are lost with probability
//                  burst_loss. Anchoring bursts to simulated time rather than
//                  frame count is what makes exponential backoff effective: a
//                  backed-off retransmission genuinely outlives the fade,
//                  where a frame-stepped chain would eat every retry on an
//                  otherwise-idle wire no matter how long the sender waits;
//   3. duplicate — a second, pristine copy of the frame is also carried;
//   4. corrupt   — flip 1..corrupt_max_bits random *payload* bits. The link
//                  header is spared so delivery routing stays well-defined:
//                  a frame whose corrupted dst matches nobody would silently
//                  vanish, breaking the frame-conservation identities the
//                  chaos harness asserts. (A real NIC drops header-corrupted
//                  frames on address mismatch anyway — same observable fate,
//                  exact accounting.)
//   5. truncate  — cut the frame to a random length in [header_len, size).
//   6. reorder   — delay delivery by a uniform jitter in (0, reorder_jitter],
//                  letting later frames overtake this one.
// Corruption and truncation happen *after* the transmit-time FCS stamp
// (frame.h), so the receiving NIC detects them (bad_crc / truncated drop
// reasons); the RNG is consulted only for impairments whose probability is
// non-zero, so enabling one impairment never perturbs another's draw
// sequence.
#ifndef SRC_LINK_IMPAIR_H_
#define SRC_LINK_IMPAIR_H_

#include <cstdint>

#include "src/link/frame.h"
#include "src/sim/sim_time.h"
#include "src/util/rng.h"

namespace pflink {

struct ImpairmentConfig {
  uint64_t seed = 0xc4a05;

  // Independent per-frame loss probability.
  double loss = 0.0;

  // Gilbert–Elliott burst loss with time-windowed bad states. burst_enter is
  // the per-frame P(good -> bad) while no burst is active; on entry the bad
  // state's duration is drawn once as a geometric count of burst_slot
  // intervals (P(exit per slot) = burst_exit, mean duration burst_slot /
  // burst_exit). Frames transmitted inside the window are lost with
  // probability burst_loss. burst_enter == 0 disables the chain entirely.
  double burst_enter = 0.0;
  double burst_exit = 0.25;
  double burst_loss = 1.0;
  pfsim::Duration burst_slot = pfsim::Milliseconds(1);

  // Per-frame probability of payload bit corruption (1..corrupt_max_bits
  // random bit flips past the link header).
  double corrupt = 0.0;
  int corrupt_max_bits = 3;

  // Per-frame probability that a pristine duplicate is also delivered.
  double duplicate = 0.0;

  // Per-frame probability of truncation to a random shorter length (never
  // below the link header, so the frame still routes).
  double truncate = 0.0;

  // Per-frame probability of extra delivery delay, uniform in
  // (0, reorder_jitter] — later frames can overtake this one.
  double reorder = 0.0;
  pfsim::Duration reorder_jitter = pfsim::Milliseconds(2);

  bool Any() const {
    return loss > 0.0 || burst_enter > 0.0 || corrupt > 0.0 || duplicate > 0.0 ||
           truncate > 0.0 || reorder > 0.0;
  }
};

// Per-impairment counters. Dropped frames partition into independent/burst;
// corrupted/duplicated/truncated/reordered count surviving frames the
// impairment touched (one frame can be counted by several).
struct ImpairmentStats {
  uint64_t frames_seen = 0;
  uint64_t dropped_independent = 0;
  uint64_t dropped_burst = 0;
  uint64_t corrupted = 0;
  uint64_t duplicated = 0;
  uint64_t truncated = 0;
  uint64_t reordered = 0;

  uint64_t dropped() const { return dropped_independent + dropped_burst; }
};

// The seeded fault engine. Pure mechanism: no clock, no I/O; the segment
// applies the returned verdict.
class Impairer {
 public:
  explicit Impairer(const ImpairmentConfig& config);

  struct Verdict {
    bool dropped = false;    // frame never delivered (loss or burst loss)
    bool duplicate = false;  // deliver a second pristine copy
    pfsim::Duration extra_delay{};  // reorder jitter (0 = in-order)
  };

  // Decides the fate of one frame, mutating `frame` in place for corruption
  // and truncation. `header_len` bounds what corruption/truncation may touch;
  // `now` is the frame's wire time, tested against the burst window.
  Verdict Apply(Frame* frame, uint32_t header_len, pfsim::TimePoint now);

  const ImpairmentConfig& config() const { return config_; }
  const ImpairmentStats& stats() const { return stats_; }

 private:
  ImpairmentConfig config_;
  ImpairmentStats stats_;
  pfutil::Rng rng_;
  bool in_burst_ = false;           // Gilbert–Elliott state
  pfsim::TimePoint burst_until_{};  // burst window end while in_burst_
};

}  // namespace pflink

#endif  // SRC_LINK_IMPAIR_H_

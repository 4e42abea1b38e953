// Filter extensions (DESIGN.md §17): pluggable per-port policy consulted by
// the demultiplexer *after* a filter accepts a packet and *before* the copy
// is enqueued — the npf extension-module slot (ext_ratelimit /
// npf_ext_rndblock) transplanted onto the packet filter's port abstraction.
//
// Contract (the extension hook contract, unit-tested in conndb_test.cc):
//   * An extension sees only accepted copies. The claim already stands, so
//     a veto counts exactly like a queue overflow: the port's `accepts`
//     incremented, the copy accounted to the extension's DropReason, and
//     the loss reported via `dropped_before` on the port's next delivered
//     packet. This preserves `accepts == enqueued + dropped` and the
//     exactly-one-reason partition without a new accounting path.
//   * Extensions are pure mechanism: no clock (the demux passes simulated
//     now_ns through), no I/O, no allocation on the steady-state path.
//   * Determinism: any randomness comes from a caller-seeded pfutil::Rng;
//     probabilities and rates are integers (parts-per-million, tokens per
//     simulated second) so decisions are bit-identical across toolchains.
#ifndef SRC_PF_EXT_H_
#define SRC_PF_EXT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "src/pf/drop.h"
#include "src/util/rng.h"

namespace pf {

class PortExtension {
 public:
  virtual ~PortExtension() = default;

  // One call per accepted copy. Return true to pass; false vetoes the copy,
  // which the demux accounts to reason().
  virtual bool Inspect(uint64_t flow_sig, size_t bytes, uint64_t now_ns) = 0;

  // The exactly-one DropReason every veto by this extension lands in.
  virtual DropReason reason() const = 0;
  virtual std::string name() const = 0;

  uint64_t inspected() const { return inspected_; }
  uint64_t vetoed() const { return vetoed_; }

 protected:
  // Subclasses call this from Inspect() so the base counters stay exact.
  bool Count(bool pass) {
    ++inspected_;
    if (!pass) {
      ++vetoed_;
    }
    return pass;
  }

 private:
  uint64_t inspected_ = 0;
  uint64_t vetoed_ = 0;
};

// ext_ratelimit: token bucket per flow (or one bucket for the whole port),
// integer arithmetic throughout. Tokens are held in nano-tokens
// (1 packet == 1e9 nano-tokens) so refill at `rate_pps` tokens per
// simulated second is exact: refill = elapsed_ns * rate_pps.
class RateLimitExt : public PortExtension {
 public:
  struct Config {
    uint64_t rate_pps = 1000;  // sustained packets per simulated second
    uint64_t burst = 16;       // bucket depth, packets
    bool per_flow = false;     // one bucket per flow signature vs per port
    size_t max_flows = 1024;   // bounded per-flow bucket map; at capacity
                               // the map is wiped wholesale (coarse: a
                               // live flow re-enters with a full bucket on
                               // its next packet)
  };

  explicit RateLimitExt(Config config);

  bool Inspect(uint64_t flow_sig, size_t bytes, uint64_t now_ns) override;
  DropReason reason() const override { return DropReason::kRateLimited; }
  std::string name() const override { return "ratelimit"; }

  uint64_t bucket_wipes() const { return wipes_; }
  size_t tracked_flows() const { return flows_.size(); }

 private:
  static constexpr uint64_t kTokenScale = 1'000'000'000;  // nano-tokens/packet

  struct Bucket {
    uint64_t tokens = 0;       // nano-tokens
    uint64_t last_ns = 0;
    bool primed = false;       // first sighting starts with a full bucket
  };

  bool Take(Bucket* bucket, uint64_t now_ns);

  Config config_;
  uint64_t cap_;               // burst * kTokenScale
  Bucket port_bucket_;
  std::unordered_map<uint64_t, Bucket> flows_;
  uint64_t wipes_ = 0;
};

// npf_ext_rndblock: drop each accepted copy with a fixed probability —
// the classic "degrade a misbehaving peer" / chaos-injection knob.
// Probability is parts-per-million; randomness is a seeded xoshiro stream,
// so a (seed, traffic) pair always vetoes the same packets.
class RndBlockExt : public PortExtension {
 public:
  struct Config {
    uint32_t drop_ppm = 100'000;  // 10% default
    uint64_t seed = 1;
  };

  explicit RndBlockExt(Config config);

  bool Inspect(uint64_t flow_sig, size_t bytes, uint64_t now_ns) override;
  DropReason reason() const override { return DropReason::kRndBlock; }
  std::string name() const override { return "rndblock"; }

 private:
  Config config_;
  pfutil::Rng rng_;
};

}  // namespace pf

#endif  // SRC_PF_EXT_H_

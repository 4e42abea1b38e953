// A simulated Ethernet segment: a broadcast domain shared by attached
// stations, with transmission-time serialization at the link bandwidth and
// optional seeded fault injection (impair.h) for graceful-degradation
// testing.
//
// The model is an ideal CSMA medium: transmissions queue behind the medium
// (no collisions, no backoff). That is the right fidelity for the paper's
// evaluation, where the network itself is never the bottleneck (§6.4 notes
// network performance limits only the BSP *file transfer* case). Hostile
// conditions are opt-in: SetImpairments attaches a deterministic loss/
// corruption/duplication/reorder/truncation model, and every frame is
// stamped with a transmit-time FCS so receivers detect damage (frame.h).
#ifndef SRC_LINK_SEGMENT_H_
#define SRC_LINK_SEGMENT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "src/link/frame.h"
#include "src/link/impair.h"
#include "src/obs/metrics.h"
#include "src/sim/sim_time.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"

namespace pflink {

// A station's attachment point. The kernel's network-interface driver
// implements this to receive frames from the segment.
class Station {
 public:
  virtual ~Station() = default;

  // Called (in simulated time) when a frame addressed to this station — or
  // any frame, if promiscuous() — finishes arriving.
  virtual void OnFrameDelivered(const Frame& frame, pfsim::TimePoint at) = 0;

  virtual MacAddr link_addr() const = 0;
  virtual bool promiscuous() const { return false; }
};

class EthernetSegment {
 public:
  EthernetSegment(pfsim::Simulator* sim, LinkType type);
  EthernetSegment(const EthernetSegment&) = delete;
  EthernetSegment& operator=(const EthernetSegment&) = delete;
  ~EthernetSegment() { AttachMetrics(nullptr); }

  void Attach(Station* station);
  void Detach(Station* station);

  // Queues `frame` for transmission by `from`. Delivery to every other
  // matching station happens after the medium becomes free plus the frame's
  // transmission time. Frames from a detached-by-then sender still deliver.
  void Transmit(const Station* from, Frame frame);

  // Drops each frame independently with probability `p` (loss injected at
  // the medium, so every receiver misses it). Convenience wrapper around
  // SetImpairments with only independent loss configured; the draw sequence
  // for a given seed is identical to the pre-impairment implementation.
  void SetLossRate(double p, uint64_t seed = 0x10ad);

  // Attaches (or replaces) the fault-injection model. All subsequent
  // transmissions pass through it; pass a default-constructed config to
  // restore the ideal medium.
  void SetImpairments(const ImpairmentConfig& config);
  // The active impairment engine's counters (all-zero when never enabled).
  const ImpairmentStats& impairment_stats() const;
  const ImpairmentConfig* impairment_config() const;

  // Exposes this segment's "link.*" counters (carried/lost plus the
  // impairment breakdown) in `registry`. One registry at a time; null
  // detaches, retiring them from the registry last attached (so does
  // destruction). A replaced impairment engine's counts are retired too,
  // so "link.impair.*" counts on across SetImpairments calls.
  void AttachMetrics(pfobs::MetricsRegistry* registry);

  const LinkProperties& properties() const { return props_; }

  // Next per-packet tracing flow id (shared by all stations on the segment
  // so ids are unique across senders; see src/obs/trace.h).
  uint64_t NextFlowId() { return next_flow_id_++; }

  struct Stats {
    // Conservation (asserted in link_test and the chaos harness):
    //   frames_offered + frames_duplicated == frames_carried + frames_lost
    // and every carried frame is delivered to each addressed station.
    uint64_t frames_offered = 0;     // Transmit() calls
    uint64_t frames_carried = 0;     // copies scheduled for delivery
    uint64_t bytes_carried = 0;
    uint64_t frames_lost = 0;        // impairment drops (independent + burst)
    uint64_t frames_duplicated = 0;  // extra copies injected by impairment
  };
  const Stats& stats() const { return stats_; }

 private:
  void Carry(Frame frame, pfsim::TimePoint at, pfsim::Duration extra_delay);
  void Deliver(const Frame& frame);
  // Exposes the impairment engine's counters in registry_ (both set).
  void ExposeImpairer();

  pfsim::Simulator* sim_;
  LinkProperties props_;
  std::vector<Station*> stations_;
  // Deliver's copy of stations_, reused frame to frame (Deliver only runs
  // from a scheduled event, so it never nests).
  std::vector<Station*> delivery_snapshot_;
  // Frames on the wire, parked until their delivery event runs: the event
  // carries only the slot index, which fits std::function's in-place
  // buffer, so carrying a frame allocates nothing once the slab has grown
  // to the number of frames in flight. Freed slots are reused through
  // free_in_flight_.
  std::vector<Frame> in_flight_;
  std::vector<uint32_t> free_in_flight_;
  pfsim::TimePoint medium_free_at_{};
  uint64_t next_flow_id_ = 1;
  std::unique_ptr<Impairer> impairer_;
  pfobs::MetricsRegistry* registry_ = nullptr;
  Stats stats_;
};

}  // namespace pflink

#endif  // SRC_LINK_SEGMENT_H_

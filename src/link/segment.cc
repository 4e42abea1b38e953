#include "src/link/segment.h"

#include <algorithm>
#include <utility>

namespace pflink {

namespace {
// Propagation + interframe gap; small relative to the millisecond-scale
// costs the paper measures, but keeps event ordering physical.
constexpr pfsim::Duration kPropagationDelay = pfsim::Microseconds(5);
}  // namespace

EthernetSegment::EthernetSegment(pfsim::Simulator* sim, LinkType type)
    : sim_(sim), props_(PropertiesFor(type)) {}

void EthernetSegment::Attach(Station* station) { stations_.push_back(station); }

void EthernetSegment::Detach(Station* station) { std::erase(stations_, station); }

void EthernetSegment::SetLossRate(double p, uint64_t seed) {
  ImpairmentConfig config;
  config.seed = seed;
  config.loss = p;
  SetImpairments(config);
}

void EthernetSegment::SetImpairments(const ImpairmentConfig& config) {
  if (registry_ != nullptr && impairer_ != nullptr) {
    registry_->Retire(impairer_->stats());
  }
  impairer_ = std::make_unique<Impairer>(config);
  if (registry_ != nullptr) {
    ExposeImpairer();
  }
}

const ImpairmentStats& EthernetSegment::impairment_stats() const {
  static const ImpairmentStats kEmpty{};
  return impairer_ != nullptr ? impairer_->stats() : kEmpty;
}

const ImpairmentConfig* EthernetSegment::impairment_config() const {
  return impairer_ != nullptr ? &impairer_->config() : nullptr;
}

void EthernetSegment::AttachMetrics(pfobs::MetricsRegistry* registry) {
  if (registry_ != nullptr) {
    registry_->Retire(stats_);
    if (impairer_ != nullptr) {
      registry_->Retire(impairer_->stats());
    }
  }
  registry_ = registry;
  if (registry_ == nullptr) {
    return;
  }
  registry_->Expose("link.frames_carried", &stats_.frames_carried);
  registry_->Expose("link.frames_lost", &stats_.frames_lost);
  if (impairer_ != nullptr) {
    ExposeImpairer();
  }
}

void EthernetSegment::ExposeImpairer() {
  const ImpairmentStats& stats = impairer_->stats();
  registry_->Expose("link.impair.frames", &stats.frames_seen);
  registry_->Expose("link.impair.dropped_independent", &stats.dropped_independent);
  registry_->Expose("link.impair.dropped_burst", &stats.dropped_burst);
  registry_->Expose("link.impair.corrupted", &stats.corrupted);
  registry_->Expose("link.impair.duplicated", &stats.duplicated);
  registry_->Expose("link.impair.truncated", &stats.truncated);
  registry_->Expose("link.impair.reordered", &stats.reordered);
}

void EthernetSegment::Transmit(const Station* from, Frame frame) {
  (void)from;  // the sender does not hear its own transmission in this model
  const pfsim::TimePoint now = sim_->Now();
  const pfsim::TimePoint start = std::max(now, medium_free_at_);
  const auto tx_ns = static_cast<int64_t>(frame.size()) * 8 * 1000000000 /
                     static_cast<int64_t>(props_.bits_per_sec);
  const pfsim::TimePoint done = start + pfsim::Duration(tx_ns);
  medium_free_at_ = done;

  ++stats_.frames_offered;
  // The FCS reflects the bytes as the transmitter put them on the wire, so
  // stamp before any impairment mutates the frame.
  frame.StampFcs();

  if (impairer_ == nullptr || !impairer_->config().Any()) {
    Carry(std::move(frame), done, pfsim::Duration::zero());
    return;
  }

  // A duplicate is a pristine second copy — but with refcounted frames the
  // snapshot is free: both Frames share the block, and if Apply() corrupts
  // the original, copy-on-write peels it off while this view keeps the
  // bytes as stamped (truncation only shrinks the original's view).
  Frame pristine;
  if (impairer_->config().duplicate > 0.0) {
    pristine = frame;
  }
  // `done` is the frame's wire time: a burst window is tested against when
  // the frame finishes serializing, so backed-off retries can outlive it.
  const Impairer::Verdict verdict = impairer_->Apply(&frame, props_.header_len, done);
  if (verdict.dropped) {
    ++stats_.frames_lost;
    return;  // the medium stays busy for the lost frame's duration
  }
  if (verdict.duplicate) {
    ++stats_.frames_duplicated;
    // The copy trails the original by one transmission time (a duplicating
    // driver re-sends; the medium serializes it behind the original).
    medium_free_at_ = done + pfsim::Duration(tx_ns);
    Carry(std::move(pristine), medium_free_at_, pfsim::Duration::zero());
  }
  Carry(std::move(frame), done, verdict.extra_delay);
}

void EthernetSegment::Carry(Frame frame, pfsim::TimePoint at, pfsim::Duration extra_delay) {
  stats_.frames_carried++;
  stats_.bytes_carried += frame.size();
  uint32_t slot = static_cast<uint32_t>(in_flight_.size());
  if (free_in_flight_.empty()) {
    in_flight_.push_back(std::move(frame));
  } else {
    slot = free_in_flight_.back();
    free_in_flight_.pop_back();
    in_flight_[slot] = std::move(frame);
  }
  sim_->ScheduleAt(at + kPropagationDelay + extra_delay, [this, slot] {
    // Take the frame out and free its slot first: a station may transmit
    // from Deliver, and that Carry may reuse the slot or grow the slab.
    const Frame frame = std::move(in_flight_[slot]);
    free_in_flight_.push_back(slot);
    Deliver(frame);
  });
}

void EthernetSegment::Deliver(const Frame& frame) {
  const std::optional<LinkHeader> header = ParseHeader(props_.type, frame.AsSpan());
  if (!header.has_value()) {
    return;
  }
  // Iterate over a snapshot: a delivery callback may attach/detach stations.
  delivery_snapshot_.assign(stations_.begin(), stations_.end());
  for (Station* s : delivery_snapshot_) {
    const bool addressed = header->dst == s->link_addr() || header->dst.IsBroadcast() ||
                           header->dst.IsMulticast();
    if (addressed || s->promiscuous()) {
      s->OnFrameDelivered(frame, sim_->Now());
    }
  }
}

}  // namespace pflink

#include "src/link/impair.h"

#include <algorithm>
#include <cmath>

namespace pflink {

Impairer::Impairer(const ImpairmentConfig& config) : config_(config), rng_(config.seed) {}

Impairer::Verdict Impairer::Apply(Frame* frame, uint32_t header_len, pfsim::TimePoint now) {
  Verdict verdict;
  ++stats_.frames_seen;

  // 1. Independent loss — one draw per frame, exactly the legacy
  // SetLossRate sequence when only `loss` is configured.
  if (config_.loss > 0.0 && rng_.Chance(config_.loss)) {
    ++stats_.dropped_independent;
    verdict.dropped = true;
    return verdict;
  }

  // 2. Gilbert–Elliott burst loss, time-windowed (see impair.h): a frame
  // outside a burst may start one; the burst's duration is drawn once, as a
  // geometric number of burst_slot intervals, and only frames whose wire
  // time lands inside the window suffer the bad-state loss probability. A
  // retransmission backed off past burst_until_ escapes the burst — the
  // property the adaptive-timer chaos cells assert.
  if (config_.burst_enter > 0.0) {
    if (in_burst_ && now >= burst_until_) {
      in_burst_ = false;
    }
    if (!in_burst_ && rng_.Chance(config_.burst_enter)) {
      in_burst_ = true;
      // One uniform draw -> geometric slot count: P(slots > k) = (1-exit)^k.
      // Capped so a tiny burst_exit cannot stall the grid past its watchdog.
      int64_t slots = 1;
      if (config_.burst_exit < 1.0) {
        const double u = std::max(
            static_cast<double>(rng_.Next() >> 11) * (1.0 / 9007199254740992.0), 1e-12);
        slots = 1 + static_cast<int64_t>(std::log(u) / std::log(1.0 - config_.burst_exit));
        slots = std::clamp<int64_t>(slots, 1, 1000);
      }
      burst_until_ = now + slots * config_.burst_slot;
    }
    if (in_burst_ && (config_.burst_loss >= 1.0 || rng_.Chance(config_.burst_loss))) {
      ++stats_.dropped_burst;
      verdict.dropped = true;
      return verdict;
    }
  }

  // 3. Duplication (the copy is taken by the segment before corruption and
  // truncation mutate this instance).
  if (config_.duplicate > 0.0 && rng_.Chance(config_.duplicate)) {
    ++stats_.duplicated;
    verdict.duplicate = true;
  }

  // 4. Payload bit corruption (header spared; see impair.h).
  if (config_.corrupt > 0.0 && frame->bytes.size() > header_len &&
      rng_.Chance(config_.corrupt)) {
    ++stats_.corrupted;
    const uint64_t payload_bits = (frame->bytes.size() - header_len) * 8;
    const int max_flips = config_.corrupt_max_bits > 0 ? config_.corrupt_max_bits : 1;
    const uint64_t flips = rng_.Range(1, static_cast<uint64_t>(max_flips));
    // The one true copy on the wire path: if a pristine duplicate (or any
    // other view) still shares this block, MutableSpan() clones it before
    // the bit flips land, so the other holders keep the original bytes.
    const std::span<uint8_t> bytes = frame->bytes.MutableSpan();
    for (uint64_t i = 0; i < flips; ++i) {
      const uint64_t bit = rng_.Below(payload_bits);
      bytes[header_len + bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    }
  }

  // 5. Truncation to [header_len, size): the frame still routes, but the
  // receiving NIC sees fewer bytes than the transmitter stamped.
  if (config_.truncate > 0.0 && frame->bytes.size() > header_len &&
      rng_.Chance(config_.truncate)) {
    ++stats_.truncated;
    // A view shrink, not a copy: a shared block (e.g. a pristine duplicate)
    // keeps its full-length view.
    frame->bytes.Truncate(rng_.Range(header_len, frame->bytes.size() - 1));
  }

  // 6. Reorder jitter.
  if (config_.reorder > 0.0 && config_.reorder_jitter.count() > 0 &&
      rng_.Chance(config_.reorder)) {
    ++stats_.reordered;
    verdict.extra_delay =
        pfsim::Duration(1 + static_cast<int64_t>(
                                rng_.Below(static_cast<uint64_t>(config_.reorder_jitter.count()))));
  }
  return verdict;
}

}  // namespace pflink

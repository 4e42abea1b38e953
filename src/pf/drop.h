// The drop-reason taxonomy and the flight recorder: every packet (or packet
// copy) the demultiplexer does not deliver is accounted to exactly one
// DropReason, and an optional bounded ring buffer keeps the last N rejected
// packets for post-mortem inspection — a simulated tcpdump for losses.
//
// Reasons partition the non-delivered set:
//   * per packet (fig. 4-1's terminal Drop): kNoPorts / kNoMatch /
//     kShortPacket / kFilterError — why no filter claimed the frame.
//   * per copy: kQueueOverflow — a filter accepted, but the port's bounded
//     input queue was full (§3.3's counted losses).
//   * at the NIC, before any filter runs: kBadCrc / kTruncated (the frame
//     check sequence stamped at transmit time failed on receive — see
//     src/link/frame.h) and kRingOverflow (the bounded receive ring was
//     full, so the DMA engine had nowhere to put the frame). These are
//     counted by the Machine's NIC driver, not by PacketFilter, but share
//     this taxonomy — and the flight recorder — so every loss in the
//     system lands in one vocabulary.
//
// PacketFilter keeps per-port and global per-reason counters (demux.h) and
// mirrors them into "pf.drop.<reason>" registry counters; the recorder is
// off by default (a null check on the drop path) and enabled by
// PacketFilter::SetFlightRecorder.
#ifndef SRC_PF_DROP_H_
#define SRC_PF_DROP_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <vector>

namespace pf {

enum class DropReason : uint8_t {
  kNoMatch = 0,     // every filter ran (or was pruned) and rejected
  kNoPorts,         // no filters bound at all when the packet arrived
  kShortPacket,     // rejected everywhere; some filter read past the end
  kFilterError,     // rejected everywhere; some filter hit a run-time error
  kQueueOverflow,   // a filter accepted but the port's queue was full
  kBadCrc,          // NIC: frame check sequence mismatch (in-flight corruption)
  kTruncated,       // NIC: frame shorter than its transmitted length
  kRingOverflow,    // NIC: bounded receive ring was full
  kRateLimited,     // extension: per-copy token-bucket veto (ext.h)
  kRndBlock,        // extension: per-copy seeded probabilistic veto (ext.h)
  kCount,
};
inline constexpr size_t kDropReasonCount = static_cast<size_t>(DropReason::kCount);

// "queue-overflow" style human label.
std::string ToString(DropReason reason);
// "queue_overflow" style metric suffix ("pf.drop.<slug>").
std::string ToSlug(DropReason reason);

// Per-reason counters, indexable by DropReason.
using DropCounts = std::array<uint64_t, kDropReasonCount>;

inline uint64_t TotalDrops(const DropCounts& counts) {
  uint64_t total = 0;
  for (const uint64_t n : counts) {
    total += n;
  }
  return total;
}

// One recorded loss. `port` is the overflowing port for kQueueOverflow and
// 0 for the whole-packet reasons; `pc` is the instruction index where the
// first erroring filter stopped (-1 when no filter erred). `flow_sig` is
// the demux flow signature (pfobs::FlowSignature) — the same identity the
// FlowTable and the connection table key on and the capture taps stamp
// into pcapng packet comments, so a recorded drop, a flow-table row, and a
// captured packet cross-reference (0 = not computed).
struct DropRecord {
  uint64_t timestamp_ns = 0;
  uint64_t flow_id = 0;
  uint64_t flow_sig = 0;
  DropReason reason = DropReason::kNoMatch;
  uint32_t port = 0;
  int32_t pc = -1;
  uint32_t packet_bytes = 0;
  // The first words of the frame, big-endian 16-bit (the filter language's
  // view of the header).
  std::array<uint16_t, 4> head_words{};
  uint8_t head_word_count = 0;
};

// Bounded ring of the most recent drops. Passive container: no clock, no
// I/O; callers stamp records with simulated time.
class DropRecorder {
 public:
  explicit DropRecorder(size_t capacity = kDefaultCapacity);

  size_t capacity() const { return capacity_; }
  size_t size() const { return ring_.size(); }
  // Total drops ever recorded (recorded - size() have been overwritten).
  uint64_t total_recorded() const { return total_; }

  void Record(DropRecord record);
  // Copies the record's head words out of `packet` and records it.
  void RecordPacket(DropRecord record, std::span<const uint8_t> packet);

  // Oldest-to-newest; at most `max` of the newest entries.
  std::vector<DropRecord> Tail(size_t max = SIZE_MAX) const;

  // One line per record, oldest first.
  std::string ToText() const;
  // {"capacity":N,"total_recorded":M,"records":[{...},...]}
  std::string ToJson() const;

  void Clear();

  static constexpr size_t kDefaultCapacity = 64;

 private:
  std::deque<DropRecord> ring_;
  size_t capacity_;
  uint64_t total_ = 0;
};

}  // namespace pf

#endif  // SRC_PF_DROP_H_

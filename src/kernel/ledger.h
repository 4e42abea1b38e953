// Per-machine cost ledger: every simulated CPU charge is tagged with a
// category, giving an exact "kernel profile" — the reproduction of the
// paper's §6.1 gprof experiment without sampling error.
#ifndef SRC_KERNEL_LEDGER_H_
#define SRC_KERNEL_LEDGER_H_

#include <array>
#include <cstdint>
#include <string>

#include "src/obs/metrics.h"
#include "src/sim/sim_time.h"

namespace pfkern {

enum class Cost : uint8_t {
  kContextSwitch = 0,
  kSyscall,
  kCopy,
  kInterrupt,       // receive interrupt + driver input
  kFilterEval,      // packet-filter predicate interpretation
  kPfBookkeeping,   // packet-filter queueing/bookkeeping
  kTimestamp,       // microtime() per-packet timestamps
  kIpInput,
  kTransportInput,  // UDP/TCP input above IP
  kIpOutput,
  kTransportOutput,
  kChecksum,
  kDriverSend,
  kPipe,
  kProtocolUser,    // user-level protocol processing (VMTP/BSP/RARP code)
  kProtocolKernel,  // kernel-resident VMTP processing
  kDisplay,         // character display (Telnet experiment, table 6-7)
  kIndexProbe,      // hash-dispatch discriminating-word probes (kIndexed)
  kFlowCache,       // never charged; kept for perfbench/bare.cc, its reader
  kRingPost,        // shared-memory ring: descriptor posted at demux time
  kRingReap,        // shared-memory ring: descriptor reaped by the user
  kPollLoop,        // poll-mode NIC receive: per-round + per-frame polling
  kConnDb,          // connection-database lookup/establish per packet
  kConnGc,          // conndb incremental GC sweeps (worker timer context)
  kCount,
};

std::string ToString(Cost category);
// Metric-name form ("context_switch", "copy", ...): lowercase, dots/spaces
// free, used as "ledger.<slug>.*" in the metrics registry.
std::string ToSlug(Cost category);

class Ledger {
 public:
  void Charge(Cost category, pfsim::Duration amount) {
    auto& slot = slots_[static_cast<size_t>(category)];
    slot.total += amount;
    ++slot.count;
  }

  pfsim::Duration total(Cost category) const {
    return slots_[static_cast<size_t>(category)].total;
  }
  uint64_t count(Cost category) const { return slots_[static_cast<size_t>(category)].count; }

  pfsim::Duration grand_total() const {
    pfsim::Duration sum{};
    for (const Slot& slot : slots_) {
      sum += slot.total;
    }
    return sum;
  }

  void Reset() { slots_.fill(Slot{}); }

  // Multi-line "gprof" style summary, categories with non-zero time only.
  std::string Format() const;

  // Ledger -> registry bridge (src/obs): writes every category with any
  // charges as gauges "<prefix>.<slug>.total_ns" and "<prefix>.<slug>.charges"
  // plus "<prefix>.grand_total_ns". Gauges are overwritten on each call, so
  // re-exporting after more charges is safe.
  void ExportTo(pfobs::MetricsRegistry* registry, const std::string& prefix = "ledger") const;

 private:
  struct Slot {
    pfsim::Duration total{};
    uint64_t count = 0;
  };
  std::array<Slot, static_cast<size_t>(Cost::kCount)> slots_{};
};

}  // namespace pfkern

#endif  // SRC_KERNEL_LEDGER_H_

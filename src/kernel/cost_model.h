// The simulated machine's cost model.
//
// Every constant is taken from (or calibrated against) a measurement the
// paper reports for a MicroVAX-II running Ultrix 1.2 / 4.3BSD; the citation
// is next to each value. The evaluation tables are *not* individually
// fitted: they emerge from these unit costs multiplied by the structural
// event counts (context switches, domain crossings, copies, filter
// instructions) that each delivery path incurs — which is exactly the
// paper's own analytical model (§6.5.1).
#ifndef SRC_KERNEL_COST_MODEL_H_
#define SRC_KERNEL_COST_MODEL_H_

#include <algorithm>
#include <cstddef>

#include "src/pf/engine.h"
#include "src/sim/sim_time.h"

namespace pfkern {

struct CostModel {
  // §6.5.2: "about 0.4 mSec of CPU time to switch between processes".
  pfsim::Duration context_switch = pfsim::Microseconds(400);

  // Domain crossing per system call (entry + exit). Calibrated so that
  // table 6-1's packet-filter send (syscall + copy + driver) lands at
  // 1.9 ms for a short packet.
  pfsim::Duration syscall = pfsim::Microseconds(550);

  // §6.5.2: "about 0.5 mSec of CPU time to transfer a short packet between
  // the kernel and a process ... data copying requires about 1 mSec/Kbyte".
  // copy(n) = max(copy_min, copy_fixed + n * copy_per_byte); the slope is
  // calibrated against tables 6-1/6-8 (1.25 µs/byte).
  pfsim::Duration copy_min = pfsim::Microseconds(500);
  pfsim::Duration copy_fixed = pfsim::Microseconds(300);
  pfsim::Duration copy_per_byte = pfsim::Nanoseconds(1250);

  // Receive interrupt + network-interface driver processing per frame.
  pfsim::Duration recv_interrupt = pfsim::Microseconds(400);
  // Packet-filter per-packet bookkeeping beyond filter evaluation (§6.1:
  // 59% of the PF's 1.57 ms average is not filter evaluation; the rest of
  // that time is driver + wakeup, charged separately).
  pfsim::Duration pf_bookkeeping = pfsim::Microseconds(350);

  // Filter interpretation: per-program overhead + per-instruction cost.
  // Calibrated against §6.1 (0.122 ms per ~3-instruction predicate) and
  // table 6-10 (~29 µs/instruction slope).
  pfsim::Duration filter_apply = pfsim::Microseconds(45);
  pfsim::Duration filter_insn = pfsim::Microseconds(25);

  // §7: microtime() for the per-packet timestamp "costs about 70 µSec".
  pfsim::Duration timestamp = pfsim::Microseconds(70);

  // Hash-dispatch index (Strategy::kIndexed): one discriminating-word probe
  // is a load + mask + hash mix — the same order of work as one filter
  // instruction.
  pfsim::Duration index_probe = pfsim::Microseconds(25);
  // Never charged; kept for perfbench/bare.cc, which reads it.
  pfsim::Duration flow_cache_lookup = pfsim::Microseconds(20);
  // One connection-database operation per packet (lookup, and on a miss
  // the establish that follows): a hash probe plus an LRU splice — about
  // one filter instruction plus a little bookkeeping.
  pfsim::Duration conn_lookup = pfsim::Microseconds(30);
  // One incremental conndb GC sweep (worker timer): a bounded slab scan.
  pfsim::Duration conn_gc_sweep = pfsim::Microseconds(100);

  // Kernel-resident IP: §6.1 "the IP layer processing ... about 0.49 mSec";
  // full input to TCP/UDP is 1.77 ms, so the transport share is ~0.9 ms
  // after the driver share.
  pfsim::Duration ip_input = pfsim::Microseconds(490);
  pfsim::Duration transport_input = pfsim::Microseconds(790);
  // Send side: §6.1 "it takes about 1 mSec to send a datagram", and the
  // kernel "needs to choose a route ... and compute a checksum" (table 6-1
  // shows UDP costing 1.2 ms more than the packet filter).
  pfsim::Duration ip_output = pfsim::Microseconds(900);
  pfsim::Duration transport_output = pfsim::Microseconds(300);
  // Software checksum over payload bytes (TCP checksums all data, §6.3).
  pfsim::Duration checksum_per_byte = pfsim::Nanoseconds(350);
  // Driver transmit path (enqueue to interface).
  pfsim::Duration driver_send = pfsim::Microseconds(850);

  // Pipe transfer bookkeeping beyond the two copies (table 6-8 calibration;
  // §6.3 notes "the poor IPC facilities in 4.3BSD").
  pfsim::Duration pipe_overhead = pfsim::Microseconds(200);

  // Shared-memory ring delivery (DESIGN.md §13). Posting a descriptor at
  // demux time is a couple of stores plus a producer-index update; reaping
  // one on the user side is a load + consumer-index update. Both are far
  // below a copy or a domain crossing — that gap *is* the zero-copy claim.
  pfsim::Duration ring_post = pfsim::Microseconds(40);
  pfsim::Duration ring_reap = pfsim::Microseconds(40);

  // Poll-mode NIC receive (DESIGN.md §13): per-round fixed cost (ring scan
  // + rearm check) and per-frame driver work *without* the interrupt
  // entry/exit that recv_interrupt folds in. One frame polled costs more
  // than one interrupt taken; a budget-full round costs far less than a
  // budget's worth of interrupts — poll mode pays off exactly under load.
  pfsim::Duration poll_round = pfsim::Microseconds(100);
  pfsim::Duration poll_per_frame = pfsim::Microseconds(150);

  // Per-packet protocol processing done by *user-level* protocol code
  // (VMTP/BSP state machines on a ~1 MIPS machine) and by the kernel
  // VMTP implementation. Receive-side processing (reassembly, dispatch,
  // duplicate handling) is far heavier than send-side; the split is
  // calibrated against table 6-2 (14.7 ms vs 7.44 ms minimal round trip),
  // and the asymmetry is what lets received-packet batching pay off in
  // table 6-4 (the receiver is the pipeline bottleneck).
  pfsim::Duration vmtp_user_send_proc = pfsim::Microseconds(600);
  pfsim::Duration vmtp_user_recv_proc = pfsim::Microseconds(2900);
  pfsim::Duration vmtp_kernel_proc = pfsim::Microseconds(330);
  pfsim::Duration bsp_user_proc = pfsim::Microseconds(1200);

  pfsim::Duration CopyCost(size_t bytes) const {
    const pfsim::Duration d = copy_fixed + copy_per_byte * static_cast<int64_t>(bytes);
    return std::max(copy_min, d);
  }
  pfsim::Duration ChecksumCost(size_t bytes) const {
    return checksum_per_byte * static_cast<int64_t>(bytes);
  }
  // Charges exactly what the engine reports having done: per-program
  // overhead for each interpreted filter, per-instruction cost for each
  // interpreted instruction. Index probes are charged separately
  // (index_probe).
  pfsim::Duration FilterCost(const pf::ExecTelemetry& exec) const {
    return filter_apply * static_cast<int64_t>(exec.filters_run) +
           filter_insn * static_cast<int64_t>(exec.insns_executed);
  }
};

// The MicroVAX-II / Ultrix 1.2 machine of §6.5.
inline CostModel MicroVaxUltrixCosts() { return CostModel{}; }

// The "V kernel" preset for table 6-2/6-3: same hardware, but a kernel
// designed for cheap crossings (the paper uses the V numbers to show the
// Unix kernel VMTP is not anomalous — they differ by under 2%).
inline CostModel VKernelCosts() {
  CostModel costs;
  costs.syscall = pfsim::Microseconds(250);
  costs.context_switch = pfsim::Microseconds(250);
  costs.vmtp_kernel_proc = pfsim::Microseconds(380);
  return costs;
}

}  // namespace pfkern

#endif  // SRC_KERNEL_COST_MODEL_H_

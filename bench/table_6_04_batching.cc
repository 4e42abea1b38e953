// Table 6-4: "Effect of received-packet batching on performance" —
// packet-filter VMTP bulk throughput with and without the §3 batch-read
// option. The paper measured a 75% improvement and noted the gain exceeds
// pure syscall savings (fewer context switches and drops too).
// Two more rows repeat both cells over shared-memory ring delivery
// (DESIGN.md §13). Two simulator-only tables follow, both exact, for the
// batched run: the scheduler events per delivered packet (one CPU
// acquisition is one event, DESIGN.md §2, so a change that adds events per
// packet moves that row), and the mean event-queue depth sampled every
// simulated ms (a woken wait cancels its timer, so a change that leaves
// dead timers in the queue moves that row).
#include <cmath>

#include "bench/vmtp_common.h"

static int BenchMain(int /*argc*/, char** /*argv*/) {
  using pfbench::MeasureVmtp;
  using pfbench::VmtpConfig;

  VmtpConfig batched;
  batched.batching = true;
  VmtpConfig unbatched;
  unbatched.batching = false;

  double events_per_delivery = 0;
  VmtpConfig counted = batched;
  counted.inspect = [&events_per_delivery](pfbench::Duo& duo) {
    double deliveries = 0;
    for (pfkern::Machine* machine : {&duo.client(), &duo.server()}) {
      deliveries += static_cast<double>(
          machine->metrics().FindCounter("pf.demux.deliveries")->value());
    }
    events_per_delivery = static_cast<double>(duo.sim().events_executed()) / deliveries;
  };
  const pfbench::VmtpResult counted_result = MeasureVmtp(counted);
  const double with_batching = counted_result.bulk_kbps;
  const double without_batching = MeasureVmtp(unbatched).bulk_kbps;
  VmtpConfig batched_ring = batched;
  batched_ring.ring_slots = 128;
  VmtpConfig unbatched_ring = unbatched;
  unbatched_ring.ring_slots = 128;

  const double nan = std::nan("");
  const std::vector<pfbench::Row> rows = {
      {"Batching: yes", 112, with_batching},
      {"Batching: no", 64, without_batching},
      {"Batching: yes + ring", nan, MeasureVmtp(batched_ring).bulk_kbps},
      {"Batching: no + ring", nan, MeasureVmtp(unbatched_ring).bulk_kbps},
  };
  pfbench::PrintTable("Table 6-4: Effect of received-packet batching",
                      "packet-filter VMTP bulk transfer, §6.3", "(KB/s)", rows);
  std::printf("    improvement from batching: paper +75%%, ours %+.0f%%\n",
              (with_batching / without_batching - 1.0) * 100.0);
  pfbench::PrintTable("Table 6-4 (simulator): events per delivered packet",
                      "batched packet-filter VMTP bulk run, both machines", "(events/packet)",
                      {{"Batching: yes", nan, events_per_delivery}});
  pfbench::PrintTable("Table 6-4 (simulator): mean pending events",
                      "batched packet-filter VMTP bulk run, sampled every simulated ms",
                      "(events)", {{"Batching: yes", nan, counted_result.mean_pending_events}});
  return 0;
}

PFBENCH_MAIN("table_6_04_batching", BenchMain)

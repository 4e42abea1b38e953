// Table 6-4: "Effect of received-packet batching on performance" —
// packet-filter VMTP bulk throughput with and without the §3 batch-read
// option. The paper measured a 75% improvement and noted the gain exceeds
// pure syscall savings (fewer context switches and drops too).
// Two more rows repeat both cells over shared-memory ring delivery
// (DESIGN.md §13).
#include <cmath>

#include "bench/vmtp_common.h"

static int BenchMain(int /*argc*/, char** /*argv*/) {
  using pfbench::MeasureVmtp;
  using pfbench::VmtpConfig;

  VmtpConfig batched;
  batched.batching = true;
  VmtpConfig unbatched;
  unbatched.batching = false;

  const double with_batching = MeasureVmtp(batched).bulk_kbps;
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
  return 0;
}

PFBENCH_MAIN("table_6_04_batching", BenchMain)

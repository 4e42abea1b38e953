// Table 6-3: "Relative performance of VMTP for bulk data transfer" —
// ~1 MB moved as repeated 16 KB segment reads; packet-filter vs kernel vs
// V-kernel VMTP, with kernel TCP for comparison. The paper's headline:
// "the penalty for user-level implementation is almost exactly a factor of
// three."
// Two more rows measure the DESIGN.md §13 delivery modes (shared-memory
// descriptor ring, ring + NIC poll mode).
#include <cmath>

#include "bench/stream_common.h"
#include "bench/vmtp_common.h"

static int BenchMain(int /*argc*/, char** /*argv*/) {
  using pfbench::MeasureTcpBulkKBps;
  using pfbench::MeasureVmtp;
  using pfbench::VmtpConfig;

  VmtpConfig pf_config;  // batching on, as the paper notes for this table
  VmtpConfig kernel_config;
  kernel_config.kernel = true;
  VmtpConfig vkernel_config;
  vkernel_config.kernel = true;
  vkernel_config.costs = pfkern::VKernelCosts();

  const double pf_rate = MeasureVmtp(pf_config).bulk_kbps;
  const double kernel_rate = MeasureVmtp(kernel_config).bulk_kbps;
  const double vkernel_rate = MeasureVmtp(vkernel_config).bulk_kbps;
  const double tcp_rate = MeasureTcpBulkKBps(1 << 20, 1024);
  VmtpConfig ring_config = pf_config;
  ring_config.ring_slots = 128;
  VmtpConfig ring_poll_config = ring_config;
  ring_poll_config.poll = true;

  const double nan = std::nan("");
  const std::vector<pfbench::Row> rows = {
      {"Packet filter VMTP", 112, pf_rate},
      {"Unix kernel VMTP", 336, kernel_rate},
      {"V kernel VMTP", 278, vkernel_rate},
      {"Unix kernel TCP", 222, tcp_rate},
      {"Packet filter VMTP + ring", nan, MeasureVmtp(ring_config).bulk_kbps},
      {"Packet filter VMTP + ring + poll", nan, MeasureVmtp(ring_poll_config).bulk_kbps},
  };
  pfbench::PrintTable("Table 6-3: Relative performance of VMTP for bulk data transfer",
                      "~1 MB in 16 KB segment reads, §6.3", "(KB/s)", rows);
  std::printf("    user-level penalty: paper 3.0x, ours %.2fx\n", kernel_rate / pf_rate);
  return 0;
}

PFBENCH_MAIN("table_6_03_vmtp_bulk", BenchMain)

// Table 6-2: "Relative performance of VMTP for small messages" — elapsed
// time for a minimal round-trip operation (reading zero bytes from a file)
// under the packet-filter implementation, the Unix-kernel implementation,
// and the V-kernel cost preset. The paper's headline: "the penalty for
// user-level implementation is almost exactly a factor of two."
// Two more rows measure the DESIGN.md §13 delivery modes (shared-memory
// descriptor ring, ring + NIC poll mode) the paper's hardware did not have.
#include <cmath>

#include "bench/vmtp_common.h"

static int BenchMain(int /*argc*/, char** /*argv*/) {
  using pfbench::MeasureVmtp;
  using pfbench::VmtpConfig;

  VmtpConfig pf_config;
  VmtpConfig kernel_config;
  kernel_config.kernel = true;
  VmtpConfig vkernel_config;
  vkernel_config.kernel = true;
  vkernel_config.costs = pfkern::VKernelCosts();

  const double pf_rtt = MeasureVmtp(pf_config).rtt_ms;
  const double kernel_rtt = MeasureVmtp(kernel_config).rtt_ms;
  const double vkernel_rtt = MeasureVmtp(vkernel_config).rtt_ms;
  VmtpConfig ring_config = pf_config;
  ring_config.ring_slots = 128;
  VmtpConfig ring_poll_config = ring_config;
  ring_poll_config.poll = true;

  const double nan = std::nan("");
  const std::vector<pfbench::Row> rows = {
      {"Packet filter", 14.7, pf_rtt},
      {"Unix kernel", 7.44, kernel_rtt},
      {"V kernel", 7.32, vkernel_rtt},
      {"Packet filter + ring", nan, MeasureVmtp(ring_config).rtt_ms},
      {"Packet filter + ring + poll", nan, MeasureVmtp(ring_poll_config).rtt_ms},
  };
  pfbench::PrintTable("Table 6-2: Relative performance of VMTP for small messages",
                      "elapsed time per minimal operation, §6.3", "(ms)", rows);
  std::printf("    user-level penalty: paper 1.98x, ours %.2fx\n", pf_rtt / kernel_rtt);
  return 0;
}

PFBENCH_MAIN("table_6_02_vmtp_small", BenchMain)

// The kernel-resident IP + UDP stack: the fig. 3-2 "vanilla 4.3BSD" path
// the paper compares the packet filter against. Protocol input runs in
// interrupt context (no context switch, §2's fig. 2-3: overhead packets
// confined to the kernel); only the final delivery to a user process pays a
// wakeup + copy.
//
// Costs follow §6.1: IP-layer input 0.49 ms, full input to UDP/TCP 1.77 ms,
// send ~1 ms plus routing/checksum (table 6-1).
#ifndef SRC_KERNEL_KERNEL_IP_H_
#define SRC_KERNEL_KERNEL_IP_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/kernel/machine.h"
#include "src/proto/ip.h"
#include "src/sim/sync.h"
#include "src/sim/value_task.h"

namespace pfkern {

struct UdpDatagram {
  uint32_t src_ip = 0;
  uint16_t src_port = 0;
  uint16_t dst_port = 0;
  std::vector<uint8_t> data;
};

class KernelIpStack {
 public:
  KernelIpStack(Machine* machine, uint32_t ip);
  KernelIpStack(const KernelIpStack&) = delete;
  KernelIpStack& operator=(const KernelIpStack&) = delete;
  ~KernelIpStack();

  uint32_t ip() const { return ip_; }
  Machine* machine() { return machine_; }

  // --- UDP (user surface) ---
  void BindUdp(uint16_t port);
  pfsim::ValueTask<bool> SendUdp(int pid, uint32_t dst_ip, uint16_t src_port, uint16_t dst_port,
                                 std::vector<uint8_t> data, bool checksummed = true);
  pfsim::ValueTask<std::optional<UdpDatagram>> RecvUdp(int pid, uint16_t port,
                                                       pfsim::Duration timeout);

  // --- IP output for upper layers (charges ip_output + driver send) ---
  pfsim::ValueTask<bool> OutputIp(int ctx, uint32_t dst_ip, uint8_t protocol,
                                  std::vector<uint8_t> segment);

  // TCP input hook (registered by KernelTcp).
  using TcpInput = std::function<pfsim::ValueTask<void>(const pfproto::IpView&)>;
  void SetTcpInput(TcpInput input) { tcp_input_ = std::move(input); }

  struct Stats {
    uint64_t ip_in = 0;
    uint64_t ip_out = 0;
    uint64_t ip_bad = 0;       // malformed / bad header checksum
    uint64_t udp_in = 0;
    uint64_t udp_no_port = 0;  // no bound socket
    uint64_t udp_out = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  pfsim::ValueTask<void> Input(const pflink::Frame& frame, const pflink::LinkHeader& header);

  Machine* machine_;
  uint32_t ip_;
  std::unordered_map<uint16_t, std::unique_ptr<pfsim::MsgQueue<UdpDatagram>>> udp_ports_;
  TcpInput tcp_input_;
  Stats stats_;
  uint16_t next_ip_id_ = 1;
};

}  // namespace pfkern

#endif  // SRC_KERNEL_KERNEL_IP_H_

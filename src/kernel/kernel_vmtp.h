// Kernel-resident VMTP (§5.2, §6.3): request-response transactions with
// bulk data carried as multi-packet *groups* acknowledged as a unit.
//
// The structural contrast with the user-level implementation
// (src/net/vmtp.h) is the whole point of tables 6-2..6-5:
//   * here, every per-packet event (group assembly, acks, retransmission)
//     happens in interrupt context inside the kernel — fig. 2-3's "overhead
//     packets confined to the kernel";
//   * the user process pays exactly one wakeup + one copy per complete
//     message, regardless of how many packets carried it.
//
// Reliability model: client-driven. The client retransmits its request
// group on timeout; the server suppresses duplicate transactions and
// retransmits its cached response; the client acks a complete response so
// the server can release it. This gives at-most-once execution per
// transaction id under loss, which is what the VMTP measurements need.
#ifndef SRC_KERNEL_KERNEL_VMTP_H_
#define SRC_KERNEL_KERNEL_VMTP_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "src/kernel/machine.h"
#include "src/proto/vmtp.h"
#include "src/sim/sync.h"
#include "src/sim/value_task.h"

namespace pfkern {

struct VmtpRequest {
  uint32_t client = 0;
  uint32_t server = 0;
  uint32_t transaction = 0;
  pflink::MacAddr client_mac;
  std::vector<uint8_t> data;
};

struct VmtpStats {
  uint64_t packets_in = 0;
  uint64_t packets_out = 0;
  uint64_t groups_in = 0;
  uint64_t requests_delivered = 0;
  uint64_t responses_delivered = 0;
  uint64_t duplicate_requests = 0;
  uint64_t client_retransmits = 0;
};

class KernelVmtp {
 public:
  explicit KernelVmtp(Machine* machine);
  KernelVmtp(const KernelVmtp&) = delete;
  KernelVmtp& operator=(const KernelVmtp&) = delete;
  ~KernelVmtp();

  // --- Server surface ---
  void RegisterServer(uint32_t server_id);
  pfsim::ValueTask<std::optional<VmtpRequest>> ReceiveRequest(int pid, uint32_t server_id,
                                                              pfsim::Duration timeout);
  pfsim::ValueTask<bool> SendResponse(int pid, const VmtpRequest& request,
                                      std::vector<uint8_t> data);

  // --- Client surface ---
  // Runs one transaction: sends `request` to (server_mac, server_id), waits
  // for the complete response, acks it. Retries `max_attempts` times total.
  pfsim::ValueTask<std::optional<std::vector<uint8_t>>> Transact(
      int pid, uint32_t client_id, pflink::MacAddr server_mac, uint32_t server_id,
      std::vector<uint8_t> request, pfsim::Duration timeout, int max_attempts = 4);

  const VmtpStats& stats() const { return stats_; }

 private:
  struct Assembly {
    uint32_t transaction = 0;
    uint16_t expected = 0;
    std::map<uint16_t, std::vector<uint8_t>> parts;
    bool Complete() const { return expected != 0 && parts.size() == expected; }
    std::vector<uint8_t> Join() const;
  };
  struct ServerState {
    explicit ServerState(pfsim::Simulator* sim) : requests(sim) {}
    pfsim::MsgQueue<VmtpRequest> requests;
    // Per-client duplicate suppression + cached response group.
    struct ClientRecord {
      uint32_t last_transaction = 0;
      bool responded = false;
      std::vector<uint8_t> cached_response;
      pflink::MacAddr client_mac;
      Assembly assembly;
    };
    std::map<uint32_t, ClientRecord> clients;
  };
  struct ClientState {
    explicit ClientState(pfsim::Simulator* sim) : responses(sim) {}
    uint32_t transaction = 0;
    pfsim::MsgQueue<std::vector<uint8_t>> responses;
    Assembly assembly;
  };

  pfsim::ValueTask<void> Input(const pflink::Frame& frame, const pflink::LinkHeader& header);
  // Splits `data` into a packet group and transmits it (kernel context
  // costs per packet).
  pfsim::ValueTask<void> SendGroup(int ctx, pflink::MacAddr dst, pfproto::VmtpHeader base,
                                   const std::vector<uint8_t>& data);

  Machine* machine_;
  std::map<uint32_t, std::unique_ptr<ServerState>> servers_;
  std::map<uint32_t, std::unique_ptr<ClientState>> clients_;
  uint32_t next_transaction_ = 1;
  VmtpStats stats_;
};

}  // namespace pfkern

#endif  // SRC_KERNEL_KERNEL_VMTP_H_

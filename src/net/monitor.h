// An integrated network monitor (§5.4): a user process with a promiscuous,
// copy-all packet-filter port that captures, decodes, counts, and records
// (as pcap) every frame on the segment — the ancestor of tcpdump.
//
// The port setup demonstrates three §3 features together:
//   * an empty filter at the highest priority accepts everything;
//   * "deliver to lower" lets monitored processes keep receiving their
//     packets undisturbed (§3.2's monitoring option);
//   * timestamping and batch reads (§3.3) for faithful, cheap capture.
//
// The NIC is put into promiscuous mode and the machine's kernel tap is
// enabled so frames claimed by kernel-resident protocols are seen too
// (fig. 3-3 coexistence).
//
// Recording goes through the machine's shared capture-tap plane (src/pf/
// tap.h): Create() attaches an accept-all tap at the per-port deliver stage
// scoped to the monitor's own port, so the capture is exactly the frames
// the monitor's queue accepted — the same stream Poll() counts — written
// as pcapng with flow-signature packet comments (DESIGN.md §16).
#ifndef SRC_NET_MONITOR_H_
#define SRC_NET_MONITOR_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>

#include "src/kernel/machine.h"
#include "src/kernel/pf_device.h"
#include "src/pf/tap.h"
#include "src/util/pcap_writer.h"

namespace pfnet {

class NetworkMonitor {
 public:
  // The capture counters, exposed as "monitor.*" in the machine's metrics
  // registry (src/obs); retired from it when the monitor is destroyed, so
  // the registry keeps reading the final counts.
  struct Counters {
    uint64_t frames = 0;
    uint64_t bytes = 0;
    uint64_t ip = 0;
    uint64_t udp = 0;
    uint64_t tcp = 0;
    uint64_t arp = 0;
    uint64_t rarp = 0;
    uint64_t pup = 0;
    uint64_t vmtp = 0;
    uint64_t other = 0;
    uint64_t dropped = 0;  // queue-overflow losses reported by the kernel
  };

  static pfsim::ValueTask<std::unique_ptr<NetworkMonitor>> Create(pfkern::Machine* machine,
                                                                  int pid);
  ~NetworkMonitor();

  // Reads one batch (blocking up to `timeout`), decodes and records it.
  // Returns the number of frames captured by this call; if `decoded` is
  // non-null, appends one tcpdump-style line per frame.
  pfsim::ValueTask<size_t> Poll(int pid, pfsim::Duration timeout,
                                std::vector<std::string>* decoded = nullptr);

  Counters Snapshot() const { return counters_; }
  // The capture: the monitor's tap on the machine's shared pcapng stream.
  // record_count()/size() reflect everything enqueued on the monitor port;
  // WriteCapture dumps the stream (including any other attached taps).
  const pf::CaptureTap* tap() const { return machine_->taps().Find(tap_id_); }
  const pfutil::PcapngWriter& capture() const { return machine_->taps().pcapng(); }
  bool WriteCapture(const std::string& path) const { return machine_->taps().WriteFile(path); }
  std::string Summary() const;

  // One-line tcpdump-style rendering of a frame (static: reused by tests
  // and the filter_lab example).
  static std::string DescribeFrame(pflink::LinkType link_type,
                                   std::span<const uint8_t> frame);

 private:
  explicit NetworkMonitor(pfkern::Machine* machine);

  pfkern::Machine* machine_;
  pf::PortId port_ = pf::kInvalidPort;
  int tap_id_ = 0;
  Counters counters_;
};

}  // namespace pfnet

#endif  // SRC_NET_MONITOR_H_

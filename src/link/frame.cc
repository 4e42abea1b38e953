#include "src/link/frame.h"

#include <algorithm>
#include <cstdio>

#include "src/util/byte_order.h"
#include "src/util/checksum.h"

namespace pflink {

void Frame::StampFcs() {
  wire_len = static_cast<uint32_t>(bytes.size());
  fcs = pfutil::Crc32(bytes);
}

bool Frame::FcsIntact() const {
  return wire_len == 0 || pfutil::Crc32(bytes) == fcs;
}

std::string MacAddr::ToString() const {
  char buf[24];
  if (len == 1) {
    std::snprintf(buf, sizeof(buf), "%u", bytes[0]);
  } else {
    std::snprintf(buf, sizeof(buf), "%02x:%02x:%02x:%02x:%02x:%02x", bytes[0], bytes[1], bytes[2],
                  bytes[3], bytes[4], bytes[5]);
  }
  return buf;
}

LinkProperties PropertiesFor(LinkType type) {
  switch (type) {
    case LinkType::kEthernet10Mb:
      return LinkProperties{LinkType::kEthernet10Mb, 6, 14, 1500, 10000000,
                            MacAddr::Broadcast(6)};
    case LinkType::kExperimental3Mb:
      // Pup's maximum packet (568 bytes) fits comfortably; the experimental
      // Ethernet carried packets up to ~554 words. We allow 600 payload
      // bytes.
      return LinkProperties{LinkType::kExperimental3Mb, 1, 4, 600, 3000000,
                            MacAddr::Broadcast(1)};
  }
  return PropertiesFor(LinkType::kEthernet10Mb);
}

std::optional<Frame> BuildFrame(LinkType type, const LinkHeader& header,
                                std::span<const uint8_t> payload) {
  const LinkProperties props = PropertiesFor(type);
  if (payload.size() > props.mtu) {
    return std::nullopt;
  }
  // Written in place into an arena block, so a recycled block's storage
  // carries the frame and building it allocates nothing.
  Frame frame;
  frame.bytes = pf::PacketBuf::Allocate(props.header_len + payload.size());
  uint8_t* out = frame.bytes.MutableSpan().data();
  if (type == LinkType::kEthernet10Mb) {
    out = std::copy_n(header.dst.bytes.begin(), 6, out);
    out = std::copy_n(header.src.bytes.begin(), 6, out);
  } else {
    *out++ = header.dst.bytes[0];
    *out++ = header.src.bytes[0];
  }
  pfutil::StoreBe16(out, header.ether_type);
  std::copy(payload.begin(), payload.end(), out + 2);
  return frame;
}

std::optional<LinkHeader> ParseHeader(LinkType type, std::span<const uint8_t> frame) {
  const LinkProperties props = PropertiesFor(type);
  if (frame.size() < props.header_len) {
    return std::nullopt;
  }
  LinkHeader h;
  if (type == LinkType::kEthernet10Mb) {
    h.dst.len = 6;
    h.src.len = 6;
    std::copy(frame.begin(), frame.begin() + 6, h.dst.bytes.begin());
    std::copy(frame.begin() + 6, frame.begin() + 12, h.src.bytes.begin());
    h.ether_type = pfutil::LoadBe16(frame.data() + 12);
  } else {
    h.dst = MacAddr::Experimental(frame[0]);
    h.src = MacAddr::Experimental(frame[1]);
    h.ether_type = pfutil::LoadBe16(frame.data() + 2);
  }
  return h;
}

std::span<const uint8_t> FramePayload(LinkType type, std::span<const uint8_t> frame) {
  const LinkProperties props = PropertiesFor(type);
  if (frame.size() < props.header_len) {
    return {};
  }
  return frame.subspan(props.header_len);
}

}  // namespace pflink

// The block walker behind pcapng_verify: structural validation of a pcapng
// capture held in memory, as a function a test can call on any bytes.
//
// Walks every block and checks the grammar a reader like Wireshark relies
// on: the file opens with a Section Header Block carrying the byte-order
// magic and version 1.0; every block's trailing length equals its leading
// length and is 32-bit aligned; Interface Description Blocks precede the
// Enhanced Packet Blocks that reference them; every EPB's captured length
// fits its block and respects its interface's snaplen; option lists are
// well-formed (code/length pairs, padded, closed by opt_endofopt). Every
// read is bounds-checked against the input first, so truncated or
// corrupted input is rejected, never read past.
#ifndef EXAMPLES_PCAPNG_WALK_H_
#define EXAMPLES_PCAPNG_WALK_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

namespace pcapng {

constexpr uint32_t kBlockSectionHeader = 0x0A0D0D0A;
constexpr uint32_t kBlockInterface = 0x00000001;
constexpr uint32_t kBlockEnhancedPacket = 0x00000006;
constexpr uint32_t kByteOrderMagic = 0x1A2B3C4D;

struct Stats {
  size_t shb = 0;
  size_t idb = 0;
  size_t epb = 0;
  size_t other = 0;
  std::vector<std::string> interface_names;  // if_name options, in IDB order
  std::vector<std::string> comments;         // EPB opt_comment options
};

// The first violation found: its byte offset and what is wrong there.
struct Error {
  size_t offset = 0;
  const char* what = nullptr;
};

namespace internal {

inline uint32_t Get32(std::span<const uint8_t> data, size_t at) {
  uint32_t v;
  std::memcpy(&v, data.data() + at, sizeof(v));
  return v;
}

inline uint16_t Get16(std::span<const uint8_t> data, size_t at) {
  uint16_t v;
  std::memcpy(&v, data.data() + at, sizeof(v));
  return v;
}

inline bool Fail(Error* error, size_t at, const char* what) {
  *error = {at, what};
  return false;
}

// Walks an option list spanning [at, end), appending the values of
// `want_code` (if_name=2 on an IDB, opt_comment=1 on an EPB) to `values`.
inline bool WalkOptions(std::span<const uint8_t> data, size_t at, size_t end, uint16_t want_code,
                        std::vector<std::string>* values, Error* error) {
  while (at < end) {
    if (end - at < 4) {
      return Fail(error, at, "truncated option header");
    }
    const uint16_t code = Get16(data, at);
    const uint16_t len = Get16(data, at + 2);
    at += 4;
    if (code == 0) {  // opt_endofopt
      if (len != 0) {
        return Fail(error, at - 2, "opt_endofopt with non-zero length");
      }
      return true;
    }
    const size_t padded = (static_cast<size_t>(len) + 3) & ~size_t{3};
    if (padded > end - at) {
      return Fail(error, at, "option value overruns its block");
    }
    if (code == want_code) {
      values->emplace_back(reinterpret_cast<const char*>(data.data() + at), len);
    }
    at += padded;
  }
  // An empty option area is legal; a non-empty one must end with endofopt,
  // but consuming exactly to `end` is tolerated (some writers omit it).
  return true;
}

}  // namespace internal

// Walks `data` block by block. Returns true with `*stats` filled when the
// whole input is well-formed; else false, with the first violation in
// `*error` (and `*stats` counting the blocks before it).
inline bool Walk(std::span<const uint8_t> data, Stats* stats, Error* error) {
  using internal::Fail;
  using internal::Get16;
  using internal::Get32;
  *stats = Stats{};
  if (data.size() < 28) {
    return Fail(error, 0, "file shorter than a minimal section header block");
  }
  std::vector<uint32_t> snaplens;  // per interface, in IDB order
  size_t at = 0;
  while (at < data.size()) {
    if (at % 4 != 0) {
      return Fail(error, at, "block not 32-bit aligned");
    }
    if (data.size() - at < 12) {
      return Fail(error, at, "truncated block header");
    }
    const uint32_t type = Get32(data, at);
    const uint32_t total = Get32(data, at + 4);
    if (total < 12 || total % 4 != 0) {
      return Fail(error, at + 4, "block length not a multiple of 4 or too small");
    }
    if (total > data.size() - at) {
      return Fail(error, at + 4, "block length overruns the file");
    }
    if (Get32(data, at + total - 4) != total) {
      return Fail(error, at + total - 4, "trailing block length differs from leading");
    }
    const size_t body = at + 8;              // after type + length
    const size_t body_end = at + total - 4;  // before trailing length
    if (at == 0 && type != kBlockSectionHeader) {
      return Fail(error, at, "file does not start with a section header block");
    }
    switch (type) {
      case kBlockSectionHeader: {
        if (total < 28) {
          return Fail(error, at, "section header block too small");
        }
        if (Get32(data, body) != kByteOrderMagic) {
          return Fail(error, body, "bad byte-order magic (foreign endianness not supported)");
        }
        if (Get16(data, body + 4) != 1 || Get16(data, body + 6) != 0) {
          return Fail(error, body + 4, "unsupported pcapng version (want 1.0)");
        }
        ++stats->shb;
        break;
      }
      case kBlockInterface: {
        if (total < 20) {
          return Fail(error, at, "interface description block too small");
        }
        snaplens.push_back(Get32(data, body + 4));
        if (!internal::WalkOptions(data, body + 8, body_end, /*if_name=*/2,
                                   &stats->interface_names, error)) {
          return false;
        }
        ++stats->idb;
        break;
      }
      case kBlockEnhancedPacket: {
        if (total < 32) {
          return Fail(error, at, "enhanced packet block too small");
        }
        const uint32_t interface_id = Get32(data, body);
        if (interface_id >= snaplens.size()) {
          return Fail(error, body, "packet references an interface not yet described");
        }
        const uint32_t caplen = Get32(data, body + 12);
        const uint32_t origlen = Get32(data, body + 16);
        if (caplen > origlen) {
          return Fail(error, body + 12, "captured length exceeds original length");
        }
        const uint32_t snaplen = snaplens[interface_id];
        if (snaplen != 0 && caplen > snaplen) {
          return Fail(error, body + 12, "captured length exceeds the interface snaplen");
        }
        const size_t padded = (static_cast<size_t>(caplen) + 3) & ~size_t{3};
        if (padded > body_end - (body + 20)) {
          return Fail(error, body + 12, "packet data overruns its block");
        }
        if (!internal::WalkOptions(data, body + 20 + padded, body_end, /*opt_comment=*/1,
                                   &stats->comments, error)) {
          return false;
        }
        ++stats->epb;
        break;
      }
      default:
        ++stats->other;  // unknown block types are legal; length-skip them
        break;
    }
    at += total;
  }
  return true;
}

}  // namespace pcapng

#endif  // EXAMPLES_PCAPNG_WALK_H_

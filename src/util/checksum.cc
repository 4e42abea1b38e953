#include "src/util/checksum.h"

#include <array>

#include "src/util/byte_order.h"

namespace pfutil {

uint16_t InternetChecksum(std::span<const uint8_t> data) {
  uint32_t sum = 0;
  size_t i = 0;
  for (; i + 1 < data.size(); i += 2) {
    sum += LoadBe16(data.data() + i);
  }
  if (i < data.size()) {
    sum += static_cast<uint32_t>(data[i]) << 8;
  }
  while (sum >> 16) {
    sum = (sum & 0xffff) + (sum >> 16);
  }
  return static_cast<uint16_t>(~sum & 0xffff);
}

uint16_t PupChecksum(std::span<const uint8_t> data) {
  uint32_t sum = 0;
  size_t i = 0;
  for (; i + 1 < data.size(); i += 2) {
    // Ones-complement add (end-around carry), then rotate left by one.
    sum += LoadBe16(data.data() + i);
    if (sum > 0xffff) {
      sum = (sum & 0xffff) + 1;
    }
    sum = ((sum << 1) | (sum >> 15)) & 0xffff;
  }
  if (i < data.size()) {
    sum += static_cast<uint32_t>(data[i]) << 8;
    if (sum > 0xffff) {
      sum = (sum & 0xffff) + 1;
    }
  }
  if (sum == kPupNoChecksum) {
    sum = 0;
  }
  return static_cast<uint16_t>(sum);
}

namespace {

// Slicing-by-16 tables for the reflected polynomial: kCrcTables[0] is the
// classic bytewise table, and kCrcTables[k][b] is the CRC contribution of
// byte b followed by k zero bytes, so one step can fold 16 bytes with 16
// independent lookups.
constexpr std::array<std::array<uint32_t, 256>, 16> MakeCrcTables() {
  std::array<std::array<uint32_t, 256>, 16> tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) != 0 ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (size_t t = 1; t < tables.size(); ++t) {
    for (size_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[t - 1][i];
      tables[t][i] = tables[0][prev & 0xff] ^ (prev >> 8);
    }
  }
  return tables;
}

constexpr auto kCrcTables = MakeCrcTables();

// Little-endian because the CRC is reflected: the first byte on the wire
// meets the low byte of the register. Built from bytes, so it needs neither
// alignment nor a particular host byte order.
constexpr uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) | (static_cast<uint32_t>(p[3]) << 24);
}

// The XORed table lookups for the four bytes of `word` (first byte in the
// low bits). Each byte indexes the table for the number of block bytes that
// follow it: `last` for the word's last byte, `last + 3` for its first.
constexpr uint32_t Fold4(uint32_t word, size_t last) {
  return kCrcTables[last + 3][word & 0xff] ^ kCrcTables[last + 2][(word >> 8) & 0xff] ^
         kCrcTables[last + 1][(word >> 16) & 0xff] ^ kCrcTables[last][word >> 24];
}

}  // namespace

uint32_t Crc32(std::span<const uint8_t> data) {
  uint32_t crc = 0xffffffffu;
  const uint8_t* p = data.data();
  size_t n = data.size();
  for (; n >= 16; p += 16, n -= 16) {
    crc = Fold4(LoadLe32(p) ^ crc, 12) ^ Fold4(LoadLe32(p + 4), 8) ^
          Fold4(LoadLe32(p + 8), 4) ^ Fold4(LoadLe32(p + 12), 0);
  }
  for (; n > 0; ++p, --n) {
    crc = kCrcTables[0][(crc ^ *p) & 0xff] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

}  // namespace pfutil

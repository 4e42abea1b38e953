#include "src/util/checksum.h"

#include <array>

// The carry-less-multiply fold is built for x86-64 GCC and Clang only;
// elsewhere the slicing loop is the whole CRC-32.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define PFUTIL_CRC32_FOLD 1
#include <immintrin.h>
#endif

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

// Advances the CRC register over `n` bytes: 16 per slicing step, then one
// per table lookup for the last 0-15.
uint32_t SlicedUpdate(uint32_t crc, const uint8_t* p, size_t n) {
  for (; n >= 16; p += 16, n -= 16) {
    crc = Fold4(LoadLe32(p) ^ crc, 12) ^ Fold4(LoadLe32(p + 4), 8) ^
          Fold4(LoadLe32(p + 8), 4) ^ Fold4(LoadLe32(p + 12), 0);
  }
  for (; n > 0; ++p, --n) {
    crc = kCrcTables[0][(crc ^ *p) & 0xff] ^ (crc >> 8);
  }
  return crc;
}

#ifdef PFUTIL_CRC32_FOLD

// Carry-less-multiply folding after Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ Instruction" (Intel, 2009), with the
// paper's constants for the reflected polynomial 0xEDB88320. In the
// reflected domain a 128-bit accumulator is carried `d` bits further down
// the message by multiplying its low and high halves by the bit-reflected
// x^(d+32) and x^(d-32) mod P (33 bits each) and XORing both products onto
// the data there.
#define PFUTIL_CLMUL __attribute__((target("pclmul,sse4.1")))

PFUTIL_CLMUL inline __m128i Load128(const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// Carries `acc` onto `next` by the distance `k` encodes (low, high).
PFUTIL_CLMUL inline __m128i Fold128(__m128i acc, __m128i k, __m128i next) {
  return _mm_xor_si128(
      _mm_xor_si128(_mm_clmulepi64_si128(acc, k, 0x00), _mm_clmulepi64_si128(acc, k, 0x11)),
      next);
}

// Advances the CRC register over `n` bytes, `n` a multiple of 16 and at
// least kCrc32FoldMinBytes.
PFUTIL_CLMUL uint32_t FoldUpdate(uint32_t crc, const uint8_t* p, size_t n) {
  // Four accumulators, each carried 512 bits per step.
  __m128i acc0 = _mm_xor_si128(Load128(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i acc1 = Load128(p + 16);
  __m128i acc2 = Load128(p + 32);
  __m128i acc3 = Load128(p + 48);
  p += 64;
  n -= 64;
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  for (; n >= 64; p += 64, n -= 64) {
    acc0 = Fold128(acc0, k1k2, Load128(p));
    acc1 = Fold128(acc1, k1k2, Load128(p + 16));
    acc2 = Fold128(acc2, k1k2, Load128(p + 32));
    acc3 = Fold128(acc3, k1k2, Load128(p + 48));
  }
  // Into one accumulator, then 128 bits per remaining block.
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  __m128i acc = Fold128(acc0, k3k4, acc1);
  acc = Fold128(acc, k3k4, acc2);
  acc = Fold128(acc, k3k4, acc3);
  for (; n >= 16; p += 16, n -= 16) {
    acc = Fold128(acc, k3k4, Load128(p));
  }
  // 128 to 64 bits, then 64 to 32 (which also appends the 32 zero bits the
  // remainder needs).
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  acc = _mm_xor_si128(_mm_clmulepi64_si128(acc, k3k4, 0x10), _mm_srli_si128(acc, 8));
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  acc = _mm_xor_si128(_mm_clmulepi64_si128(_mm_and_si128(acc, low32), k5, 0x00),
                      _mm_srli_si128(acc, 4));
  // Barrett reduction to the 32-bit remainder: (P', mu') = (low, high).
  const __m128i poly = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(acc, low32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(acc, t), 1));
}

#undef PFUTIL_CLMUL
#endif

}  // namespace

namespace internal {

uint32_t Crc32Sliced(std::span<const uint8_t> data) {
  return SlicedUpdate(0xffffffffu, data.data(), data.size()) ^ 0xffffffffu;
}

bool Crc32FoldAvailable() {
#ifdef PFUTIL_CRC32_FOLD
  // Decided once per process; the CPU does not change under it.
  static const bool available = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
  }();
  return available;
#else
  return false;
#endif
}

}  // namespace internal

uint32_t Crc32(std::span<const uint8_t> data) {
#ifdef PFUTIL_CRC32_FOLD
  if (data.size() >= kCrc32FoldMinBytes && internal::Crc32FoldAvailable()) {
    const size_t bulk = data.size() & ~size_t{15};
    const uint32_t crc = FoldUpdate(0xffffffffu, data.data(), bulk);
    return SlicedUpdate(crc, data.data() + bulk, data.size() - bulk) ^ 0xffffffffu;
  }
#endif
  return internal::Crc32Sliced(data);
}

}  // namespace pfutil

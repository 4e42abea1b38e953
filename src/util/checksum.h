// Internet (ones-complement) checksum, used by the kernel-resident IP/UDP/
// TCP-lite stack, the Pup software checksum (add-and-left-cycle), used by
// the Pup family wire formats, and the IEEE 802.3 CRC-32, used as the
// Ethernet frame check sequence (src/link).
#ifndef SRC_UTIL_CHECKSUM_H_
#define SRC_UTIL_CHECKSUM_H_

#include <cstddef>
#include <cstdint>
#include <span>

namespace pfutil {

// RFC 1071 ones-complement sum of the buffer. A trailing odd byte is padded
// with zero. Returns the checksum in host order; callers store it big-endian.
uint16_t InternetChecksum(std::span<const uint8_t> data);

// Pup checksum: ones-complement add-and-left-cycle over 16-bit words
// (Boggs et al., "Pup: An internetwork architecture"). 0xFFFF means
// "no checksum" on the wire, so the algorithm never produces it.
uint16_t PupChecksum(std::span<const uint8_t> data);

inline constexpr uint16_t kPupNoChecksum = 0xffff;

// IEEE 802.3 CRC-32 (reflected, polynomial 0xEDB88320, init/final 0xFFFFFFFF)
// — the Ethernet frame check sequence. On x86-64 hosts whose CPU has
// PCLMULQDQ and SSE4.1, inputs of at least kCrc32FoldMinBytes are folded
// with carry-less multiplies; everything else takes the portable
// slicing-by-16 loop. Both compute the same value.
uint32_t Crc32(std::span<const uint8_t> data);

// The shortest input the carry-less fold takes: it starts from four
// 16-byte blocks.
inline constexpr size_t kCrc32FoldMinBytes = 64;

namespace internal {

// The portable slicing-by-16 CRC-32, whatever the CPU: the reference the
// tests and micro_zerocopy compare Crc32 against.
uint32_t Crc32Sliced(std::span<const uint8_t> data);

// True if this process's Crc32 folds inputs of kCrc32FoldMinBytes or more.
bool Crc32FoldAvailable();

}  // namespace internal

}  // namespace pfutil

#endif  // SRC_UTIL_CHECKSUM_H_

// Refcounted, immutable-payload packet buffer — the single ownership model
// for packet bytes across the whole stack (DESIGN.md §13).
//
// A PacketBuf is a cheap view (control block pointer + offset + length) onto
// a refcounted byte block. Copying a PacketBuf, enqueueing it on a port
// queue, handing it to a shared-memory ring descriptor, or slicing off a
// header never copies payload bytes; the block is freed (or recycled into
// the arena) when the last view drops. The payload is immutable through the
// const surface; the only mutation paths are:
//
//   * MutableSpan() — copy-on-write: a uniquely-owned block is mutated in
//     place (zero copy); a shared block is first cloned, so every other view
//     keeps the original bytes. This is the one *true copy* on the receive
//     path, taken only when an impairment actually rewrites bytes that
//     someone else still references (e.g. a pristine duplicate in flight).
//   * Truncate() — shrinks the view, never the block: free.
//
// Blocks come from a process-wide arena (a bounded freelist). A retired
// block keeps its storage, so a frame built with Allocate() into a recycled
// block allocates nothing; adopting a caller's vector keeps only the control
// block and replaces the retained storage with the vector's.
// SetPoolCapacity(0) disables recycling, which the ASan lifetime tests use
// so a use-after-free would touch genuinely freed memory. The simulator is
// single-threaded, so refcounts are plain integers.
#ifndef SRC_PF_PACKET_BUF_H_
#define SRC_PF_PACKET_BUF_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace pf {

// Process-wide accounting of what the buffer layer really did — the ground
// truth behind the "zero-copy" claim (asserted in packet_buf_test and
// surfaced by bench/micro_zerocopy).
struct PacketBufStats {
  uint64_t blocks_allocated = 0;   // fresh heap blocks
  uint64_t blocks_recycled = 0;    // blocks served from the arena freelist
  uint64_t cow_copies = 0;         // MutableSpan() clones of shared blocks
  uint64_t cow_bytes = 0;          // payload bytes those clones copied
  uint64_t materializations = 0;   // ToVector() calls (explicit copies)
  uint64_t materialized_bytes = 0;
};

class PacketBuf {
 public:
  PacketBuf() = default;
  // Adopts `bytes` without copying.
  explicit PacketBuf(std::vector<uint8_t> bytes);
  // A true copy of `bytes` into a fresh block (used by span-only callers
  // whose storage does not outlive the call).
  static PacketBuf CopyOf(std::span<const uint8_t> bytes);
  // A unique block of `n` zeroed bytes, reusing a pooled block's storage
  // when it is large enough; the caller writes it through MutableSpan().
  static PacketBuf Allocate(size_t n);

  PacketBuf(const PacketBuf& other);
  PacketBuf& operator=(const PacketBuf& other);
  PacketBuf(PacketBuf&& other) noexcept;
  PacketBuf& operator=(PacketBuf&& other) noexcept;
  ~PacketBuf();

  // --- Immutable view ---
  std::span<const uint8_t> span() const {
    return ctrl_ == nullptr ? std::span<const uint8_t>()
                            : std::span<const uint8_t>(ctrl_->bytes.data() + offset_, len_);
  }
  operator std::span<const uint8_t>() const { return span(); }  // NOLINT
  const uint8_t* data() const { return ctrl_ == nullptr ? nullptr : ctrl_->bytes.data() + offset_; }
  size_t size() const { return len_; }
  bool empty() const { return len_ == 0; }
  uint8_t operator[](size_t i) const { return ctrl_->bytes[offset_ + i]; }
  const uint8_t* begin() const { return data(); }
  const uint8_t* end() const { return data() + len_; }

  // A sub-view sharing the same block (header peeling): free.
  PacketBuf Slice(size_t offset, size_t length = SIZE_MAX) const;

  // --- Mutation (the only true-copy sites) ---
  // Copy-on-write mutable access to the viewed bytes. Unique blocks mutate
  // in place; shared blocks are cloned first (counted in stats().cow_*).
  std::span<uint8_t> MutableSpan();
  // Shrinks the view to `length` bytes (no copy; the block is untouched, so
  // other views — e.g. a pristine duplicate — still see the full frame).
  void Truncate(size_t length);
  // Explicit materialization into an owned vector (counted).
  std::vector<uint8_t> ToVector() const;

  // --- Introspection ---
  uint32_t refcount() const { return ctrl_ == nullptr ? 0 : ctrl_->refs; }
  bool unique() const { return ctrl_ != nullptr && ctrl_->refs == 1; }
  // True if both views alias the same block (not just equal bytes).
  bool SharesBlockWith(const PacketBuf& other) const { return ctrl_ == other.ctrl_; }

  // Content equality (views compare by bytes, not identity).
  friend bool operator==(const PacketBuf& a, const PacketBuf& b);
  friend bool operator==(const PacketBuf& a, std::span<const uint8_t> b);

  // --- Arena (process-wide block recycling) ---
  // At most `blocks` retired blocks are kept for reuse; 0 disables the pool
  // and frees every block immediately (ASan-friendly). Changing the capacity
  // frees any excess pooled blocks.
  static void SetPoolCapacity(size_t blocks);
  static size_t pool_size();
  static const PacketBufStats& stats();
  static void ResetStats();

 private:
  struct Control {
    uint32_t refs = 0;
    std::vector<uint8_t> bytes;
  };

  // A pooled or fresh control block holding one reference; its bytes are
  // empty but may keep a retired block's capacity.
  static Control* Acquire();
  static void Release(Control* ctrl);
  static std::vector<Control*>& Pool();

  void Ref() {
    if (ctrl_ != nullptr) {
      ++ctrl_->refs;
    }
  }
  void Unref() {
    if (ctrl_ != nullptr && --ctrl_->refs == 0) {
      Release(ctrl_);
    }
    ctrl_ = nullptr;
  }

  Control* ctrl_ = nullptr;
  size_t offset_ = 0;
  size_t len_ = 0;
};

}  // namespace pf

#endif  // SRC_PF_PACKET_BUF_H_

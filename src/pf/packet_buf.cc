#include "src/pf/packet_buf.h"

#include <algorithm>
#include <utility>

namespace pf {

namespace {

PacketBufStats g_stats;
size_t g_pool_capacity = 256;

}  // namespace

std::vector<PacketBuf::Control*>& PacketBuf::Pool() {
  // Leaked on purpose: a process-lifetime arena, immune to static
  // destruction order (buffers may outlive everything else).
  static auto* pool = new std::vector<Control*>();
  return *pool;
}

PacketBuf::Control* PacketBuf::Acquire() {
  std::vector<Control*>& pool = Pool();
  Control* ctrl;
  if (!pool.empty()) {
    ctrl = pool.back();
    pool.pop_back();
    ++g_stats.blocks_recycled;
  } else {
    ctrl = new Control();
    ++g_stats.blocks_allocated;
  }
  ctrl->refs = 1;
  return ctrl;
}

void PacketBuf::Release(Control* ctrl) {
  std::vector<Control*>& pool = Pool();
  if (pool.size() < g_pool_capacity) {
    // Keep the block's storage for reuse; clear() preserves capacity, which
    // is the arena's point.
    ctrl->bytes.clear();
    pool.push_back(ctrl);
  } else {
    delete ctrl;
  }
}

PacketBuf::PacketBuf(std::vector<uint8_t> bytes) {
  if (!bytes.empty()) {
    ctrl_ = Acquire();
    ctrl_->bytes = std::move(bytes);
    len_ = ctrl_->bytes.size();
  }
}

PacketBuf PacketBuf::CopyOf(std::span<const uint8_t> bytes) {
  PacketBuf out = Allocate(bytes.size());
  std::copy(bytes.begin(), bytes.end(), out.MutableSpan().begin());
  return out;
}

PacketBuf PacketBuf::Allocate(size_t n) {
  PacketBuf out;
  if (n > 0) {
    out.ctrl_ = Acquire();
    out.ctrl_->bytes.resize(n);
    out.len_ = n;
  }
  return out;
}

PacketBuf::PacketBuf(const PacketBuf& other)
    : ctrl_(other.ctrl_), offset_(other.offset_), len_(other.len_) {
  Ref();
}

PacketBuf& PacketBuf::operator=(const PacketBuf& other) {
  if (this != &other) {
    Control* old = ctrl_;
    ctrl_ = other.ctrl_;
    offset_ = other.offset_;
    len_ = other.len_;
    Ref();
    if (old != nullptr && --old->refs == 0) {
      Release(old);
    }
  }
  return *this;
}

PacketBuf::PacketBuf(PacketBuf&& other) noexcept
    : ctrl_(other.ctrl_), offset_(other.offset_), len_(other.len_) {
  other.ctrl_ = nullptr;
  other.offset_ = 0;
  other.len_ = 0;
}

PacketBuf& PacketBuf::operator=(PacketBuf&& other) noexcept {
  if (this != &other) {
    Unref();
    ctrl_ = other.ctrl_;
    offset_ = other.offset_;
    len_ = other.len_;
    other.ctrl_ = nullptr;
    other.offset_ = 0;
    other.len_ = 0;
  }
  return *this;
}

PacketBuf::~PacketBuf() { Unref(); }

PacketBuf PacketBuf::Slice(size_t offset, size_t length) const {
  PacketBuf out;
  const size_t off = std::min(offset, len_);
  const size_t len = std::min(length, len_ - off);
  if (ctrl_ != nullptr && len > 0) {
    out.ctrl_ = ctrl_;
    out.offset_ = offset_ + off;
    out.len_ = len;
    out.Ref();
  }
  return out;
}

std::span<uint8_t> PacketBuf::MutableSpan() {
  if (ctrl_ == nullptr) {
    return {};
  }
  if (ctrl_->refs > 1) {
    // Copy-on-write: someone else still references this block — clone the
    // viewed bytes so their view stays pristine.
    ++g_stats.cow_copies;
    g_stats.cow_bytes += len_;
    *this = CopyOf(span());
    if (ctrl_ == nullptr) {
      return {};  // an empty view clones to no block
    }
  }
  return std::span<uint8_t>(ctrl_->bytes.data() + offset_, len_);
}

void PacketBuf::Truncate(size_t length) { len_ = std::min(len_, length); }

std::vector<uint8_t> PacketBuf::ToVector() const {
  ++g_stats.materializations;
  g_stats.materialized_bytes += len_;
  return std::vector<uint8_t>(begin(), end());
}

bool operator==(const PacketBuf& a, const PacketBuf& b) {
  return a.len_ == b.len_ && std::equal(a.begin(), a.end(), b.begin());
}

bool operator==(const PacketBuf& a, std::span<const uint8_t> b) {
  return a.len_ == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

void PacketBuf::SetPoolCapacity(size_t blocks) {
  g_pool_capacity = blocks;
  std::vector<Control*>& pool = Pool();
  while (pool.size() > g_pool_capacity) {
    delete pool.back();
    pool.pop_back();
  }
}

size_t PacketBuf::pool_size() { return Pool().size(); }

const PacketBufStats& PacketBuf::stats() { return g_stats; }

void PacketBuf::ResetStats() { g_stats = PacketBufStats{}; }

}  // namespace pf

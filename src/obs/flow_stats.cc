#include "src/obs/flow_stats.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstring>

namespace pfobs {

namespace {

constexpr size_t kLanes = kFlowSignaturePrefix / 8;  // one per prefix word

// One key per lane plus one for the length: splitmix64 outputs, so each
// lane folds its word against a different random-looking value.
constexpr std::array<uint64_t, kLanes + 1> MakeLaneKeys() {
  std::array<uint64_t, kLanes + 1> keys{};
  uint64_t x = 0;
  for (uint64_t& key : keys) {
    x += 0x9e3779b97f4a7c15ull;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    key = z ^ (z >> 31);
  }
  return keys;
}
constexpr auto kLaneKeys = MakeLaneKeys();
constexpr uint64_t kFoldMultiplier = 0x9e3779b97f4a7c15ull;  // odd

// The 64x64 -> 128 product of the keyed word and an odd constant, folded
// back to 64 bits (high half xor low half). Distinct words give distinct
// products, and the high half, which every bit of the word reaches, is
// folded into the low one.
constexpr uint64_t Fold(uint64_t word, uint64_t key) {
  const unsigned __int128 product =
      static_cast<unsigned __int128>(word ^ key) * kFoldMultiplier;
  return static_cast<uint64_t>(product) ^ static_cast<uint64_t>(product >> 64);
}

// kZeroLanes[w]: the folds of lanes w.. when they hold zero padding, summed
// ahead of time, so a short frame folds only the words it has.
constexpr std::array<uint64_t, kLanes + 1> MakeZeroLanes() {
  std::array<uint64_t, kLanes + 1> sums{};
  for (size_t w = kLanes; w-- > 0;) {
    sums[w] = sums[w + 1] + Fold(0, kLaneKeys[w]);
  }
  return sums;
}
constexpr auto kZeroLanes = MakeZeroLanes();

// Little-endian on every host, so the signature is too.
inline uint64_t LoadLe64(const uint8_t* p) {
  uint64_t word;
  std::memcpy(&word, p, sizeof(word));
  if constexpr (std::endian::native == std::endian::big) {
    word = __builtin_bswap64(word);
  }
  return word;
}

}  // namespace

uint64_t FlowSignature::Of(std::span<const uint8_t> frame) {
  // The prefix, zero-padded to 64 bytes, as eight little-endian words, each
  // folded in its own lane; the lanes are independent, so the multiplies
  // overlap. The length is a lane of its own: frames that differ only by
  // trailing zero bytes inside the prefix are different flows.
  const size_t n = frame.size() < kFlowSignaturePrefix ? frame.size() : kFlowSignaturePrefix;
  const uint8_t* p = frame.data();
  uint64_t hash = Fold(n, kLaneKeys[kLanes]);
  size_t w = 0;
  for (; 8 * w + 8 <= n; ++w) {
    hash += Fold(LoadLe64(p + 8 * w), kLaneKeys[w]);
  }
  if (const size_t rest = n - 8 * w; rest > 0) {
    // The last partial word, zero-padded: the frame's final `rest` bytes
    // shifted down out of the last eight, or assembled bytewise in a frame
    // shorter than one word.
    uint64_t word = 0;
    if (n >= 8) {
      word = LoadLe64(p + n - 8) >> (8 * (8 - rest));
    } else {
      for (size_t i = 0; i < rest; ++i) {
        word |= static_cast<uint64_t>(p[i]) << (8 * i);
      }
    }
    hash += Fold(word, kLaneKeys[w++]);
  }
  hash += kZeroLanes[w];
  return hash == 0 ? 1 : hash;  // reserve 0 for "no signature"
}

SpaceSavingSketch::SpaceSavingSketch(size_t k) : k_(k == 0 ? 1 : k) {
  heap_.reserve(k_);
}

bool SpaceSavingSketch::Less(size_t a, size_t b) const {
  return heap_[a].entry.count < heap_[b].entry.count;
}

void SpaceSavingSketch::Swap(size_t a, size_t b) {
  std::swap(heap_[a], heap_[b]);
  pos_[heap_[a].entry.key] = a;
  pos_[heap_[b].entry.key] = b;
}

void SpaceSavingSketch::SiftUp(size_t pos) {
  while (pos > 0) {
    const size_t parent = (pos - 1) / 2;
    if (!Less(pos, parent)) {
      break;
    }
    Swap(pos, parent);
    pos = parent;
  }
}

void SpaceSavingSketch::SiftDown(size_t pos) {
  for (;;) {
    size_t smallest = pos;
    const size_t left = 2 * pos + 1;
    const size_t right = 2 * pos + 2;
    if (left < heap_.size() && Less(left, smallest)) {
      smallest = left;
    }
    if (right < heap_.size() && Less(right, smallest)) {
      smallest = right;
    }
    if (smallest == pos) {
      return;
    }
    Swap(pos, smallest);
    pos = smallest;
  }
}

void SpaceSavingSketch::Add(uint64_t key, uint64_t weight) {
  total_ += weight;
  const auto it = pos_.find(key);
  if (it != pos_.end()) {
    heap_[it->second].entry.count += weight;
    SiftDown(it->second);
    return;
  }
  if (heap_.size() < k_) {
    heap_.push_back(Slot{Entry{key, weight, 0}});
    pos_[key] = heap_.size() - 1;
    SiftUp(heap_.size() - 1);
    return;
  }
  // Replace the monitored minimum: the newcomer inherits its count as the
  // overestimate bound (Space-Saving's defining move).
  Slot& min = heap_[0];
  pos_.erase(min.entry.key);
  const uint64_t floor = min.entry.count;
  min.entry = Entry{key, floor + weight, floor};
  pos_[key] = 0;
  SiftDown(0);
  ++replacements_;
}

std::vector<SpaceSavingSketch::Entry> SpaceSavingSketch::Top(size_t n) const {
  std::vector<Entry> out;
  out.reserve(heap_.size());
  for (const Slot& slot : heap_) {
    out.push_back(slot.entry);
  }
  std::sort(out.begin(), out.end(), [](const Entry& a, const Entry& b) {
    if (a.count != b.count) {
      return a.count > b.count;
    }
    return a.key < b.key;
  });
  if (out.size() > n) {
    out.resize(n);
  }
  return out;
}

FlowTable::FlowTable() : FlowTable(Config()) {}

FlowTable::FlowTable(Config config)
    : config_(config), sketch_(config.top_k) {
  if (config_.capacity == 0) {
    config_.capacity = 1;
  }
}

void FlowTable::AttachMetrics(MetricsRegistry* registry) {
  if (registry_ != nullptr) {
    registry_->Retire(totals_);
  }
  registry_ = registry;
  if (registry == nullptr) {
    active_gauge_ = nullptr;
    latency_hist_ = nullptr;
    return;
  }
  registry->Expose("pf.flow.packets", &totals_.packets);
  registry->Expose("pf.flow.bytes", &totals_.bytes);
  registry->Expose("pf.flow.deliveries", &totals_.deliveries);
  registry->Expose("pf.flow.drops", &totals_.drops);
  registry->Expose("pf.flow.flows_seen", &totals_.flows_seen);
  registry->Expose("pf.flow.evictions", &totals_.evictions);
  active_gauge_ = registry->gauge("pf.flow.active");
  latency_hist_ = registry->histogram("pf.flow.latency");
  UpdateGauges();
}

void FlowTable::UpdateGauges() {
  if (active_gauge_ != nullptr) {
    active_gauge_->Set(static_cast<int64_t>(entries_.size()));
  }
}

FlowTable::Entry* FlowTable::Touch(uint64_t signature, uint64_t now_ns) {
  ++generation_;
  const auto it = index_.find(signature);
  if (it != index_.end()) {
    // Move to the LRU front and restamp.
    entries_.splice(entries_.begin(), entries_, it->second);
    Entry& entry = entries_.front();
    entry.last_seen_ns = now_ns;
    entry.generation = generation_;
    return &entry;
  }
  if (entries_.size() >= config_.capacity) {
    // Evict the least-recently-touched entry; fold its counts into the
    // evicted_* totals so live + evicted stays an exact partition.
    const Entry& victim = entries_.back();
    totals_.evicted_packets += victim.packets;
    totals_.evicted_bytes += victim.bytes;
    totals_.evicted_deliveries += victim.deliveries;
    totals_.evicted_drops += victim.drops;
    index_.erase(victim.signature);
    entries_.pop_back();
    ++totals_.evictions;
  }
  entries_.push_front(Entry{});
  Entry& entry = entries_.front();
  entry.signature = signature;
  entry.first_seen_ns = now_ns;
  entry.last_seen_ns = now_ns;
  entry.generation = generation_;
  index_[signature] = entries_.begin();
  ++totals_.flows_seen;
  UpdateGauges();
  return &entry;
}

void FlowTable::Record(uint64_t signature, size_t bytes, uint32_t deliveries,
                       uint64_t now_ns) {
  Entry* entry = Touch(signature, now_ns);
  ++entry->packets;
  entry->bytes += bytes;
  entry->deliveries += deliveries;
  ++totals_.packets;
  totals_.bytes += bytes;
  totals_.deliveries += deliveries;
  sketch_.Add(signature);
}

void FlowTable::RecordDrop(uint64_t signature, size_t slot, uint64_t now_ns) {
  assert(slot < kFlowDropSlots);
  // A drop touches the flow but is not a new packet observation: no sketch
  // add (the packet itself was, or will be, Record()ed once).
  Entry* entry = Touch(signature, now_ns);
  ++entry->drops;
  ++entry->drops_by_slot[slot];
  ++totals_.drops;
  ++totals_.drops_by_slot[slot];
}

void FlowTable::RecordLatency(uint64_t signature, int64_t latency_ns) {
  const auto it = index_.find(signature);
  if (it != index_.end()) {
    Entry& entry = *it->second;
    ++entry.latency_samples;
    entry.latency_sum_ns += latency_ns;
    entry.latency_max_ns = std::max(entry.latency_max_ns, latency_ns);
  }
  ++totals_.latency_samples;
  totals_.latency_sum_ns += latency_ns;
  if (latency_hist_ != nullptr) {
    latency_hist_->Record(latency_ns);
  }
}

const FlowTable::Entry* FlowTable::Find(uint64_t signature) const {
  const auto it = index_.find(signature);
  return it == index_.end() ? nullptr : &*it->second;
}

std::vector<FlowTable::Entry> FlowTable::Snapshot() const {
  return {entries_.begin(), entries_.end()};
}

std::vector<SpaceSavingSketch::Entry> FlowTable::TopK(size_t n) const {
  return sketch_.Top(n);
}

}  // namespace pfobs

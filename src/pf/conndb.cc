#include "src/pf/conndb.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace pf {

void ConnDB::Reconfigure(Config config) {
  config_ = config;
  if (config_.emergency_evict_batch == 0) {
    config_.emergency_evict_batch = 1;
  }
  if (config_.gc_batch == 0) {
    config_.gc_batch = 1;
  }
  if (config_.low_water_pct >= config_.high_water_pct) {
    config_.low_water_pct =
        config_.high_water_pct == 0 ? 0 : config_.high_water_pct - 1;
  }
  // Integer thresholds: live >= high_count_ engages, live <= low_count_
  // disengages. high_count_ is at least 1 so a zero-percent config still
  // means "any state at all is overload" rather than dividing by zero; a
  // high mark above 100 is unreachable (live never exceeds capacity).
  high_count_ = config_.high_water_pct > 100
                    ? SIZE_MAX
                    : std::max<size_t>(1, config_.capacity * config_.high_water_pct / 100);
  low_count_ = config_.capacity * config_.low_water_pct / 100;
  while (live_ > config_.capacity) {
    Remove(lru_tail_, RemoveCause::kEvictedCapacity);
  }
  IndexRebuild(IndexCellsFor(live_));
  UpdateWatermark();
  UpdateGauges();
}

void ConnDB::AttachMetrics(pfobs::MetricsRegistry* registry, const std::string& prefix) {
  if (registry_ != nullptr) {
    registry_->Retire(stats_);
  }
  registry_ = registry;
  if (registry == nullptr) {
    live_gauge_ = capacity_gauge_ = emergency_gauge_ = nullptr;
    return;
  }
  const auto expose = [&](const char* name, const uint64_t* field) {
    registry->Expose(prefix + name, field);
  };
  expose(".lookups", &stats_.lookups);
  expose(".hits", &stats_.hits);
  expose(".misses", &stats_.misses);
  expose(".stale_epoch", &stats_.stale_epoch);
  expose(".created", &stats_.created);
  expose(".updated", &stats_.updated);
  expose(".refused", &stats_.refused);
  expose(".expired.lazy", &stats_.expired_lazy);
  expose(".expired.gc", &stats_.expired_gc);
  expose(".evicted.capacity", &stats_.evicted_capacity);
  expose(".evicted.emergency", &stats_.evicted_emergency);
  expose(".evicted.stale", &stats_.evicted_stale);
  expose(".emergency.engaged", &stats_.emergency_engaged);
  expose(".emergency.disengaged", &stats_.emergency_disengaged);
  expose(".gc.sweeps", &stats_.gc_sweeps);
  expose(".gc.scanned", &stats_.gc_scanned);
  // A GC reclamation is the event expired.gc counts: one field, two names.
  expose(".gc.reclaimed", &stats_.expired_gc);
  live_gauge_ = registry->gauge(prefix + ".live");
  capacity_gauge_ = registry->gauge(prefix + ".capacity");
  emergency_gauge_ = registry->gauge(prefix + ".emergency");
  UpdateGauges();
}

void ConnDB::UpdateGauges() {
  if (live_gauge_ != nullptr) {
    live_gauge_->Set(static_cast<int64_t>(live_));
    capacity_gauge_->Set(static_cast<int64_t>(config_.capacity));
    emergency_gauge_->Set(emergency_ ? 1 : 0);
  }
}

size_t ConnDB::IndexCellsFor(size_t entries) {
  constexpr size_t kMinCells = 16;
  return entries == 0 ? 0 : std::max(kMinCells, std::bit_ceil(2 * entries));
}

uint32_t ConnDB::IndexFind(uint64_t signature) const {
  if (index_.empty()) {
    return kNil;
  }
  const size_t mask = index_.size() - 1;
  for (size_t i = signature & mask;; i = (i + 1) & mask) {
    const IndexCell& cell = index_[i];
    if (cell.signature == 0) {
      return kNil;
    }
    if (cell.signature == signature) {
      return cell.slot;
    }
  }
}

void ConnDB::IndexInsert(uint64_t signature, uint32_t slot) {
  if (2 * (live_ + 1) > index_.size()) {
    IndexRebuild(IndexCellsFor(live_ + 1));
  }
  IndexPlace({signature, slot});
}

void ConnDB::IndexPlace(IndexCell cell) {
  const size_t mask = index_.size() - 1;
  size_t i = cell.signature & mask;
  while (index_[i].signature != 0) {
    i = (i + 1) & mask;
  }
  index_[i] = cell;
}

void ConnDB::IndexErase(uint64_t signature) {
  if (signature == 0) {  // never placed: see Establish
    return;
  }
  const size_t mask = index_.size() - 1;
  size_t hole = signature & mask;
  while (index_[hole].signature != signature) {  // present: Remove erases live entries
    hole = (hole + 1) & mask;
  }
  // Backward shift: pull each later cell of the probe run into the hole
  // unless the hole lies before its home cell, so every remaining entry
  // stays reachable from its home without tombstones.
  for (size_t next = (hole + 1) & mask; index_[next].signature != 0; next = (next + 1) & mask) {
    const size_t home = index_[next].signature & mask;
    if (((next - home) & mask) >= ((next - hole) & mask)) {
      index_[hole] = index_[next];
      hole = next;
    }
  }
  index_[hole] = IndexCell{};
}

void ConnDB::IndexRebuild(size_t cells) {
  std::vector<IndexCell> old(cells);
  old.swap(index_);
  for (const IndexCell& cell : old) {
    if (cell.signature != 0) {
      IndexPlace(cell);
    }
  }
}

void ConnDB::LruDetach(uint32_t i) {
  Slot& slot = slots_[i];
  if (slot.lru_prev != kNil) {
    slots_[slot.lru_prev].lru_next = slot.lru_next;
  } else {
    lru_head_ = slot.lru_next;
  }
  if (slot.lru_next != kNil) {
    slots_[slot.lru_next].lru_prev = slot.lru_prev;
  } else {
    lru_tail_ = slot.lru_prev;
  }
  slot.lru_prev = kNil;
  slot.lru_next = kNil;
}

void ConnDB::LruPushFront(uint32_t i) {
  Slot& slot = slots_[i];
  slot.lru_prev = kNil;
  slot.lru_next = lru_head_;
  if (lru_head_ != kNil) {
    slots_[lru_head_].lru_prev = i;
  }
  lru_head_ = i;
  if (lru_tail_ == kNil) {
    lru_tail_ = i;
  }
}

void ConnDB::Remove(uint32_t i, RemoveCause cause) {
  Slot& slot = slots_[i];
  assert(slot.in_use);
  IndexErase(slot.entry.signature);
  LruDetach(i);
  slot.in_use = false;
  slot.entry = Entry{};
  free_.push_back(i);
  --live_;
  switch (cause) {
    case RemoveCause::kExpiredLazy:
      ++stats_.expired_lazy;
      break;
    case RemoveCause::kExpiredGc:
      ++stats_.expired_gc;
      break;
    case RemoveCause::kEvictedCapacity:
      ++stats_.evicted_capacity;
      break;
    case RemoveCause::kEvictedEmergency:
      ++stats_.evicted_emergency;
      break;
    case RemoveCause::kEvictedStale:
      ++stats_.evicted_stale;
      break;
  }
}

void ConnDB::UpdateWatermark() {
  if (!emergency_ && live_ >= high_count_) {
    emergency_ = true;
    ++stats_.emergency_engaged;
  } else if (emergency_ && live_ <= low_count_) {
    emergency_ = false;
    ++stats_.emergency_disengaged;
  }
}

const ConnDB::Entry* ConnDB::Lookup(uint64_t signature, uint64_t now_ns,
                                    uint64_t epoch, size_t bytes) {
  ++stats_.lookups;
  const uint32_t i = IndexFind(signature);
  if (i == kNil) {
    ++stats_.misses;
    return nullptr;
  }
  Entry& entry = slots_[i].entry;
  if (Expired(entry, now_ns)) {
    Remove(i, RemoveCause::kExpiredLazy);
    UpdateWatermark();
    UpdateGauges();
    ++stats_.misses;
    return nullptr;
  }
  if (entry.epoch != epoch) {
    // The filter configuration changed since this entry was stamped: the
    // stored verdict is untrustworthy, but the entry survives — the
    // caller's full walk will Establish() over it (kUpdated) and restamp.
    ++stats_.stale_epoch;
    ++stats_.misses;
    return nullptr;
  }
  ++generation_;
  LruDetach(i);
  LruPushFront(i);
  entry.last_seen_ns = now_ns;
  entry.generation = generation_;
  ++entry.packets;
  entry.bytes += bytes;
  ++stats_.hits;
  return &entry;
}

ConnDB::EstablishOutcome ConnDB::Establish(uint64_t signature, uint32_t port,
                                           uint64_t now_ns, uint64_t epoch,
                                           size_t bytes) {
  assert(signature != 0);
  if (const uint32_t i = IndexFind(signature); i != kNil) {
    // Present (e.g. the epoch moved, or a collision was re-walked): refresh
    // the verdict and restamp rather than churning create/evict counters.
    Entry& entry = slots_[i].entry;
    ++generation_;
    LruDetach(i);
    LruPushFront(i);
    entry.port = port;
    entry.epoch = epoch;
    entry.last_seen_ns = now_ns;
    entry.generation = generation_;
    ++entry.packets;
    entry.bytes += bytes;
    ++stats_.updated;
    return EstablishOutcome::kUpdated;
  }

  // Every instantiation attempt for an absent flow counts as created —
  // including ones refused below — so the partition identity
  // created == live + expired + evicted + refused holds at all times.
  ++stats_.created;

  if (emergency_) {
    // Shed the oldest-generation (LRU-tail) entries, bounded per attempt so
    // flood-time per-packet work stays O(emergency_evict_batch).
    size_t batch = std::min(config_.emergency_evict_batch, live_);
    while (batch-- > 0) {
      Remove(lru_tail_, RemoveCause::kEvictedEmergency);
    }
    UpdateWatermark();  // the shed may drain below low water
  }
  if (config_.capacity == 0 || (emergency_ && config_.refuse_new_in_emergency)) {
    ++stats_.refused;
    UpdateGauges();
    return EstablishOutcome::kRefused;
  }
  if (live_ >= config_.capacity) {
    Remove(lru_tail_, RemoveCause::kEvictedCapacity);
  }

  uint32_t i;
  if (!free_.empty()) {
    i = free_.back();
    free_.pop_back();
  } else {
    i = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& slot = slots_[i];
  slot.in_use = true;
  ++generation_;
  slot.entry = Entry{};
  slot.entry.signature = signature;
  slot.entry.port = port;
  slot.entry.epoch = epoch;
  slot.entry.packets = 1;
  slot.entry.bytes = bytes;
  slot.entry.created_ns = now_ns;
  slot.entry.last_seen_ns = now_ns;
  slot.entry.generation = generation_;
  IndexInsert(signature, i);
  LruPushFront(i);
  ++live_;
  UpdateWatermark();
  UpdateGauges();
  return EstablishOutcome::kCreated;
}

void ConnDB::Invalidate(uint64_t signature) {
  const uint32_t i = IndexFind(signature);
  if (i == kNil) {
    return;
  }
  Remove(i, RemoveCause::kEvictedStale);
  UpdateWatermark();
  UpdateGauges();
}

size_t ConnDB::GcSweep(uint64_t now_ns) {
  ++stats_.gc_sweeps;
  size_t reclaimed = 0;
  const size_t span = std::min(config_.gc_batch, slots_.size());
  for (size_t n = 0; n < span; ++n) {
    if (gc_cursor_ >= slots_.size()) {
      gc_cursor_ = 0;
    }
    const uint32_t i = static_cast<uint32_t>(gc_cursor_++);
    ++stats_.gc_scanned;
    if (slots_[i].in_use && Expired(slots_[i].entry, now_ns)) {
      Remove(i, RemoveCause::kExpiredGc);
      ++reclaimed;
    }
  }
  if (reclaimed > 0) {
    UpdateWatermark();
    UpdateGauges();
  }
  return reclaimed;
}

const ConnDB::Entry* ConnDB::Find(uint64_t signature) const {
  const uint32_t i = IndexFind(signature);
  return i == kNil ? nullptr : &slots_[i].entry;
}

std::vector<ConnDB::Entry> ConnDB::Snapshot() const {
  std::vector<Entry> out;
  out.reserve(live_);
  for (uint32_t i = lru_head_; i != kNil; i = slots_[i].lru_next) {
    out.push_back(slots_[i].entry);
  }
  return out;
}

}  // namespace pf

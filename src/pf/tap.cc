#include "src/pf/tap.h"

#include <cinttypes>
#include <cstdio>

namespace pf {

std::string ToString(TapStage stage) {
  switch (stage) {
    case TapStage::kNicRx:
      return "nic-rx";
    case TapStage::kDemuxIn:
      return "demux-in";
    case TapStage::kDeliver:
      return "deliver";
    case TapStage::kDrop:
      return "drop";
    case TapStage::kCount:
      break;
  }
  return "?";
}

std::string TapComment(const TapPacketMeta& meta) {
  char buf[128];
  std::string out;
  if (meta.flow_sig != 0) {
    std::snprintf(buf, sizeof(buf), "sig=0x%016" PRIx64, meta.flow_sig);
    out += buf;
  }
  if (meta.flow_id != 0) {
    std::snprintf(buf, sizeof(buf), "%sflow=%" PRIu64, out.empty() ? "" : " ", meta.flow_id);
    out += buf;
  }
  if (meta.port != 0) {
    std::snprintf(buf, sizeof(buf), "%sport=%u", out.empty() ? "" : " ", meta.port);
    out += buf;
  }
  if (meta.drop_reason >= 0 &&
      meta.drop_reason < static_cast<int>(kDropReasonCount)) {
    out += (out.empty() ? "reason=" : " reason=") +
           ToSlug(static_cast<DropReason>(meta.drop_reason));
  }
  return out;
}

CaptureTap::CaptureTap(TapConfig config) : config_(std::move(config)) {
  if (config_.sample_every == 0) {
    config_.sample_every = 1;
  }
  if (config_.filter.words.empty()) {
    match_all_ = true;
    ok_ = true;
    return;
  }
  auto validated = ValidatedProgram::Create(std::move(config_.filter));
  if (!validated.has_value()) {
    return;  // inert: Offer() never captures
  }
  engine_.Bind(kPredicateKey, std::move(*validated));
  binding_ = engine_.FindBinding(kPredicateKey);
  ok_ = true;
}

bool CaptureTap::Offer(std::span<const uint8_t> packet, const TapPacketMeta& meta,
                       pfutil::PcapngWriter* out) {
  ++stats_.offered;
  if (!ok_) {
    return false;
  }
  if (!match_all_ && !engine_.Confirm(*binding_, packet).accept) {
    return false;
  }
  ++stats_.matched;
  // 1-in-N sampling on *matched* packets, so the stride means "every Nth
  // packet the predicate selected", not every Nth offered.
  if (stats_.matched % config_.sample_every != 1 % config_.sample_every) {
    ++stats_.sampled_out;
    return false;
  }
  if (stats_.captured >= config_.max_packets) {
    ++stats_.budget_stop;
    return false;
  }
  const size_t caplen = packet.size() < config_.snaplen ? packet.size() : config_.snaplen;
  if (caplen < packet.size()) {
    ++stats_.truncated;
  }
  out->AddPacket(interface_id_, meta.timestamp_ns, packet.subspan(0, caplen),
                 static_cast<uint32_t>(packet.size()), TapComment(meta));
  ++stats_.captured;
  return true;
}

TapSet::TapSet() : linktype_(pfutil::PcapWriter::kLinktypeEthernet) {}

int TapSet::Attach(TapConfig config, ValidationResult* error) {
  if (!config.filter.words.empty()) {
    ValidationResult check = Validate(config.filter);
    if (!check.ok) {
      if (error != nullptr) {
        *error = check;
      }
      return 0;
    }
  }
  const TapStage stage = config.stage;
  std::string if_name = ToString(stage);
  if (!config.name.empty()) {
    if_name += ":" + config.name;
  }
  auto tap = std::make_unique<CaptureTap>(std::move(config));
  if (!tap->ok()) {
    // Validate passed but Create failed — should not happen; stay inert.
    if (error != nullptr) {
      error->ok = false;
    }
    return 0;
  }
  tap->interface_id_ = pcapng_.AddInterface(linktype_, tap->config().snaplen, if_name);
  const int id = next_id_++;
  taps_.emplace_back(id, std::move(tap));
  active_mask_ |= 1u << static_cast<unsigned>(stage);
  return id;
}

bool TapSet::Detach(int tap_id) {
  for (auto it = taps_.begin(); it != taps_.end(); ++it) {
    if (it->first == tap_id) {
      taps_.erase(it);
      RebuildMask();
      return true;
    }
  }
  return false;
}

void TapSet::RebuildMask() {
  active_mask_ = 0;
  for (const auto& [id, tap] : taps_) {
    active_mask_ |= 1u << static_cast<unsigned>(tap->config().stage);
  }
}

void TapSet::Offer(TapStage stage, std::span<const uint8_t> packet,
                   const TapPacketMeta& meta) {
  for (auto& [id, tap] : taps_) {
    if (tap->config().stage != stage) {
      continue;
    }
    if (tap->config().port != 0 && meta.port != tap->config().port) {
      continue;  // out of the tap's port scope — not offered
    }
    tap->Offer(packet, meta, &pcapng_);
  }
}

const CaptureTap* TapSet::Find(int tap_id) const {
  for (const auto& [id, tap] : taps_) {
    if (id == tap_id) {
      return tap.get();
    }
  }
  return nullptr;
}

std::vector<int> TapSet::TapIds() const {
  std::vector<int> ids;
  ids.reserve(taps_.size());
  for (const auto& [id, tap] : taps_) {
    ids.push_back(id);
  }
  return ids;
}

}  // namespace pf

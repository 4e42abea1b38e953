// Link-layer tests: framing for both Ethernets, segment delivery rules,
// bandwidth serialization, loss injection, the transmit-time FCS, and the
// seeded impairment engine, and the frames parked on the wire.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "src/link/frame.h"
#include "src/link/impair.h"
#include "src/link/segment.h"
#include "src/obs/metrics.h"
#include "src/sim/simulator.h"
#include "src/util/byte_order.h"
#include "src/util/rng.h"

namespace {

using pflink::EthernetSegment;
using pflink::Frame;
using pflink::LinkHeader;
using pflink::LinkType;
using pflink::MacAddr;
using pflink::Station;

TEST(MacAddrTest, BroadcastForms) {
  EXPECT_TRUE(MacAddr::Broadcast(6).IsBroadcast());
  EXPECT_TRUE(MacAddr::Broadcast(1).IsBroadcast());
  EXPECT_FALSE(MacAddr::Dix(1, 2, 3, 4, 5, 6).IsBroadcast());
  EXPECT_FALSE(MacAddr::Experimental(7).IsBroadcast());
  EXPECT_EQ(MacAddr::Broadcast(1).bytes[0], 0);  // host 0 on the 3 Mb net
}

TEST(MacAddrTest, MulticastBit) {
  EXPECT_TRUE(MacAddr::Dix(0x01, 0, 0x5e, 0, 0, 1).IsMulticast());
  EXPECT_FALSE(MacAddr::Dix(0x02, 0, 0, 0, 0, 1).IsMulticast());
}

TEST(MacAddrTest, ToStringFormats) {
  EXPECT_EQ(MacAddr::Experimental(42).ToString(), "42");
  EXPECT_EQ(MacAddr::Dix(0xde, 0xad, 0xbe, 0xef, 0x00, 0x01).ToString(), "de:ad:be:ef:00:01");
}

TEST(FrameTest, DixRoundTrip) {
  LinkHeader header;
  header.dst = MacAddr::Dix(1, 2, 3, 4, 5, 6);
  header.src = MacAddr::Dix(6, 5, 4, 3, 2, 1);
  header.ether_type = 0x0800;
  const std::vector<uint8_t> payload = {0xaa, 0xbb, 0xcc};
  const auto frame = pflink::BuildFrame(LinkType::kEthernet10Mb, header, payload);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->size(), 14u + 3u);

  const auto parsed = pflink::ParseHeader(LinkType::kEthernet10Mb, frame->AsSpan());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->dst, header.dst);
  EXPECT_EQ(parsed->src, header.src);
  EXPECT_EQ(parsed->ether_type, 0x0800);
  const auto body = pflink::FramePayload(LinkType::kEthernet10Mb, frame->AsSpan());
  EXPECT_EQ(std::vector<uint8_t>(body.begin(), body.end()), payload);
}

TEST(FrameTest, ExperimentalHeaderIsFourBytes) {
  LinkHeader header;
  header.dst = MacAddr::Experimental(2);
  header.src = MacAddr::Experimental(1);
  header.ether_type = 2;
  const auto frame = pflink::BuildFrame(LinkType::kExperimental3Mb, header, {});
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->size(), 4u);
  EXPECT_EQ(frame->bytes[0], 2);  // dst host
  EXPECT_EQ(frame->bytes[1], 1);  // src host
  const auto parsed = pflink::ParseHeader(LinkType::kExperimental3Mb, frame->AsSpan());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->ether_type, 2);
}

TEST(FrameTest, MtuEnforced) {
  LinkHeader header;
  header.dst = MacAddr::Dix(1, 2, 3, 4, 5, 6);
  header.src = MacAddr::Dix(6, 5, 4, 3, 2, 1);
  const std::vector<uint8_t> too_big(1501, 0);
  EXPECT_FALSE(pflink::BuildFrame(LinkType::kEthernet10Mb, header, too_big).has_value());
  const std::vector<uint8_t> just_fits(1500, 0);
  EXPECT_TRUE(pflink::BuildFrame(LinkType::kEthernet10Mb, header, just_fits).has_value());
}

TEST(FrameTest, ParseRejectsTruncated) {
  const std::vector<uint8_t> tiny = {1, 2, 3};
  EXPECT_FALSE(pflink::ParseHeader(LinkType::kEthernet10Mb, tiny).has_value());
  EXPECT_FALSE(pflink::ParseHeader(LinkType::kExperimental3Mb, tiny).has_value());
  EXPECT_TRUE(pflink::FramePayload(LinkType::kEthernet10Mb, tiny).empty());
}

// A recording station.
class TestStation : public Station {
 public:
  TestStation(MacAddr addr, bool promiscuous = false)
      : addr_(addr), promiscuous_(promiscuous) {}
  void OnFrameDelivered(const Frame& frame, pfsim::TimePoint at) override {
    frames.push_back(frame.bytes.ToVector());
    raw.push_back(frame);
    times.push_back(at);
  }
  MacAddr link_addr() const override { return addr_; }
  bool promiscuous() const override { return promiscuous_; }

  std::vector<std::vector<uint8_t>> frames;
  std::vector<Frame> raw;  // with FCS metadata
  std::vector<pfsim::TimePoint> times;

 private:
  MacAddr addr_;
  bool promiscuous_;
};

Frame MakeFrame(uint8_t dst, uint8_t src, size_t payload = 10) {
  LinkHeader header;
  header.dst = MacAddr::Experimental(dst);
  header.src = MacAddr::Experimental(src);
  header.ether_type = 2;
  return *pflink::BuildFrame(LinkType::kExperimental3Mb, header,
                             std::vector<uint8_t>(payload, 0x5a));
}

TEST(SegmentTest, DeliversToAddresseeOnly) {
  pfsim::Simulator sim;
  EthernetSegment segment(&sim, LinkType::kExperimental3Mb);
  TestStation a(MacAddr::Experimental(1));
  TestStation b(MacAddr::Experimental(2));
  TestStation c(MacAddr::Experimental(3));
  segment.Attach(&a);
  segment.Attach(&b);
  segment.Attach(&c);

  segment.Transmit(&a, MakeFrame(2, 1));
  sim.Run();
  EXPECT_TRUE(a.frames.empty());  // sender does not hear itself
  EXPECT_EQ(b.frames.size(), 1u);
  EXPECT_TRUE(c.frames.empty());
}

TEST(SegmentTest, BroadcastReachesAll) {
  pfsim::Simulator sim;
  EthernetSegment segment(&sim, LinkType::kExperimental3Mb);
  TestStation a(MacAddr::Experimental(1));
  TestStation b(MacAddr::Experimental(2));
  TestStation c(MacAddr::Experimental(3));
  segment.Attach(&a);
  segment.Attach(&b);
  segment.Attach(&c);
  segment.Transmit(&a, MakeFrame(0, 1));  // host 0 = broadcast
  sim.Run();
  EXPECT_EQ(b.frames.size(), 1u);
  EXPECT_EQ(c.frames.size(), 1u);
}

TEST(SegmentTest, PromiscuousStationHearsEverything) {
  pfsim::Simulator sim;
  EthernetSegment segment(&sim, LinkType::kExperimental3Mb);
  TestStation a(MacAddr::Experimental(1));
  TestStation b(MacAddr::Experimental(2));
  TestStation monitor(MacAddr::Experimental(9), /*promiscuous=*/true);
  segment.Attach(&a);
  segment.Attach(&b);
  segment.Attach(&monitor);
  segment.Transmit(&a, MakeFrame(2, 1));
  sim.Run();
  EXPECT_EQ(monitor.frames.size(), 1u);
}

TEST(SegmentTest, TransmissionTimeMatchesBandwidth) {
  pfsim::Simulator sim;
  EthernetSegment segment(&sim, LinkType::kExperimental3Mb);  // 3 Mbit/s
  TestStation a(MacAddr::Experimental(1));
  TestStation b(MacAddr::Experimental(2));
  segment.Attach(&a);
  segment.Attach(&b);

  const Frame frame = MakeFrame(2, 1, 371);  // 375 bytes = 3000 bits = 1 ms at 3 Mb/s
  segment.Transmit(&a, frame);
  sim.Run();
  ASSERT_EQ(b.times.size(), 1u);
  const auto elapsed = b.times[0].time_since_epoch();
  EXPECT_EQ(elapsed, pfsim::Milliseconds(1) + pfsim::Microseconds(5));  // + propagation
}

TEST(SegmentTest, MediumSerializesBackToBackFrames) {
  pfsim::Simulator sim;
  EthernetSegment segment(&sim, LinkType::kExperimental3Mb);
  TestStation a(MacAddr::Experimental(1));
  TestStation b(MacAddr::Experimental(2));
  segment.Attach(&a);
  segment.Attach(&b);

  segment.Transmit(&a, MakeFrame(2, 1, 371));  // 1 ms each
  segment.Transmit(&a, MakeFrame(2, 1, 371));
  sim.Run();
  ASSERT_EQ(b.times.size(), 2u);
  EXPECT_EQ((b.times[1] - b.times[0]), pfsim::Milliseconds(1));
  EXPECT_EQ(segment.stats().frames_carried, 2u);
  EXPECT_EQ(segment.stats().bytes_carried, 750u);
}

TEST(SegmentTest, LossInjectionDropsApproximately) {
  pfsim::Simulator sim;
  EthernetSegment segment(&sim, LinkType::kExperimental3Mb);
  TestStation a(MacAddr::Experimental(1));
  TestStation b(MacAddr::Experimental(2));
  segment.Attach(&a);
  segment.Attach(&b);
  segment.SetLossRate(0.3, 1234);

  for (int i = 0; i < 1000; ++i) {
    segment.Transmit(&a, MakeFrame(2, 1, 4));
  }
  sim.Run();
  EXPECT_GT(segment.stats().frames_lost, 230u);
  EXPECT_LT(segment.stats().frames_lost, 370u);
  EXPECT_EQ(b.frames.size() + segment.stats().frames_lost, 1000u);
}

TEST(FrameTest, FcsDetectsCorruptionAndTruncation) {
  Frame frame = MakeFrame(2, 1, 32);
  EXPECT_TRUE(frame.FcsIntact());  // never stamped: verification skipped
  EXPECT_FALSE(frame.Truncated());

  frame.StampFcs();
  EXPECT_TRUE(frame.FcsIntact());
  EXPECT_FALSE(frame.Truncated());

  Frame corrupted = frame;
  corrupted.bytes.MutableSpan()[10] ^= 0x40;
  EXPECT_FALSE(corrupted.FcsIntact());
  EXPECT_FALSE(corrupted.Truncated());

  Frame cut = frame;
  cut.bytes.Truncate(cut.bytes.size() - 7);
  EXPECT_TRUE(cut.Truncated());
}

// A DIX frame of `len` bytes with seeded random contents.
Frame RandomFrame(pfutil::Rng& rng, size_t len) {
  std::vector<uint8_t> bytes(len);
  for (uint8_t& byte : bytes) {
    byte = rng.NextU8();
  }
  Frame frame;
  frame.bytes = pf::PacketBuf(std::move(bytes));
  return frame;
}

TEST(FrameTest, FcsDetectsEverySingleBitError) {
  // A CRC-32 catches every single-bit error, so any flip the check misses
  // is a bug in the carry-less fold (1514 bytes, where the CPU has it), the
  // 16-byte slicing blocks or the bytewise tail.
  pfutil::Rng rng(1514);
  for (const size_t len : {size_t{60}, size_t{1514}}) {
    Frame frame = RandomFrame(rng, len);
    frame.StampFcs();
    ASSERT_TRUE(frame.FcsIntact());
    const std::span<uint8_t> bytes = frame.bytes.MutableSpan();
    for (size_t bit = 0; bit < len * 8; ++bit) {
      bytes[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      if (frame.FcsIntact()) {
        ADD_FAILURE() << len << "-byte frame: flipping bit " << bit << " went undetected";
        return;
      }
      bytes[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    }
    EXPECT_TRUE(frame.FcsIntact());
    for (size_t cut = 1; cut <= 17; ++cut) {
      Frame shortened = frame;
      shortened.bytes.Truncate(len - cut);
      EXPECT_TRUE(shortened.Truncated()) << len << "-byte frame cut by " << cut;
    }
  }
}

TEST(FrameTest, FcsDetectsEvery32BitBurst) {
  // A degree-32 CRC catches every burst error no longer than 32 bits. Each
  // burst spans all 32: the first byte's first wire bit (bit 0, the CRC is
  // reflected) and the fourth byte's last are always flipped.
  pfutil::Rng rng(32);
  for (const size_t len : {size_t{60}, size_t{1514}}) {
    Frame frame = RandomFrame(rng, len);
    frame.StampFcs();
    const std::span<uint8_t> bytes = frame.bytes.MutableSpan();
    for (size_t offset = 0; offset + 4 <= len; ++offset) {
      const uint8_t burst[4] = {static_cast<uint8_t>(rng.NextU8() | 0x01), rng.NextU8(),
                                rng.NextU8(), static_cast<uint8_t>(rng.NextU8() | 0x80)};
      const auto flip = [&] {
        for (size_t i = 0; i < 4; ++i) {
          bytes[offset + i] ^= burst[i];
        }
      };
      flip();
      if (frame.FcsIntact()) {
        ADD_FAILURE() << len << "-byte frame: a 32-bit burst at byte " << offset
                      << " went undetected";
        return;
      }
      flip();
    }
    EXPECT_TRUE(frame.FcsIntact());
  }
}

TEST(FrameTest, GeneratedFramesParseAndVerify) {
  // Seeded random frames from empty to just past the header: the parser
  // must reject exactly the runts, the payload must be the bytes after the
  // header, and every stamped frame must verify.
  pfutil::Rng rng(14);
  for (const LinkType type : {LinkType::kEthernet10Mb, LinkType::kExperimental3Mb}) {
    const size_t header_len = pflink::PropertiesFor(type).header_len;
    for (int iter = 0; iter < 2000; ++iter) {
      Frame frame = RandomFrame(rng, rng.Below(header_len + 3));
      const std::span<const uint8_t> bytes = frame.AsSpan();
      const std::optional<LinkHeader> header = pflink::ParseHeader(type, bytes);
      const std::span<const uint8_t> payload = pflink::FramePayload(type, bytes);
      if (bytes.size() < header_len) {
        EXPECT_FALSE(header.has_value()) << bytes.size() << "-byte frame";
        EXPECT_TRUE(payload.empty());
      } else {
        ASSERT_TRUE(header.has_value()) << bytes.size() << "-byte frame";
        EXPECT_EQ(header->ether_type, pfutil::LoadBe16(bytes.data() + header_len - 2));
        EXPECT_EQ(payload.data(), bytes.data() + header_len);
        EXPECT_EQ(payload.size(), bytes.size() - header_len);
      }
      frame.StampFcs();
      EXPECT_TRUE(frame.FcsIntact()) << bytes.size() << "-byte frame";
      EXPECT_FALSE(frame.Truncated());
    }
  }
}

TEST(SegmentTest, ConcurrentTransmittersSerializeOnMedium) {
  pfsim::Simulator sim;
  EthernetSegment segment(&sim, LinkType::kExperimental3Mb);
  TestStation a(MacAddr::Experimental(1));
  TestStation b(MacAddr::Experimental(2));
  TestStation c(MacAddr::Experimental(3));
  segment.Attach(&a);
  segment.Attach(&b);
  segment.Attach(&c);

  // Both stations transmit at t=0: the second queues behind medium_free_at_,
  // so deliveries to c are exactly one transmission time apart.
  segment.Transmit(&a, MakeFrame(3, 1, 371));  // 1 ms each at 3 Mb/s
  segment.Transmit(&b, MakeFrame(3, 2, 371));
  sim.Run();
  ASSERT_EQ(c.times.size(), 2u);
  EXPECT_EQ(c.times[1] - c.times[0], pfsim::Milliseconds(1));
  EXPECT_EQ(segment.stats().frames_offered, 2u);
  EXPECT_EQ(segment.stats().frames_carried, 2u);
}

TEST(SegmentTest, LossConservationIdentityUnderSeededLoss) {
  pfsim::Simulator sim;
  EthernetSegment segment(&sim, LinkType::kExperimental3Mb);
  TestStation a(MacAddr::Experimental(1));
  TestStation b(MacAddr::Experimental(2));
  segment.Attach(&a);
  segment.Attach(&b);
  segment.SetLossRate(0.3, 1234);

  constexpr uint64_t kFrames = 1000;
  for (uint64_t i = 0; i < kFrames; ++i) {
    segment.Transmit(&a, MakeFrame(2, 1, 4));
  }
  sim.Run();
  const EthernetSegment::Stats& stats = segment.stats();
  EXPECT_EQ(stats.frames_offered, kFrames);
  EXPECT_EQ(stats.frames_offered + stats.frames_duplicated,
            stats.frames_carried + stats.frames_lost);
  // Every carried frame reached its (single) addressee.
  EXPECT_EQ(b.frames.size(), stats.frames_carried);
  EXPECT_EQ(segment.impairment_stats().dropped(), stats.frames_lost);
}

// "link.impair.*" is cumulative over the segment's impairment engines: a
// second SetImpairments keeps what the first engine counted and counts on,
// while impairment_stats() reports only the engine in place.
TEST(SegmentTest, ReplacedImpairmentsKeepTheirRegistryCounts) {
  pfsim::Simulator sim;
  pfobs::MetricsRegistry registry;  // outlives the segment attached to it
  EthernetSegment segment(&sim, LinkType::kExperimental3Mb);
  TestStation a(MacAddr::Experimental(1));
  TestStation b(MacAddr::Experimental(2));
  segment.Attach(&a);
  segment.Attach(&b);
  segment.AttachMetrics(&registry);
  segment.SetLossRate(0.3, 1234);
  for (int i = 0; i < 100; ++i) {
    segment.Transmit(&a, MakeFrame(2, 1, 4));
  }
  sim.Run();
  const uint64_t first_dropped = segment.impairment_stats().dropped_independent;
  ASSERT_GT(first_dropped, 0u);
  const auto value = [&registry](const char* name) {
    const pfobs::Counter* counter = registry.FindCounter(name);
    return counter == nullptr ? ~uint64_t{0} : counter->value();
  };
  EXPECT_EQ(value("link.impair.frames"), 100u);
  EXPECT_EQ(value("link.impair.dropped_independent"), first_dropped);

  pflink::ImpairmentConfig config;
  config.seed = 7;
  config.duplicate = 0.5;
  segment.SetImpairments(config);
  EXPECT_EQ(segment.impairment_stats().frames_seen, 0u);
  EXPECT_EQ(value("link.impair.frames"), 100u);  // the first engine's count stays
  EXPECT_EQ(value("link.impair.dropped_independent"), first_dropped);
  for (int i = 0; i < 40; ++i) {
    segment.Transmit(&a, MakeFrame(2, 1, 4));
  }
  sim.Run();
  EXPECT_EQ(value("link.impair.frames"), 140u);
  EXPECT_EQ(value("link.impair.dropped_independent"), first_dropped);
  EXPECT_EQ(value("link.impair.duplicated"), segment.impairment_stats().duplicated);
  EXPECT_EQ(value("link.frames_lost"), segment.stats().frames_lost);
  EXPECT_EQ(value("link.frames_carried"), segment.stats().frames_carried);
}

TEST(SegmentTest, ImpairmentsAreSeedReplayable) {
  auto run = [](uint64_t seed) {
    pfsim::Simulator sim;
    EthernetSegment segment(&sim, LinkType::kExperimental3Mb);
    TestStation a(MacAddr::Experimental(1));
    TestStation b(MacAddr::Experimental(2));
    segment.Attach(&a);
    segment.Attach(&b);
    pflink::ImpairmentConfig config;
    config.seed = seed;
    config.loss = 0.1;
    config.corrupt = 0.1;
    config.duplicate = 0.05;
    config.truncate = 0.05;
    config.reorder = 0.1;
    segment.SetImpairments(config);
    for (int i = 0; i < 400; ++i) {
      segment.Transmit(&a, MakeFrame(2, 1, 64));
    }
    sim.Run();
    return std::make_pair(b.frames, segment.impairment_stats());
  };
  const auto [frames1, stats1] = run(42);
  const auto [frames2, stats2] = run(42);
  EXPECT_EQ(frames1, frames2);  // byte-identical delivery, fault for fault
  EXPECT_EQ(stats1.dropped(), stats2.dropped());
  EXPECT_EQ(stats1.corrupted, stats2.corrupted);
  EXPECT_EQ(stats1.duplicated, stats2.duplicated);
  EXPECT_EQ(stats1.truncated, stats2.truncated);
  EXPECT_EQ(stats1.reordered, stats2.reordered);
  const auto [frames3, stats3] = run(43);
  EXPECT_NE(frames1, frames3);  // a different seed is a different run
}

TEST(SegmentTest, DuplicateDeliversPristineSecondCopy) {
  pfsim::Simulator sim;
  EthernetSegment segment(&sim, LinkType::kExperimental3Mb);
  TestStation a(MacAddr::Experimental(1));
  TestStation b(MacAddr::Experimental(2));
  segment.Attach(&a);
  segment.Attach(&b);
  pflink::ImpairmentConfig config;
  config.duplicate = 1.0;
  segment.SetImpairments(config);

  segment.Transmit(&a, MakeFrame(2, 1, 64));
  sim.Run();
  ASSERT_EQ(b.raw.size(), 2u);
  EXPECT_EQ(b.frames[0], b.frames[1]);
  EXPECT_TRUE(b.raw[0].FcsIntact());
  EXPECT_TRUE(b.raw[1].FcsIntact());
  EXPECT_EQ(segment.stats().frames_duplicated, 1u);
  EXPECT_EQ(segment.stats().frames_carried, 2u);
  EXPECT_EQ(segment.stats().frames_offered + segment.stats().frames_duplicated,
            segment.stats().frames_carried + segment.stats().frames_lost);
}

TEST(SegmentTest, CorruptionSparesHeaderAndTripsFcs) {
  pfsim::Simulator sim;
  EthernetSegment segment(&sim, LinkType::kExperimental3Mb);
  TestStation a(MacAddr::Experimental(1));
  TestStation b(MacAddr::Experimental(2));
  segment.Attach(&a);
  segment.Attach(&b);
  pflink::ImpairmentConfig config;
  config.corrupt = 1.0;
  segment.SetImpairments(config);

  const Frame sent = MakeFrame(2, 1, 64);
  segment.Transmit(&a, sent);
  sim.Run();
  ASSERT_EQ(b.raw.size(), 1u);  // header intact, so routing still worked
  const Frame& got = b.raw[0];
  EXPECT_EQ(std::vector<uint8_t>(got.bytes.begin(), got.bytes.begin() + 4),
            std::vector<uint8_t>(sent.bytes.begin(), sent.bytes.begin() + 4));
  EXPECT_NE(got.bytes, sent.bytes);
  EXPECT_FALSE(got.FcsIntact());
  EXPECT_FALSE(got.Truncated());
}

TEST(SegmentTest, TruncationKeepsRoutableHeader) {
  pfsim::Simulator sim;
  EthernetSegment segment(&sim, LinkType::kExperimental3Mb);
  TestStation a(MacAddr::Experimental(1));
  TestStation b(MacAddr::Experimental(2));
  segment.Attach(&a);
  segment.Attach(&b);
  pflink::ImpairmentConfig config;
  config.truncate = 1.0;
  segment.SetImpairments(config);

  const Frame sent = MakeFrame(2, 1, 64);
  segment.Transmit(&a, sent);
  sim.Run();
  ASSERT_EQ(b.raw.size(), 1u);
  EXPECT_GE(b.raw[0].size(), 4u);  // never below the link header
  EXPECT_LT(b.raw[0].size(), sent.size());
  EXPECT_TRUE(b.raw[0].Truncated());
}

TEST(SegmentTest, BurstLossDropsRunsOfFrames) {
  pfsim::Simulator sim;
  EthernetSegment segment(&sim, LinkType::kExperimental3Mb);
  TestStation a(MacAddr::Experimental(1));
  TestStation b(MacAddr::Experimental(2));
  segment.Attach(&a);
  segment.Attach(&b);
  pflink::ImpairmentConfig config;
  config.burst_enter = 0.05;
  config.burst_exit = 0.25;
  segment.SetImpairments(config);

  for (int i = 0; i < 1000; ++i) {
    segment.Transmit(&a, MakeFrame(2, 1, 4));
  }
  sim.Run();
  const pflink::ImpairmentStats& stats = segment.impairment_stats();
  EXPECT_GT(stats.dropped_burst, 0u);
  EXPECT_EQ(stats.dropped_independent, 0u);
  EXPECT_EQ(segment.stats().frames_offered,
            segment.stats().frames_carried + segment.stats().frames_lost);
}

TEST(SegmentTest, ReorderJitterLetsLaterFramesOvertake) {
  pfsim::Simulator sim;
  EthernetSegment segment(&sim, LinkType::kExperimental3Mb);
  TestStation a(MacAddr::Experimental(1));
  TestStation b(MacAddr::Experimental(2));
  segment.Attach(&a);
  segment.Attach(&b);
  pflink::ImpairmentConfig config;
  config.reorder = 0.5;
  config.reorder_jitter = pfsim::Milliseconds(5);
  segment.SetImpairments(config);

  for (uint8_t i = 0; i < 50; ++i) {
    Frame frame = MakeFrame(2, 1, 8);
    frame.bytes.MutableSpan()[4] = i;  // sequence tag in the payload
    segment.Transmit(&a, frame);
  }
  sim.Run();
  ASSERT_EQ(b.frames.size(), 50u);
  bool out_of_order = false;
  for (size_t i = 1; i < b.frames.size(); ++i) {
    if (b.frames[i][4] < b.frames[i - 1][4]) {
      out_of_order = true;
    }
  }
  EXPECT_TRUE(out_of_order);
  EXPECT_GT(segment.impairment_stats().reordered, 0u);
}

// Forwards two copies of every frame it hears to `to` on the same segment,
// so deliveries carry new frames while the segment is still delivering, and
// the frames in flight outgrow the slab's first allocation.
class RelayStation : public TestStation {
 public:
  RelayStation(MacAddr addr, EthernetSegment* segment, uint8_t from, uint8_t to)
      : TestStation(addr), segment_(segment), from_(from), to_(to) {}
  void OnFrameDelivered(const Frame& frame, pfsim::TimePoint at) override {
    TestStation::OnFrameDelivered(frame, at);
    for (int i = 0; i < kFanOut; ++i) {
      Frame copy = MakeFrame(to_, from_, frame.size() - 4);
      std::copy(frame.bytes.begin() + 4, frame.bytes.end(),
                copy.bytes.MutableSpan().begin() + 4);
      segment_->Transmit(this, std::move(copy));
    }
  }
  static constexpr int kFanOut = 2;

 private:
  EthernetSegment* segment_;
  uint8_t from_;
  uint8_t to_;
};

TEST(SegmentTest, InFlightFramesArriveByteExactOutOfOrder) {
  // Extra delay and duplicates keep many frames parked at once and deliver
  // them out of scheduling order. The relay transmits from inside Deliver,
  // and the monitor, attached after it, hears each frame after that
  // transmission, so a delivery that read its frame from the slab after
  // the relay's Carry reused or grew it would show here.
  pfsim::Simulator sim;
  EthernetSegment segment(&sim, LinkType::kExperimental3Mb);
  TestStation a(MacAddr::Experimental(1));
  RelayStation b(MacAddr::Experimental(2), &segment, 2, 3);
  TestStation c(MacAddr::Experimental(3));
  TestStation monitor(MacAddr::Experimental(9), /*promiscuous=*/true);
  segment.Attach(&a);
  segment.Attach(&b);
  segment.Attach(&c);
  segment.Attach(&monitor);
  pflink::ImpairmentConfig config;
  config.seed = 26;
  config.reorder = 0.5;
  config.reorder_jitter = pfsim::Milliseconds(20);
  config.duplicate = 0.3;
  segment.SetImpairments(config);

  constexpr int kFrames = 300;
  pfutil::Rng rng(26);
  std::vector<std::vector<uint8_t>> sent;
  for (int i = 0; i < kFrames; ++i) {
    Frame frame = MakeFrame(2, 1, 2 + rng.Below(200));
    std::span<uint8_t> bytes = frame.bytes.MutableSpan();
    pfutil::StoreBe16(&bytes[4], static_cast<uint16_t>(i));  // sequence tag
    for (size_t k = 6; k < bytes.size(); ++k) {
      bytes[k] = rng.NextU8();
    }
    sent.push_back(frame.bytes.ToVector());
    segment.Transmit(&a, std::move(frame));
  }
  sim.Run();

  // b heard every frame a sent, once or (duplicated) twice, out of order.
  std::vector<int> copies(kFrames, 0);
  bool out_of_order = false;
  for (size_t i = 0; i < b.frames.size(); ++i) {
    const uint16_t tag = pfutil::LoadBe16(&b.frames[i][4]);
    ASSERT_LT(tag, kFrames);
    out_of_order = out_of_order || (i > 0 && tag < pfutil::LoadBe16(&b.frames[i - 1][4]));
    ++copies[tag];
  }
  uint64_t duplicated = 0;
  for (int i = 0; i < kFrames; ++i) {
    EXPECT_GE(copies[i], 1) << "frame " << i << " never arrived";
    EXPECT_LE(copies[i], 2) << "frame " << i;
    duplicated += copies[i] == 2 ? 1 : 0;
  }
  EXPECT_TRUE(out_of_order);
  EXPECT_GT(duplicated, 0u);
  EXPECT_EQ(c.raw.size(), RelayStation::kFanOut * b.raw.size() +
                              segment.stats().frames_duplicated - duplicated);

  // The monitor heard every carried frame after the relay ran: each is byte
  // for byte what was sent (a's) or relayed (b's), with its FCS intact.
  ASSERT_EQ(monitor.raw.size(), segment.stats().frames_carried);
  size_t to_b = 0;
  size_t to_c = 0;
  for (const Frame& frame : monitor.raw) {
    EXPECT_TRUE(frame.FcsIntact());
    EXPECT_FALSE(frame.Truncated());
    const uint16_t tag = pfutil::LoadBe16(frame.bytes.data() + 4);
    ASSERT_LT(tag, kFrames);
    const std::vector<uint8_t>& original = sent[tag];
    if (frame.bytes[0] == 2) {
      ++to_b;
      EXPECT_EQ(frame.bytes.ToVector(), original) << "frame " << tag;
    } else {
      ++to_c;
      EXPECT_EQ(frame.bytes[0], 3);
      EXPECT_TRUE(std::equal(frame.bytes.begin() + 4, frame.bytes.end(), original.begin() + 4,
                             original.end()))
          << "relayed frame " << tag;
    }
  }
  EXPECT_EQ(to_b, b.raw.size());
  EXPECT_EQ(to_c, c.raw.size());
  EXPECT_TRUE(a.raw.empty());
  EXPECT_EQ(segment.stats().frames_offered + segment.stats().frames_duplicated,
            segment.stats().frames_carried + segment.stats().frames_lost);
}

TEST(SegmentTest, TeardownWithFramesInFlightReleasesThem) {
  // The segment owns the frames on its wire: destroying it with deliveries
  // pending frees them (ASan sees any leak), and the simulator then drops
  // the pending events without running them.
  const Frame sent = MakeFrame(2, 1, 64);
  pfsim::Simulator sim;
  {
    EthernetSegment segment(&sim, LinkType::kExperimental3Mb);
    TestStation a(MacAddr::Experimental(1));
    TestStation b(MacAddr::Experimental(2));
    segment.Attach(&a);
    segment.Attach(&b);
    pflink::ImpairmentConfig config;
    config.reorder = 0.5;
    config.duplicate = 0.5;
    segment.SetImpairments(config);
    for (int i = 0; i < 50; ++i) {
      segment.Transmit(&a, sent);
    }
    sim.RunFor(pfsim::Milliseconds(3));
    ASSERT_GT(b.raw.size(), 0u);          // some delivered,
    ASSERT_GT(sim.pending_events(), 0u);  // some still on the wire
    // Every carried copy shares the block: parked on the wire or kept by b.
    EXPECT_EQ(sent.bytes.refcount(), 1 + segment.stats().frames_carried);
  }
  EXPECT_EQ(sent.bytes.refcount(), 1u);
  EXPECT_GT(sim.pending_events(), 0u);
}

TEST(SegmentTest, DetachStopsDelivery) {
  pfsim::Simulator sim;
  EthernetSegment segment(&sim, LinkType::kExperimental3Mb);
  TestStation a(MacAddr::Experimental(1));
  TestStation b(MacAddr::Experimental(2));
  segment.Attach(&a);
  segment.Attach(&b);
  segment.Detach(&b);
  segment.Transmit(&a, MakeFrame(2, 1));
  sim.Run();
  EXPECT_TRUE(b.frames.empty());
}

}  // namespace

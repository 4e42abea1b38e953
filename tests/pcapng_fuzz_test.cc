// Truncated and corrupted input for pcapng::Walk, the block walker behind
// examples/pcapng_verify, starting from a capture the tap plane writes
// (src/pf/tap.h: three stages, named interfaces, a snaplen, flow-signature
// comments).
//
// * Every prefix of the capture is walked: it is accepted exactly when it
//   ends on a block boundary past the section header, else rejected.
// * Seeded mutations (bit flips, 32-bit overwrites with boundary lengths,
//   inserted, deleted and duplicated ranges, truncations) must be accepted
//   or rejected cleanly. A damaged section header magic, version or first
//   block type must be rejected.
//
// Each input is walked from a heap buffer of exactly its size, so under
// ASan+UBSan a read past the end is a failure on its own. The first seed
// always runs; further seeds run while the budget lasts
// (PF_PCAPNG_FUZZ_SECONDS, default 1). A failure names its seed;
// PF_PCAPNG_FUZZ_SEED=N PF_PCAPNG_FUZZ_SECONDS=0 replays exactly that seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "examples/pcapng_walk.h"
#include "src/net/pup_endpoint.h"
#include "src/pf/demux.h"
#include "src/pf/tap.h"
#include "src/util/rng.h"
#include "tests/test_packets.h"

namespace {

using Bytes = std::vector<uint8_t>;
using pfutil::Rng;

constexpr int kCasesPerSeed = 200;

Bytes TapCapture() {
  pf::PacketFilter filter;
  pf::TapSet taps;
  filter.AttachTaps(&taps);
  const pf::PortId port = filter.OpenPort();
  EXPECT_TRUE(filter.SetFilter(port, pfnet::MakePupSocketFilter(35, 10)).ok);
  filter.SetQueueLimit(port, 2);
  pf::TapConfig in;
  in.stage = pf::TapStage::kDemuxIn;
  in.name = "all";
  pf::TapConfig deliver;
  deliver.stage = pf::TapStage::kDeliver;
  deliver.name = "short";
  deliver.snaplen = 20;
  pf::TapConfig drop;
  drop.stage = pf::TapStage::kDrop;
  drop.name = "drops";
  EXPECT_NE(taps.Attach(std::move(in)), 0);
  EXPECT_NE(taps.Attach(std::move(deliver)), 0);
  EXPECT_NE(taps.Attach(std::move(drop)), 0);
  for (uint8_t i = 0; i < 6; ++i) {
    filter.Demux(pftest::MakePupFrame(8, i % 3 == 0 ? 99 : 35, 2, 1, 8 + i), 100 * (i + 1));
  }
  const auto& buffer = taps.pcapng().buffer();
  return Bytes(buffer.begin(), buffer.end());
}

// Walks `in` from an exact-size heap copy.
bool WalkExact(const Bytes& in, pcapng::Stats* stats, pcapng::Error* error) {
  const std::unique_ptr<uint8_t[]> copy(new uint8_t[in.size()]);
  if (!in.empty()) {
    std::memcpy(copy.get(), in.data(), in.size());
  }
  return pcapng::Walk(std::span<const uint8_t>(copy.get(), in.size()), stats, error);
}

// The offsets at which the blocks of a well-formed capture end.
std::set<size_t> BlockEnds(const Bytes& capture) {
  std::set<size_t> ends;
  for (size_t at = 0; at + 8 <= capture.size();) {
    uint32_t total;
    std::memcpy(&total, capture.data() + at + 4, sizeof(total));
    at += total;
    ends.insert(at);
  }
  return ends;
}

Bytes Mutate(Rng& rng, Bytes in) {
  const uint64_t edits = rng.Range(1, 3);
  for (uint64_t e = 0; e < edits && !in.empty(); ++e) {
    const size_t n = in.size();
    const size_t at = rng.Below(n);
    switch (rng.Below(6)) {
      case 0:
        in[at] ^= static_cast<uint8_t>(1u << rng.Below(8));
        break;
      case 1: {  // a length-sized word, at an aligned offset
        static constexpr uint32_t kWords[] = {0, 4, 8, 12, 16, 28, 32, 0x7FFFFFFC, 0xFFFFFFFC,
                                              0xFFFFFFFF};
        const size_t word = at & ~size_t{3};
        if (word + 4 <= n) {
          const uint32_t v = rng.Chance(0.5) ? kWords[rng.Below(std::size(kWords))]
                                             : static_cast<uint32_t>(rng.Next());
          std::memcpy(in.data() + word, &v, sizeof(v));
        }
        break;
      }
      case 2:
        in.resize(at);
        break;
      case 3:
        in.insert(in.begin() + static_cast<std::ptrdiff_t>(at), rng.Range(1, 8), rng.NextU8());
        break;
      case 4:
        in.erase(in.begin() + static_cast<std::ptrdiff_t>(at),
                 in.begin() + static_cast<std::ptrdiff_t>(std::min(n, at + rng.Range(1, 8))));
        break;
      default: {
        const size_t len = std::min<size_t>(n - at, rng.Range(1, 64));
        const Bytes range(in.begin() + static_cast<std::ptrdiff_t>(at),
                          in.begin() + static_cast<std::ptrdiff_t>(at + len));
        in.insert(in.begin() + static_cast<std::ptrdiff_t>(rng.Below(n + 1)), range.begin(),
                  range.end());
        break;
      }
    }
  }
  return in;
}

TEST(PcapngFuzzTest, TapCaptureIsWellFormed) {
  const Bytes capture = TapCapture();
  pcapng::Stats stats;
  pcapng::Error error;
  ASSERT_TRUE(WalkExact(capture, &stats, &error)) << error.offset << ": " << error.what;
  EXPECT_EQ(stats.shb, 1u);
  EXPECT_EQ(stats.idb, 3u);
  // demux-in: all 6; deliver: 2 (queue limit); drop: 2 unclaimed + 2 overflow.
  EXPECT_EQ(stats.epb, 12u);
  EXPECT_EQ(stats.other, 0u);
  ASSERT_EQ(stats.interface_names.size(), 3u);
  EXPECT_NE(stats.interface_names[1].find("short"), std::string::npos);
  ASSERT_FALSE(stats.comments.empty());
  EXPECT_NE(stats.comments[0].find("sig=0x"), std::string::npos);
}

TEST(PcapngFuzzTest, EveryTruncationOffABlockBoundaryIsRejected) {
  const Bytes capture = TapCapture();
  const std::set<size_t> ends = BlockEnds(capture);
  ASSERT_EQ(*ends.rbegin(), capture.size());
  const size_t shb_end = *ends.begin();
  for (size_t len = 0; len < capture.size(); ++len) {
    const Bytes prefix(capture.begin(), capture.begin() + static_cast<std::ptrdiff_t>(len));
    pcapng::Stats stats;
    pcapng::Error error;
    const bool ok = WalkExact(prefix, &stats, &error);
    EXPECT_EQ(ok, len >= shb_end && ends.count(len) == 1) << "prefix of " << len << " bytes";
    if (!ok) {
      EXPECT_NE(error.what, nullptr);
      EXPECT_LE(error.offset, len);
    }
  }
}

TEST(PcapngFuzzTest, CorruptedCapturesFailCleanly) {
  const Bytes capture = TapCapture();
  const char* seconds_env = std::getenv("PF_PCAPNG_FUZZ_SECONDS");
  const char* seed_env = std::getenv("PF_PCAPNG_FUZZ_SEED");
  const double budget_s = seconds_env != nullptr ? std::atof(seconds_env) : 1.0;
  const uint64_t first_seed = seed_env != nullptr ? std::strtoull(seed_env, nullptr, 10) : 1;
  const auto start = std::chrono::steady_clock::now();
  const auto elapsed_s = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  };
  uint64_t seed = first_seed;
  uint64_t accepted = 0;
  uint64_t rejected = 0;
  do {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    for (int i = 0; i < kCasesPerSeed; ++i) {
      const Bytes input = Mutate(rng, capture);
      pcapng::Stats stats;
      pcapng::Error error;
      if (WalkExact(input, &stats, &error)) {
        ++accepted;
        EXPECT_GE(stats.shb, 1u);
        // The first block type, byte-order magic and version are checked.
        EXPECT_EQ(std::memcmp(input.data(), capture.data(), 4), 0) << "accepted a damaged SHB";
        EXPECT_EQ(std::memcmp(input.data() + 8, capture.data() + 8, 8), 0)
            << "accepted a damaged SHB";
      } else {
        ++rejected;
        ASSERT_NE(error.what, nullptr);
        EXPECT_LE(error.offset, input.size());
      }
      if (::testing::Test::HasFailure()) {
        return;
      }
    }
    ++seed;
  } while (elapsed_s() < budget_s);
  // Non-vacuity: the mutations reach both outcomes.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
  ::testing::Test::RecordProperty("seeds", static_cast<int>(seed - first_seed));
}

}  // namespace

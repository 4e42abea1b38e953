// Decision-tree compiler tests (§7): conjunction extraction, tree matching,
// and the equivalence property — tree-enabled demux must deliver exactly
// like sequential demux on random filter sets and packets.
#include <gtest/gtest.h>

#include <map>

#include "src/pf/builder.h"
#include "src/pf/decision_tree.h"
#include "src/pf/demux.h"
#include "src/util/rng.h"
#include "tests/test_packets.h"

namespace {

using pf::BinaryOp;
using pf::DecisionTree;
using pf::FieldTest;
using pf::FilterBuilder;
using pf::PacketFilter;
using pf::Program;

TEST(ExtractConjunctionTest, ExtractsFig39Shape) {
  const auto tests = pf::ExtractConjunction(pf::PaperFig39Filter());
  ASSERT_TRUE(tests.has_value());
  ASSERT_EQ(tests->size(), 3u);
  EXPECT_EQ((*tests)[0], (FieldTest{8, 0xffff, 35}));
  EXPECT_EQ((*tests)[1], (FieldTest{7, 0xffff, 0}));
  EXPECT_EQ((*tests)[2], (FieldTest{1, 0xffff, 2}));
}

TEST(ExtractConjunctionTest, ExtractsMaskedTests) {
  FilterBuilder b;
  b.MaskedWordEqualsShortCircuit(3, 0x00ff, 8).WordEquals(1, 2);
  const auto tests = pf::ExtractConjunction(b.Build(10));
  ASSERT_TRUE(tests.has_value());
  EXPECT_EQ((*tests)[0], (FieldTest{3, 0x00ff, 8}));
}

TEST(ExtractConjunctionTest, ExtractsLiteralMask) {
  FilterBuilder b;
  b.MaskedWordEquals(4, 0x0f0f, 0x0502);
  const auto tests = pf::ExtractConjunction(b.Build(10));
  ASSERT_TRUE(tests.has_value());
  EXPECT_EQ((*tests)[0], (FieldTest{4, 0x0f0f, 0x0502}));
}

TEST(ExtractConjunctionTest, EmptyProgramIsMatchAll) {
  const auto tests = pf::ExtractConjunction(Program{});
  ASSERT_TRUE(tests.has_value());
  EXPECT_TRUE(tests->empty());
}

TEST(ExtractConjunctionTest, RejectsRangeFilters) {
  // Fig. 3-8 contains GT/LE — not a pure conjunction of equalities.
  EXPECT_FALSE(pf::ExtractConjunction(pf::PaperFig38Filter()).has_value());
}

TEST(ExtractConjunctionTest, RejectsOrCombinations) {
  FilterBuilder b;
  b.PushWord(1).Lit(BinaryOp::kEq, 2).PushWord(1).Lit(BinaryOp::kEq, 3).Op(BinaryOp::kOr);
  EXPECT_FALSE(pf::ExtractConjunction(b.Build(10)).has_value());
}

TEST(ExtractConjunctionTest, RejectsTrailingNonConjunctionSuffix) {
  // A valid conjunction unit followed by instructions outside the shape.
  FilterBuilder b;
  b.WordEqualsShortCircuit(1, 2).PushOne();
  EXPECT_FALSE(pf::ExtractConjunction(b.Build(10)).has_value());

  // A unit cut off mid-way: PUSHWORD with no comparison at all.
  FilterBuilder truncated;
  truncated.WordEqualsShortCircuit(1, 2).PushWord(3);
  EXPECT_FALSE(pf::ExtractConjunction(truncated.Build(10)).has_value());

  // A mask with its comparison missing.
  FilterBuilder masked;
  masked.PushWord(3).ConstOp(pf::StackAction::kPush00FF, BinaryOp::kAnd);
  EXPECT_FALSE(pf::ExtractConjunction(masked.Build(10)).has_value());
}

TEST(ExtractConjunctionTest, AcceptsPushZeroIdioms) {
  // fig. 3-9 tests the high socket word against zero with PUSHZERO|CAND;
  // PUSHZERO|EQ and PUSHONE|CAND are the same idiom.
  FilterBuilder b;
  b.PushWord(7).ZeroOp(BinaryOp::kCand).WordEquals(1, 2);
  const auto tests = pf::ExtractConjunction(b.Build(10));
  ASSERT_TRUE(tests.has_value());
  EXPECT_EQ((*tests)[0], (FieldTest{7, 0xffff, 0}));

  FilterBuilder final_zero;
  final_zero.PushWord(7).ZeroOp(BinaryOp::kEq);
  const auto final_tests = pf::ExtractConjunction(final_zero.Build(10));
  ASSERT_TRUE(final_tests.has_value());
  EXPECT_EQ((*final_tests)[0], (FieldTest{7, 0xffff, 0}));

  FilterBuilder one;
  one.PushWord(4).ConstOp(pf::StackAction::kPushOne, BinaryOp::kCand).WordEquals(1, 2);
  const auto one_tests = pf::ExtractConjunction(one.Build(10));
  ASSERT_TRUE(one_tests.has_value());
  EXPECT_EQ((*one_tests)[0], (FieldTest{4, 0xffff, 1}));
}

TEST(ExtractConjunctionTest, MaskMustPrecedeComparison) {
  // Canonical order: PUSHWORD, mask|AND, literal|compare.
  FilterBuilder canonical;
  canonical.PushWord(3).ConstOp(pf::StackAction::kPush00FF, BinaryOp::kAnd).Lit(BinaryOp::kCand, 8);
  EXPECT_TRUE(pf::ExtractConjunction(canonical.Build(10)).has_value());

  // The mask arriving after the comparison is not the conjunction shape
  // (it is also a different predicate).
  FilterBuilder reversed;
  reversed.PushWord(3).Lit(BinaryOp::kEq, 8).ConstOp(pf::StackAction::kPush00FF, BinaryOp::kAnd);
  EXPECT_FALSE(pf::ExtractConjunction(reversed.Build(10)).has_value());

  // Two masks in a row never match the single optional mask slot.
  FilterBuilder doubled;
  doubled.PushWord(3)
      .ConstOp(pf::StackAction::kPush00FF, BinaryOp::kAnd)
      .Lit(BinaryOp::kAnd, 0x000f)
      .Lit(BinaryOp::kEq, 8);
  EXPECT_FALSE(pf::ExtractConjunction(doubled.Build(10)).has_value());
}

TEST(DecisionTreeTest, MatchesByValuePartition) {
  DecisionTree tree;
  tree.Build({{1, {FieldTest{1, 0xffff, 2}, FieldTest{8, 0xffff, 35}}},
              {2, {FieldTest{1, 0xffff, 2}, FieldTest{8, 0xffff, 36}}},
              {3, {FieldTest{1, 0xffff, 0x800}}}});
  std::vector<uint32_t> out;
  tree.Match(pftest::MakePupFrame(8, 35), &out);
  EXPECT_EQ(out, std::vector<uint32_t>{1});
  out.clear();
  tree.Match(pftest::MakePupFrame(8, 36), &out);
  EXPECT_EQ(out, std::vector<uint32_t>{2});
  out.clear();
  tree.Match(pftest::MakePupFrame(8, 99), &out);
  EXPECT_TRUE(out.empty());
}

TEST(DecisionTreeTest, SharedTestProbedOnce) {
  // 8 filters share the EtherType test; the tree should need far fewer
  // probes than 8 sequential filter runs.
  std::vector<std::pair<uint32_t, std::vector<FieldTest>>> filters;
  for (uint32_t socket = 1; socket <= 8; ++socket) {
    filters.emplace_back(socket, std::vector<FieldTest>{FieldTest{1, 0xffff, 2},
                                                        FieldTest{8, 0xffff, socket}});
  }
  DecisionTree tree;
  tree.Build(std::move(filters));
  std::vector<uint32_t> out;
  uint32_t probes = 0;
  tree.Match(pftest::MakePupFrame(8, 5), &out, &probes);
  EXPECT_EQ(out, std::vector<uint32_t>{5});
  EXPECT_LE(probes, 3u);
}

TEST(DecisionTreeTest, MatchAllFilterAlwaysMatches) {
  DecisionTree tree;
  tree.Build({{7, {}}, {8, {FieldTest{1, 0xffff, 0x9999}}}});
  std::vector<uint32_t> out;
  tree.Match(pftest::MakePupFrame(8, 35), &out);
  EXPECT_EQ(out, std::vector<uint32_t>{7});
}

TEST(DecisionTreeTest, ShortPacketFailsTests) {
  DecisionTree tree;
  tree.Build({{1, {FieldTest{30, 0xffff, 0}}}});
  std::vector<uint32_t> out;
  const std::vector<uint8_t> tiny(8, 0);
  tree.Match(tiny, &out);
  EXPECT_TRUE(out.empty());
}

// --- Equivalence property against the sequential demultiplexer ---

Program RandomConjunctionFilter(pfutil::Rng* rng, uint8_t priority) {
  FilterBuilder b;
  const int tests = static_cast<int>(rng->Range(1, 3));
  for (int i = 0; i < tests; ++i) {
    const uint8_t word = static_cast<uint8_t>(rng->Range(1, 10));
    const uint16_t value = static_cast<uint16_t>(rng->Below(4));  // small: collisions likely
    const bool last = i == tests - 1;
    if (rng->Chance(0.3)) {
      const uint16_t mask = rng->Chance(0.5) ? 0x00ff : 0xff00;
      if (last) {
        b.MaskedWordEquals(word, mask, value);
      } else {
        b.MaskedWordEqualsShortCircuit(word, mask, value);
      }
    } else if (last) {
      b.WordEquals(word, value);
    } else {
      b.WordEqualsShortCircuit(word, value);
    }
  }
  return b.Build(priority);
}

TEST(DecisionTreeProperty, TreeDemuxEquivalentToSequential) {
  pfutil::Rng rng(0x7ee5eed);
  for (int trial = 0; trial < 60; ++trial) {
    PacketFilter sequential;
    PacketFilter tree;
    tree.SetStrategy(pf::Strategy::kTree);

    const size_t n_ports = rng.Range(1, 12);
    std::vector<pf::PortId> seq_ports;
    std::vector<pf::PortId> tree_ports;
    for (size_t i = 0; i < n_ports; ++i) {
      const uint8_t priority = static_cast<uint8_t>(rng.Below(4));
      Program program;
      if (rng.Chance(0.2)) {
        program = pf::PaperFig38Filter(priority);  // not tree-eligible: fallback path
      } else {
        program = RandomConjunctionFilter(&rng, priority);
      }
      const pf::PortId sp = sequential.OpenPort();
      const pf::PortId tp = tree.OpenPort();
      ASSERT_TRUE(sequential.SetFilter(sp, program).ok);
      ASSERT_TRUE(tree.SetFilter(tp, program).ok);
      if (rng.Chance(0.25)) {
        sequential.SetDeliverToLower(sp, true);
        tree.SetDeliverToLower(tp, true);
      }
      seq_ports.push_back(sp);
      tree_ports.push_back(tp);
    }

    for (int p = 0; p < 40; ++p) {
      // Random small words maximize accidental matches.
      std::vector<uint8_t> packet;
      const size_t words = rng.Range(4, 14);
      for (size_t w = 0; w < words; ++w) {
        packet.push_back(0);
        packet.push_back(static_cast<uint8_t>(rng.Below(4)));
      }
      sequential.Demux(packet);
      tree.Demux(packet);
    }

    for (size_t i = 0; i < n_ports; ++i) {
      const auto seq_packets = sequential.PopBatch(seq_ports[i]);
      const auto tree_packets = tree.PopBatch(tree_ports[i]);
      ASSERT_EQ(seq_packets.size(), tree_packets.size())
          << "trial " << trial << " port " << i;
      for (size_t k = 0; k < seq_packets.size(); ++k) {
        EXPECT_EQ(seq_packets[k].bytes, tree_packets[k].bytes);
      }
    }
  }
}

TEST(DecisionTreeDemuxTest, RebuildsAfterFilterChange) {
  PacketFilter filter;
  filter.SetStrategy(pf::Strategy::kTree);
  const pf::PortId port = filter.OpenPort();
  FilterBuilder b1;
  b1.WordEquals(1, 2);
  ASSERT_TRUE(filter.SetFilter(port, b1.Build(10)).ok);
  filter.Demux(pftest::MakePupFrame(8, 35));
  EXPECT_EQ(filter.QueueLength(port), 1u);
  EXPECT_TRUE(filter.engine().tree_in_use());

  FilterBuilder b2;
  b2.WordEquals(1, 0x800);  // now matches IP, not Pup
  ASSERT_TRUE(filter.SetFilter(port, b2.Build(10)).ok);
  filter.Demux(pftest::MakePupFrame(8, 35));
  EXPECT_EQ(filter.QueueLength(port), 1u);  // unchanged
}

// A frame too short to load the tree's words takes the sequential pass, as
// under kIndexed: fig. 3-9 reads word 8 first, so on a 10-byte Pup frame it
// stops with kOutOfPacket and the unclaimed frame is a short_packet drop —
// exactly what kChecked reports — not a clean no_match from the tree.
TEST(DecisionTreeDemuxTest, ShortFrameTakesTheSequentialPassLikeChecked) {
  PacketFilter checked;
  PacketFilter tree;
  checked.SetStrategy(pf::Strategy::kChecked);
  tree.SetStrategy(pf::Strategy::kTree);
  const pf::PortId checked_port = checked.OpenPort();
  const pf::PortId tree_port = tree.OpenPort();
  ASSERT_TRUE(checked.SetFilter(checked_port, pf::PaperFig39Filter()).ok);
  ASSERT_TRUE(tree.SetFilter(tree_port, pf::PaperFig39Filter()).ok);

  std::vector<uint8_t> runt = pftest::MakePupFrame(8, 35);
  runt.resize(10);
  const pf::DemuxResult want = checked.Demux(runt);
  const pf::DemuxResult got = tree.Demux(runt);
  EXPECT_FALSE(got.accepted);
  EXPECT_EQ(got.exec.tree_probes, 0u);  // no walk: the filter ran
  EXPECT_EQ(got.exec.filters_run, 1u);
  EXPECT_EQ(tree.Stats(tree_port)->filter_errors, checked.Stats(checked_port)->filter_errors);
  EXPECT_EQ(tree.Stats(tree_port)->filter_errors, 1u);
  const auto short_packet = static_cast<size_t>(pf::DropReason::kShortPacket);
  EXPECT_EQ(tree.global_stats().drops_by_reason, checked.global_stats().drops_by_reason);
  EXPECT_EQ(tree.global_stats().drops_by_reason[short_packet], 1u);
  EXPECT_EQ(want.exec.filters_run, 1u);

  // A full frame is still answered by the walk alone.
  const pf::DemuxResult full = tree.Demux(pftest::MakePupFrame(8, 35));
  EXPECT_TRUE(full.accepted);
  EXPECT_GT(full.exec.tree_probes, 0u);
  EXPECT_EQ(full.exec.filters_run, 0u);
}

}  // namespace

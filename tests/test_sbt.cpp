#include "cube/sbt.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <set>

namespace hkws::cube {
namespace {

// Binomial coefficient for small arguments.
std::uint64_t choose(int n, int k) {
  if (k < 0 || k > n) return 0;
  std::uint64_t r = 1;
  for (int i = 1; i <= k; ++i)
    r = r * static_cast<std::uint64_t>(n - k + i) /
        static_cast<std::uint64_t>(i);
  return r;
}

TEST(Sbt, RejectsInvalidConstruction) {
  Hypercube h(4);
  EXPECT_THROW(SpanningBinomialTree(h, 0x10), std::invalid_argument);
  EXPECT_THROW(SpanningBinomialTree(0b0100, 0b0110), std::invalid_argument);
}

TEST(Sbt, RootHasNoParentAndAllFreeDimsAsChildren) {
  Hypercube h(4);
  SpanningBinomialTree sbt(h, 0b0100);
  EXPECT_FALSE(sbt.parent(0b0100).has_value());
  // Def. 3.2, p = -1 case: children flip every free dimension.
  EXPECT_EQ(sbt.children(0b0100),
            (std::vector<CubeId>{0b0101, 0b0110, 0b1100}));
}

TEST(Sbt, PaperFigure4Structure) {
  // SBT_{H_4}(0100): check a few parent/child relations visible in Fig. 4.
  Hypercube h(4);
  SpanningBinomialTree sbt(h, 0b0100);
  EXPECT_EQ(*sbt.parent(0b0101), 0b0100u);
  EXPECT_EQ(*sbt.parent(0b0110), 0b0100u);
  EXPECT_EQ(*sbt.parent(0b1100), 0b0100u);
  EXPECT_EQ(*sbt.parent(0b0111), 0b0110u);
  EXPECT_EQ(*sbt.parent(0b1101), 0b1100u);
  EXPECT_EQ(*sbt.parent(0b1110), 0b1100u);
  EXPECT_EQ(*sbt.parent(0b1111), 0b1110u);
  // 1110's children flip free dims below its lowest differing bit (bit 1):
  // only dim 0.
  EXPECT_EQ(sbt.children(0b1110), (std::vector<CubeId>{0b1111}));
  // Leaf: 0101 (lowest differing bit 0) has no children.
  EXPECT_TRUE(sbt.children(0b0101).empty());
}

TEST(Sbt, DepthEqualsHammingDistance) {
  Hypercube h(6);
  SpanningBinomialTree sbt(h, 0b000100);
  for (CubeId w : sbt.bfs_order())
    EXPECT_EQ(sbt.depth(w), Hypercube::hamming(w, 0b000100));
}

TEST(Sbt, BfsOrderVisitsEachMemberOnceInDepthOrder) {
  Hypercube h(5);
  SpanningBinomialTree sbt(h, 0b00010);
  const auto order = sbt.bfs_order();
  EXPECT_EQ(order.size(), sbt.size());
  std::set<CubeId> seen(order.begin(), order.end());
  EXPECT_EQ(seen.size(), order.size());
  for (std::size_t i = 1; i < order.size(); ++i)
    EXPECT_LE(sbt.depth(order[i - 1]), sbt.depth(order[i]));
  // All members are covered.
  for (CubeId w : h.subcube_members(0b00010)) EXPECT_TRUE(seen.contains(w));
}

TEST(Sbt, LevelsHaveBinomialSizes) {
  Hypercube h(6);
  SpanningBinomialTree sbt(h, 0b001000);  // 5 free dims
  const auto levels = sbt.levels();
  ASSERT_EQ(levels.size(), 6u);
  for (int d = 0; d <= 5; ++d)
    EXPECT_EQ(levels[static_cast<std::size_t>(d)].size(), choose(5, d))
        << "depth " << d;
}

TEST(Sbt, BottomUpIsReversedByLevel) {
  Hypercube h(4);
  SpanningBinomialTree sbt(h, 0b0001);
  const auto order = sbt.bottom_up_order();
  EXPECT_EQ(order.size(), sbt.size());
  for (std::size_t i = 1; i < order.size(); ++i)
    EXPECT_GE(sbt.depth(order[i - 1]), sbt.depth(order[i]));
  EXPECT_EQ(order.back(), 0b0001u);  // root last
}

TEST(Sbt, MembershipPredicate) {
  Hypercube h(4);
  SpanningBinomialTree sbt(h, 0b0100);
  EXPECT_TRUE(sbt.is_member(0b0100));
  EXPECT_TRUE(sbt.is_member(0b1111));
  EXPECT_FALSE(sbt.is_member(0b0010));  // does not contain the root
}

TEST(Sbt, FullCubeTreeFromZeroRoot) {
  Hypercube h(3);
  SpanningBinomialTree sbt(h, 0);
  EXPECT_EQ(sbt.size(), 8u);
  const auto order = sbt.bfs_order();
  EXPECT_EQ(order.front(), 0u);
  EXPECT_EQ(std::set<CubeId>(order.begin(), order.end()).size(), 8u);
}

TEST(Sbt, SingletonTreeWhenRootIsFull) {
  Hypercube h(3);
  SpanningBinomialTree sbt(h, 0b111);
  EXPECT_EQ(sbt.size(), 1u);
  EXPECT_EQ(sbt.bfs_order(), (std::vector<CubeId>{0b111}));
  EXPECT_TRUE(sbt.children(0b111).empty());
}

// The search coordinators precompute their visit order from bfs_order() and
// cut it into rounds with levels(), so both must reproduce the paper's live
// queue U exactly: seeded with the root's zero dimensions in ascending
// order, each popped (w, d) appending w | 2^i for every zero position
// i < d of w. Pinned for every root of every cube up to r = 8.
TEST(Sbt, BfsOrderIsTheQueueDiscipline) {
  for (int r = 1; r <= 8; ++r) {
    const Hypercube h(r);
    for (CubeId root = 0; root < h.node_count(); ++root) {
      std::vector<CubeId> expected{root};
      std::deque<std::pair<CubeId, int>> queue;
      for (int i : h.zero_positions(root))
        queue.emplace_back(root | (CubeId{1} << i), i);
      while (!queue.empty()) {
        const auto [w, d] = queue.front();
        queue.pop_front();
        expected.push_back(w);
        for (int i : h.zero_positions(w)) {
          if (i >= d) break;
          queue.emplace_back(w | (CubeId{1} << i), i);
        }
      }
      const SpanningBinomialTree sbt(h, root);
      ASSERT_EQ(sbt.bfs_order(), expected) << "r=" << r << " root=" << root;
    }
  }
}

TEST(Sbt, LevelsCutTheBfsOrderWhereTheDepthChanges) {
  for (int r = 1; r <= 8; ++r) {
    const Hypercube h(r);
    for (CubeId root = 0; root < h.node_count(); ++root) {
      const SpanningBinomialTree sbt(h, root);
      std::vector<std::vector<CubeId>> cut;
      int depth = -1;
      for (CubeId w : sbt.bfs_order()) {
        if (sbt.depth(w) != depth) {
          cut.emplace_back();
          depth = sbt.depth(w);
        }
        cut.back().push_back(w);
      }
      ASSERT_EQ(sbt.levels(), cut) << "r=" << r << " root=" << root;
    }
  }
}

class SbtProperty : public ::testing::TestWithParam<std::pair<int, CubeId>> {};

TEST_P(SbtProperty, ParentChildInverseAndSpanning) {
  const auto [r, root_raw] = GetParam();
  Hypercube h(r);
  const CubeId root = root_raw & h.full_mask();
  SpanningBinomialTree sbt(h, root);

  std::size_t nodes = 0;
  std::map<CubeId, CubeId> parent_of;
  for (CubeId w : sbt.bfs_order()) {
    ++nodes;
    for (CubeId c : sbt.children(w)) {
      EXPECT_TRUE(sbt.is_member(c));
      ASSERT_TRUE(sbt.parent(c).has_value());
      EXPECT_EQ(*sbt.parent(c), w);
      EXPECT_TRUE(parent_of.emplace(c, w).second)
          << "node reached twice: " << c;
      EXPECT_EQ(sbt.depth(c), sbt.depth(w) + 1);
    }
  }
  // Spanning: every member except the root has exactly one parent edge.
  EXPECT_EQ(nodes, sbt.size());
  EXPECT_EQ(parent_of.size(), sbt.size() - 1);
}

INSTANTIATE_TEST_SUITE_P(
    RootsAndDims, SbtProperty,
    ::testing::Values(std::pair{3, CubeId{0}}, std::pair{4, CubeId{0b0100}},
                      std::pair{5, CubeId{0b10001}},
                      std::pair{7, CubeId{0b1010101}},
                      std::pair{10, CubeId{0b11}},
                      std::pair{12, CubeId{0b100000000001}}));

}  // namespace
}  // namespace hkws::cube

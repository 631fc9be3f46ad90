#include "cubenet/hypercup_index.hpp"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <set>

#include "common/rng.hpp"
#include "index/logical_index.hpp"

namespace hkws::cubenet {
namespace {

std::set<ObjectId> ids_of(const std::vector<index::Hit>& hits) {
  std::set<ObjectId> out;
  for (const auto& h : hits) out.insert(h.object);
  return out;
}

struct CupNet {
  sim::EventQueue clock;
  std::unique_ptr<sim::Network> net;
  std::unique_ptr<HyperCupNetwork> cup;
  std::unique_ptr<HyperCupIndex> index;

  explicit CupNet(int r) {
    net = std::make_unique<sim::Network>(clock);
    cup = std::make_unique<HyperCupNetwork>(*net, HyperCupNetwork::Config{r});
    index = std::make_unique<HyperCupIndex>(*cup);
  }

  index::SearchResult superset(cube::CubeId searcher, const KeywordSet& q,
                               std::size_t t = 0) {
    std::optional<index::SearchResult> result;
    index->superset_search(searcher, q, t,
                           [&](const index::SearchResult& r) { result = r; });
    clock.run();
    EXPECT_TRUE(result.has_value());
    return result.value_or(index::SearchResult{});
  }
};

TEST(HyperCupNetwork, RejectsOversizedCube) {
  sim::EventQueue clock;
  sim::Network net(clock);
  EXPECT_THROW(HyperCupNetwork(net, {.r = 21}), std::invalid_argument);
}

TEST(HyperCupNetwork, RouteCostsHammingDistance) {
  CupNet t(6);
  Rng rng(1);
  for (int trial = 0; trial < 100; ++trial) {
    const cube::CubeId a = rng.next_below(64);
    const cube::CubeId b = rng.next_below(64);
    std::optional<int> hops;
    t.cup->route(a, b, "test", 8, [&](int h) { hops = h; });
    t.clock.run();
    ASSERT_TRUE(hops.has_value());
    EXPECT_EQ(*hops, cube::Hypercube::hamming(a, b));
  }
}

TEST(HyperCupNetwork, SelfRouteIsFree) {
  CupNet t(4);
  std::optional<int> hops;
  t.cup->route(5, 5, "test", 8, [&](int h) { hops = h; });
  t.clock.run();
  EXPECT_EQ(*hops, 0);
}

TEST(HyperCupNetwork, SendEdgeRequiresNeighbors) {
  CupNet t(4);
  EXPECT_NO_THROW(t.cup->send_edge(0b0000, 0b0001, "e", 1, [] {}));
  EXPECT_THROW(t.cup->send_edge(0b0000, 0b0011, "e", 1, [] {}),
               std::invalid_argument);
  EXPECT_THROW(t.cup->send_edge(0b0101, 0b0101, "e", 1, [] {}),
               std::invalid_argument);
  t.clock.run();
}

TEST(HyperCupIndex, InsertCostsHammingToResponsibleNode) {
  CupNet t(6);
  const KeywordSet k({"news", "tv"});
  const auto u = t.index->responsible_node(k);
  std::optional<int> hops;
  t.index->insert(0, 1, k, [&](int h) { hops = h; });
  t.clock.run();
  EXPECT_EQ(*hops, cube::Hypercube::hamming(0, u));
  EXPECT_EQ(t.index->table_at(u).exact(k), std::vector<ObjectId>{1});
}

TEST(HyperCupIndex, PinSearchExactMatch) {
  CupNet t(6);
  t.index->insert(0, 1, KeywordSet({"a", "b"}));
  t.index->insert(0, 2, KeywordSet({"a", "b", "c"}));
  t.clock.run();
  std::optional<index::SearchResult> result;
  t.index->pin_search(3, KeywordSet({"a", "b"}),
                      [&](const index::SearchResult& r) { result = r; });
  t.clock.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(ids_of(result->hits), (std::set<ObjectId>{1}));
}

TEST(HyperCupIndex, SupersetMatchesLogicalIndex) {
  CupNet t(8);
  index::LogicalIndex logical({.r = 8});
  Rng rng(2);
  std::map<ObjectId, KeywordSet> objects;
  for (ObjectId id = 1; id <= 200; ++id) {
    std::vector<Keyword> words;
    const int n = 1 + static_cast<int>(rng.next_below(5));
    for (int i = 0; i < n; ++i)
      words.push_back("w" + std::to_string(rng.next_below(30)));
    objects[id] = KeywordSet(std::move(words));
    t.index->insert(rng.next_below(256), id, objects[id]);
    logical.insert(id, objects[id]);
  }
  t.clock.run();

  for (int trial = 0; trial < 25; ++trial) {
    auto it = objects.begin();
    std::advance(it, rng.next_below(objects.size()));
    const KeywordSet query({it->second.words().front()});
    const auto physical = t.superset(rng.next_below(256), query);
    const auto reference = logical.superset_search(query);
    EXPECT_EQ(ids_of(physical.hits), ids_of(reference.hits))
        << query.to_string();
    EXPECT_TRUE(physical.stats.complete);
    // Tree forwarding touches every subcube node, like the reference.
    EXPECT_EQ(physical.stats.nodes_contacted,
              reference.stats.nodes_contacted);
  }
}

TEST(HyperCupIndex, TreeForwardingLatencyIsSubcubeDepth) {
  CupNet t(10);
  t.index->insert(0, 1, KeywordSet({"a", "b"}));
  t.clock.run();
  const KeywordSet query({"a", "b"});
  const auto root = t.index->responsible_node(query);
  const auto result = t.superset(0, query);
  EXPECT_EQ(result.stats.levels,
            static_cast<std::size_t>(t.index->cube().zero_count(root)) + 1);
}

TEST(HyperCupIndex, ThresholdTruncatesAndPrunes) {
  CupNet t(8);
  for (ObjectId o = 1; o <= 60; ++o)
    t.index->insert(0, o, KeywordSet({"pop", "x" + std::to_string(o)}));
  t.clock.run();
  const auto some = t.superset(0, KeywordSet({"pop"}), 5);
  EXPECT_EQ(some.hits.size(), 5u);
  EXPECT_FALSE(some.stats.complete);
  const auto all = t.superset(0, KeywordSet({"pop"}), 0);
  EXPECT_EQ(all.hits.size(), 60u);
  // Credits prune branches: the bounded search sends fewer messages.
  EXPECT_LT(some.stats.messages, all.stats.messages);
}

TEST(HyperCupIndex, RemoveDeletesEntry) {
  CupNet t(6);
  const KeywordSet k({"z"});
  t.index->insert(0, 9, k);
  t.clock.run();
  t.index->remove(0, 9, k);
  t.clock.run();
  EXPECT_TRUE(t.superset(0, k).hits.empty());
}

TEST(HyperCupIndex, CorrectUnderMessageReordering) {
  // The tree-forwarding flood and its convergecast must complete with
  // exact results under arbitrary message reordering.
  sim::EventQueue clock;
  sim::Network net(clock, std::make_unique<sim::UniformLatency>(1, 40), 5);
  HyperCupNetwork cup(net, {.r = 7});
  HyperCupIndex index(cup);
  index::LogicalIndex logical({.r = 7});
  Rng rng(9);
  for (ObjectId id = 1; id <= 150; ++id) {
    std::vector<Keyword> words;
    const int n = 1 + static_cast<int>(rng.next_below(4));
    for (int i = 0; i < n; ++i)
      words.push_back("w" + std::to_string(rng.next_below(25)));
    const KeywordSet k(words);
    index.insert(rng.next_below(128), id, k);
    logical.insert(id, k);
  }
  clock.run();

  for (int trial = 0; trial < 10; ++trial) {
    const KeywordSet query({"w" + std::to_string(rng.next_below(25))});
    std::optional<index::SearchResult> result;
    index.superset_search(rng.next_below(128), query, 0,
                          [&](const index::SearchResult& r) { result = r; });
    clock.run();
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(ids_of(result->hits),
              ids_of(logical.superset_search(query).hits))
        << query.to_string();
    EXPECT_TRUE(result->stats.complete);
  }
}

TEST(HyperCupIndex, MessageCountScalesWithSubcubeNotCube) {
  // A query with more keywords explores a smaller subcube and costs fewer
  // messages — the core efficiency claim, on the physical substrate.
  CupNet t(10);
  Rng rng(3);
  for (ObjectId o = 1; o <= 300; ++o) {
    std::vector<Keyword> words{"k1", "k2", "k3"};
    words.push_back("v" + std::to_string(o));
    t.index->insert(rng.next_below(1024), o, KeywordSet(std::move(words)));
  }
  t.clock.run();
  const auto wide = t.superset(0, KeywordSet({"k1"}));
  const auto narrow = t.superset(0, KeywordSet({"k1", "k2", "k3"}));
  EXPECT_EQ(ids_of(wide.hits), ids_of(narrow.hits));
  EXPECT_GT(wide.stats.messages, narrow.stats.messages);
  EXPECT_GT(wide.stats.nodes_contacted, narrow.stats.nodes_contacted);
}

}  // namespace
}  // namespace hkws::cubenet

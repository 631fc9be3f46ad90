#include "index/overlay_index.hpp"

#include "dht/chord_network.hpp"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <set>

#include "common/rng.hpp"
#include "index/logical_index.hpp"
#include "index/service.hpp"

namespace hkws::index {
namespace {

std::set<ObjectId> ids_of(const std::vector<Hit>& hits) {
  std::set<ObjectId> out;
  for (const Hit& h : hits) out.insert(h.object);
  return out;
}

struct OverlayNet {
  sim::EventQueue clock;
  std::unique_ptr<sim::Network> net;
  std::unique_ptr<dht::ChordNetwork> dht;
  std::unique_ptr<dht::Dolr> dolr;
  std::unique_ptr<OverlayIndex> index;
  std::size_t peers;

  explicit OverlayNet(std::size_t n, OverlayIndex::Config cfg = {.r = 6})
      : peers(n) {
    net = std::make_unique<sim::Network>(clock);
    dht = std::make_unique<dht::ChordNetwork>(
        dht::ChordNetwork::build(*net, n, {}));
    dolr = std::make_unique<dht::Dolr>(*dht);
    index = std::make_unique<OverlayIndex>(*dolr, cfg);
  }

  sim::EndpointId peer(std::size_t i) const {
    return static_cast<sim::EndpointId>(1 + i % peers);
  }

  void publish_all(const std::map<ObjectId, KeywordSet>& objects) {
    std::size_t i = 0;
    for (const auto& [id, k] : objects) index->publish(peer(i++), id, k);
    clock.run();
  }

  SearchResult superset(const KeywordSet& query, std::size_t threshold = 0,
                        SearchStrategy strategy =
                            SearchStrategy::kTopDownSequential) {
    std::optional<SearchResult> result;
    index->superset_search(peer(0), query, threshold, strategy,
                           [&](const SearchResult& r) { result = r; });
    clock.run();
    EXPECT_TRUE(result.has_value());
    return result.value_or(SearchResult{});
  }
};

std::map<ObjectId, KeywordSet> random_objects(std::size_t n, std::size_t vocab,
                                              std::uint64_t seed) {
  std::map<ObjectId, KeywordSet> out;
  Rng rng(seed);
  for (ObjectId id = 1; id <= n; ++id) {
    std::vector<Keyword> words;
    const int size = 1 + static_cast<int>(rng.next_below(5));
    for (int i = 0; i < size; ++i)
      words.push_back("w" + std::to_string(rng.next_below(vocab)));
    out[id] = KeywordSet(std::move(words));
  }
  return out;
}

TEST(OverlayIndex, PublishFirstCopyCreatesIndexEntry) {
  OverlayNet t(16);
  const KeywordSet k({"isp", "network"});
  std::optional<OverlayIndex::PublishResult> result;
  t.index->publish(1, 42, k, [&](const auto& r) { result = r; });
  t.clock.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->indexed);
  const auto u = t.index->responsible_node(k);
  const IndexTable* table = t.index->table_of(u);
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(table->exact(k), std::vector<ObjectId>{42});
}

TEST(OverlayIndex, SecondCopyDoesNotReindex) {
  OverlayNet t(16);
  const KeywordSet k({"news"});
  t.index->publish(1, 42, k);
  t.clock.run();
  std::optional<OverlayIndex::PublishResult> result;
  t.index->publish(2, 42, k, [&](const auto& r) { result = r; });
  t.clock.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->indexed);
  const IndexTable* table = t.index->table_of(t.index->responsible_node(k));
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(table->object_count(), 1u);
}

TEST(OverlayIndex, WithdrawLastCopyRemovesEntry) {
  OverlayNet t(16);
  const KeywordSet k({"tv", "news"});
  t.index->publish(1, 7, k);
  t.index->publish(2, 7, k);
  t.clock.run();
  std::optional<OverlayIndex::WithdrawResult> w1, w2;
  t.index->withdraw(1, 7, k, [&](const auto& r) { w1 = r; });
  t.clock.run();
  EXPECT_FALSE(w1->index_removed);
  t.index->withdraw(2, 7, k, [&](const auto& r) { w2 = r; });
  t.clock.run();
  EXPECT_TRUE(w2->index_removed);
  const IndexTable* table = t.index->table_of(t.index->responsible_node(k));
  EXPECT_TRUE(table == nullptr || table->exact(k).empty());
}

TEST(OverlayIndex, PublishRejectsEmptyKeywords) {
  OverlayNet t(4);
  EXPECT_THROW(t.index->publish(1, 1, KeywordSet{}), std::invalid_argument);
}

TEST(OverlayIndex, PinSearchFindsExactSet) {
  OverlayNet t(16);
  t.index->publish(1, 1, KeywordSet({"a", "b"}));
  t.index->publish(2, 2, KeywordSet({"a", "b", "c"}));
  t.clock.run();
  std::optional<SearchResult> result;
  t.index->pin_search(3, KeywordSet({"a", "b"}),
                      [&](const SearchResult& r) { result = r; });
  t.clock.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(ids_of(result->hits), (std::set<ObjectId>{1}));
  EXPECT_EQ(result->stats.nodes_contacted, 1u);
  EXPECT_TRUE(result->stats.complete);
}

TEST(OverlayIndex, SupersetAgreesWithLogicalIndex) {
  const OverlayIndex::Config cfg{.r = 6};
  OverlayNet t(24, cfg);
  LogicalIndex logical({.r = cfg.r, .hash_seed = cfg.hash_seed});
  const auto objects = random_objects(150, 25, 21);
  t.publish_all(objects);
  for (const auto& [id, k] : objects) logical.insert(id, k);

  Rng rng(22);
  for (int trial = 0; trial < 25; ++trial) {
    auto it = objects.begin();
    std::advance(it, rng.next_below(objects.size()));
    const KeywordSet query({it->second.words().front()});
    const auto overlay_result = t.superset(query);
    const auto logical_result = logical.superset_search(query);
    EXPECT_EQ(ids_of(overlay_result.hits), ids_of(logical_result.hits))
        << query.to_string();
    EXPECT_EQ(overlay_result.stats.nodes_contacted,
              logical_result.stats.nodes_contacted);
    EXPECT_TRUE(overlay_result.stats.complete);
  }
}

TEST(OverlayIndex, AllStrategiesAgreeOnHitSets) {
  OverlayNet t(16, {.r = 6});
  const auto objects = random_objects(100, 15, 23);
  t.publish_all(objects);
  const KeywordSet query({objects.begin()->second.words().front()});
  const auto td = t.superset(query, 0, SearchStrategy::kTopDownSequential);
  const auto bu = t.superset(query, 0, SearchStrategy::kBottomUpSequential);
  const auto lp = t.superset(query, 0, SearchStrategy::kLevelParallel);
  EXPECT_EQ(ids_of(td.hits), ids_of(bu.hits));
  EXPECT_EQ(ids_of(td.hits), ids_of(lp.hits));
  EXPECT_FALSE(td.hits.empty());
}

TEST(OverlayIndex, ThresholdLimitsResults) {
  OverlayNet t(16, {.r = 6});
  std::map<ObjectId, KeywordSet> objects;
  for (ObjectId o = 1; o <= 40; ++o)
    objects[o] = KeywordSet({"pop", "e" + std::to_string(o)});
  t.publish_all(objects);
  const auto result = t.superset(KeywordSet({"pop"}), 10);
  EXPECT_EQ(result.hits.size(), 10u);
  EXPECT_FALSE(result.stats.complete);
  const auto all = t.superset(KeywordSet({"pop"}), 0);
  EXPECT_EQ(all.hits.size(), 40u);
}

TEST(OverlayIndex, QueryCacheServesRepeatsWithFewerContacts) {
  OverlayNet t(16, {.r = 8, .cache_capacity = 64});
  std::map<ObjectId, KeywordSet> objects;
  for (ObjectId o = 1; o <= 20; ++o)
    objects[o] = KeywordSet({"hot", "v" + std::to_string(o % 3)});
  t.publish_all(objects);
  const KeywordSet query({"hot"});
  const auto cold = t.superset(query);
  const auto warm = t.superset(query);
  EXPECT_FALSE(cold.stats.cache_hit);
  EXPECT_TRUE(warm.stats.cache_hit);
  EXPECT_EQ(ids_of(cold.hits), ids_of(warm.hits));
  EXPECT_LT(warm.stats.nodes_contacted, cold.stats.nodes_contacted);
  EXPECT_LT(warm.stats.messages, cold.stats.messages);
}

TEST(OverlayIndex, ContactCachingCutsRoutingCost) {
  OverlayNet t(32, {.r = 6, .cache_capacity = 0});
  const auto objects = random_objects(60, 10, 24);
  t.publish_all(objects);
  const KeywordSet query({objects.begin()->second.words().front()});
  const auto cold = t.superset(query);
  const auto warm = t.superset(query);
  // Same traversal, but resolved contacts replace multi-hop routing.
  EXPECT_EQ(warm.stats.nodes_contacted, cold.stats.nodes_contacted);
  EXPECT_LE(warm.stats.messages, cold.stats.messages);
}

TEST(OverlayIndex, RepairPlacementAfterMembershipChange) {
  OverlayNet t(12, {.r = 6});
  const auto objects = random_objects(80, 12, 25);
  t.publish_all(objects);
  const KeywordSet query({objects.begin()->second.words().front()});
  const auto before = t.superset(query);

  // Grow the ring: ownership of some cube nodes moves to the newcomers.
  for (sim::EndpointId e = 13; e <= 18; ++e) t.dht->join(e, 1);
  for (int round = 0; round < 30; ++round) t.dht->stabilize_all();
  t.index->repair_placement();

  const auto after = t.superset(query);
  EXPECT_EQ(ids_of(before.hits), ids_of(after.hits));
  EXPECT_TRUE(after.stats.complete);
}

TEST(OverlayIndex, PurgeDeadDropsLostEntries) {
  OverlayNet t(8, {.r = 6});
  const auto objects = random_objects(100, 12, 26);
  t.publish_all(objects);
  auto loads_sum = [&] {
    std::size_t total = 0;
    for (std::size_t l : t.index->loads_by_cube_node()) total += l;
    return total;
  };
  const std::size_t before = loads_sum();
  EXPECT_EQ(before, objects.size());
  // Fail a peer abruptly; its index entries are gone (paper fault model).
  t.dht->fail(3);
  for (int round = 0; round < 20; ++round) t.dht->stabilize_all();
  t.index->purge_dead();
  t.index->repair_placement();
  EXPECT_LT(loads_sum(), before);
}

TEST(OverlayIndex, CorrectUnderMessageReordering) {
  // Random per-message latencies reorder deliveries arbitrarily; the
  // protocol's completion rule (done + all result messages received) must
  // still produce exact, complete answers.
  sim::EventQueue clock;
  sim::Network net(clock, std::make_unique<sim::UniformLatency>(1, 50), 99);
  auto dht = dht::ChordNetwork::build(net, 24, {});
  dht::Dolr dolr(dht);
  OverlayIndex index(dolr, {.r = 6});
  LogicalIndex logical({.r = 6});

  const auto objects = random_objects(120, 20, 28);
  std::size_t i = 0;
  for (const auto& [id, k] : objects) {
    index.publish(1 + (i++ % 24), id, k);
    logical.insert(id, k);
  }
  clock.run();

  Rng rng(29);
  for (int trial = 0; trial < 15; ++trial) {
    auto it = objects.begin();
    std::advance(it, rng.next_below(objects.size()));
    const KeywordSet query({it->second.words().front()});
    std::optional<SearchResult> result;
    index.superset_search(1, query, 0,
                          SearchStrategy::kTopDownSequential,
                          [&](const SearchResult& r) { result = r; });
    clock.run();
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(ids_of(result->hits),
              ids_of(logical.superset_search(query).hits))
        << query.to_string();
    EXPECT_TRUE(result->stats.complete);
  }
}

TEST(OverlayIndex, LevelParallelCorrectUnderReordering) {
  sim::EventQueue clock;
  sim::Network net(clock, std::make_unique<sim::UniformLatency>(1, 50), 17);
  auto dht = dht::ChordNetwork::build(net, 16, {});
  dht::Dolr dolr(dht);
  OverlayIndex index(dolr, {.r = 6});
  const auto objects = random_objects(80, 12, 30);
  std::size_t i = 0;
  for (const auto& [id, k] : objects) index.publish(1 + (i++ % 16), id, k);
  clock.run();

  const KeywordSet query({objects.begin()->second.words().front()});
  std::optional<SearchResult> seq, par;
  index.superset_search(1, query, 0, SearchStrategy::kTopDownSequential,
                        [&](const SearchResult& r) { seq = r; });
  clock.run();
  index.superset_search(1, query, 0, SearchStrategy::kLevelParallel,
                        [&](const SearchResult& r) { par = r; });
  clock.run();
  ASSERT_TRUE(seq.has_value());
  ASSERT_TRUE(par.has_value());
  EXPECT_EQ(ids_of(seq->hits), ids_of(par->hits));
}

TEST(OverlayIndex, WithdrawOfUnknownObjectIsHarmless) {
  OverlayNet t(8, {.r = 6});
  std::optional<OverlayIndex::WithdrawResult> result;
  t.index->withdraw(1, 99999, KeywordSet({"ghost"}),
                    [&](const auto& r) { result = r; });
  t.clock.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->index_removed);
}

TEST(OverlayIndex, RepublishWithDifferentKeywordsKeepsFirstEntry) {
  // Keyword sets are immutable per object id in this scheme: a second
  // publish of the same object id is "another copy", so it never creates a
  // second index entry even if the metadata differs. To change metadata,
  // withdraw all copies (deleting the entry) and publish afresh.
  OverlayNet t(16, {.r = 6});
  const KeywordSet original({"music", "mp3"});
  const KeywordSet changed({"video", "avi"});
  t.index->publish(1, 7, original);
  t.clock.run();
  std::optional<OverlayIndex::PublishResult> second;
  t.index->publish(2, 7, changed, [&](const auto& r) { second = r; });
  t.clock.run();
  EXPECT_FALSE(second->indexed);
  EXPECT_FALSE(t.superset(KeywordSet({"music"})).hits.empty());
  EXPECT_TRUE(t.superset(KeywordSet({"video"})).hits.empty());

  // The documented metadata-change flow.
  t.index->withdraw(1, 7, original);
  t.index->withdraw(2, 7, original);
  t.clock.run();
  t.index->publish(2, 7, changed);
  t.clock.run();
  EXPECT_TRUE(t.superset(KeywordSet({"music"})).hits.empty());
  EXPECT_FALSE(t.superset(KeywordSet({"video"})).hits.empty());
}

TEST(OverlayIndexCumulative, BatchesAreDisjointAndExhaustive) {
  OverlayNet t(16, {.r = 6});
  const auto objects = random_objects(150, 18, 31);
  t.publish_all(objects);
  const KeywordSet query({objects.begin()->second.words().front()});

  // Oracle: the one-shot full search.
  const auto full = t.superset(query);
  const auto expected = ids_of(full.hits);
  ASSERT_FALSE(expected.empty());

  const auto session = t.index->open_cumulative(1, query);
  std::set<ObjectId> collected;
  int batches = 0;
  while (!t.index->cumulative_exhausted(session) && batches < 200) {
    std::optional<SearchResult> batch;
    t.index->cumulative_next(session, 4,
                             [&](const SearchResult& r) { batch = r; });
    t.clock.run();
    ASSERT_TRUE(batch.has_value());
    EXPECT_LE(batch->hits.size(), 4u);
    for (const Hit& h : batch->hits)
      EXPECT_TRUE(collected.insert(h.object).second)
          << "duplicate " << h.object;
    ++batches;
    if (batch->hits.empty() && batch->stats.complete) break;
  }
  EXPECT_EQ(collected, expected);
  EXPECT_TRUE(t.index->cumulative_exhausted(session));
  if (expected.size() > 4) EXPECT_GT(batches, 1);
}

TEST(OverlayIndexCumulative, ExhaustedSessionReturnsEmptyComplete) {
  OverlayNet t(8, {.r = 6});
  t.index->publish(1, 1, KeywordSet({"only"}));
  t.clock.run();
  const auto session = t.index->open_cumulative(1, KeywordSet({"only"}));
  std::optional<SearchResult> first, after;
  t.index->cumulative_next(session, 100,
                           [&](const SearchResult& r) { first = r; });
  t.clock.run();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->hits.size(), 1u);
  EXPECT_TRUE(first->stats.complete);
  t.index->cumulative_next(session, 100,
                           [&](const SearchResult& r) { after = r; });
  t.clock.run();
  ASSERT_TRUE(after.has_value());
  EXPECT_TRUE(after->hits.empty());
  EXPECT_TRUE(after->stats.complete);
  EXPECT_EQ(after->stats.messages, 0u);  // answered without network traffic
}

TEST(OverlayIndexCumulative, SecondBatchSkipsRouting) {
  OverlayNet t(24, {.r = 6});
  std::map<ObjectId, KeywordSet> objects;
  for (ObjectId o = 1; o <= 30; ++o)
    objects[o] = KeywordSet({"page", "e" + std::to_string(o)});
  t.publish_all(objects);
  const auto session = t.index->open_cumulative(1, KeywordSet({"page"}));
  std::optional<SearchResult> b1, b2;
  t.index->cumulative_next(session, 5, [&](const SearchResult& r) { b1 = r; });
  t.clock.run();
  t.index->cumulative_next(session, 5, [&](const SearchResult& r) { b2 = r; });
  t.clock.run();
  ASSERT_TRUE(b1 && b2);
  EXPECT_EQ(b1->hits.size(), 5u);
  EXPECT_EQ(b2->hits.size(), 5u);
  // No node prefix is re-visited across pages: two cumulative pages of 5
  // touch at most one node more (a partially-consumed one) than a single
  // one-shot search for 10.
  const auto oneshot = t.superset(KeywordSet({"page"}), 10);
  EXPECT_LE(b1->stats.nodes_contacted + b2->stats.nodes_contacted,
            oneshot.stats.nodes_contacted + 2);
}

TEST(OverlayIndexCumulative, SessionLifecycleErrors) {
  OverlayNet t(8, {.r = 6});
  EXPECT_THROW(t.index->open_cumulative(1, KeywordSet{}),
               std::invalid_argument);
  const auto session = t.index->open_cumulative(1, KeywordSet({"x"}));
  EXPECT_THROW(t.index->cumulative_next(session, 0, [](const auto&) {}),
               std::invalid_argument);
  t.index->close_cumulative(session);
  EXPECT_TRUE(t.index->cumulative_exhausted(session));
  EXPECT_THROW(t.index->cumulative_next(session, 5, [](const auto&) {}),
               std::invalid_argument);
}

// First keyword "k<i>" that h maps to dimension `dim`.
Keyword word_on(const KeywordHasher& h, int dim) {
  for (int i = 0;; ++i) {
    Keyword w = "k" + std::to_string(i);
    if (h.dim_of(w) == dim) return w;
  }
}

// The service's defaults (top-down, 32-record query cache) at r = 4. From
// root 0001 the SBT order ends ..., 1101, 1111, and 1111 is a child of
// 1101: a limit-1 search that stops at 1101 has left it unvisited. It must
// not report or cache a complete traversal, or the following exhaustive
// search is answered from the cache without 1111's object.
TEST(OverlayIndex, ServiceDefaultsStopAtTheLastQueuedNodeIsNotComplete) {
  sim::EventQueue clock;
  sim::Network net(clock);
  dht::ChordNetwork dht = dht::ChordNetwork::build(net, 16, {});
  KeywordSearchService::Options opts;
  opts.r = 4;
  KeywordSearchService service(dht, opts);
  const KeywordHasher& h = service.primary_index().hasher();
  const Keyword a = word_on(h, 0), b = word_on(h, 1), c = word_on(h, 2),
                d = word_on(h, 3);
  service.publish(1, 1, KeywordSet({a, c, d}));     // 1101
  service.publish(2, 2, KeywordSet({a, b, c, d}));  // 1111
  clock.run();
  const KeywordSet query({a});
  ASSERT_EQ(h.responsible_node(query), 0b0001u);

  auto search = [&](std::size_t limit) {
    std::optional<KeywordSearchService::Answer> answer;
    service.search(3, query, {.limit = limit},
                   [&](const KeywordSearchService::Answer& x) { answer = x; });
    clock.run();
    EXPECT_TRUE(answer.has_value());
    return answer.value_or(KeywordSearchService::Answer{});
  };
  const auto limited = search(1);
  EXPECT_EQ(ids_of(limited.hits), (std::set<ObjectId>{1}));
  EXPECT_FALSE(limited.stats.complete);
  const auto all = search(0);
  EXPECT_EQ(ids_of(all.hits), (std::set<ObjectId>{1, 2}));
  EXPECT_TRUE(all.stats.complete);
}

TEST(OverlayIndex, MessagesAreAccountedByKind) {
  OverlayNet t(16, {.r = 6});
  const auto objects = random_objects(30, 8, 27);
  t.publish_all(objects);
  t.superset(KeywordSet({objects.begin()->second.words().front()}));
  const auto& m = t.net->metrics();
  EXPECT_GT(m.counter("msg.dolr.insert"), 0u);
  EXPECT_GT(m.counter("msg.kws.insert"), 0u);
  EXPECT_GT(m.counter("msg.kws.t_query"), 0u);
  EXPECT_GT(m.counter("msg.kws.t_cont"), 0u);
  EXPECT_GT(m.counter("msg.kws.done"), 0u);
}

}  // namespace
}  // namespace hkws::index

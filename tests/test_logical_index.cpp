#include "index/logical_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace hkws::index {
namespace {

// A tiny in-memory corpus plus a brute-force oracle.
struct MiniCorpus {
  std::map<ObjectId, KeywordSet> objects;

  std::set<ObjectId> supersets(const KeywordSet& query) const {
    std::set<ObjectId> out;
    for (const auto& [id, k] : objects)
      if (query.subset_of(k)) out.insert(id);
    return out;
  }
  std::set<ObjectId> exact(const KeywordSet& query) const {
    std::set<ObjectId> out;
    for (const auto& [id, k] : objects)
      if (k == query) out.insert(id);
    return out;
  }
};

MiniCorpus random_corpus(std::size_t n, std::size_t vocab, Rng& rng) {
  MiniCorpus c;
  for (ObjectId id = 1; id <= n; ++id) {
    const int size = 1 + static_cast<int>(rng.next_below(6));
    std::vector<Keyword> words;
    for (int i = 0; i < size; ++i)
      words.push_back("w" + std::to_string(rng.next_below(vocab)));
    c.objects[id] = KeywordSet(std::move(words));
  }
  return c;
}

std::set<ObjectId> ids_of(const std::vector<Hit>& hits) {
  std::set<ObjectId> out;
  for (const Hit& h : hits) out.insert(h.object);
  return out;
}

TEST(LogicalIndex, InsertRejectsEmptySet) {
  LogicalIndex idx({.r = 4});
  EXPECT_THROW(idx.insert(1, KeywordSet{}), std::invalid_argument);
}

TEST(LogicalIndex, RejectsUnmaterializableDimensions) {
  EXPECT_THROW(LogicalIndex({.r = 25}), std::invalid_argument);
  EXPECT_THROW(LogicalIndex({.r = 0}), std::invalid_argument);
}

TEST(LogicalIndex, PinSearchFindsExactSetsOnly) {
  LogicalIndex idx({.r = 8});
  idx.insert(1, KeywordSet({"news", "tv"}));
  idx.insert(2, KeywordSet({"news", "tv"}));
  idx.insert(3, KeywordSet({"news", "tv", "hbo"}));
  const auto result = idx.pin_search(KeywordSet({"news", "tv"}));
  EXPECT_EQ(ids_of(result.hits), (std::set<ObjectId>{1, 2}));
  // Pin search costs one query + one reply (paper §3.5).
  EXPECT_EQ(result.stats.nodes_contacted, 1u);
  EXPECT_EQ(result.stats.messages, 2u);
}

TEST(LogicalIndex, PinSearchMissIsEmpty) {
  LogicalIndex idx({.r = 8});
  idx.insert(1, KeywordSet({"a"}));
  EXPECT_TRUE(idx.pin_search(KeywordSet({"b"})).hits.empty());
}

TEST(LogicalIndex, RemoveDeletesIndexEntry) {
  LogicalIndex idx({.r = 8});
  const KeywordSet k({"x", "y"});
  idx.insert(1, k);
  EXPECT_EQ(idx.object_count(), 1u);
  EXPECT_TRUE(idx.remove(1, k));
  EXPECT_FALSE(idx.remove(1, k));
  EXPECT_EQ(idx.object_count(), 0u);
  EXPECT_TRUE(idx.pin_search(k).hits.empty());
}

TEST(LogicalIndex, ObjectIndexedAtExactlyOneNode) {
  LogicalIndex idx({.r = 10});
  Rng rng(1);
  auto corpus = random_corpus(300, 60, rng);
  for (const auto& [id, k] : corpus.objects) idx.insert(id, k);
  std::size_t total = 0;
  for (std::size_t load : idx.loads()) total += load;
  EXPECT_EQ(total, corpus.objects.size());
}

TEST(LogicalIndex, SupersetSearchMatchesOracle) {
  Rng rng(2);
  LogicalIndex idx({.r = 8});
  auto corpus = random_corpus(400, 40, rng);
  for (const auto& [id, k] : corpus.objects) idx.insert(id, k);

  int nonempty_queries = 0;
  for (int trial = 0; trial < 120; ++trial) {
    // Query = subset of a random object's keywords (likely non-empty result).
    auto it = corpus.objects.begin();
    std::advance(it, rng.next_below(corpus.objects.size()));
    std::vector<Keyword> q;
    for (const auto& w : it->second)
      if (rng.next_bool(0.6)) q.push_back(w);
    if (q.empty()) q.push_back(it->second.words().front());
    const KeywordSet query(q);

    const auto expected = corpus.supersets(query);
    if (!expected.empty()) ++nonempty_queries;
    const auto result = idx.superset_search(query);
    EXPECT_EQ(ids_of(result.hits), expected) << "query " << query.to_string();
    EXPECT_TRUE(result.stats.complete);
  }
  EXPECT_GT(nonempty_queries, 100);
}

TEST(LogicalIndex, AllStrategiesReturnTheSameHitSet) {
  Rng rng(3);
  LogicalIndex idx({.r = 8});
  auto corpus = random_corpus(300, 30, rng);
  for (const auto& [id, k] : corpus.objects) idx.insert(id, k);

  for (int trial = 0; trial < 40; ++trial) {
    auto it = corpus.objects.begin();
    std::advance(it, rng.next_below(corpus.objects.size()));
    const KeywordSet query({it->second.words().front()});
    const auto td =
        idx.superset_search(query, 0, SearchStrategy::kTopDownSequential);
    const auto bu =
        idx.superset_search(query, 0, SearchStrategy::kBottomUpSequential);
    const auto lp =
        idx.superset_search(query, 0, SearchStrategy::kLevelParallel);
    EXPECT_EQ(ids_of(td.hits), ids_of(bu.hits));
    EXPECT_EQ(ids_of(td.hits), ids_of(lp.hits));
    EXPECT_EQ(ids_of(td.hits), corpus.supersets(query));
  }
}

TEST(LogicalIndex, ThresholdBoundsResultCount) {
  Rng rng(4);
  LogicalIndex idx({.r = 6});
  for (ObjectId id = 1; id <= 200; ++id)
    idx.insert(id, KeywordSet({"common", "extra" + std::to_string(id % 37)}));
  const auto result = idx.superset_search(KeywordSet({"common"}), 10);
  EXPECT_EQ(result.hits.size(), 10u);
  EXPECT_FALSE(result.stats.complete);
  // min(t, |O_K|): threshold above the population returns everything.
  const auto all = idx.superset_search(KeywordSet({"common"}), 10000);
  EXPECT_EQ(all.hits.size(), 200u);
  EXPECT_TRUE(all.stats.complete);
}

TEST(LogicalIndex, ThresholdStopsEarlyAndContactsFewerNodes) {
  LogicalIndex idx({.r = 10});
  for (ObjectId id = 1; id <= 500; ++id)
    idx.insert(id, KeywordSet({"popular", "x" + std::to_string(id)}));
  const auto all = idx.superset_search(KeywordSet({"popular"}), 0);
  const auto some = idx.superset_search(KeywordSet({"popular"}), 5);
  EXPECT_LT(some.stats.nodes_contacted, all.stats.nodes_contacted);
  EXPECT_LT(some.stats.messages, all.stats.messages);
}

TEST(LogicalIndex, TopDownYieldsDepthMonotoneHits) {
  // BFS order: the SBT depth of each hit's indexing node never decreases
  // (Lemma 3.2 in action).
  Rng rng(5);
  LogicalIndex idx({.r = 8});
  auto corpus = random_corpus(400, 25, rng);
  for (const auto& [id, k] : corpus.objects) idx.insert(id, k);
  const KeywordSet query({corpus.objects.begin()->second.words().front()});
  const auto root = idx.hasher().responsible_node(query);
  const auto result =
      idx.superset_search(query, 0, SearchStrategy::kTopDownSequential);
  int last_depth = 0;
  for (const Hit& h : result.hits) {
    const auto node = idx.hasher().responsible_node(h.keywords);
    const int depth = cube::Hypercube::hamming(node, root);
    EXPECT_GE(depth, last_depth);
    last_depth = depth;
  }
}

TEST(LogicalIndex, BottomUpYieldsDepthAntitoneHits) {
  Rng rng(6);
  LogicalIndex idx({.r = 8});
  auto corpus = random_corpus(400, 25, rng);
  for (const auto& [id, k] : corpus.objects) idx.insert(id, k);
  const KeywordSet query({corpus.objects.begin()->second.words().front()});
  const auto root = idx.hasher().responsible_node(query);
  const auto result =
      idx.superset_search(query, 0, SearchStrategy::kBottomUpSequential);
  int last_depth = 1 << 20;
  for (const Hit& h : result.hits) {
    const auto node = idx.hasher().responsible_node(h.keywords);
    const int depth = cube::Hypercube::hamming(node, root);
    EXPECT_LE(depth, last_depth);
    last_depth = depth;
  }
}

TEST(LogicalIndex, HitDepthLowerBoundsExtraKeywords) {
  // Lemma 3.2: a hit indexed d levels deep has >= d extra keywords.
  Rng rng(7);
  LogicalIndex idx({.r = 10});
  auto corpus = random_corpus(500, 30, rng);
  for (const auto& [id, k] : corpus.objects) idx.insert(id, k);
  const KeywordSet query({corpus.objects.begin()->second.words().front()});
  const auto root = idx.hasher().responsible_node(query);
  for (const Hit& h : idx.superset_search(query).hits) {
    const int depth = cube::Hypercube::hamming(
        idx.hasher().responsible_node(h.keywords), root);
    EXPECT_GE(static_cast<int>(h.keywords.size() - query.size()), depth);
  }
}

TEST(LogicalIndex, SupersetSearchCostBoundedBySubcube) {
  LogicalIndex idx({.r = 10});
  idx.insert(1, KeywordSet({"a", "b", "c"}));
  const KeywordSet query({"a", "b"});
  const auto root = idx.hasher().responsible_node(query);
  const auto result = idx.superset_search(query);
  EXPECT_EQ(result.stats.nodes_contacted, idx.cube().subcube_size(root));
  // Message bound: 2 * 2^(r - |One|) coordination + results (§3.5).
  EXPECT_LE(result.stats.messages, 2 * idx.cube().subcube_size(root) + 2);
}

TEST(LogicalIndex, LevelParallelLatencyIsSubcubeDimension) {
  LogicalIndex idx({.r = 12});
  idx.insert(1, KeywordSet({"a", "b"}));
  const KeywordSet query({"a", "b"});
  const auto root = idx.hasher().responsible_node(query);
  const auto result =
      idx.superset_search(query, 0, SearchStrategy::kLevelParallel);
  EXPECT_EQ(result.stats.levels,
            static_cast<std::size_t>(idx.cube().zero_count(root)) + 1);
}

TEST(LogicalIndex, TraversalProfilePredictsSearchCost) {
  Rng rng(9);
  LogicalIndex idx({.r = 8});
  auto corpus = random_corpus(400, 25, rng);
  for (const auto& [id, k] : corpus.objects) idx.insert(id, k);
  for (int trial = 0; trial < 30; ++trial) {
    auto it = corpus.objects.begin();
    std::advance(it, rng.next_below(corpus.objects.size()));
    const KeywordSet query({it->second.words().front()});
    const auto profile = idx.traversal_profile(query);
    const auto full = idx.superset_search(query);
    EXPECT_EQ(profile.total_hits, full.hits.size());
    EXPECT_EQ(profile.total_nodes,
              idx.cube().subcube_size(profile.root));
    EXPECT_EQ(full.stats.nodes_contacted, profile.total_nodes);
    for (std::uint64_t t : {1ULL, 3ULL, 7ULL}) {
      if (t > profile.total_hits) break;
      const auto bounded = idx.superset_search(query, t);
      EXPECT_EQ(bounded.stats.nodes_contacted, profile.nodes_to_collect(t))
          << query.to_string() << " t=" << t;
    }
  }
}

TEST(LogicalIndex, TraversalProfileDegenerateTargets) {
  LogicalIndex idx({.r = 6});
  idx.insert(1, KeywordSet({"only"}));
  const auto profile = idx.traversal_profile(KeywordSet({"only"}));
  EXPECT_EQ(profile.nodes_to_collect(0), profile.total_nodes);
  EXPECT_EQ(profile.nodes_to_collect(1), 1u);  // the root holds the match
  EXPECT_EQ(profile.nodes_to_collect(99), profile.total_nodes);
}

// --- Cache behaviour -------------------------------------------------------

TEST(LogicalIndexCache, RepeatQueryContactsOnlyContributors) {
  LogicalIndex idx({.r = 8, .cache_capacity = 64});
  for (ObjectId id = 1; id <= 20; ++id)
    idx.insert(id, KeywordSet({"cached", "v" + std::to_string(id % 3)}));
  const KeywordSet query({"cached"});
  const auto cold = idx.superset_search(query);
  const auto warm = idx.superset_search(query);
  EXPECT_FALSE(cold.stats.cache_hit);
  EXPECT_TRUE(warm.stats.cache_hit);
  EXPECT_EQ(ids_of(cold.hits), ids_of(warm.hits));
  EXPECT_LT(warm.stats.nodes_contacted, cold.stats.nodes_contacted);
  EXPECT_TRUE(warm.stats.complete);
  // Contributors only: at most one node per distinct keyword set + root.
  EXPECT_LE(warm.stats.nodes_contacted, 4u);
}

TEST(LogicalIndexCache, InsertInvalidatesAffectedQuery) {
  LogicalIndex idx({.r = 8, .cache_capacity = 64});
  idx.insert(1, KeywordSet({"q", "a"}));
  const KeywordSet query({"q"});
  const auto first = idx.superset_search(query);
  EXPECT_EQ(first.hits.size(), 1u);
  // New matching object: placed at a different cube node in general, but
  // the root's cached plan for `query` must not hide it if it happens to
  // land at the root itself; the invalidation removes the plan when the
  // new object's set contains the query and maps to the cached root.
  idx.insert(2, KeywordSet({"q"}));  // maps exactly to the root of `query`
  const auto second = idx.superset_search(query);
  EXPECT_EQ(ids_of(second.hits), (std::set<ObjectId>{1, 2}));
}

TEST(LogicalIndexCache, PartialTraversalUsableForSmallerThreshold) {
  LogicalIndex idx({.r = 8, .cache_capacity = 64});
  for (ObjectId id = 1; id <= 50; ++id)
    idx.insert(id, KeywordSet({"p", "e" + std::to_string(id)}));
  // Cold partial search caches an incomplete plan with >= 10 results.
  const auto cold = idx.superset_search(KeywordSet({"p"}), 10);
  EXPECT_FALSE(cold.stats.complete);
  // Smaller threshold can be served from the cached partial plan.
  const auto warm = idx.superset_search(KeywordSet({"p"}), 5);
  EXPECT_TRUE(warm.stats.cache_hit);
  EXPECT_EQ(warm.hits.size(), 5u);
  // Larger threshold cannot: full traversal re-runs.
  const auto full = idx.superset_search(KeywordSet({"p"}), 40);
  EXPECT_FALSE(full.stats.cache_hit);
  EXPECT_EQ(full.hits.size(), 40u);
}

// First keyword "k<i>" that h maps to dimension `dim`.
Keyword word_on(const KeywordHasher& h, int dim) {
  for (int i = 0;; ++i) {
    Keyword w = "k" + std::to_string(i);
    if (h.dim_of(w) == dim) return w;
  }
}

// Top-down from root 0001 at r = 4: the queue U runs dry exactly when 1101
// is popped, and 1101's child 1111 is appended only after its answer. A
// limit-1 search that stops at 1101 has left 1111 unvisited, so it must not
// report (or cache) a complete traversal; otherwise the next exhaustive
// search is served from the cache without 1111's object.
TEST(LogicalIndexCache, StopAtTheLastQueuedNodeIsNotComplete) {
  LogicalIndex idx({.r = 4, .cache_capacity = 32});
  const KeywordHasher& h = idx.hasher();
  const Keyword a = word_on(h, 0), b = word_on(h, 1), c = word_on(h, 2),
                d = word_on(h, 3);
  idx.insert(1, KeywordSet({a, c, d}));     // 1101
  idx.insert(2, KeywordSet({a, b, c, d}));  // 1111
  const KeywordSet query({a});
  ASSERT_EQ(h.responsible_node(query), 0b0001u);

  const auto limited = idx.superset_search(query, 1);
  EXPECT_EQ(ids_of(limited.hits), (std::set<ObjectId>{1}));
  EXPECT_FALSE(limited.stats.complete);
  const auto all = idx.superset_search(query);
  EXPECT_EQ(ids_of(all.hits), (std::set<ObjectId>{1, 2}));
  EXPECT_TRUE(all.stats.complete);
}

TEST(LogicalIndexCache, StatsAccumulate) {
  LogicalIndex idx({.r = 6, .cache_capacity = 16});
  idx.insert(1, KeywordSet({"s"}));
  idx.superset_search(KeywordSet({"s"}));
  idx.superset_search(KeywordSet({"s"}));
  const auto stats = idx.cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  idx.clear_caches();
  const auto after = idx.superset_search(KeywordSet({"s"}));
  EXPECT_FALSE(after.stats.cache_hit);
}

// --- Cumulative search -------------------------------------------------------

TEST(LogicalIndexCumulative, BatchesAreDisjointAndExhaustive) {
  Rng rng(8);
  LogicalIndex idx({.r = 8});
  auto corpus = random_corpus(300, 20, rng);
  for (const auto& [id, k] : corpus.objects) idx.insert(id, k);
  const KeywordSet query({corpus.objects.begin()->second.words().front()});
  const auto expected = corpus.supersets(query);

  auto session = idx.begin_cumulative(query);
  std::set<ObjectId> all;
  std::size_t batches = 0;
  while (!session.exhausted()) {
    const auto batch = session.next(7);
    if (batch.hits.empty()) break;
    ++batches;
    for (const Hit& h : batch.hits)
      EXPECT_TRUE(all.insert(h.object).second) << "duplicate " << h.object;
  }
  EXPECT_EQ(all, expected);
  if (expected.size() > 7) EXPECT_GT(batches, 1u);
}

TEST(LogicalIndexCumulative, BatchSizeIsRespected) {
  LogicalIndex idx({.r = 6});
  for (ObjectId id = 1; id <= 30; ++id)
    idx.insert(id, KeywordSet({"c", "z" + std::to_string(id)}));
  auto session = idx.begin_cumulative(KeywordSet({"c"}));
  std::size_t total = 0;
  while (!session.exhausted()) {
    const auto batch = session.next(4);
    EXPECT_LE(batch.hits.size(), 4u);
    total += batch.hits.size();
    if (batch.hits.empty()) break;
  }
  EXPECT_EQ(total, 30u);
}

TEST(LogicalIndexCumulative, SplitsWithinASingleNode) {
  LogicalIndex idx({.r = 6});
  const KeywordSet k({"same", "set"});
  for (ObjectId id = 1; id <= 10; ++id) idx.insert(id, k);  // one node
  auto session = idx.begin_cumulative(KeywordSet({"same"}));
  const auto b1 = session.next(4);
  const auto b2 = session.next(4);
  const auto b3 = session.next(4);
  EXPECT_EQ(b1.hits.size(), 4u);
  EXPECT_EQ(b2.hits.size(), 4u);
  EXPECT_EQ(b3.hits.size(), 2u);
  std::set<ObjectId> all;
  for (const auto* b : {&b1, &b2, &b3})
    for (const Hit& h : b->hits) all.insert(h.object);
  EXPECT_EQ(all.size(), 10u);
}

TEST(LogicalIndexCumulative, NextZeroThrows) {
  LogicalIndex idx({.r = 4});
  auto session = idx.begin_cumulative(KeywordSet({"q"}));
  EXPECT_THROW(session.next(0), std::invalid_argument);
}

TEST(LogicalIndex, EmptyIndexSearchesReturnNothing) {
  LogicalIndex idx({.r = 8});
  const auto result = idx.superset_search(KeywordSet({"anything"}));
  EXPECT_TRUE(result.hits.empty());
  EXPECT_TRUE(result.stats.complete);
  EXPECT_TRUE(idx.pin_search(KeywordSet({"anything"})).hits.empty());
}

TEST(LogicalIndex, UnknownKeywordsStillSearchTheirSubcube) {
  LogicalIndex idx({.r = 6});
  idx.insert(1, KeywordSet({"known"}));
  // A query for a keyword nobody used must still explore (and find
  // nothing) — the scheme has no global vocabulary to consult.
  const auto result = idx.superset_search(KeywordSet({"never-seen"}));
  EXPECT_TRUE(result.hits.empty());
  EXPECT_GE(result.stats.nodes_contacted, 1u);
}

TEST(LogicalIndex, DimensionOneCube) {
  // r = 1: two nodes. Everything still works.
  LogicalIndex idx({.r = 1});
  idx.insert(1, KeywordSet({"a"}));
  idx.insert(2, KeywordSet({"a", "b"}));
  const auto result = idx.superset_search(KeywordSet({"a"}));
  EXPECT_EQ(result.hits.size(), 2u);
  EXPECT_LE(result.stats.nodes_contacted, 2u);
}

TEST(LogicalIndex, ManyObjectsOneKeywordSet) {
  // Thousands of objects under the same set pile onto one node — the
  // degenerate hot placement the paper accepts (same metadata => same
  // node) — and search still returns them all from a single contact.
  LogicalIndex idx({.r = 10});
  const KeywordSet k({"same", "three", "words"});
  for (ObjectId o = 1; o <= 2000; ++o) idx.insert(o, k);
  std::size_t max_load = 0;
  for (std::size_t l : idx.loads()) max_load = std::max(max_load, l);
  EXPECT_EQ(max_load, 2000u);
  const auto pin = idx.pin_search(k);
  EXPECT_EQ(pin.hits.size(), 2000u);
  EXPECT_EQ(pin.stats.nodes_contacted, 1u);
}

class LogicalIndexDims : public ::testing::TestWithParam<int> {};

TEST_P(LogicalIndexDims, OracleEquivalenceAcrossDimensions) {
  const int r = GetParam();
  Rng rng(100 + static_cast<std::uint64_t>(r));
  LogicalIndex idx({.r = r});
  auto corpus = random_corpus(200, 25, rng);
  for (const auto& [id, k] : corpus.objects) idx.insert(id, k);
  for (int trial = 0; trial < 30; ++trial) {
    auto it = corpus.objects.begin();
    std::advance(it, rng.next_below(corpus.objects.size()));
    const KeywordSet query({it->second.words().front()});
    EXPECT_EQ(ids_of(idx.superset_search(query).hits),
              corpus.supersets(query));
    EXPECT_EQ(ids_of(idx.pin_search(it->second).hits),
              corpus.exact(it->second));
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, LogicalIndexDims,
                         ::testing::Values(2, 4, 6, 8, 10, 12));

// Full sweep: every strategy x threshold x dimension combination must
// return correct results — exactly min(t, |O_K|) hits, all true matches,
// and a truthful completeness flag.
struct SweepParam {
  int r;
  SearchStrategy strategy;
  std::size_t threshold;
};

class LogicalIndexSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(LogicalIndexSweep, ThresholdedSearchIsCorrect) {
  const auto [r, strategy, threshold] = GetParam();
  Rng rng(500 + static_cast<std::uint64_t>(r) +
          static_cast<std::uint64_t>(threshold));
  LogicalIndex idx({.r = r});
  auto corpus = random_corpus(250, 20, rng);
  for (const auto& [id, k] : corpus.objects) idx.insert(id, k);

  for (int trial = 0; trial < 15; ++trial) {
    auto it = corpus.objects.begin();
    std::advance(it, rng.next_below(corpus.objects.size()));
    const KeywordSet query({it->second.words().front()});
    const auto expected = corpus.supersets(query);
    const auto result = idx.superset_search(query, threshold, strategy);

    const std::size_t want =
        threshold == 0 ? expected.size()
                       : std::min(threshold, expected.size());
    // Level-parallel can only stop at level boundaries, so it may return
    // more than the threshold asked for; never fewer.
    if (strategy == SearchStrategy::kLevelParallel && threshold != 0) {
      EXPECT_GE(result.hits.size(), want);
    } else {
      EXPECT_EQ(result.hits.size(), want);
    }
    for (const Hit& h : result.hits) {
      EXPECT_TRUE(expected.contains(h.object));
      EXPECT_TRUE(query.subset_of(h.keywords));
    }
    if (result.stats.complete)
      EXPECT_EQ(ids_of(result.hits), expected);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, LogicalIndexSweep,
    ::testing::Values(
        SweepParam{4, SearchStrategy::kTopDownSequential, 0},
        SweepParam{4, SearchStrategy::kBottomUpSequential, 0},
        SweepParam{4, SearchStrategy::kLevelParallel, 0},
        SweepParam{8, SearchStrategy::kTopDownSequential, 1},
        SweepParam{8, SearchStrategy::kBottomUpSequential, 1},
        SweepParam{8, SearchStrategy::kLevelParallel, 1},
        SweepParam{8, SearchStrategy::kTopDownSequential, 5},
        SweepParam{8, SearchStrategy::kBottomUpSequential, 5},
        SweepParam{8, SearchStrategy::kLevelParallel, 5},
        SweepParam{10, SearchStrategy::kTopDownSequential, 3},
        SweepParam{10, SearchStrategy::kBottomUpSequential, 7},
        SweepParam{10, SearchStrategy::kLevelParallel, 7},
        SweepParam{12, SearchStrategy::kTopDownSequential, 100},
        SweepParam{12, SearchStrategy::kBottomUpSequential, 100},
        SweepParam{12, SearchStrategy::kLevelParallel, 100}));

}  // namespace
}  // namespace hkws::index

// Query-cache soundness: a traversal summary may be served to a later
// search only if it tells the truth about what the traversal covered. So
// on small random corpora, random sequences of thresholded and exhaustive
// searches against cached indexes (LogicalIndex and OverlayIndex, every
// strategy) must answer each exhaustive search with exactly the object set
// of a cache-off index, and report `complete` only for answers that hold
// every match.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "dht/chord_network.hpp"
#include "index/logical_index.hpp"
#include "index/overlay_index.hpp"

namespace hkws::index {
namespace {

constexpr std::size_t kCache = 32;
constexpr int kSearchesPerSeed = 40;

const std::vector<SearchStrategy> kStrategies = {
    SearchStrategy::kTopDownSequential,
    SearchStrategy::kBottomUpSequential,
    SearchStrategy::kLevelParallel,
};

std::set<ObjectId> ids_of(const std::vector<Hit>& hits) {
  std::set<ObjectId> out;
  for (const Hit& h : hits) out.insert(h.object);
  return out;
}

struct Scenario {
  int r = 3;
  std::map<ObjectId, KeywordSet> objects;
  /// (query, threshold) pairs; threshold 0 = exhaustive.
  std::vector<std::pair<KeywordSet, std::size_t>> searches;
};

Scenario make_scenario(std::uint64_t seed) {
  Rng rng(seed);
  Scenario s;
  s.r = 3 + static_cast<int>(rng.next_below(4));  // 3..6
  const std::size_t vocab = 4 + rng.next_below(6);
  const std::size_t n = 8 + rng.next_below(32);
  auto word = [&] { return "w" + std::to_string(rng.next_below(vocab)); };
  LogicalIndex truth({.r = s.r});
  for (ObjectId id = 1; id <= n; ++id) {
    std::vector<Keyword> words;
    const std::size_t size = 1 + rng.next_below(6);
    for (std::size_t i = 0; i < size; ++i) words.push_back(word());
    s.objects[id] = KeywordSet(std::move(words));
    truth.insert(id, s.objects[id]);
  }
  // A handful of queries repeated with mixed thresholds, so thresholded
  // searches leave summaries that later exhaustive ones may be served from.
  // Thresholds range over 1..|O_K|, so some stop deep in the traversal.
  std::vector<KeywordSet> queries;
  for (int i = 0; i < 4; ++i) {
    std::vector<Keyword> words{word()};
    if (rng.next_below(3) == 0) words.push_back(word());
    queries.emplace_back(std::move(words));
  }
  for (int i = 0; i < kSearchesPerSeed; ++i) {
    const KeywordSet& q = queries[rng.next_below(queries.size())];
    const std::size_t total = truth.superset_search(q, 0).hits.size();
    const std::size_t threshold =
        rng.next_below(3) == 0 ? 0 : 1 + rng.next_below(total + 1);
    s.searches.emplace_back(q, threshold);
  }
  return s;
}

/// Checks one cached answer against the cache-off truth.
void check_answer(const SearchResult& got, const std::set<ObjectId>& truth,
                  std::size_t threshold, const std::string& label) {
  const std::set<ObjectId> ids = ids_of(got.hits);
  for (ObjectId o : ids) EXPECT_TRUE(truth.contains(o)) << label;
  if (threshold == 0) {
    EXPECT_EQ(ids, truth) << label;
    EXPECT_TRUE(got.stats.complete) << label;
  } else if (got.stats.complete && got.hits.size() < threshold) {
    // Covered the whole subhypercube without reaching the threshold: it
    // must hold every match.
    EXPECT_EQ(ids, truth) << label;
  }
}

std::string describe(std::uint64_t seed, SearchStrategy strategy,
                     std::size_t i, const KeywordSet& q,
                     std::size_t threshold) {
  return "seed=" + std::to_string(seed) + " strategy=" +
         std::to_string(static_cast<int>(strategy)) + " search=" +
         std::to_string(i) + " q=" + q.to_string() + " t=" +
         std::to_string(threshold);
}

class CacheSoundness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CacheSoundness, LogicalIndexAnswersMatchCacheOff) {
  const Scenario s = make_scenario(GetParam());
  LogicalIndex truth({.r = s.r});
  for (const auto& [id, k] : s.objects) truth.insert(id, k);
  for (const SearchStrategy strategy : kStrategies) {
    LogicalIndex cached({.r = s.r, .cache_capacity = kCache});
    for (const auto& [id, k] : s.objects) cached.insert(id, k);
    for (std::size_t i = 0; i < s.searches.size(); ++i) {
      const auto& [q, threshold] = s.searches[i];
      const std::string label = describe(GetParam(), strategy, i, q, threshold);
      check_answer(cached.superset_search(q, threshold, strategy),
                   ids_of(truth.superset_search(q, 0).hits), threshold,
                   label);
    }
  }
}

TEST_P(CacheSoundness, OverlayIndexAnswersMatchCacheOff) {
  const Scenario s = make_scenario(GetParam());
  LogicalIndex truth({.r = s.r});
  for (const auto& [id, k] : s.objects) truth.insert(id, k);
  for (const SearchStrategy strategy : kStrategies) {
    sim::EventQueue clock;
    sim::Network net(clock);
    dht::ChordNetwork dht = dht::ChordNetwork::build(net, 8, {});
    dht::Dolr dolr(dht);
    OverlayIndex index(dolr, {.r = s.r, .cache_capacity = kCache});
    for (const auto& [id, k] : s.objects) index.publish(1, id, k);
    clock.run();
    for (std::size_t i = 0; i < s.searches.size(); ++i) {
      const auto& [q, threshold] = s.searches[i];
      const std::string label = describe(GetParam(), strategy, i, q, threshold);
      std::optional<SearchResult> got;
      index.superset_search(2, q, threshold, strategy,
                            [&](const SearchResult& r) { got = r; });
      clock.run();
      ASSERT_TRUE(got.has_value()) << label;
      check_answer(*got, ids_of(truth.superset_search(q, 0).hits),
                   threshold, label);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheSoundness,
                         ::testing::Range<std::uint64_t>(1, 301));

}  // namespace
}  // namespace hkws::index

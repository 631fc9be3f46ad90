#include "index/mirrored.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstddef>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>

#include "common/rng.hpp"
#include "dht/chord_network.hpp"
#include "obs/windowed.hpp"

namespace hkws::index {
namespace {

std::set<ObjectId> ids_of(const std::vector<Hit>& hits) {
  std::set<ObjectId> out;
  for (const Hit& h : hits) out.insert(h.object);
  return out;
}

struct MirrorNet {
  sim::EventQueue clock;
  std::unique_ptr<sim::Network> net;
  std::unique_ptr<dht::ChordNetwork> dht;
  std::unique_ptr<dht::Dolr> dolr;
  std::unique_ptr<MirroredIndex> index;

  explicit MirrorNet(std::size_t n, OverlayIndex::Config cfg = {.r = 6}) {
    net = std::make_unique<sim::Network>(clock);
    dht = std::make_unique<dht::ChordNetwork>(
        dht::ChordNetwork::build(*net, n, {}));
    dolr = std::make_unique<dht::Dolr>(*dht, dht::Dolr::Config{3});
    index = std::make_unique<MirroredIndex>(*dolr, cfg);
  }

  SearchResult superset(const KeywordSet& q, std::size_t t = 0) {
    std::optional<SearchResult> result;
    index->superset_search(1, q, t, SearchStrategy::kTopDownSequential,
                           [&](const SearchResult& r) { result = r; });
    clock.run();
    EXPECT_TRUE(result.has_value());
    return result.value_or(SearchResult{});
  }
};

std::map<ObjectId, KeywordSet> sample_objects(std::size_t n,
                                              std::uint64_t seed) {
  std::map<ObjectId, KeywordSet> out;
  Rng rng(seed);
  for (ObjectId id = 1; id <= n; ++id) {
    std::vector<Keyword> words{"base"};
    const int size = static_cast<int>(rng.next_below(4));
    for (int i = 0; i < size; ++i)
      words.push_back("w" + std::to_string(rng.next_below(20)));
    out[id] = KeywordSet(std::move(words));
  }
  return out;
}

TEST(Mirrored, PublishCreatesEntriesInBothCubes) {
  MirrorNet t(16);
  const KeywordSet k({"news", "tv"});
  t.index->publish(1, 7, k);
  t.clock.run();
  const auto up = t.index->primary().responsible_node(k);
  const auto um = t.index->mirror().responsible_node(k);
  ASSERT_NE(t.index->primary().table_of(up), nullptr);
  ASSERT_NE(t.index->mirror().table_of(um), nullptr);
  EXPECT_EQ(t.index->primary().table_of(up)->exact(k),
            std::vector<ObjectId>{7});
  EXPECT_EQ(t.index->mirror().table_of(um)->exact(k),
            std::vector<ObjectId>{7});
}

TEST(Mirrored, MirrorUsesIndependentMappings) {
  MirrorNet t(16);
  // The two cubes must not systematically agree on placement: across many
  // keyword sets, responsible nodes and ring keys should differ often.
  int same_node = 0, same_peer = 0;
  for (int i = 0; i < 100; ++i) {
    const KeywordSet k({"kw" + std::to_string(i)});
    const auto up = t.index->primary().responsible_node(k);
    const auto um = t.index->mirror().responsible_node(k);
    if (up == um) ++same_node;
    if (t.index->primary().ring_key_of(up) == t.index->mirror().ring_key_of(um))
      ++same_peer;
  }
  EXPECT_LT(same_node, 20);  // chance collisions only (r=6 -> 1/64 per bit)
  EXPECT_EQ(same_peer, 0);
}

TEST(Mirrored, SearchUnionsBothCubes) {
  MirrorNet t(24);
  const auto objects = sample_objects(60, 51);
  std::size_t i = 0;
  for (const auto& [id, k] : objects) t.index->publish(1 + (i++ % 24), id, k);
  t.clock.run();
  const auto result = t.superset(KeywordSet({"base"}));
  EXPECT_EQ(ids_of(result.hits).size(), objects.size());
  EXPECT_TRUE(result.stats.complete);
}

TEST(Mirrored, SurvivesLossOfPrimaryEntriesWithoutRepair) {
  MirrorNet t(12, {.r = 6});
  const auto objects = sample_objects(80, 52);
  std::size_t i = 0;
  for (const auto& [id, k] : objects) t.index->publish(1 + (i++ % 12), id, k);
  t.clock.run();

  // Simulate total loss of the PRIMARY index state (as if every peer
  // holding primary entries crashed and purged): the mirror must still
  // answer the full result set.
  t.index->primary().purge_dead();  // no-op; now nuke primary state:
  // Fail three peers; purge both cubes' state for them. Whatever entries
  // lived there are gone from one cube or the other — never both, for any
  // given object, unless both its entries were on failed peers.
  t.dht->fail(3);
  t.dht->fail(7);
  t.dht->fail(11);
  for (int round = 0; round < 30; ++round) t.dht->stabilize_all();
  t.index->purge_dead();
  t.index->repair_placement();
  t.clock.run();

  const auto result = t.superset(KeywordSet({"base"}));
  // Count objects whose BOTH entries were lost (possible but should be a
  // small minority with independent placement).
  const std::size_t found = ids_of(result.hits).size();
  EXPECT_GT(found, objects.size() * 8 / 10)
      << "mirror should cover most primary losses";

  // Compare against an unmirrored index suffering the same failures: it
  // must have lost at least as much as the mirrored one found.
  std::size_t primary_only = 0;
  {
    std::optional<SearchResult> result1;
    t.index->primary().superset_search(
        1, KeywordSet({"base"}), 0, SearchStrategy::kTopDownSequential,
        [&](const SearchResult& r) { result1 = r; });
    t.clock.run();
    primary_only = ids_of(result1->hits).size();
  }
  EXPECT_GE(found, primary_only);
}

TEST(Mirrored, WithdrawRemovesBothEntries) {
  MirrorNet t(16);
  const KeywordSet k({"x", "y"});
  t.index->publish(1, 5, k);
  t.clock.run();
  std::optional<OverlayIndex::WithdrawResult> w;
  t.index->withdraw(1, 5, k, [&](const auto& r) { w = r; });
  t.clock.run();
  ASSERT_TRUE(w.has_value());
  EXPECT_TRUE(w->index_removed);
  EXPECT_TRUE(t.superset(KeywordSet({"x"})).hits.empty());
}

TEST(Mirrored, PinSearchWorksThroughEitherCube) {
  MirrorNet t(16);
  t.index->publish(1, 5, KeywordSet({"p", "q"}));
  t.clock.run();
  std::optional<SearchResult> result;
  t.index->pin_search(2, KeywordSet({"p", "q"}),
                      [&](const SearchResult& r) { result = r; });
  t.clock.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(ids_of(result->hits), (std::set<ObjectId>{5}));
}

TEST(Mirrored, ThresholdAppliesToTheUnion) {
  MirrorNet t(16);
  for (ObjectId o = 1; o <= 30; ++o)
    t.index->publish(1 + o % 16, o, KeywordSet({"t", "v" + std::to_string(o)}));
  t.clock.run();
  const auto result = t.superset(KeywordSet({"t"}), 10);
  EXPECT_EQ(result.hits.size(), 10u);
}

TEST(Mirrored, CostIsRoughlyDoubled) {
  MirrorNet t(24);
  const auto objects = sample_objects(40, 53);
  std::size_t i = 0;
  for (const auto& [id, k] : objects) t.index->publish(1 + (i++ % 24), id, k);
  t.clock.run();

  std::optional<SearchResult> single;
  t.index->primary().superset_search(
      1, KeywordSet({"base"}), 0, SearchStrategy::kTopDownSequential,
      [&](const SearchResult& r) { single = r; });
  t.clock.run();
  const auto mirrored = t.superset(KeywordSet({"base"}));
  EXPECT_GE(mirrored.stats.nodes_contacted,
            single->stats.nodes_contacted * 3 / 2);
  EXPECT_LE(mirrored.stats.nodes_contacted,
            single->stats.nodes_contacted * 3);
}

TEST(Mirrored, BudgetedResyncConvergesCubesAfterFailures) {
  MirrorNet t(12, {.r = 6});
  const auto objects = sample_objects(80, 52);
  std::size_t i = 0;
  for (const auto& [id, k] : objects) t.index->publish(1 + (i++ % 12), id, k);
  t.clock.run();

  t.dht->fail(3);
  t.dht->fail(7);
  for (int round = 0; round < 30; ++round) t.dht->stabilize_all();
  t.index->purge_dead();
  t.index->repair_placement();
  t.clock.run();
  ASSERT_GT(t.index->resync_backlog(), 0u);

  // Anti-entropy in slices of 8: each pass reindexes a bounded batch, the
  // routed copies land, and the backlog shrinks until the cubes agree.
  int passes = 0;
  while (t.index->resync_backlog() > 0) {
    ASSERT_LT(passes++, 100) << "resync failed to converge";
    t.index->resync(8);
    t.clock.run();
  }
  // Idempotent at the fixpoint: nothing left to copy.
  EXPECT_EQ(t.index->resync(100), 0u);
  t.clock.run();

  // Both cubes now index the same surviving entries, so a single-cube scan
  // matches the mirrored union exactly.
  const auto merged = t.superset(KeywordSet({"base"}));
  std::optional<SearchResult> primary_only;
  t.index->primary().superset_search(
      1, KeywordSet({"base"}), 0, SearchStrategy::kTopDownSequential,
      [&](const SearchResult& r) { primary_only = r; });
  t.clock.run();
  ASSERT_TRUE(primary_only.has_value());
  EXPECT_EQ(ids_of(merged.hits), ids_of(primary_only->hits));
}

// A resync that runs while a withdraw sits between its primary delete and
// its mirror deindex must not copy the mirror entry back into the primary
// cube: the withdrawn object would come back for good.
TEST(Mirrored, ResyncDuringWithdrawDoesNotReviveTheObject) {
  MirrorNet t(16);
  const KeywordSet k({"stale", "entry"});
  t.index->publish(1, 5, k);
  t.clock.run();
  ASSERT_TRUE(t.index->primary().has_entry(k, 5));
  ASSERT_TRUE(t.index->mirror().has_entry(k, 5));

  t.index->withdraw(1, 5, k);
  // Step to the window: the primary entry is gone, the mirror still has it.
  while (t.index->primary().has_entry(k, 5)) ASSERT_TRUE(t.clock.step());
  ASSERT_TRUE(t.index->mirror().has_entry(k, 5));
  EXPECT_EQ(t.index->resync_backlog(), 0u);

  t.index->resync(SIZE_MAX);
  t.clock.run();
  EXPECT_FALSE(t.index->primary().has_entry(k, 5));
  EXPECT_FALSE(t.index->mirror().has_entry(k, 5));
  EXPECT_TRUE(t.superset(KeywordSet({"stale"})).hits.empty());
  EXPECT_TRUE(t.superset(k).hits.empty());

  // Publishing the object again makes it an ordinary entry: resync copies
  // it once more if a cube loses it.
  t.index->publish(1, 5, k);
  t.clock.run();
  EXPECT_EQ(ids_of(t.superset(k).hits), (std::set<ObjectId>{5}));
  EXPECT_EQ(t.index->resync(SIZE_MAX), 0u);
}

/// Drops every message of one kind originated by one endpoint — the
/// surgical fault that silences a single cube's pin replies. (Matching on
/// the sender, not the receiver, keeps the other cube's multi-hop route
/// safe even if it transits the victim.)
class TargetedDrop final : public sim::DropModel {
 public:
  TargetedDrop(std::string kind, sim::EndpointId from)
      : kind_(std::move(kind)), from_(from) {}
  bool drop(sim::EndpointId from, sim::EndpointId, const std::string& kind,
            Rng&) override {
    return from == from_ && kind == kind_;
  }

 private:
  std::string kind_;
  sim::EndpointId from_;
};

TEST(Mirrored, SingleCubeFailoverCountedAndWindowed) {
  MirrorNet t(16, {.r = 6, .step_timeout = 50, .max_retries = 2,
                   .failover_after = 2});
  obs::WindowedMetrics windows(100);
  t.index->set_windows(&windows);

  // Find a keyword set whose primary and mirror pin roots live on
  // different peers, so starving the primary root leaves the mirror whole.
  KeywordSet k;
  sim::EndpointId primary_root = 0;
  for (int attempt = 0; attempt < 32; ++attempt) {
    k = KeywordSet({"fo" + std::to_string(attempt)});
    const auto pk = t.index->primary().ring_key_of(
        t.index->primary().responsible_node(k));
    const auto mk = t.index->mirror().ring_key_of(
        t.index->mirror().responsible_node(k));
    const sim::EndpointId pe = t.dht->endpoint_of(t.dht->owner_of(pk));
    const sim::EndpointId me = t.dht->endpoint_of(t.dht->owner_of(mk));
    // The root must not be the searcher (self-sends bypass the drop model).
    if (pe != me && pe != 2) {
      primary_root = pe;
      break;
    }
  }
  ASSERT_NE(primary_root, 0u);
  t.index->publish(1, 9, k);
  t.clock.run();

  // Silence the primary cube's pin replies: its retries exhaust and that
  // traversal reports failure while the mirror answers — the merge must
  // turn this into a degraded (not failed) result and count the failover.
  t.net->set_drop_model(std::make_unique<TargetedDrop>("kws.pin_reply",
                                                       primary_root));
  std::optional<SearchResult> result;
  t.index->pin_search(2, k, [&](const SearchResult& r) { result = r; });
  t.clock.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->stats.failed);
  EXPECT_TRUE(result->stats.degraded);
  EXPECT_GE(result->stats.failovers, 1u);
  EXPECT_EQ(ids_of(result->hits), (std::set<ObjectId>{9}));

  EXPECT_EQ(t.index->failover_count(), 1u);
  EXPECT_EQ(t.net->metrics().counter("kws.mirror_failover"), 1u);
  std::uint64_t windowed = 0;
  for (const auto& [w, win] : windows.windows()) {
    const auto it = win.counters.find("mirror.failover");
    if (it != win.counters.end()) windowed += it->second;
  }
  EXPECT_EQ(windowed, 1u);
}

}  // namespace
}  // namespace hkws::index

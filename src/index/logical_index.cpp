#include "index/logical_index.hpp"

#include <limits>
#include <numeric>
#include <stdexcept>

namespace hkws::index {

namespace {
constexpr std::size_t kUnlimited = std::numeric_limits<std::size_t>::max();

std::size_t room_left(std::size_t threshold, std::size_t have) {
  if (threshold == 0) return kUnlimited;
  return threshold > have ? threshold - have : 0;
}

std::uint64_t total_count(const CachedTraversal& c) {
  std::uint64_t total = 0;
  for (const auto& [node, count] : c.contributors) total += count;
  return total;
}
}  // namespace

LogicalIndex::LogicalIndex(Config cfg)
    : cfg_(cfg), cube_(cfg.r), hasher_(cfg.r, cfg.hash_seed) {
  if (cfg.r > 24)
    throw std::invalid_argument(
        "LogicalIndex: materializing 2^r node tables beyond r = 24 is not "
        "sensible; use the distributed deployment for sparser spaces");
  tables_.resize(cube_.node_count());
  if (cfg_.cache_capacity != 0) {
    caches_.reserve(cube_.node_count());
    for (std::uint64_t i = 0; i < cube_.node_count(); ++i)
      caches_.emplace_back(cfg_.cache_capacity);
  }
}

void LogicalIndex::insert(ObjectId object, const KeywordSet& keywords) {
  if (keywords.empty())
    throw std::invalid_argument("LogicalIndex::insert: empty keyword set");
  const cube::CubeId u = hasher_.responsible_node(keywords);
  if (tables_[static_cast<std::size_t>(u)].add(keywords, object)) {
    ++objects_;
    ++mutation_epoch_;
  }
  if (!caches_.empty()) {
    // Eagerly drop cached traversals rooted *here* whose query the new
    // entry matches; traversals rooted at ancestor nodes are caught lazily
    // by the epoch check in lookup.
    caches_[static_cast<std::size_t>(u)].erase_if(
        [&](const KeywordSet& q) { return q.subset_of(keywords); });
  }
}

bool LogicalIndex::remove(ObjectId object, const KeywordSet& keywords) {
  const cube::CubeId u = hasher_.responsible_node(keywords);
  const bool removed = tables_[static_cast<std::size_t>(u)].remove(keywords, object);
  if (removed) {
    --objects_;
    ++mutation_epoch_;
    if (!caches_.empty()) {
      caches_[static_cast<std::size_t>(u)].erase_if(
          [&](const KeywordSet& q) { return q.subset_of(keywords); });
    }
  }
  return removed;
}

SearchResult LogicalIndex::pin_search(const KeywordSet& keywords) const {
  // One query message to F_h(K), one reply with the matching IDs (§3.5).
  SearchResult result;
  const cube::CubeId u = hasher_.responsible_node(keywords);
  for (ObjectId o : tables_[static_cast<std::size_t>(u)].exact(keywords))
    result.hits.push_back(Hit{o, keywords});
  result.stats.nodes_contacted = 1;
  result.stats.messages = 2;
  result.stats.rounds = 1;
  result.stats.complete = true;
  return result;
}

std::size_t LogicalIndex::collect_at(cube::CubeId u, const KeywordSet& query,
                                     std::size_t room,
                                     std::vector<Hit>& out) const {
  if (room == 0) return 0;
  std::size_t appended = 0;
  tables_[static_cast<std::size_t>(u)].for_each_superset(
      query, [&](const KeywordSet& k, const std::set<ObjectId>& objects) {
        for (ObjectId o : objects) {
          if (appended >= room) return false;
          out.push_back(Hit{o, k});
          ++appended;
        }
        return appended < room;
      });
  return appended;
}

SearchResult LogicalIndex::superset_search(const KeywordSet& query,
                                           std::size_t threshold,
                                           SearchStrategy strategy) {
  if (query.empty())
    throw std::invalid_argument("superset_search: empty query");
  const cube::CubeId root = hasher_.responsible_node(query);

  if (!caches_.empty()) {
    if (const CachedTraversal* cached =
            caches_[static_cast<std::size_t>(root)].lookup(query,
                                                           mutation_epoch_)) {
      // A cached plan is usable if it is exhaustive, or if it already
      // holds at least as many results as this query needs.
      if (cached->complete ||
          (threshold != 0 && total_count(*cached) >= threshold)) {
        return serve_from_cache(root, query, threshold, *cached);
      }
    }
  }

  SearchResult result;
  switch (strategy) {
    case SearchStrategy::kTopDownSequential:
      result = search_top_down(root, query, threshold);
      break;
    case SearchStrategy::kBottomUpSequential:
      result = search_bottom_up(root, query, threshold);
      break;
    case SearchStrategy::kLevelParallel:
      result = search_level_parallel(root, query, threshold);
      break;
  }
  return result;
}

SearchResult LogicalIndex::search_top_down(cube::CubeId root,
                                           const KeywordSet& query,
                                           std::size_t threshold) {
  SearchResult result;
  SearchStats& st = result.stats;
  CachedTraversal summary;

  st.nodes_contacted = 1;  // the root
  st.messages = 1;         // T_QUERY from the searcher to the root

  // Root examines its own table first.
  const std::size_t at_root = collect_at(
      root, query, room_left(threshold, result.hits.size()), result.hits);
  if (at_root > 0) {
    st.messages += 1;  // results sent directly to the searcher
    summary.contributors.emplace_back(root,
                                      static_cast<std::uint32_t>(at_root));
  }

  // The queue U of (node, dimension-index) pairs (paper §3.3), seeded with
  // the root's neighbors along each zero dimension.
  std::deque<std::pair<cube::CubeId, int>> queue;
  const bool done_at_root =
      threshold != 0 && result.hits.size() >= threshold;
  if (!done_at_root) {
    for (int i : cube_.zero_positions(root))
      queue.emplace_back(root | (1ULL << i), i);
  }

  // When the threshold is met at the root itself the rest of the subcube
  // is left unexplored; the result is complete only for a trivial subcube.
  bool stopped_early = done_at_root && cube_.subcube_size(root) > 1;
  while (!queue.empty()) {
    const auto [w, d] = queue.front();
    queue.pop_front();
    ++st.rounds;
    ++st.nodes_contacted;
    ++st.messages;  // T_QUERY(v -> w)

    const std::size_t c1 = collect_at(
        w, query, room_left(threshold, result.hits.size()), result.hits);
    if (c1 > 0) {
      st.messages += 1;  // results (w -> searcher)
      summary.contributors.emplace_back(w, static_cast<std::uint32_t>(c1));
    }

    // Expand w's children before the stop check: stopping here leaves the
    // search complete only if nothing, w's children included, is pending.
    for (int i : cube_.zero_positions(w)) {
      if (i >= d) break;  // zero_positions is ascending
      queue.emplace_back(w | (1ULL << i), i);
    }
    if (threshold != 0 && result.hits.size() >= threshold) {
      st.messages += 1;  // T_STOP(w -> v)
      stopped_early = !queue.empty();
      break;
    }
    st.messages += 1;  // T_CONT(w -> v)
  }

  st.complete = !stopped_early;
  summary.complete = st.complete;
  if (!caches_.empty())
    caches_[static_cast<std::size_t>(root)].insert(query, std::move(summary),
                                                   mutation_epoch_);
  return result;
}

SearchResult LogicalIndex::search_bottom_up(cube::CubeId root,
                                            const KeywordSet& query,
                                            std::size_t threshold) {
  SearchResult result;
  SearchStats& st = result.stats;
  CachedTraversal summary;

  st.nodes_contacted = 1;  // the root coordinates
  st.messages = 1;         // T_QUERY from the searcher to the root

  const cube::SpanningBinomialTree sbt(cube_, root);
  const auto order = sbt.bottom_up_order();  // deepest first, root last
  bool stopped_early = false;
  for (std::size_t idx = 0; idx < order.size(); ++idx) {
    const cube::CubeId w = order[idx];
    if (w != root) {
      ++st.rounds;
      ++st.nodes_contacted;
      st.messages += 2;  // B_QUERY(v -> w) and its B_CONT/B_STOP reply
    }
    const std::size_t c1 = collect_at(
        w, query, room_left(threshold, result.hits.size()), result.hits);
    if (c1 > 0) {
      st.messages += 1;  // results to the searcher
      summary.contributors.emplace_back(w, static_cast<std::uint32_t>(c1));
    }
    if (threshold != 0 && result.hits.size() >= threshold) {
      stopped_early = idx + 1 < order.size();
      break;
    }
  }

  st.complete = !stopped_early;
  summary.complete = st.complete;
  if (!caches_.empty())
    caches_[static_cast<std::size_t>(root)].insert(query, std::move(summary),
                                                   mutation_epoch_);
  return result;
}

SearchResult LogicalIndex::search_level_parallel(cube::CubeId root,
                                                 const KeywordSet& query,
                                                 std::size_t threshold) {
  SearchResult result;
  SearchStats& st = result.stats;
  CachedTraversal summary;

  const cube::SpanningBinomialTree sbt(cube_, root);
  const auto levels = sbt.levels();
  st.messages = 1;  // searcher -> root
  bool stopped_early = false;
  for (std::size_t depth = 0; depth < levels.size(); ++depth) {
    ++st.levels;
    ++st.rounds;
    for (cube::CubeId w : levels[depth]) {
      ++st.nodes_contacted;
      if (w != root) ++st.messages;  // T_QUERY forwarded along a tree edge
      const std::size_t c1 = collect_at(
          w, query, room_left(threshold, result.hits.size()), result.hits);
      if (c1 > 0) {
        st.messages += 1;  // results to the searcher
        summary.contributors.emplace_back(w, static_cast<std::uint32_t>(c1));
      }
    }
    // Early termination can only happen at a level boundary: the whole
    // level was already queried in parallel.
    if (threshold != 0 && result.hits.size() >= threshold) {
      stopped_early = depth + 1 < levels.size();
      break;
    }
  }

  st.complete = !stopped_early;
  summary.complete = st.complete;
  if (!caches_.empty())
    caches_[static_cast<std::size_t>(root)].insert(query, std::move(summary),
                                                   mutation_epoch_);
  return result;
}

SearchResult LogicalIndex::serve_from_cache(cube::CubeId root,
                                            const KeywordSet& query,
                                            std::size_t threshold,
                                            const CachedTraversal& cached) {
  SearchResult result;
  SearchStats& st = result.stats;
  st.cache_hit = true;
  st.nodes_contacted = 1;  // the root
  st.messages = 1;         // searcher -> root

  bool stopped_early = false;
  for (std::size_t i = 0; i < cached.contributors.size(); ++i) {
    const cube::CubeId w = cached.contributors[i].first;
    if (w != root) {
      ++st.rounds;
      ++st.nodes_contacted;
      ++st.messages;  // T_QUERY directly to the known contributor
    }
    const std::size_t c1 = collect_at(
        w, query, room_left(threshold, result.hits.size()), result.hits);
    if (c1 > 0) st.messages += 1;  // results to the searcher
    if (threshold != 0 && result.hits.size() >= threshold) {
      stopped_early = i + 1 < cached.contributors.size();
      break;
    }
  }
  st.complete = cached.complete && !stopped_early;
  return result;
}

std::uint64_t LogicalIndex::TraversalProfile::nodes_to_collect(
    std::uint64_t target_hits) const {
  if (target_hits == 0 || target_hits > total_hits) return total_nodes;
  std::uint64_t acc = 0;
  for (const Contributor& c : contributors) {
    acc += c.count;
    if (acc >= target_hits) return c.position + 1;
  }
  return total_nodes;
}

LogicalIndex::TraversalProfile LogicalIndex::traversal_profile(
    const KeywordSet& query) const {
  TraversalProfile profile;
  profile.root = hasher_.responsible_node(query);
  profile.total_nodes = cube_.subcube_size(profile.root);
  const cube::SpanningBinomialTree sbt(cube_, profile.root);
  std::uint64_t position = 0;
  for (cube::CubeId w : sbt.bfs_order()) {
    std::uint32_t count = 0;
    tables_[static_cast<std::size_t>(w)].for_each_superset(
        query, [&](const KeywordSet&, const std::set<ObjectId>& objects) {
          count += static_cast<std::uint32_t>(objects.size());
          return true;
        });
    if (count > 0) {
      profile.contributors.push_back({position, w, count});
      profile.total_hits += count;
    }
    ++position;
  }
  return profile;
}

std::vector<std::size_t> LogicalIndex::loads() const {
  std::vector<std::size_t> out(tables_.size());
  for (std::size_t i = 0; i < tables_.size(); ++i)
    out[i] = tables_[i].object_count();
  return out;
}

LogicalIndex::CacheStats LogicalIndex::cache_stats() const {
  CacheStats s;
  for (const auto& c : caches_) {
    s.hits += c.hits();
    s.misses += c.misses();
    s.evictions += c.evictions();
    s.stale += c.stale_hits();
  }
  return s;
}

void LogicalIndex::clear_caches() {
  for (auto& c : caches_) c.clear();
}

// --- Cumulative session ----------------------------------------------------

LogicalIndex::CumulativeSession::CumulativeSession(LogicalIndex& owner,
                                                   KeywordSet query)
    : owner_(owner), query_(std::move(query)) {
  const cube::CubeId root = owner_.hasher_.responsible_node(query_);
  order_ = cube::SpanningBinomialTree(owner_.cube_, root).bfs_order();
}

SearchResult LogicalIndex::CumulativeSession::next(std::size_t count) {
  if (count == 0)
    throw std::invalid_argument("CumulativeSession::next: count must be > 0");
  SearchResult result;
  SearchStats& st = result.stats;
  st.messages = 1;  // searcher -> root (session continuation request)
  st.nodes_contacted = 1;

  while (pos_ < order_.size() && result.hits.size() < count) {
    const cube::CubeId w = order_[pos_];
    // Collect the node's full match list, then take the unreturned tail.
    std::vector<Hit> node_hits;
    owner_.collect_at(w, query_, kUnlimited, node_hits);
    if (w != order_.front()) {
      ++st.nodes_contacted;
      st.messages += 2;  // T_QUERY + T_CONT/T_STOP
      ++st.rounds;
    }
    std::size_t taken = 0;
    for (std::size_t i = offset_; i < node_hits.size(); ++i) {
      if (result.hits.size() >= count) break;
      result.hits.push_back(node_hits[i]);
      ++taken;
    }
    if (taken > 0) st.messages += 1;  // results to the searcher
    if (offset_ + taken >= node_hits.size()) {
      ++pos_;
      offset_ = 0;
    } else {
      offset_ += taken;
    }
  }
  st.complete = pos_ >= order_.size();
  return result;
}

}  // namespace hkws::index

#include "dii/inverted_index.hpp"

#include <algorithm>
#include <stdexcept>

namespace hkws::dii {

InvertedIndex::InvertedIndex(Config cfg) : cfg_(cfg) {
  if (cfg.r < 1 || cfg.r > 24)
    throw std::invalid_argument("InvertedIndex: r must be in [1,24]");
  postings_.resize(1ULL << cfg.r);
  posting_counts_.resize(1ULL << cfg.r, 0);
}

std::uint64_t InvertedIndex::node_of(const Keyword& w) const {
  return hash_bytes(w, seeds::kKeywordHash) & ((1ULL << cfg_.r) - 1);
}

void InvertedIndex::insert(ObjectId object, const KeywordSet& keywords) {
  if (keywords.empty())
    throw std::invalid_argument("InvertedIndex::insert: empty keyword set");
  for (const auto& w : keywords) {
    const auto node = static_cast<std::size_t>(node_of(w));
    if (postings_[node][w].insert(object).second) ++posting_counts_[node];
  }
  metadata_[object] = keywords;
}

bool InvertedIndex::remove(ObjectId object, const KeywordSet& keywords) {
  bool removed = false;
  for (const auto& w : keywords) {
    const auto node = static_cast<std::size_t>(node_of(w));
    const auto it = postings_[node].find(w);
    if (it == postings_[node].end()) continue;
    if (it->second.erase(object) != 0) {
      --posting_counts_[node];
      removed = true;
    }
    if (it->second.empty()) postings_[node].erase(it);
  }
  if (removed) metadata_.erase(object);
  return removed;
}

index::SearchResult InvertedIndex::search(const KeywordSet& query,
                                          std::size_t threshold) const {
  if (query.empty())
    throw std::invalid_argument("InvertedIndex::search: empty query");
  index::SearchResult result;
  index::SearchStats& st = result.stats;

  // One node per distinct query keyword; the same node may own several
  // keywords, but each keyword still costs a separate lookup + transfer.
  std::vector<const std::set<ObjectId>*> lists;
  std::size_t shipped = 0;
  std::set<std::uint64_t> distinct_nodes;
  for (const auto& w : query) {
    const auto node = node_of(w);
    distinct_nodes.insert(node);
    st.messages += 2;  // lookup + posting-list reply
    const auto& table = postings_[static_cast<std::size_t>(node)];
    const auto it = table.find(w);
    static const std::set<ObjectId> kEmpty;
    const auto* list = it == table.end() ? &kEmpty : &it->second;
    shipped += list->size();
    lists.push_back(list);
  }
  st.nodes_contacted = distinct_nodes.size();
  st.rounds = shipped;  // transfer volume proxy (posting entries shipped)

  // Intersect, smallest list first.
  std::sort(lists.begin(), lists.end(),
            [](const auto* a, const auto* b) { return a->size() < b->size(); });
  for (ObjectId o : *lists.front()) {
    bool everywhere = true;
    for (std::size_t i = 1; i < lists.size() && everywhere; ++i)
      everywhere = lists[i]->contains(o);
    if (!everywhere) continue;
    const auto mit = metadata_.find(o);
    result.hits.push_back(
        index::Hit{o, mit == metadata_.end() ? query : mit->second});
    if (threshold != 0 && result.hits.size() >= threshold) break;
  }
  st.complete = threshold == 0 || result.hits.size() < threshold;
  return result;
}

std::vector<std::size_t> InvertedIndex::loads() const { return posting_counts_; }

}  // namespace hkws::dii

// Baseline: the distributed inverted index ("DII" in paper Fig. 6), the
// standard keyword-search design the paper argues against (§1). Each
// keyword is hashed to a single node, which stores one posting (object
// reference) for every object containing that keyword. We host it on the
// same 2^r logical node space as the hypercube index so the two schemes'
// load distributions are directly comparable.
//
// Known properties the experiments exhibit:
//  * storage per node is wildly skewed under Zipf keyword popularity,
//  * an object with k keywords costs k index nodes (k lookups to
//    insert/delete),
//  * every query on a keyword hits the single node owning it (hot spots),
//  * multi-keyword queries ship posting lists and intersect them.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/hash.hpp"
#include "common/keyword.hpp"
#include "index/search_types.hpp"

namespace hkws::dii {

class InvertedIndex {
 public:
  struct Config {
    int r = 10;  ///< the node space is 2^r, matching the hypercube setup
  };

  explicit InvertedIndex(Config cfg);

  /// The node responsible for a keyword.
  std::uint64_t node_of(const Keyword& w) const;

  /// Indexes `object` under every keyword it has (k postings, k nodes).
  void insert(ObjectId object, const KeywordSet& keywords);

  /// Removes all of the object's postings. Returns whether any existed.
  bool remove(ObjectId object, const KeywordSet& keywords);

  /// Conjunctive query: objects containing every keyword of `query`.
  /// Contacts one node per query keyword, ships each posting list to the
  /// searcher, intersects there (the classic DII query plan). Stats count
  /// nodes contacted, messages (query + reply per keyword), and posting
  /// entries shipped (in `rounds`, reused as the transfer-volume proxy).
  index::SearchResult search(const KeywordSet& query,
                             std::size_t threshold = 0) const;

  /// Postings held per node (the Fig. 6 "DII-r" load metric).
  std::vector<std::size_t> loads() const;

  std::size_t object_count() const noexcept { return metadata_.size(); }
  std::uint64_t node_count() const noexcept { return 1ULL << cfg_.r; }

 private:
  Config cfg_;
  /// postings_[node][keyword] = objects containing the keyword.
  std::vector<std::map<Keyword, std::set<ObjectId>>> postings_;
  std::vector<std::size_t> posting_counts_;
  /// Full keyword sets, used to materialize hits (object metadata).
  std::unordered_map<ObjectId, KeywordSet> metadata_;
};

}  // namespace hkws::dii

// The keyword index on a physical hypercube (paper §3.2 construction):
// g is the identity — logical node u's index table lives at peer u — and
// superset search runs as *tree forwarding*: the T_QUERY propagates down
// the spanning binomial tree, where every tree edge is a single physical
// link; termination is detected by a convergecast of DONE messages back up
// the tree. Matching IDs travel directly (e-cube paths) to the searcher.
//
// Compared with the root-coordinated protocol of the DHT deployment
// (OverlayIndex), tree forwarding trades exact threshold bookkeeping for
// parallelism: a credit rides down each branch, so slightly more than
// `threshold` results may be produced; the searcher truncates. The
// ablation bench quantifies the message/latency trade.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/keyword.hpp"
#include "cube/sbt.hpp"
#include "cubenet/hypercup_network.hpp"
#include "index/index_table.hpp"
#include "index/keyword_hash.hpp"
#include "index/search_types.hpp"

namespace hkws::cubenet {

class HyperCupIndex {
 public:
  explicit HyperCupIndex(HyperCupNetwork& net);

  using SearchCallback = std::function<void(const index::SearchResult&)>;
  using OpCallback = std::function<void(int hops)>;

  /// F_h(K).
  cube::CubeId responsible_node(const KeywordSet& keywords) const {
    return hasher_.responsible_node(keywords);
  }

  /// Index the object at F_h(keywords); costs Hamming(publisher, F_h(K))
  /// messages.
  void insert(cube::CubeId publisher, ObjectId object,
              const KeywordSet& keywords, OpCallback done = nullptr);

  /// Remove the index entry; same cost as insert.
  void remove(cube::CubeId publisher, ObjectId object,
              const KeywordSet& keywords, OpCallback done = nullptr);

  /// Exact-set search: one query path + one reply path.
  void pin_search(cube::CubeId searcher, const KeywordSet& keywords,
                  SearchCallback done);

  /// Tree-forwarding superset search (threshold 0 = everything).
  void superset_search(cube::CubeId searcher, const KeywordSet& query,
                       std::size_t threshold, SearchCallback done);

  const index::IndexTable& table_at(cube::CubeId u) const {
    return tables_[static_cast<std::size_t>(u)];
  }
  std::vector<std::size_t> loads() const;
  const cube::Hypercube& cube() const noexcept { return net_.cube(); }
  const index::KeywordHasher& hasher() const noexcept { return hasher_; }

 private:
  struct Request {
    std::uint64_t id = 0;
    KeywordSet query;
    std::size_t threshold = 0;
    cube::CubeId searcher = 0;
    cube::CubeId root = 0;
    std::vector<index::Hit> hits;
    index::SearchStats stats;
    std::size_t results_expected = 0;
    std::size_t results_received = 0;
    bool done_received = false;
    /// Convergecast: children still owed a DONE, per tree node.
    std::unordered_map<cube::CubeId, std::size_t> outstanding;
    SearchCallback done;
  };

  Request* find(std::uint64_t id);
  /// Handles S_QUERY arrival at tree node `w` with `credit` results wanted.
  void at_node(std::uint64_t req_id, cube::CubeId w, std::size_t credit);
  /// Handles a DONE from a child of `w` (or w's own completion).
  void node_finished(std::uint64_t req_id, cube::CubeId w);
  void maybe_complete(std::uint64_t req_id);

  HyperCupNetwork& net_;
  index::KeywordHasher hasher_;
  std::vector<index::IndexTable> tables_;
  std::unordered_map<std::uint64_t, std::unique_ptr<Request>> requests_;
  std::uint64_t next_request_ = 1;
};

}  // namespace hkws::cubenet

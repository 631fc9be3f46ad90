#include "cubenet/hypercup_index.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace hkws::cubenet {

namespace {
constexpr std::size_t kUnlimited = std::numeric_limits<std::size_t>::max();
constexpr std::size_t kHitBytes = 48;
constexpr std::size_t kCtrlBytes = 64;
}  // namespace

HyperCupIndex::HyperCupIndex(HyperCupNetwork& net)
    : net_(net), hasher_(net.cube().dimension(), seeds::kKeywordHash) {
  tables_.resize(net.cube().node_count());
}

HyperCupIndex::Request* HyperCupIndex::find(std::uint64_t id) {
  const auto it = requests_.find(id);
  return it == requests_.end() ? nullptr : it->second.get();
}

void HyperCupIndex::insert(cube::CubeId publisher, ObjectId object,
                           const KeywordSet& keywords, OpCallback done) {
  if (keywords.empty())
    throw std::invalid_argument("HyperCupIndex::insert: empty keyword set");
  const cube::CubeId u = hasher_.responsible_node(keywords);
  net_.route(publisher, u, "hc.insert", kCtrlBytes + keywords.size() * 12,
             [this, u, object, keywords, done](int hops) {
               tables_[static_cast<std::size_t>(u)].add(keywords, object);
               if (done) done(hops);
             });
}

void HyperCupIndex::remove(cube::CubeId publisher, ObjectId object,
                           const KeywordSet& keywords, OpCallback done) {
  const cube::CubeId u = hasher_.responsible_node(keywords);
  net_.route(publisher, u, "hc.delete", kCtrlBytes,
             [this, u, object, keywords, done](int hops) {
               tables_[static_cast<std::size_t>(u)].remove(keywords, object);
               if (done) done(hops);
             });
}

void HyperCupIndex::pin_search(cube::CubeId searcher,
                               const KeywordSet& keywords,
                               SearchCallback done) {
  const cube::CubeId u = hasher_.responsible_node(keywords);
  net_.route(
      searcher, u, "hc.pin", kCtrlBytes + keywords.size() * 12,
      [this, u, keywords, searcher, done = std::move(done)](int hops) {
        index::SearchResult result;
        for (ObjectId o : tables_[static_cast<std::size_t>(u)].exact(keywords))
          result.hits.push_back(index::Hit{o, keywords});
        result.stats.nodes_contacted = 1;
        result.stats.messages = static_cast<std::size_t>(hops);
        result.stats.complete = true;
        net_.route(u, searcher, "hc.pin_reply",
                   result.hits.size() * kHitBytes,
                   [done, result](int reply_hops) mutable {
                     result.stats.messages +=
                         static_cast<std::size_t>(reply_hops);
                     done(result);
                   });
      });
}

void HyperCupIndex::superset_search(cube::CubeId searcher,
                                    const KeywordSet& query,
                                    std::size_t threshold,
                                    SearchCallback done) {
  if (query.empty())
    throw std::invalid_argument("HyperCupIndex: empty query");
  const std::uint64_t id = next_request_++;
  auto req = std::make_unique<Request>();
  req->id = id;
  req->query = query;
  req->threshold = threshold;
  req->searcher = searcher;
  req->root = hasher_.responsible_node(query);
  req->done = std::move(done);
  requests_[id] = std::move(req);

  net_.route(searcher, requests_[id]->root, "hc.s_query",
             kCtrlBytes + query.size() * 12, [this, id](int hops) {
               Request* r = find(id);
               if (!r) return;
               r->stats.messages += static_cast<std::size_t>(hops);
               at_node(id, r->root,
                       r->threshold == 0 ? kUnlimited : r->threshold);
             });
}

void HyperCupIndex::at_node(std::uint64_t req_id, cube::CubeId w,
                            std::size_t credit) {
  Request* req = find(req_id);
  if (!req) return;
  ++req->stats.nodes_contacted;
  const int depth = cube::Hypercube::hamming(w, req->root);
  req->stats.levels =
      std::max(req->stats.levels, static_cast<std::size_t>(depth) + 1);

  // Scan the local table, up to the branch credit.
  auto batch = tables_[static_cast<std::size_t>(w)].supersets(
      req->query, credit == kUnlimited ? 0 : credit);
  if (!batch.empty()) {
    // Results travel straight to the searcher along an e-cube path.
    ++req->results_expected;
    req->stats.messages +=
        static_cast<std::size_t>(net_.path_length(w, req->searcher));
    net_.route(w, req->searcher, "hc.results", batch.size() * kHitBytes,
               [this, req_id, batch](int) {
                 Request* r = find(req_id);
                 if (!r) return;
                 r->hits.insert(r->hits.end(), batch.begin(), batch.end());
                 ++r->results_received;
                 maybe_complete(req_id);
               });
  }
  std::size_t remaining = credit;
  if (credit != kUnlimited)
    remaining = credit > batch.size() ? credit - batch.size() : 0;

  // Forward down the spanning binomial tree; every child is a neighbor.
  const cube::SpanningBinomialTree sbt(net_.cube(), req->root);
  const auto children = sbt.children(w);
  if (children.empty() || remaining == 0) {
    node_finished(req_id, w);
    return;
  }
  req->outstanding[w] = children.size();
  for (cube::CubeId child : children) {
    ++req->stats.messages;
    net_.send_edge(w, child, "hc.s_query", kCtrlBytes,
                   [this, req_id, child, remaining] {
                     at_node(req_id, child, remaining);
                   });
  }
}

void HyperCupIndex::node_finished(std::uint64_t req_id, cube::CubeId w) {
  Request* req = find(req_id);
  if (!req) return;
  if (w == req->root) {
    // Convergecast reached the root: tell the searcher how it went.
    req->stats.complete = req->threshold == 0;
    req->stats.messages +=
        static_cast<std::size_t>(net_.path_length(req->root, req->searcher));
    net_.route(req->root, req->searcher, "hc.done", kCtrlBytes,
               [this, req_id](int) {
                 Request* r = find(req_id);
                 if (!r) return;
                 r->done_received = true;
                 maybe_complete(req_id);
               });
    return;
  }
  // One DONE message up the tree edge to the parent.
  const cube::SpanningBinomialTree sbt(net_.cube(), req->root);
  const cube::CubeId parent = *sbt.parent(w);
  ++req->stats.messages;
  net_.send_edge(w, parent, "hc.s_done", kCtrlBytes,
                 [this, req_id, parent] {
                   Request* r = find(req_id);
                   if (!r) return;
                   auto it = r->outstanding.find(parent);
                   if (it == r->outstanding.end()) return;
                   if (--it->second == 0) {
                     r->outstanding.erase(it);
                     node_finished(req_id, parent);
                   }
                 });
}

void HyperCupIndex::maybe_complete(std::uint64_t req_id) {
  Request* req = find(req_id);
  if (!req) return;
  if (!req->done_received || req->results_received != req->results_expected)
    return;
  index::SearchResult result;
  result.hits = std::move(req->hits);
  // Credits may overshoot the threshold across branches; truncate.
  if (req->threshold != 0 && result.hits.size() > req->threshold)
    result.hits.resize(req->threshold);
  result.stats = req->stats;
  SearchCallback cb = std::move(req->done);
  requests_.erase(req_id);
  if (cb) cb(result);
}

std::vector<std::size_t> HyperCupIndex::loads() const {
  std::vector<std::size_t> out(tables_.size());
  for (std::size_t i = 0; i < tables_.size(); ++i)
    out[i] = tables_[i].object_count();
  return out;
}

}  // namespace hkws::cubenet
